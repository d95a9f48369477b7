"""The four workloads, the timed loop and the metrics.

Each workload hands out rounds of inputs.  ``prepare`` builds what an
operation needs outside the clock, ``run`` is the timed calls into
``kirkman``'s public API, and ``check`` compares the outputs with the
benchmark's own computations.  A run attempts whole rounds until its time
is up, so an input that fails on every run is the same share of every
run's operations.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_DIR = os.path.join(HERE, ".out", "traces")

# op_ms is this quantile of the per-operation times of a run.  On a shared
# 2-core machine the same code ran up to 1.8x slower for stretches of 0.5 to
# 3 s; the fastest twentieth of operations repeated best (see README).
LOW_QUANTILE = 0.05

# setup_s is the fastest of this many cold set-ups per untraced run: the
# worker's own and set-up-only interpreters started at even steps through
# the run.  One 0.2 s set-up lands in a fast or a slow stretch of the
# machine; the fastest of ten spread over the run repeated far better.
SETUP_SAMPLES = 10

HOP, SIGMA, RATE = float(inputs.HOP), float(inputs.SIGMA), inputs.RATE
WAV_FRAMES = checks.expected_frames(35, inputs.HOP, inputs.SIGMA, RATE)


def _blocks(design):
    return [tuple(p.value for p in block.points) for block in design.blocks]


def _labels(design):
    return {p.value: label.value for p, label in design.assignment.items()}


def _days(resolution):
    return {day.value: [tuple(p.value for p in b.points) for b in cls] for day, cls in resolution.classes.items()}


def _check_design(design, seeds):
    checks.require(tuple(s.value for s in design.seeds) == seeds, "design seeds differ from the input")
    checks.require(_labels(design) == checks.expand(seeds), "assignment is not the seed expansion")
    checks.check_design(_blocks(design), _labels(design), [design.kinds[b].value for b in design.blocks])


class Workload:
    tracer = None

    def timed(self, out):
        """Called with the output of every timed operation."""

    def op_ms(self, times, q=None):
        return low_quantile(times, q) * 1e3

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_reload(design, loaded):
    checks.check_same("seeds", design.seeds, loaded.seeds)
    checks.check_same("assignment", _labels(design), _labels(loaded))
    checks.check_same("blocks", _blocks(design), _blocks(loaded))


class Census(Workload):
    """All 20160 seed tuples in a seeded order: expand_seeds + verify_design."""

    round_size = 32
    warmup_input = (12, 10, 4, 11)

    def __init__(self, kirkman, rng, workdir):
        self.k = kirkman
        tuples = inputs.independent_tuples()
        checks.require(len(tuples) == inputs.GL4_ORDER, f"{len(tuples)} independent tuples, expected |GL(4,2)|")
        census = kirkman.count_valid_seeds(4)
        checks.require(census == inputs.GL4_ORDER, f"count_valid_seeds(4) = {census}, expected |GL(4,2)|")
        rng.shuffle(tuples)
        self.order = tuples
        self.next = 0

    def round(self):
        batch = [inputs.unpack(self.order[(self.next + i) % len(self.order)]) for i in range(self.round_size)]
        self.next += self.round_size
        return batch

    def prepare(self, seeds):
        return tuple(self.k.q_label(q) for q in seeds)

    def run(self, labels):
        design = self.k.expand_seeds(labels)
        return design, self.k.verify_design(design)

    def check(self, seeds, labels, out):
        design, report = out
        _check_design(design, seeds)
        checks.require(report.passed, "verify_design did not pass")
        return False


class Week(Workload):
    """Seeded tuples through the document pipeline, resolver and renderers."""

    round_size = 4
    warmup_input = (12, 10, 4, 11)

    def __init__(self, kirkman, rng, workdir):
        self.k = kirkman
        self.rng = rng
        self.tuples = inputs.independent_tuples()
        self.design_path = os.path.join(workdir, "design.json")
        self.week_path = os.path.join(workdir, "week.json")

    def round(self):
        return [inputs.unpack(self.rng.choice(self.tuples)) for _ in range(self.round_size)]

    def prepare(self, seeds):
        return tuple(self.k.q_label(q) for q in seeds)

    def run(self, labels):
        k = self.k
        design = k.expand_seeds(labels)
        k.save_document(self.design_path, design)
        loaded, unresolved = k.load_document(self.design_path)
        resolution = k.resolve(loaded)
        report = k.validate_resolution(loaded, resolution)
        k.save_document(self.week_path, loaded, resolution)
        reloaded, reloaded_resolution = k.load_document(self.week_path)
        spreads = k.enumerate_spreads(reloaded)
        tiling = k.render_tiling(reloaded, reloaded_resolution)
        tetrahedron = k.render_diagram(reloaded, "tetrahedron")
        cube = k.render_diagram(reloaded, "cube")
        return locals()

    def check(self, seeds, labels, out):
        design = out["design"]
        _check_design(design, seeds)
        _check_reload(design, out["loaded"])
        checks.require(out["unresolved"] is None, "an unresolved document reloads with a week")
        blocks = _blocks(design)
        days = _days(out["resolution"])
        checks.check_week(list(days.values()), blocks)
        checks.require(out["report"].passed, "validate_resolution did not pass")
        _check_reload(design, out["reloaded"])
        checks.check_same("week", days, _days(out["reloaded_resolution"]))
        checks.check_spreads([[tuple(p.value for p in b.points) for b in s] for s in out["spreads"]], blocks)
        checks.check_tiling_svg(out["tiling"])
        checks.check_diagram_svg(out["tetrahedron"], "tetrahedron")
        checks.check_diagram_svg(out["cube"], "cube")
        return False


class Audio(Workload):
    """Rounds of one fixed faulty render plus seven seeded (tuple, scale) renders."""

    seeded_per_round = 7
    round_size = 1 + seeded_per_round
    fault_input = (inputs.FAULT_TUPLE, inputs.DEFAULT_PRIMES, inputs.DEFAULT_TONIC)
    warmup_input = fault_input

    def __init__(self, kirkman, rng, workdir):
        self.k = kirkman
        self.rng = rng
        self.tuples = inputs.independent_tuples()
        self.scales = inputs.resolvable_scales()
        self.wav_path = os.path.join(workdir, "week.wav")

    def round(self):
        seeded = [
            (inputs.unpack(self.rng.choice(self.tuples)), *self.rng.choice(self.scales))
            for _ in range(self.seeded_per_round)
        ]
        return [self.fault_input] + seeded

    def prepare(self, config):
        seeds, primes, tonic = config
        design = self.k.expand_seeds(tuple(self.k.q_label(q) for q in seeds))
        return design, self.k.resolve(design), self.k.build_cps_scale(primes, tonic)

    def run(self, prepared):
        design, resolution, scale = prepared
        k = self.k
        chords = k.chord_sequence(design, resolution)
        buffer = k.synthesize(chords, scale)
        report = k.spectral_report(buffer, chords, scale)
        k.write_wav(self.wav_path, buffer)
        return chords, report

    def check(self, config, prepared, out):
        seeds, primes, tonic = config
        chords, report = out
        checks.require(len(chords) == 35, f"{len(chords)} chords, expected 35")
        ratios = inputs.cps_ratios(primes)
        freqs = [tuple(tonic * float(ratios[_rank(note)]) for note in chord) for chord in chords]
        samples = checks.read_wav(self.wav_path, WAV_FRAMES, RATE)
        checks.check_spot_samples(samples, freqs, HOP, SIGMA, RATE)
        return not report.passed


def _rank(note):
    """Scale degree: letters A..E ascending, flat < natural < sharp."""
    return "ABCDE".index(note.letter) * 3 + ("flat", "natural", "sharp").index(note.signature)


class Cli(Workload):
    """Seeded sessions of five ``kirkman`` subprocesses, each a cold start.

    A session (about 1.2 s) outlasts many of the machine's slow stretches,
    so op_ms adds up the low quantile of each subcommand's own times.
    """

    round_size = 1
    steps = ("generate", "resolve", "render_tiling", "render_audio", "verify")
    outputs = ("design.json", "week.json", "week.svg", "week.wav")

    def __init__(self, kirkman, rng, workdir):
        self.rng = rng
        self.tuples = inputs.independent_tuples()
        self.workdir = workdir
        # the warm-up session and the first timed one share a tuple, so
        # every run compares a repeated session byte for byte
        self.warmup_input = inputs.unpack(rng.choice(self.tuples))
        self.pending = [self.warmup_input]
        self.digests = {}
        # untraced subprocess wall times per step, for the cli.* layer metrics
        self.step_times = {step: [] for step in self.steps}

    def round(self):
        return [self.pending.pop() if self.pending else inputs.unpack(self.rng.choice(self.tuples))]

    def prepare(self, seeds):
        for name in self.outputs:
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.remove(path)
        return seeds

    def _argv(self, seeds):
        listed = ",".join(f"Q{q}" for q in seeds)
        return {
            "generate": ["generate", "--seeds", listed, "--out", "design.json"],
            "resolve": ["resolve", "design.json", "--out", "week.json"],
            "render_tiling": ["render", "week.json", "--kind", "color-tiling", "--out", "week.svg"],
            "render_audio": ["render", "week.json", "--kind", "audio", "--out", "week.wav"],
            "verify": ["verify", "week.json"],
        }

    def run(self, seeds):
        argv = self._argv(seeds)
        times, results = {}, {}
        for step in self.steps:
            if self.tracer is None:
                command = [sys.executable, "-m", "kirkman.cli"]
            else:
                command = [sys.executable, os.path.join(HERE, "traced_cli.py"), f"spans-{step}.json"]
            start = time.perf_counter()
            proc = subprocess.run(command + argv[step], cwd=self.workdir, capture_output=True, text=True)
            times[step] = time.perf_counter() - start
            results[step] = proc
        if self.tracer is not None:
            for step in self.steps:
                with open(os.path.join(self.workdir, f"spans-{step}.json"), encoding="utf-8") as fh:
                    self.tracer.merge(json.load(fh))
        return times, results

    def timed(self, out):
        if self.tracer is None:
            for step, seconds in out[0].items():
                self.step_times[step].append(seconds)

    def op_ms(self, times, q=None):
        return sum(low_quantile(step, q) for step in self.step_times.values()) * 1e3

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def check(self, seeds, prepared, out):
        times, results = out
        for step, proc in results.items():
            checks.require(proc.returncode == 0, f"kirkman {step} exited {proc.returncode}: {proc.stderr.strip()}")
        checks.require(
            results["verify"].stdout.splitlines()[-1:] == ["verification passed"],
            "kirkman verify did not print 'verification passed'",
        )
        paths = {name: os.path.join(self.workdir, name) for name in self.outputs}
        with open(paths["week.json"], encoding="utf-8") as fh:
            checks.check_document(json.load(fh), seeds)
        with open(paths["week.svg"], encoding="utf-8") as fh:
            checks.check_tiling_svg(fh.read())
        checks.read_wav(paths["week.wav"], WAV_FRAMES, RATE)
        digest = {}
        for name, path in paths.items():
            with open(path, "rb") as fh:
                digest[name] = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(seeds, digest)
        changed = [name for name in self.outputs if first[name] != digest[name]]
        checks.require(not changed, f"a repeated session on {seeds} changed {', '.join(changed)}")
        return False


WORKLOADS = {"census": Census, "week": Week, "audio": Audio, "cli": Cli}

# per-layer metrics printed by a traced run: (name, unit)
LAYER_METRICS = (
    [("import.kirkman_ms", "ms"), ("import.modules", "count")]
    + [(f"pauli.{f}.{m}", u) for f in ("commutes", "product", "dictionary") for m, u in (("calls", "count"), ("self_us", "us"))]
    + [("designs.expand_seeds.self_us", "us"), ("designs.display_order.calls", "count"), ("designs.display_order.self_us", "us")]
    + [(f"oracle.{f}.self_us", "us") for f in ("verify_design", "verify_algebra")]
    + [(f"resolver.{f}.self_us", "us") for f in ("match_days", "resolve", "validate_resolution", "enumerate_spreads")]
    + [(f"serialize.{f}.self_us", "us") for f in ("save_document", "load_document")] + [("serialize.bytes_written", "bytes")]
    + [(f"colors.{f}.self_us", "us") for f in ("render_tiling", "render_diagram")] + [("colors.svg_bytes", "bytes")]
    + [(f"audio.{f}.self_ms", "ms") for f in ("chord_sequence", "synthesize", "spectral_report", "write_wav")]
    + [("audio.samples", "count"), ("audio.wav_bytes", "bytes")]
    + [(f"cli.{step}_ms", "ms") for step in Cli.steps]
    + [("trace.overhead_pct", "%")]
)


def low_quantile(values, q=None):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=round(1 / (q or LOW_QUANTILE)), method="inclusive")[0]


def setup_sample():
    """One cold set-up in a fresh interpreter, timed like the worker's own."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "setup", repr(start)],
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, inp, prepared, out):
        try:
            return self.workload.check(inp, prepared, out)
        except checks.CheckError as exc:
            self.errors.append(f"{inp}: {exc}")
            return False

    def phase(self, seconds, tracer=None, records=None, setups=None):
        """Whole rounds until ``seconds`` have passed; per-operation times.

        With ``setups``, a list, also appends a cold set-up sample between
        rounds at each of SETUP_SAMPLES - 1 even steps through the phase.
        """
        times = []
        start = time.perf_counter()
        due = [] if setups is None else [start + seconds * i / SETUP_SAMPLES for i in range(1, SETUP_SAMPLES)]
        while time.perf_counter() - start < seconds:
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                setups.append(setup_sample())
            for inp in self.workload.round():
                prepared = self.workload.prepare(inp)
                if tracer is not None:
                    tracer.take()
                t0 = time.perf_counter()
                out = self.workload.run(prepared)
                times.append(time.perf_counter() - t0)
                self.workload.timed(out)
                if tracer is not None:
                    records.append(tracer.take())
                self.attempted += 1
                self.failed += bool(self.check(inp, prepared, out))
        for _ in due:
            setups.append(setup_sample())
        return times


def _layer_values(records, import_metrics, step_ms, overhead_pct):
    totals = spans.Tracer()
    for record in records:
        totals.merge(record)
    n = len(records)
    values = dict(import_metrics)
    for name, unit in LAYER_METRICS:
        if name in values:
            continue
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            values[name] = totals.calls[head] / n
        elif tail == "self_us":
            values[name] = totals.self_ns[head] / n / 1e3
        elif tail == "self_ms":
            values[name] = totals.self_ns[head] / n / 1e6
        elif name.startswith("cli."):
            values[name] = step_ms.get(name, 0.0)
        elif name == "trace.overhead_pct":
            values[name] = overhead_pct
        else:
            values[name] = totals.counts[name] / n
    return values


def main(kirkman, name, seed, seconds, trace, workdir, setup_s, import_metrics):
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(kirkman.__file__).startswith(src + os.sep):
        print(f"error: kirkman was imported from {kirkman.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name](kirkman, random.Random(seed), workdir)
    run = Run(workload)
    warm = workload.prepare(workload.warmup_input)
    run.check(workload.warmup_input, warm, workload.run(warm))

    setups = [setup_s]
    if trace:
        untraced = run.phase(seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        workload.tracer = tracer
        records = []
        traced = run.phase(seconds / 2, tracer, records)
        times = untraced
    else:
        times = run.phase(seconds, setups=setups)
        setup_s = min(setups)

    peak_rss_mb = workload.peak_rss_mb()
    op_ms = workload.op_ms(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    print(
        f"{name} seed={seed} trace={int(trace)}: op_ms={op_ms:.4f}; per op over {len(times)} untraced ops: "
        f"median={statistics.median(times) * 1e3:.4f} p90={p90 * 1e3:.4f} ms; "
        f"op_ms at p1/p2/p10: {' '.join(f'{workload.op_ms(times, q):.4f}' for q in (0.01, 0.02, 0.1))}; "
        f"attempted={run.attempted} failed={run.failed} setup_s={setup_s:.4f} (fastest of {len(setups)}, "
        f"worker's own {setups[0]:.4f}) peak_rss_mb={peak_rss_mb:.1f}",
        file=sys.stderr,
    )
    for error in run.errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)

    if trace:
        step_ms = {
            f"cli.{step}_ms": statistics.median(steps) * 1e3 for step, steps in getattr(workload, "step_times", {}).items()
        }
        overhead_pct = (low_quantile(traced) / low_quantile(untraced) - 1) * 100
        metrics = _layer_values(records, import_metrics, step_ms, overhead_pct)
        units = dict(LAYER_METRICS)
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"{name}-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    else:
        metrics = {"setup_s": setup_s, "op_ms": op_ms, "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}
    correct = not run.errors
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1
