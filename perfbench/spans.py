"""Per-layer spans around the public functions of ``kirkman``'s modules.

``Tracer.install`` rebinds every binding of each traced function in the
loaded ``kirkman`` modules, from-imports included (``cli.resolve``,
``serialize.expand_seeds``, ``audio.display_order`` ...), to a wrapper that
records a span.  A span's self time is its duration minus the durations of
the traced spans it encloses.  Spans are folded into per-name call counts
and self times as they close; the caller takes one record per operation
and keeps the records in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# module -> traced public functions; these are the layers the README lists
TRACED = {
    "pauli": ("commutes", "product", "dictionary"),
    "designs": ("expand_seeds", "display_order"),
    "oracle": ("verify_design", "verify_algebra"),
    "resolver": ("match_days", "resolve", "validate_resolution", "enumerate_spreads"),
    "serialize": ("save_document", "load_document"),
    "colors": ("render_tiling", "render_diagram"),
    "audio": ("chord_sequence", "synthesize", "spectral_report", "write_wav"),
}


def _file_size(args, result):
    return os.path.getsize(args[0])


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


# work counted at a traced call: traced name -> (counter, f(args, result))
COUNTERS = {
    "serialize.save_document": ("serialize.bytes_written", _file_size),
    "colors.render_tiling": ("colors.svg_bytes", _text_bytes),
    "colors.render_diagram": ("colors.svg_bytes", _text_bytes),
    "audio.synthesize": ("audio.samples", lambda args, result: len(result)),
    "audio.write_wav": ("audio.wav_bytes", _file_size),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        stack, calls, self_ns, counts = self._stack, self.calls, self.self_ns, self.counts
        counter, measure = COUNTERS.get(name, (None, None))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_ns[name] += end - start - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += end - start
            if counter is not None:
                counts[counter] += measure(args, result)
                if stack:
                    # counting is tracer work: keep it out of the caller's self time
                    stack[-1] += clock() - end
            return result

        return traced

    def install(self):
        """Wrap the traced functions wherever a loaded kirkman module binds them."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"kirkman.{module_name}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        for key, module in list(sys.modules.items()):
            if key != "kirkman" and not key.startswith("kirkman."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def take(self):
        """The spans folded since the last take, as a plain record."""
        record = {"calls": dict(self.calls), "self_ns": dict(self.self_ns), "counts": dict(self.counts)}
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()
        return record

    def merge(self, record):
        """Add a record taken in another process."""
        self.calls.update(record["calls"])
        self.self_ns.update(record["self_ns"])
        self.counts.update(record["counts"])
