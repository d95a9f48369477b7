"""The benchmark's output checks accept the program's output and reject corruptions.

    python3 -m pytest perfbench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import kirkman  # noqa: E402
import kirkman.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

CANONICAL = (12, 10, 4, 11)


@pytest.fixture(scope="module")
def design():
    return kirkman.expand_seeds(tuple(kirkman.q_label(q) for q in CANONICAL))


@pytest.fixture(scope="module")
def resolution(design):
    return kirkman.resolve(design)


@pytest.fixture(scope="module")
def plain(design):
    blocks = workloads._blocks(design)
    return blocks, workloads._labels(design), [design.kinds[b].value for b in design.blocks]


@pytest.fixture(scope="module")
def week(resolution):
    return list(workloads._days(resolution).values())


# --- independent arithmetic -------------------------------------------------

PAULI = {
    0: np.eye(2),
    1: np.array([[1, 0], [0, -1]]),
    2: np.array([[0, -1j], [1j, 0]]),
    3: np.array([[0, 1], [1, 0]]),
}


def test_symplectic_commutation_matches_matrix_products():
    def matrix(word):
        return np.kron(PAULI[word >> 2], PAULI[word & 3])

    for a in range(1, 16):
        for b in range(1, 16):
            ma, mb = matrix(a), matrix(b)
            assert checks.commutes(a, b) == np.allclose(ma @ mb, mb @ ma), (a, b)


def test_tuple_enumeration_is_the_closed_form_census():
    tuples = [inputs.unpack(word) for word in inputs.independent_tuples()]
    assert len(tuples) == len(set(tuples)) == inputs.GL4_ORDER == 20160
    for t in tuples:
        span = {0}
        for word in t:
            span |= {x ^ word for x in span}
        assert len(span) == 16, t


def test_seeded_scales_keep_notes_apart():
    scales = inputs.resolvable_scales()
    assert (inputs.DEFAULT_PRIMES, inputs.DEFAULT_TONIC) not in scales
    for primes, tonic in scales:
        ratios = inputs.cps_ratios(primes)
        assert min(b - a for a, b in zip(ratios, ratios[1:])) * tonic / inputs.bin_hz() >= inputs.MIN_NOTE_GAP_BINS


def test_wav_length_is_exact():
    assert checks.expected_frames(35, inputs.HOP, inputs.SIGMA, inputs.RATE) == 1266552


# --- census -----------------------------------------------------------------

def test_design_check_accepts_the_program_output(plain):
    blocks, label_of, kinds = plain
    assert label_of == checks.expand(CANONICAL)
    checks.check_design(blocks, label_of, kinds)


def test_design_check_rejects_a_swapped_block(plain):
    blocks, label_of, kinds = plain
    swapped = [blocks[0]] + blocks[:1] + blocks[2:]
    with pytest.raises(CheckError, match="pair"):
        checks.check_design(swapped, label_of, kinds)


def test_design_check_rejects_swapped_kinds(plain):
    blocks, label_of, kinds = plain
    i, j = kinds.index("commuting"), kinds.index("cyclic")
    swapped = list(kinds)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    with pytest.raises(CheckError, match="symplectic"):
        checks.check_design(blocks, label_of, swapped)


# --- week -------------------------------------------------------------------

def test_week_check_accepts_the_program_output(plain, week):
    checks.check_week(week, plain[0])


def test_week_check_rejects_a_reused_block(plain, week):
    reused = [list(day) for day in week]
    reused[6][0] = reused[0][0]
    with pytest.raises(CheckError):
        checks.check_week(reused, plain[0])


def test_week_check_rejects_a_day_repeated_whole(plain, week):
    # every day still partitions the points, but five blocks are used twice
    repeated = [week[0]] + week[:1] + week[2:]
    with pytest.raises(CheckError, match="two days"):
        checks.check_week(repeated, plain[0])


def test_spread_check_rejects_a_missing_spread(design, plain):
    spreads = [[tuple(p.value for p in b.points) for b in s] for s in kirkman.enumerate_spreads(design)]
    checks.check_spreads(spreads, plain[0])
    with pytest.raises(CheckError, match="55"):
        checks.check_spreads(spreads[1:], plain[0])
    with pytest.raises(CheckError, match="55"):
        checks.check_spreads(spreads[1:] + spreads[1:2], plain[0])


def test_tiling_check_rejects_a_day_with_a_repeated_fill(design, resolution):
    svg = kirkman.render_tiling(design, resolution)
    checks.check_tiling_svg(svg)
    fills = re.findall(r'class="tile"[^>]*fill="(#[0-9a-f]{6})"', svg)
    second = svg.index(f'fill="{fills[1]}"')
    repeated = svg[:second] + f'fill="{fills[0]}"' + svg[second + len(f'fill="{fills[1]}"') :]
    with pytest.raises(CheckError, match="14 distinct fills"):
        checks.check_tiling_svg(repeated)
    with pytest.raises(CheckError, match="parse"):
        checks.check_tiling_svg(svg[:-10])


def test_diagram_check_counts_dots(design):
    for layout in ("tetrahedron", "cube"):
        checks.check_diagram_svg(kirkman.render_diagram(design, layout), layout)
    with pytest.raises(CheckError):
        checks.check_diagram_svg(kirkman.render_diagram(design, "tetrahedron"), "cube")


def test_document_check_rejects_a_reused_block(tmp_path, design, resolution):
    path = tmp_path / "week.json"
    kirkman.save_document(path, design, resolution)
    doc = json.loads(path.read_text(encoding="utf-8"))
    checks.check_document(doc, CANONICAL)
    doc["days"][0]["blocks"][1] = doc["days"][1]["blocks"][1]
    with pytest.raises(CheckError):
        checks.check_document(doc, CANONICAL)


# --- audio ------------------------------------------------------------------

@pytest.fixture(scope="module")
def rendered(design, resolution):
    chords = kirkman.chord_sequence(design, resolution)
    return chords, kirkman.synthesize(chords, kirkman.build_cps_scale())


def test_wav_check_rejects_a_file_one_frame_short(tmp_path, rendered):
    frames = checks.expected_frames(35, inputs.HOP, inputs.SIGMA, inputs.RATE)
    kirkman.write_wav(tmp_path / "full.wav", rendered[1])
    assert len(checks.read_wav(tmp_path / "full.wav", frames, inputs.RATE)) == frames
    kirkman.write_wav(tmp_path / "short.wav", rendered[1][:-1])
    with pytest.raises(CheckError, match="frames"):
        checks.read_wav(tmp_path / "short.wav", frames, inputs.RATE)


def test_spot_samples_reject_a_changed_sample(tmp_path, rendered):
    chords, buffer = rendered
    frames = checks.expected_frames(35, inputs.HOP, inputs.SIGMA, inputs.RATE)
    kirkman.write_wav(tmp_path / "week.wav", buffer)
    samples = checks.read_wav(tmp_path / "week.wav", frames, inputs.RATE).copy()
    ratios = inputs.cps_ratios(inputs.DEFAULT_PRIMES)
    freqs = [tuple(inputs.DEFAULT_TONIC * float(ratios[workloads._rank(n)]) for n in chord) for chord in chords]
    hop, sigma = float(inputs.HOP), float(inputs.SIGMA)
    checks.check_spot_samples(samples, freqs, hop, sigma, inputs.RATE)
    samples[round(3 * sigma * inputs.RATE)] += 3
    with pytest.raises(CheckError, match="steps off"):
        checks.check_spot_samples(samples, freqs, hop, sigma, inputs.RATE)


# --- tracing ----------------------------------------------------------------

def test_tracer_rebinds_from_imports_and_splits_self_time(design):
    original = kirkman.designs.expand_seeds
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kirkman.cli.expand_seeds is kirkman.serialize.expand_seeds is kirkman.expand_seeds
        assert kirkman.cli.expand_seeds is not original
        assert kirkman.audio.display_order is kirkman.designs.display_order
        tracer.take()
        kirkman.expand_seeds(design.seeds)
        record = tracer.take()
    finally:
        tracer.uninstall()
    assert kirkman.cli.expand_seeds is original
    assert record["calls"] == {"designs.expand_seeds": 1, "pauli.commutes": 105}
    assert all(ns >= 0 for ns in record["self_ns"].values())
