"""Release gate: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE NN PASS`` line once its checks
hold, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
All tolerances are stated inline; everything else is exact.
"""

import re
import time
from fractions import Fraction
from itertools import combinations

from kirkman import audio, colors, designs, oracle, pauli, resolver, serialize


def _line(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


# the full 15-point operator dictionary, frozen: bits -> (Q, O, color, note)
DICTIONARY_ROWS = {
    "0001": (11, 16, "R0", "D"),
    "0010": (4, 2, "B1", "B♭"),
    "0011": (15, 13, "B2", "E♯"),
    "0100": (10, 14, "B4", "D♭"),
    "0101": (1, 3, "B3", "A♭"),
    "0110": (14, 15, "B0", "E"),
    "0111": (5, 4, "G0", "B"),
    "1000": (12, 5, "G2", "D♯"),
    "1001": (7, 11, "G4", "C♭"),
    "1010": (8, 6, "R3", "C"),
    "1011": (3, 9, "R2", "A♯"),
    "1100": (6, 12, "R4", "B♯"),
    "1101": (13, 7, "R1", "E♭"),
    "1110": (2, 10, "G1", "A"),
    "1111": (9, 8, "G3", "C♯"),
}


def _pair_coverage(design):
    seen = {}
    for block in design.blocks:
        for a, b in combinations(sorted(p.value for p in block.points), 2):
            seen[(a, b)] = seen.get((a, b), 0) + 1
    return seen


def test_01_commutator_table_matches_fixture():
    start = time.perf_counter()
    generated = pauli.commutator_table()
    fixture = pauli.fixture_commutator_table()
    elapsed = time.perf_counter() - start
    assert len(generated) == 225
    assert generated == fixture
    assert generated[(2, 5)].text == "iO6"
    assert generated[(4, 7)].text == "i/4O6"
    assert generated[(13, 14)].text == "0"
    assert elapsed < 1.0
    _line(1, f"all 225 commutator cells match the fixture exactly ({elapsed:.3f}s)")


def test_02_seven_zeros_in_every_row():
    table = pauli.commutator_table()
    counts = [
        sum(1 for j in pauli.O_INDICES if table[(i, j)].is_zero)
        for i in pauli.O_INDICES
    ]
    assert counts == [7] * 15
    _line(2, "every commutator row has exactly 7 zero cells")


def test_03_seven_point_design_shape(fano_design):
    start = time.perf_counter()
    design = designs.expand_seeds(tuple(pauli.q_label(q) for q in (10, 4, 11)))
    elapsed = time.perf_counter() - start
    assert design.blocks == fano_design.blocks
    assert len(design.blocks) == 7
    coverage = _pair_coverage(design)
    assert len(coverage) == 21 and set(coverage.values()) == {1}
    replication = [
        sum(1 for b in design.blocks if p in b.points) for p in design.assignment
    ]
    assert replication == [3] * 7
    kinds = [designs.classify_block(design, b) for b in design.blocks]
    assert kinds.count(designs.BlockKind.COMMUTING) == 3
    assert kinds.count(designs.BlockKind.CYCLIC) == 4
    assert elapsed < 1.0
    _line(3, f"7-point design: 7 blocks, 21 pairs once, r=3, 3+4 kinds ({elapsed:.3f}s)")


def test_04_fifteen_point_design_shape():
    start = time.perf_counter()
    design = designs.expand_seeds(tuple(pauli.q_label(q) for q in (12, 10, 4, 11)))
    elapsed = time.perf_counter() - start
    assert len(design.blocks) == 35
    coverage = _pair_coverage(design)
    assert len(coverage) == 105 and set(coverage.values()) == {1}
    replication = [
        sum(1 for b in design.blocks if p in b.points) for p in design.assignment
    ]
    assert replication == [7] * 15
    kinds = [designs.classify_block(design, b) for b in design.blocks]
    assert kinds.count(designs.BlockKind.COMMUTING) == 15
    assert kinds.count(designs.BlockKind.CYCLIC) == 20
    assert elapsed < 1.0
    _line(4, f"15-point design: 35 blocks, 105 pairs once, r=7, 15+20 kinds ({elapsed:.3f}s)")


def test_05_operator_dictionary_rows(canonical_design):
    for bits, (q, o, color, note) in DICTIONARY_ROWS.items():
        label = canonical_design.assignment[designs.Point.from_bits(bits)]
        entry = pauli.dictionary(label)
        assert label.q_index == q
        assert entry.o_index == o
        assert colors.color_of(label).text == color
        assert audio.note_of(label).text == note
    _line(5, "all 15 dictionary rows (Q, O, color, note) reproduced exactly")


def test_06_reference_week_decodes_to_a_valid_resolution(canonical_design):
    res = resolver.reference_resolution(canonical_design)
    report = resolver.validate_resolution(canonical_design, res)
    assert report.passed, report.text()
    all_blocks = [b for day in resolver.all_days() for b in res.classes[day].blocks]
    assert len(all_blocks) == 35 and len(set(all_blocks)) == 35
    for day in resolver.all_days():
        covered = {p for b in res.classes[day].blocks for p in b.points}
        assert len(covered) == 15
    plane_days = [
        day
        for day in resolver.all_days()
        for b in res.classes[day].blocks
        if all(p.value < 8 for p in b.points)
    ]
    assert len(plane_days) == 7 and len(set(plane_days)) == 7
    for day in resolver.all_days():
        day_point = designs.Point(int(day.bits, 2), 4)
        lead = res.classes[day].blocks[0]
        assert lead == res.matching[day]
        assert day_point in lead.points
    _line(6, "bundled week grid decodes to a valid resolution with day-point incidence")


def test_07_resolver_is_fast_and_deterministic(canonical_design):
    start = time.perf_counter()
    first = resolver.resolve(canonical_design)
    elapsed = time.perf_counter() - start
    second = resolver.resolve(canonical_design)
    blob_a = serialize.to_json(serialize.design_to_doc(canonical_design, first))
    blob_b = serialize.to_json(serialize.design_to_doc(canonical_design, second))
    assert resolver.validate_resolution(canonical_design, first).passed
    assert blob_a == blob_b
    assert elapsed < 1.0
    _line(7, f"resolve() valid, byte-identical across runs ({elapsed:.3f}s)")


def test_08_seed_census_and_full_sweep():
    assert oracle.count_valid_seeds(1) == 15
    assert oracle.count_valid_seeds(3) == 168
    assert oracle.count_valid_seeds(4) == 20160
    start = time.perf_counter()
    count, failures = oracle.sweep_seed_designs(4)
    elapsed = time.perf_counter() - start
    assert (count, failures) == (20160, [])
    assert elapsed < 10.0
    _line(8, f"seed census 15/168/20160; 20160-design sweep clean ({elapsed:.1f}s)")


def test_09_spread_census(canonical_design):
    start = time.perf_counter()
    spreads = resolver.enumerate_spreads(canonical_design)
    elapsed = time.perf_counter() - start
    assert len(spreads) == 56
    assert len(set(spreads)) == 56
    assert elapsed < 10.0
    _line(9, f"56 parallel classes enumerated exhaustively ({elapsed:.2f}s)")


def test_10_scale_ratios():
    scale = audio.build_cps_scale()
    ratios = scale.ratios
    assert len(ratios) == 15 and len(set(ratios)) == 15
    assert all(isinstance(r, Fraction) for r in ratios)
    assert all(Fraction(1) <= r < Fraction(2) for r in ratios)
    assert Fraction(33, 32) in ratios
    assert Fraction(15, 8) in ratios
    _line(10, "two-of-six product scale: 15 distinct exact ratios in [1,2)")


def test_11_audio_rendering_and_spectra(canonical_design, lex_resolution):
    window = audio.WindowParams()
    rate = 44100
    scale = audio.build_cps_scale()
    chords = audio.chord_sequence(canonical_design, lex_resolution)
    assert len(chords) == 35
    start = time.perf_counter()
    buffer = audio.synthesize(chords, scale, window, rate)
    report = audio.spectral_report(buffer, chords, scale, window, rate)
    elapsed = time.perf_counter() - start
    closed_form = audio.buffer_length(35, window, rate)
    assert len(buffer) == closed_form
    assert abs(len(buffer) - (35 * window.hop + 6.0 * window.sigma) * rate) <= 1
    assert len(report.slots) == 35
    assert report.passed, report.text()
    for slot in report.slots:
        assert all(
            abs(peak - expected) <= 1.0
            for peak, expected in zip(slot.peak_bins, slot.expected_bins)
        )
    peak = float(max(abs(buffer.min()), abs(buffer.max())))
    assert peak <= 0.9 + 1e-12
    assert elapsed < 5.0
    _line(11, f"35 slots, 35/35 spectra within ±1 bin, peak {peak:.3f} <= 0.9 ({elapsed:.2f}s)")


def test_12_seven_chord_sequence_nests_in_the_week(canonical_design, fano_design, lex_resolution):
    week = audio.chord_sequence(canonical_design, lex_resolution)
    seven = audio.chord_sequence(fano_design, matching=resolver.match_days(fano_design))
    assert len(seven) == 7
    assert tuple(week[5 * k] for k in range(7)) == tuple(seven)
    _line(12, "7-chord sequence equals the plane-block chords of the week, one per day")


def test_13_color_tilings(canonical_design, fano_design):
    fano_svg = colors.render_tiling(fano_design)
    assert fano_svg.count('class="tile"') == 21

    res = resolver.reference_resolution(canonical_design)
    week_svg = colors.render_tiling(canonical_design, res)
    assert week_svg == colors.render_tiling(canonical_design, res)
    tiles = re.findall(r'<rect class="tile" x="([0-9.]+)" y="([0-9.]+)"', week_svg)
    assert len(tiles) == 105
    rows = {}
    for _, y in tiles:
        rows[y] = rows.get(y, 0) + 1
    assert len(rows) == 35 and set(rows.values()) == {3}
    day_names = [d.name for d in resolver.DAY_DISPLAY_ORDER]
    assert [n for n in day_names if f">{n} " in week_svg] == day_names

    judged = {}
    for day in resolver.DAY_DISPLAY_ORDER:
        judged[day.name] = [
            colors.row_color_class(
                tuple(colors.color_of(canonical_design.assignment[p]).text for p in blk.points)
            )
            for blk in res.classes[day].blocks
        ]
    assert judged["SUN"] == ["colorless"] * 5
    for name in ("MON", "TU", "WED", "TH", "FRI", "SAT"):
        assert judged[name] == ["B", "R", "G", "colorless", "colorless"]
    _line(13, "tilings: 21 and 105 tiles, 7x5x3 grouping, byte-stable, week color rows hold")
