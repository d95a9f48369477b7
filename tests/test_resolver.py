"""Day matching, deterministic resolution, spreads, the reference week."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from kirkman import designs, oracle, pauli, resolver, serialize
from kirkman.errors import ResolutionError

# least block per day point under lexicographic backtracking
LEX_MATCHING = {
    "001": ("0001", "0010", "0011"),
    "010": ("0010", "0100", "0110"),
    "011": ("0011", "0100", "0111"),
    "100": ("0001", "0100", "0101"),
    "101": ("0010", "0101", "0111"),
    "110": ("0011", "0101", "0110"),
    "111": ("0001", "0110", "0111"),
}

# day-to-line matching decoded from the bundled reference week
REFERENCE_MATCHING = {
    "001": ("0001", "0010", "0011"),
    "010": ("0010", "0101", "0111"),
    "011": ("0011", "0101", "0110"),
    "100": ("0011", "0100", "0111"),
    "101": ("0001", "0100", "0101"),
    "110": ("0010", "0100", "0110"),
    "111": ("0001", "0110", "0111"),
}


# sha256 of the block coordinates of resolve(design, matching) for the 24
# incidence-respecting matchings of the canonical design, in the order of
# incidence_matchings(); recorded from the backtracking resolver that
# preceded the exact-cover search
PINNED_WEEKS_SHA256 = "0075ceaae1d336b319af0125533e773c96b4efa08869e969074a1caf37d836ac"

# sha256 of the 56 spreads of the canonical design, in enumeration order
PINNED_SPREADS_SHA256 = "eb0ed728aed2ce71317224b32556d8e902e668dcba8220d9e78926a876b6195d"


INDEPENDENT_4_TUPLES = tuple(oracle.independent_tuples(4))


def block_bits(block):
    return tuple(p.bits for p in block.points)


def block_text(block):
    return "-".join(block_bits(block))


def week_text(resolution):
    return "\n".join(
        f"{day.bits}: " + " ".join(block_text(b) for b in resolution.classes[day])
        for day in resolver.all_days()
    )


def spreads_text(spreads):
    return "\n".join(" ".join(block_text(b) for b in spread) for spread in spreads)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def incidence_matchings(design):
    """Every day-to-plane-block bijection that respects day-point incidence."""
    days = resolver.all_days()
    lines = [b for b in design.blocks if all(p.in_plane for p in b.points)]
    candidates = [[l for l in lines if designs.Point(d.value, 4) in l] for d in days]
    return [
        dict(zip(days, choice))
        for choice in itertools.product(*candidates)
        if len(set(choice)) == len(days)
    ]


class TestDayLabel:
    def test_round_trips(self):
        day = resolver.DayLabel.from_name("WED")
        assert day == resolver.DayLabel.from_bits("011")
        assert (day.value, day.name, day.bits) == (3, "WED", "011")
        assert str(resolver.DayLabel(7)) == "SUN(111)"

    def test_rejects_bad_labels(self):
        with pytest.raises(ResolutionError):
            resolver.DayLabel(0)
        with pytest.raises(ResolutionError):
            resolver.DayLabel.from_name("XYZ")
        for bits in (None, 3, "SUN", "000", "11", "0111", "0b1", " 11", "1_1"):
            with pytest.raises(ResolutionError):
                resolver.DayLabel.from_bits(bits)

    def test_display_order_starts_on_sunday(self):
        names = [d.name for d in resolver.DAY_DISPLAY_ORDER]
        assert names == ["SUN", "MON", "TU", "WED", "TH", "FRI", "SAT"]


class TestMatching:
    def test_lex_matching_fixture(self, canonical_design):
        matching = resolver.match_days(canonical_design)
        got = {day.bits: block_bits(blk) for day, blk in matching.items()}
        assert got == LEX_MATCHING

    def test_fano_matching_tracks_the_parent(self, fano_design):
        matching = resolver.match_days(fano_design)
        got = {day.bits: block_bits(blk) for day, blk in matching.items()}
        want = {d: tuple(b[1:] for b in blocks) for d, blocks in LEX_MATCHING.items()}
        assert got == want

    def test_matching_blocks_contain_their_day_points(self, canonical_design):
        for day, blk in resolver.match_days(canonical_design).items():
            assert designs.Point(day.value, 4) in blk


class TestResolve:
    def test_resolution_is_valid(self, canonical_design, lex_resolution):
        report = resolver.validate_resolution(canonical_design, lex_resolution)
        assert report.passed, report.text()

    def test_classes_lead_with_their_matched_line(self, canonical_design, lex_resolution):
        for day in resolver.all_days():
            blocks = lex_resolution.classes[day].blocks
            assert blocks[0] == lex_resolution.matching[day]

    def test_deterministic_bytes(self, canonical_design, lex_resolution):
        again = resolver.resolve(canonical_design)
        a = serialize.to_json(serialize.design_to_doc(canonical_design, lex_resolution))
        b = serialize.to_json(serialize.design_to_doc(canonical_design, again))
        assert a == b

    def test_reference_matching_resolves(self, canonical_design):
        matching = resolver.reference_matching(canonical_design)
        res = resolver.resolve(canonical_design, matching=matching)
        assert resolver.validate_resolution(canonical_design, res).passed
        for day in resolver.all_days():
            assert res.matching[day] == matching[day]

    def test_small_design_is_rejected(self, fano_design):
        with pytest.raises(ResolutionError) as err:
            resolver.resolve(fano_design)
        assert "m=4" in str(err.value)

    def test_every_matching_resolves_as_pinned(self, canonical_design):
        matchings = incidence_matchings(canonical_design)
        assert len(matchings) == 24
        weeks = []
        for matching in matchings:
            res = resolver.resolve(canonical_design, matching=matching)
            report = resolver.validate_resolution(canonical_design, res)
            assert report.passed, report.text()
            assert res.matching == matching
            weeks.append(week_text(res))
        assert sha256("\n\n".join(weeks)) == PINNED_WEEKS_SHA256

    def test_tampered_resolution_fails_validation(self, canonical_design, lex_resolution):
        classes = dict(lex_resolution.classes)
        mon = resolver.DayLabel.from_name("MON")
        tu = resolver.DayLabel.from_name("TU")
        swapped_mon = (classes[tu].blocks[1],) + classes[mon].blocks[1:]
        classes[mon] = resolver.ParallelClass(swapped_mon)
        broken = resolver.Resolution(classes=classes, matching=dict(lex_resolution.matching))
        report = resolver.validate_resolution(canonical_design, broken)
        assert not report.passed


class TestSpreads:
    def test_census(self, canonical_design):
        spreads = resolver.enumerate_spreads(canonical_design)
        assert len(spreads) == 56
        assert len(set(spreads)) == 56
        assert sha256(spreads_text(spreads)) == PINNED_SPREADS_SHA256

    def test_each_spread_partitions_the_points(self, canonical_design):
        for spread in resolver.enumerate_spreads(canonical_design):
            covered = [p for blk in spread for p in blk.points]
            assert len(covered) == 15
            assert len(set(covered)) == 15

    def test_each_spread_holds_one_fano_line(self, canonical_design):
        for spread in resolver.enumerate_spreads(canonical_design):
            lines = [b for b in spread if all(p.in_plane for p in b.points)]
            assert len(lines) == 1

    def test_resolution_classes_are_spreads(self, canonical_design, lex_resolution):
        spreads = {tuple(sorted(s.blocks)) for s in resolver.enumerate_spreads(canonical_design)}
        for day in resolver.all_days():
            assert tuple(sorted(lex_resolution.classes[day].blocks)) in spreads


    def test_packing_census(self, canonical_design):
        # a packing of PG(3,2) is a set of 7 spreads partitioning the 35 blocks
        options = [[] for _ in canonical_design.blocks]
        for spread in resolver._spread_covers(canonical_design):
            mask = sum(1 << i for i in spread)
            for i in spread:
                options[i].append((spread, mask))
        packings = list(resolver._exact_covers(len(options), options))
        assert len(packings) == 240
        assert len(set(map(frozenset, packings))) == 240


class TestCoordinatesOnly:
    @given(st.sampled_from(INDEPENDENT_4_TUPLES))
    def test_week_and_spreads_match_the_canonical_design(self, canonical_design, lex_resolution, values):
        design = designs.expand_seeds(tuple(pauli.PauliLabel(v, 4) for v in values))
        assert week_text(resolver.resolve(design)) == week_text(lex_resolution)
        assert spreads_text(resolver.enumerate_spreads(design)) == spreads_text(
            resolver.enumerate_spreads(canonical_design)
        )


class TestReferenceWeek:
    def test_rows_shape(self):
        rows = resolver.reference_week_rows()
        assert len(rows) == 7
        assert all(len(day_rows) == 5 for day_rows in rows.values())

    def test_decoded_resolution_is_valid(self, canonical_design):
        res = resolver.reference_resolution(canonical_design)
        report = resolver.validate_resolution(canonical_design, res)
        assert report.passed, report.text()

    def test_reference_matching_fixture(self, canonical_design):
        matching = resolver.reference_matching(canonical_design)
        got = {day.bits: block_bits(blk) for day, blk in matching.items()}
        assert got == REFERENCE_MATCHING

    def test_reference_differs_from_lex(self, canonical_design):
        assert REFERENCE_MATCHING != LEX_MATCHING
        lex = resolver.match_days(canonical_design)
        ref = resolver.reference_matching(canonical_design)
        assert lex != ref
