"""Design expansion, validation, classification, geometry."""

import hashlib

import pytest

from kirkman import designs, oracle, pauli
from kirkman.errors import DependentSeedsError, DesignError, RenderError, SeedError

# point -> (Q, O, color, note) for the running example, corner points on
# the left half, embedded 7-point rows as (0xyz)
CANONICAL_MAP = {
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

# sha256 over the designs of all 20160 tuples of oracle.independent_tuples(4),
# in that order: each design's label words in point order as bytes, then its
# kind values in block order, comma-joined, and a newline; recorded from the
# expansion that classified each block through a Block-keyed dict
CENSUS_SHA256 = "338986901f6f177a7f18f7c17e69b04a04f65ed993a4e0a3d1509f7b28799da3"


class TestParams:
    def test_sizes(self):
        assert designs.DesignParams.from_m(2) == designs.DesignParams(3, 1, 1, 3, 1)
        assert designs.DesignParams.from_m(3) == designs.DesignParams(7, 7, 3, 3, 1)
        assert designs.DesignParams.from_m(4) == designs.DesignParams(15, 35, 7, 3, 1)


class TestSeedValidation:
    def test_dependent_triple(self):
        seeds = tuple(pauli.q_label(q) for q in (1, 2, 3))
        with pytest.raises(DependentSeedsError) as err:
            designs.validate_seeds(seeds)
        assert err.value.positions == (1, 2, 3)

    def test_minimal_subset_is_named(self):
        # Q6 = Q12.Q10, so the first dependency is the pair-free triple (1,2,4)
        seeds = tuple(pauli.q_label(q) for q in (12, 10, 15, 6))
        with pytest.raises(DependentSeedsError) as err:
            designs.validate_seeds(seeds)
        assert err.value.positions == (1, 2, 4)
        assert {l.q_index for l in err.value.labels} == {12, 10, 6}

    def test_repeated_seed(self):
        with pytest.raises(DependentSeedsError) as err:
            designs.validate_seeds((pauli.q_label(12), pauli.q_label(12)))
        assert err.value.positions == (1, 2)

    def test_identity_seed(self):
        with pytest.raises(SeedError):
            designs.validate_seeds((pauli.PauliLabel(0, 4), pauli.q_label(3)))

    def test_seed_count_limits(self):
        with pytest.raises(SeedError):
            designs.validate_seeds(())
        with pytest.raises(SeedError):
            designs.validate_seeds(tuple(pauli.PauliLabel(1 << i, 12) for i in range(5)))

    def test_width_mismatch(self):
        with pytest.raises(SeedError):
            designs.validate_seeds((pauli.q_label(3), pauli.PauliLabel(1, 2)))

    @pytest.mark.parametrize(
        "qs, positions, shown",
        [
            ((3, 5, 6, 9), (1, 2, 3), "[0011], [0101], [0110]"),
            ((12, 3, 10, 9), (2, 3, 4), "[0011], [1010], [1001]"),
            ((7, 9, 14, 7), (1, 4), "[0111], [0111]"),
        ],
    )
    def test_dependency_is_reported_as_pinned(self, qs, positions, shown):
        seeds = tuple(pauli.q_label(q) for q in qs)
        with pytest.raises(DependentSeedsError) as err:
            designs.expand_seeds(seeds)
        assert str(err.value) == (
            f"seeds are GF(2)-dependent: positions {positions} ({shown}) multiply to the identity"
        )
        assert err.value.positions == positions
        assert err.value.labels == tuple(seeds[i - 1] for i in positions)


class TestExpansion:
    def test_canonical_mapping(self, canonical_design):
        for bits, (q, o, color, note) in CANONICAL_MAP.items():
            label = canonical_design.assignment[designs.Point.from_bits(bits)]
            entry = pauli.dictionary(label)
            assert (entry.q_index, entry.o_index, entry.color, entry.note) == (q, o, color, note)

    def test_counts(self, canonical_design, fano_design):
        assert len(canonical_design.blocks) == 35
        assert len(fano_design.blocks) == 7
        kinds4 = list(canonical_design.kinds.values())
        kinds3 = list(fano_design.kinds.values())
        assert kinds4.count(designs.BlockKind.COMMUTING) == 15
        assert kinds4.count(designs.BlockKind.CYCLIC) == 20
        assert kinds3.count(designs.BlockKind.COMMUTING) == 3
        assert kinds3.count(designs.BlockKind.CYCLIC) == 4

    def test_describe(self, canonical_design, fano_design):
        assert canonical_design.describe() == "D(15,3,1)|Q12,Q10,Q4,Q11>"
        assert fano_design.describe() == "D(7,3,1)|Q10,Q4,Q11>"

    def test_first_seed_sits_at_leading_unit_point(self, canonical_design):
        p = designs.Point.from_bits("1000")
        assert canonical_design.assignment[p].q_index == 12

    def test_pair_design(self):
        d = designs.expand_seeds((pauli.q_label(12), pauli.q_label(10)))
        assert len(d.blocks) == 1
        assert list(d.kinds.values()) == [designs.BlockKind.CYCLIC]
        assert d.assignment[designs.Point.from_bits("11")].q_index == 6

    def test_single_seed_design(self):
        d = designs.expand_seeds((pauli.q_label(7),))
        assert d.blocks == ()
        assert d.params == designs.DesignParams(1, 0, 0, 1, 1)
        assert d.describe() == "D(1,1,1)|Q7>"

    def test_every_design_is_pinned(self):
        digest = hashlib.sha256()
        patterns = set()
        for values in oracle.independent_tuples(4):
            design = designs.expand_seeds(tuple(pauli.PauliLabel(v, 4) for v in values))
            kinds = ",".join(design.kinds[b].value for b in design.blocks)
            digest.update(bytes(design.assignment[p].value for p in design.points))
            digest.update(kinds.encode() + b"\n")
            patterns.add(kinds)
        assert digest.hexdigest() == CENSUS_SHA256
        # |GL(4,2)| / |Sp(4,2)| = 20160 / 720 kind patterns
        assert len(patterns) == 28

    def test_each_design_owns_its_kinds(self, canonical_design):
        twin = designs.expand_seeds(canonical_design.seeds)
        assert twin.kinds == canonical_design.kinds
        assert twin.kinds is not canonical_design.kinds
        block = twin.blocks[0]
        before = canonical_design.kinds[block]
        twin.kinds[block] = next(kind for kind in designs.BlockKind if kind != before)
        assert canonical_design.kinds[block] is before
        assert designs.expand_seeds(canonical_design.seeds).kinds[block] is before

    def test_mixed_block_is_rejected(self, monkeypatch):
        # Z on each of three qubits, so every pair commutes; the pair at points
        # (010) and (001) is made to read otherwise, which mixes block {(001), (010), (011)}
        seeds = tuple(pauli.PauliLabel(1 << i, 6) for i in (4, 2, 0))
        odd = {seeds[1].value, seeds[2].value}
        real = pauli.commutes
        monkeypatch.setattr(pauli, "commutes", lambda x, y: real(x, y) and {x.value, y.value} != odd)
        with pytest.raises(DesignError, match="neither commuting nor cyclic"):
            designs.expand_seeds(seeds)


class TestBlocks:
    def test_enumeration_counts(self):
        assert len(designs.enumerate_blocks(2)) == 1
        assert len(designs.enumerate_blocks(3)) == 7
        assert len(designs.enumerate_blocks(4)) == 35
        with pytest.raises(DesignError):
            designs.enumerate_blocks(5)

    def test_block_of_rejects_bad_triples(self):
        p = designs.Point.from_bits
        with pytest.raises(DesignError):
            designs.Block.of(p("001"), p("010"), p("100"))  # XOR is 111
        with pytest.raises(DesignError):
            designs.Block.of(p("001"), p("001"), p("000"))

    def test_classify_foreign_block(self, fano_design):
        p = designs.Point.from_bits
        foreign = designs.Block.of(p("0001"), p("0010"), p("0011"))
        with pytest.raises(DesignError):
            designs.classify_block(fano_design, foreign)

    def test_display_order_commuting_sorted(self, canonical_design):
        for block, kind in canonical_design.kinds.items():
            if kind is designs.BlockKind.COMMUTING:
                assert designs.display_order(canonical_design, block) == block.points

    def test_display_order_cyclic_orientation(self, canonical_design):
        # consecutive products around the cycle all carry phase +i
        for block, kind in canonical_design.kinds.items():
            if kind is not designs.BlockKind.CYCLIC:
                continue
            ordered = designs.display_order(canonical_design, block)
            assert ordered[0] == min(block.points)
            ops = [canonical_design.assignment[p] for p in ordered]
            for i in range(3):
                _, phase = pauli.product(ops[i], ops[(i + 1) % 3])
                assert phase.k == 1


class TestSubdesign:
    def test_restriction_equals_reseeding(self, canonical_design, fano_design):
        rebuilt = designs.expand_seeds(canonical_design.seeds[1:])
        assert fano_design.assignment == rebuilt.assignment
        assert fano_design.kinds == rebuilt.kinds
        assert fano_design.seeds == rebuilt.seeds

    def test_restriction_matches_parent_points(self, canonical_design, fano_design):
        for p in fano_design.points:
            parent = designs.Point(p.value, 4)
            assert fano_design.assignment[p] == canonical_design.assignment[parent]

    def test_needs_size_four(self, fano_design):
        with pytest.raises(DesignError):
            designs.fano_subdesign(fano_design)


class TestGeometry:
    def test_triangle_placements(self, fano_design):
        placements = designs.embed_coordinates(fano_design, "triangle")
        assert len(placements) == 7
        assert len({(pl.x, pl.y) for pl in placements}) == 7
        center = next(pl for pl in placements if pl.point.value == 0b111)
        corners = [pl for pl in placements if pl.point.value in (0b100, 0b010, 0b001)]
        assert center.x == pytest.approx(sum(c.x for c in corners) / 3)
        assert center.y == pytest.approx(sum(c.y for c in corners) / 3)

    def test_tetrahedron_placements(self, canonical_design):
        placements = designs.embed_coordinates(canonical_design, "tetrahedron")
        assert len(placements) == 15
        assert len({(pl.x, pl.y) for pl in placements}) == 15

    def test_cube_placements(self, canonical_design):
        placements = designs.embed_coordinates(canonical_design, "cube")
        assert len(placements) == 27
        per_point = {}
        for pl in placements:
            per_point.setdefault(pl.point.bits, []).append(pl)
        # corners once, edge midpoints four times, face pairs twice, center once
        assert sorted(len(v) for v in per_point.values()) == [1] * 9 + [2] * 3 + [4] * 3
        for bits, pls in per_point.items():
            assert sum(pl.primary for pl in pls) == 1

    def test_layout_compatibility(self, canonical_design, fano_design):
        with pytest.raises(RenderError):
            designs.embed_coordinates(fano_design, "cube")
        with pytest.raises(RenderError):
            designs.embed_coordinates(canonical_design, "triangle")
        with pytest.raises(RenderError):
            designs.embed_coordinates(canonical_design, "hexagon")


class TestPoints:
    def test_round_trip(self):
        p = designs.Point.from_bits("(0111)")
        assert p == designs.Point(7, 4)
        assert str(p) == "(0111)"
        assert p.bits == "0111"

    def test_rejects_bad_coordinates(self):
        with pytest.raises(DesignError):
            designs.Point.from_bits("01a1")
        with pytest.raises(DesignError):
            designs.Point(9, 3)
