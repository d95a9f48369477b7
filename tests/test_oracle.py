"""Dense oracle fixtures and the exhaustive verifiers."""

import inspect
from fractions import Fraction

import pytest

from kirkman import designs, oracle, pauli
from kirkman.errors import LabelError, OracleError


def replace(design, **changes):
    """A design with the given fields changed and the others kept."""
    fields = {name: getattr(design, name) for name in inspect.signature(designs.Design).parameters}
    return designs.Design(**{**fields, **changes})


def normalized(op):
    """The operator's matrix with its weight applied, exact in Fractions."""
    return tuple(tuple(op.weight * x for x in row) for row in op.tensor)


class TestDenseOperators:
    def test_q4_matrix(self):
        # half sigma_z on the leading qubit: diag(1/2, 1/2, -1/2, -1/2)
        op = oracle.dense_of(pauli.q_label(4))
        assert op.weight == Fraction(1, 2)
        half = Fraction(1, 2)
        assert normalized(op) == (
            (half, 0, 0, 0),
            (0, half, 0, 0),
            (0, 0, -half, 0),
            (0, 0, 0, -half),
        )

    def test_q15_matrix_antidiagonal(self):
        op = oracle.dense_of(pauli.q_label(15))
        assert op.weight == Fraction(1, 4)
        quarter = Fraction(1, 4)
        matrix = normalized(op)
        for i in range(4):
            for j in range(4):
                want = quarter if i + j == 3 else 0
                assert matrix[i][j] == want

    def test_scaled_entries_are_gaussian_integers(self):
        for lbl in pauli.all_labels(4):
            for row in oracle.dense_of(lbl).tensor:
                for x in row:
                    z = complex(x)
                    assert z.real == int(z.real) and z.imag == int(z.imag)

    def test_qubit_cap(self):
        with pytest.raises(OracleError):
            oracle.dense_of(pauli.PauliLabel(1, 10))


class TestVerifyAlgebra:
    def test_two_qubits_pass(self):
        report = oracle.verify_algebra(2)
        assert report.passed
        assert len(report.checks) == 7

    def test_one_qubit_passes(self):
        assert oracle.verify_algebra(1).passed

    def test_sweep_cap(self):
        with pytest.raises(OracleError):
            oracle.verify_algebra(3)

    def test_tampered_fixture_is_reported(self, monkeypatch):
        bad = dict(pauli.fixture_commutator_table())
        bad[(2, 5)] = pauli.CommutatorEntry(Fraction(-1), 6)
        monkeypatch.setattr(pauli, "fixture_commutator_table", lambda: bad)
        report = oracle.verify_algebra(2)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert len(failing) == 1
        assert "O2" in failing[0].details[0] and "O5" in failing[0].details[0]

    def test_each_dense_product_is_computed_once(self, monkeypatch):
        real, calls = oracle.matmul, []

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(oracle, "matmul", counted)
        oracle._dense_product.cache_clear()
        assert oracle.verify_algebra(2).passed
        assert len(calls) == 15 * 15

    def test_design_check_reuses_the_algebra_products(self, canonical_design, monkeypatch):
        real, calls = oracle.matmul, []

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(oracle, "matmul", counted)
        oracle._dense_product.cache_clear()
        oracle._dense_commutation.cache_clear()
        assert oracle.verify_algebra(2).passed
        assert oracle.verify_design(canonical_design).passed
        assert len(calls) == 15 * 15

    def test_wrong_commutation_predicate_is_reported(self, monkeypatch):
        real = pauli.commutes
        x, y = pauli.q_label(1), pauli.q_label(2)
        monkeypatch.setattr(
            pauli, "commutes", lambda a, b: real(a, b) != ({a, b} == {x, y})
        )
        report = oracle.verify_algebra(2)
        failing = {c.name: c.details for c in report.checks if not c.passed}
        assert failing["commutation predicate matches dense commutators"] == (f"{x},{y}",)


class TestVerifyDesign:
    def test_canonical_design_passes(self, canonical_design):
        report = oracle.verify_design(canonical_design)
        assert report.passed, report.text()

    def test_fano_design_passes(self, fano_design):
        assert oracle.verify_design(fano_design).passed

    def test_missing_block_is_caught(self, canonical_design):
        broken = replace(canonical_design, blocks=canonical_design.blocks[:-1])
        report = oracle.verify_design(broken)
        assert not report.passed
        text = report.text()
        assert "exactly one block" in text or "expected 35" in text

    def test_swapped_assignment_is_caught(self, canonical_design):
        assignment = dict(canonical_design.assignment)
        p1 = designs.Point.from_bits("0001")
        p2 = designs.Point.from_bits("0010")
        assignment[p1], assignment[p2] = assignment[p2], assignment[p1]
        broken = replace(canonical_design, assignment=assignment)
        report = oracle.verify_design(broken)
        assert not report.passed
        assert any("XOR-linear" in c.name for c in report.checks if not c.passed)

    def test_flipped_block_kind_is_caught(self, canonical_design):
        block = canonical_design.blocks[0]
        kinds = dict(canonical_design.kinds)
        kinds[block] = next(kind for kind in designs.BlockKind if kind != kinds[block])
        report = oracle.verify_design(replace(canonical_design, kinds=kinds))
        failing = [c for c in report.checks if not c.passed]
        assert [c.name for c in failing] == ["block classification"]
        assert any(str(block) in line for line in failing[0].details)

    def test_block_without_a_kind_raises(self, canonical_design):
        kinds = dict(canonical_design.kinds)
        del kinds[canonical_design.blocks[4]]
        with pytest.raises(KeyError):
            oracle.verify_design(replace(canonical_design, kinds=kinds))

    def test_label_wider_than_the_first_raises(self, canonical_design):
        # the dense check reads every label at the first label's width
        assignment = dict(canonical_design.assignment)
        assignment[designs.Point.from_bits("0110")] = pauli.PauliLabel(0b100001, 6)
        with pytest.raises(LabelError, match="label value 33 does not fit in 4 bits"):
            oracle.verify_design(replace(canonical_design, assignment=assignment))

    @pytest.mark.parametrize("name", ["canonical_design", "fano_design"])
    def test_block_classification_ignores_the_label_algebra(self, name, request, monkeypatch):
        design = request.getfixturevalue(name)

        def forbidden(*args):
            raise AssertionError("verify_design called the label algebra")

        monkeypatch.setattr(pauli, "commutes", forbidden)
        monkeypatch.setattr(pauli, "product", forbidden)
        oracle._dense_product.cache_clear()
        oracle._dense_commutation.cache_clear()
        report = oracle.verify_design(design)
        assert report.passed, report.text()


def swap_two_labels(design):
    assignment = dict(design.assignment)
    p, q = designs.Point.from_bits("0001"), designs.Point.from_bits("0110")
    assignment[p], assignment[q] = assignment[q], assignment[p]
    return replace(design, assignment=assignment)


def flip_one_kind(design):
    kinds = dict(design.kinds)
    block = design.blocks[5]
    kinds[block] = next(kind for kind in designs.BlockKind if kind != kinds[block])
    return replace(design, kinds=kinds)


def duplicate_a_block(design):
    blocks = list(design.blocks)
    blocks[7] = blocks[3]
    return replace(design, blocks=tuple(blocks))


def break_linearity(design):
    assignment = dict(design.assignment)
    assignment[designs.Point.from_bits("0011")] = pauli.q_label(5)
    return replace(design, assignment=assignment)


TAMPERS = {
    "swapped": swap_two_labels,
    "flipped": flip_one_kind,
    "dup": duplicate_a_block,
    "nonlin": break_linearity,
}

# verify_design's report on each tampered canonical design, recorded from
# the oracle that kept its labels in dicts keyed by coordinate pairs
TAMPERED_REPORTS = {
    'swapped': (
        'verification: D(15,3,1)|Q12,Q10,Q4,Q11>\n'
        '  ok   parameters satisfy (2^m - 1, 3, 1) arithmetic\n'
        '  ok   point set\n'
        '  ok   assignment is an injection onto nonidentity operators\n'
        '  FAIL assignment is XOR-linear (op(0001).op(0010); op(0001).op(0011); op(0001).op(0100); op(0001).op(0101); op(0001).op(1000); ... 31 more)\n'
        '  ok   blocks are XOR-zero triples, b of them\n'
        '  ok   every point pair lies in exactly one block (lambda=1)\n'
        '  ok   every point has replication r\n'
        '  FAIL block classification (block {(0001), (1000), (1001)} is neither commuting nor cyclic; block {(0001), (1010), (1011)} is neither commuting nor cyclic; block {(0001), (1100), (1101)} is neither commuting nor cyclic; block {(0001), (1110), (1111)} is neither commuting nor cyclic; block {(0110), (1000), (1110)} is neither commuting nor cyclic; ... 4 more)\n'
        '  => FAIL'
    ),
    'flipped': (
        'verification: D(15,3,1)|Q12,Q10,Q4,Q11>\n'
        '  ok   parameters satisfy (2^m - 1, 3, 1) arithmetic\n'
        '  ok   point set\n'
        '  ok   assignment is an injection onto nonidentity operators\n'
        '  ok   assignment is XOR-linear\n'
        '  ok   blocks are XOR-zero triples, b of them\n'
        '  ok   every point pair lies in exactly one block (lambda=1)\n'
        '  ok   every point has replication r\n'
        '  FAIL block classification (block {(0001), (1100), (1101)} classified cyclic, expected commuting)\n'
        '  => FAIL'
    ),
    'dup': (
        'verification: D(15,3,1)|Q12,Q10,Q4,Q11>\n'
        '  ok   parameters satisfy (2^m - 1, 3, 1) arithmetic\n'
        '  ok   point set\n'
        '  ok   assignment is an injection onto nonidentity operators\n'
        '  ok   assignment is XOR-linear\n'
        '  ok   blocks are XOR-zero triples, b of them\n'
        '  FAIL every point pair lies in exactly one block (lambda=1) (pair (0001,1000) covered 2 times; pair (0001,1001) covered 2 times; pair (0010,0100) covered 0 times; pair (0010,0110) covered 0 times; pair (0100,0110) covered 0 times; ... 1 more)\n'
        '  FAIL every point has replication r (point 0001 replication 8; point 0010 replication 6; point 0100 replication 6; point 0110 replication 6; point 1000 replication 8; ... 1 more)\n'
        '  ok   block classification\n'
        '  => FAIL'
    ),
    'nonlin': (
        'verification: D(15,3,1)|Q12,Q10,Q4,Q11>\n'
        '  ok   parameters satisfy (2^m - 1, 3, 1) arithmetic\n'
        '  ok   point set\n'
        '  FAIL assignment is an injection onto nonidentity operators (assignment is not injective)\n'
        '  FAIL assignment is XOR-linear (op(0001).op(0010); op(0001).op(0011); op(0010).op(0011); op(0011).op(0100); op(0011).op(0101); ... 16 more)\n'
        '  ok   blocks are XOR-zero triples, b of them\n'
        '  ok   every point pair lies in exactly one block (lambda=1)\n'
        '  ok   every point has replication r\n'
        '  FAIL block classification (block {(0001), (0010), (0011)} is neither commuting nor cyclic; block {(0011), (0101), (0110)} is neither commuting nor cyclic; block {(0011), (1000), (1011)} is neither commuting nor cyclic; block {(0011), (1100), (1111)} is neither commuting nor cyclic; classification counts 13/22, expected 15/20)\n'
        '  => FAIL'
    ),
}


class TestTamperedReports:
    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_report_text_is_pinned(self, canonical_design, name):
        report = oracle.verify_design(TAMPERS[name](canonical_design))
        assert report.text() == TAMPERED_REPORTS[name]

    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_report_ignores_the_label_algebra(self, canonical_design, name, monkeypatch):
        def forbidden(*args):
            raise AssertionError("verify_design called the label algebra")

        monkeypatch.setattr(pauli, "commutes", forbidden)
        monkeypatch.setattr(pauli, "product", forbidden)
        oracle._dense_product.cache_clear()
        oracle._dense_commutation.cache_clear()
        assert oracle.verify_design(TAMPERS[name](canonical_design)).text() == TAMPERED_REPORTS[name]

    def test_reordered_maps_give_the_same_report(self, canonical_design):
        # the oracle reads kinds and labels by key, whatever the dicts' order
        for name, tamper in TAMPERS.items():
            design = tamper(canonical_design)
            shuffled = replace(
                design,
                assignment=dict(reversed(design.assignment.items())),
                kinds=dict(reversed(design.kinds.items())),
            )
            assert oracle.verify_design(shuffled).text() == TAMPERED_REPORTS[name]

    def test_oracle_uses_no_table_of_designs(self):
        source = inspect.getsource(oracle)
        assert "designs._" not in source and "from .designs import" not in source


class TestSeedCensus:
    def test_single_seed_census(self):
        assert oracle.count_valid_seeds(1) == 15

    def test_pair_census(self):
        assert oracle.count_valid_seeds(2) == 210

    def test_triple_census_per_family(self):
        # the census is identical in each of the 15 commuting families
        assert oracle.count_valid_seeds(3) == 168

    def test_triple_census_global(self):
        assert oracle.count_valid_seeds(3, per_family=False) == 2520
        assert 2520 == 15 * 168

    def test_quadruple_census(self):
        # ordered independent 4-tuples over GF(2)^4
        assert oracle.count_valid_seeds(4) == 20160
        assert 20160 == 15 * 14 * 12 * 8

    def test_per_family_needs_three_seeds(self):
        with pytest.raises(OracleError):
            oracle.count_valid_seeds(2, per_family=True)

    def test_unsupported_size(self):
        with pytest.raises(OracleError):
            oracle.count_valid_seeds(5)

    def test_independent_tuples_reject_dependence(self):
        for tup in oracle.independent_tuples(3):
            a, b, c = tup
            assert a ^ b != 0 and a ^ c != 0 and b ^ c != 0 and a ^ b ^ c != 0

    def test_sweep_small_sizes(self):
        count, failures = oracle.sweep_seed_designs(2)
        assert (count, failures) == (210, [])
