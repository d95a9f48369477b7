"""Label algebra: products, phases, commutation, the dictionary, commutators."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kirkman import oracle, pauli
from kirkman.errors import LabelError


def bits(word):
    return pauli.PauliLabel.from_bits(word)


class TestPauliLabel:
    def test_round_trip_and_indexing(self):
        lbl = bits("1100")
        assert lbl.bits == "1100"
        assert lbl.q_index == 12
        assert lbl.width == 4
        assert pauli.q_label(12) == lbl

    def test_factors(self):
        lbl = bits("1001")
        assert lbl.factor(0) == 2  # leftmost qubit
        assert lbl.factor(1) == 1
        assert lbl.factor_count == 2
        assert bits("0100").factor_count == 1

    def test_identity(self):
        assert bits("0000").is_identity
        assert not bits("0001").is_identity

    def test_rejects_bad_words(self):
        with pytest.raises(LabelError):
            bits("102")
        with pytest.raises(LabelError):
            bits("011")  # odd length
        with pytest.raises(LabelError):
            pauli.q_label(0)
        with pytest.raises(LabelError):
            pauli.q_label(16)

    def test_all_labels(self):
        assert len(pauli.all_labels(4)) == 15
        assert len(pauli.all_labels(4, include_identity=True)) == 16
        assert len(pauli.all_labels(6)) == 63


class TestProduct:
    def test_fixed_products(self):
        # sigma_x . sigma_y = i sigma_z on the leading qubit
        res, phase = pauli.product(bits("1100"), bits("1000"))
        assert (res, phase.k) == (bits("0100"), 1)
        # reversed order flips the sign
        res, phase = pauli.product(bits("1000"), bits("1100"))
        assert (res, phase.k) == (bits("0100"), 3)
        # the worked pair from the module docstring
        res, phase = pauli.product(bits("1100"), bits("1010"))
        assert (res, phase.k) == (bits("0110"), 1)
        res, phase = pauli.product(bits("0001"), bits("0010"))
        assert (res, phase.k) == (bits("0011"), 3)

    def test_self_product_is_identity(self):
        for lbl in pauli.all_labels(4):
            res, phase = pauli.product(lbl, lbl)
            assert res.is_identity and phase.k == 0

    def test_result_is_xor(self):
        for a in pauli.all_labels(4):
            for b in pauli.all_labels(4):
                res, _ = pauli.product(a, b)
                assert res.value == a.value ^ b.value

    def test_anticommuting_pairs_carry_imaginary_phase(self):
        for a in pauli.all_labels(4):
            for b in pauli.all_labels(4):
                _, phase = pauli.product(a, b)
                if pauli.commutes(a, b):
                    assert phase.k in (0, 2)
                else:
                    assert phase.k in (1, 3)

    def test_width_mismatch_rejected(self):
        with pytest.raises(LabelError):
            pauli.product(bits("01"), bits("0110"))
        with pytest.raises(LabelError):
            pauli.commutes(bits("01"), bits("0110"))

    @given(st.integers(1, 63), st.integers(1, 63))
    def test_product_matches_dense_three_qubits(self, av, bv):
        a = pauli.PauliLabel(av, 6)
        b = pauli.PauliLabel(bv, 6)
        res, phase = pauli.product(a, b)
        prod = oracle.matmul(oracle.dense_of(a).tensor, oracle.dense_of(b).tensor)
        scale = {0: 1, 1: 1j, 2: -1, 3: -1j}[phase.k]
        dres = oracle.dense_of(res).tensor
        expect = tuple(tuple(scale * x for x in row) for row in dres)
        assert prod == expect


class TestCommutation:
    def test_commutant_of_q5(self):
        got = {l.q_index for l in pauli.commutant(bits("0101"))}
        assert got == {4, 1, 11, 14, 10, 15}

    def test_commutant_size_is_six(self):
        for lbl in pauli.all_labels(4):
            assert len(pauli.commutant(lbl)) == 6

    def test_identity_has_no_commutant(self):
        with pytest.raises(LabelError):
            pauli.commutant(bits("0000"))

    def test_commutes_symmetry(self):
        labels = pauli.all_labels(4)
        for a in labels:
            for b in labels:
                assert pauli.commutes(a, b) == pauli.commutes(b, a)

    @given(st.data())
    def test_commutes_iff_product_phase_is_real(self, data):
        # up to 60 qubits: the symplectic parity must agree with the phase
        # table, and the mask must cover every qubit of a wide word, so the
        # words are drawn factor by factor
        qubits = data.draw(st.integers(1, 60))
        factors = st.lists(st.integers(0, 3), min_size=qubits, max_size=qubits)
        a, b = (bits("".join(f"{f:02b}" for f in data.draw(factors))) for _ in range(2))
        assert pauli.commutes(a, b) == (pauli.product(a, b)[1].k % 2 == 0)
        assert pauli.commutes(a, b) == pauli.commutes(b, a)

    @given(st.data())
    def test_commutes_matches_dense_commutators(self, data):
        width = data.draw(st.sampled_from((6, 8)))
        word = st.integers(1, (1 << width) - 1)
        a = pauli.PauliLabel(data.draw(word), width)
        b = pauli.PauliLabel(data.draw(word), width)
        da, db = oracle.dense_of(a).tensor, oracle.dense_of(b).tensor
        assert pauli.commutes(a, b) == (oracle.matmul(da, db) == oracle.matmul(db, da))


class TestDictionary:
    def test_anchor_rows(self):
        e = pauli.dictionary("Q12")
        assert (e.o_index, e.tensor_text, e.color, e.note) == (5, "σx/2", "G2", "D♯")
        e = pauli.dictionary(bits("0100"))
        assert (e.q_index, e.o_index, e.color, e.note) == (4, 2, "B1", "B♭")
        e = pauli.dictionary("O16")
        assert (e.q_index, e.color, e.note) == (11, "R0", "D")
        e = pauli.dictionary(5)
        assert (e.o_index, e.color, e.note) == (4, "G0", "B")

    def test_note_extremes(self):
        assert pauli.dictionary("Q1").note == "A♭"
        assert pauli.dictionary("Q15").note == "E♯"

    def test_lookup_round_trips_every_key_kind(self):
        for e in pauli.dictionary_entries():
            assert pauli.dictionary(e.label) is e
            assert pauli.dictionary(e.q_index) is e
            assert pauli.dictionary(f"Q{e.q_index}") is e
            assert pauli.dictionary(f"O{e.o_index}") is e
            assert pauli.dictionary(e.label.bits) is e
            assert pauli.dictionary(e.color) is e
            assert pauli.dictionary(e.note) is e

    def test_ascii_note_lookup(self):
        assert pauli.dictionary("D#").q_index == 12
        assert pauli.dictionary("Bb").q_index == 4

    def test_columns_are_bijections(self):
        entries = pauli.dictionary_entries()
        assert len(entries) == 15
        for field in ("q_index", "o_index", "color", "note", "tensor_text"):
            assert len({getattr(e, field) for e in entries}) == 15

    def test_unknown_key_rejected(self):
        with pytest.raises(LabelError):
            pauli.dictionary("Q16")
        with pytest.raises(LabelError):
            pauli.dictionary("H3")


class TestCommutator:
    def test_anchor_cells(self):
        assert pauli.commutator(2, 5).text == "iO6"
        assert pauli.commutator(4, 7).text == "i/4O6"
        assert pauli.commutator(13, 14).text == "0"

    def test_anchor_values(self):
        c = pauli.commutator(2, 5)
        assert (c.imag, c.result_o) == (Fraction(1), 6)
        c = pauli.commutator(4, 7)
        assert (c.imag, c.result_o) == (Fraction(1, 4), 6)
        c = pauli.commutator(13, 14)
        assert (c.imag, c.result_o) == (Fraction(0), None)

    def test_generated_table_equals_fixture(self):
        gen = pauli.commutator_table()
        fix = pauli.fixture_commutator_table()
        assert len(gen) == len(fix) == 225
        assert gen == fix

    def test_table_makes_no_string_lookup(self, monkeypatch):
        real, keys = pauli.dictionary, []

        def recorded(key):
            keys.append(key)
            return real(key)

        monkeypatch.setattr(pauli, "dictionary", recorded)
        assert pauli.commutator_table() == pauli.fixture_commutator_table()
        assert [key for key in keys if isinstance(key, str)] == []

    def test_seven_zeros_per_row(self):
        table = pauli.commutator_table()
        for oi in pauli.O_INDICES:
            zeros = sum(1 for oj in pauli.O_INDICES if table[(oi, oj)].imag == 0)
            assert zeros == 7

    def test_antisymmetry(self):
        table = pauli.commutator_table()
        for oi in pauli.O_INDICES:
            for oj in pauli.O_INDICES:
                a, b = table[(oi, oj)], table[(oj, oi)]
                assert a.imag == -b.imag and (a.result_o == b.result_o or a.imag == 0)

    def test_nonzero_cells_stay_in_the_operator_set(self):
        table = pauli.commutator_table()
        for cell in table.values():
            if cell.imag:
                assert cell.result_o in pauli.O_INDICES
                assert cell.imag in (Fraction(1), Fraction(-1), Fraction(1, 4), Fraction(-1, 4))


class TestWeights:
    def test_weight_halves_per_factor(self):
        assert pauli.weight_of(bits("0100")) == Fraction(1, 2)
        assert pauli.weight_of(bits("1111")) == Fraction(1, 4)
        assert pauli.weight_of(bits("1100")) == Fraction(1, 2)
