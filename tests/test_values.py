"""What callers and outputs see of the package's value classes.

Every value class keeps one behaviour: its constructor signature, its
validation messages, its repr, equality only within its own class, a hash
equal to the hash of its field tuple, tuple ordering where it is ordered,
and no assignment or deletion of attributes.
"""

import inspect
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kirkman import audio, colors, designs, oracle, pauli, record, report, resolver
from kirkman.errors import DesignError, LabelError, RenderError, ResolutionError, SynthesisError

P, L = designs.Point, pauli.PauliLabel
BLOCK = designs.Block.of(P(1, 3), P(2, 3), P(3, 3))
CHECK = report.CheckResult("point set", True)
SLOT = audio.SlotSpectrum(0, (220.0,), (4.0,), (4.0,), (1.0,), 2.5, 1e-9, True)


def _design():
    return designs.expand_seeds((pauli.q_label(7),))


def _slot_repr():
    return (
        "SlotSpectrum(index=0, expected_hz=(220.0,), expected_bins=(4.0,), peak_bins=(4.0,), "
        "amplitudes=(1.0,), margin=2.5, residual=1e-09, passed=True)"
    )


# name -> (instance factory, field names, repr, a differing instance factory)
CASES = {
    "PauliLabel": (lambda: L(3, 4), ("value", "width"), "PauliLabel(value=3, width=4)", lambda: L(3, 6)),
    "Phase": (lambda: pauli.Phase(5), ("k",), "Phase(k=1)", lambda: pauli.Phase(2)),
    "DictionaryEntry": (
        lambda: pauli.dictionary("Q12"),
        ("label", "q_index", "o_index", "tensor_text", "gamma_text", "color", "note"),
        "DictionaryEntry(label=PauliLabel(value=12, width=4), q_index=12, o_index=5, "
        "tensor_text='σx/2', gamma_text='-γ5/2', color='G2', note='D♯')",
        lambda: pauli.dictionary("Q11"),
    ),
    "CommutatorEntry": (
        lambda: pauli.CommutatorEntry(Fraction(-1, 2), 6),
        ("imag", "result_o"),
        "CommutatorEntry(imag=Fraction(-1, 2), result_o=6)",
        lambda: pauli.CommutatorEntry(Fraction(0), None),
    ),
    "Point": (lambda: P(3, 4), ("value", "width"), "Point(value=3, width=4)", lambda: P(3, 2)),
    "Block": (
        lambda: BLOCK,
        ("points",),
        "Block(points=(Point(value=1, width=3), Point(value=2, width=3), Point(value=3, width=3)))",
        lambda: designs.Block.of(P(1, 3), P(4, 3), P(5, 3)),
    ),
    "DesignParams": (
        lambda: designs.DesignParams.from_m(4),
        ("v", "b", "r", "k", "lam"),
        "DesignParams(v=15, b=35, r=7, k=3, lam=1)",
        lambda: designs.DesignParams.from_m(3),
    ),
    "Design": (
        _design,
        ("m", "seeds", "points", "assignment", "blocks", "kinds", "params"),
        "Design(m=1, seeds=(PauliLabel(value=7, width=4),), points=(Point(value=1, width=1),), "
        "assignment={Point(value=1, width=1): PauliLabel(value=7, width=4)}, blocks=(), kinds={}, "
        "params=DesignParams(v=1, b=0, r=0, k=1, lam=1))",
        lambda: designs.expand_seeds((pauli.q_label(8),)),
    ),
    "_Tables": (
        lambda: designs._Tables((P(1, 1),), (), (), designs.DesignParams.from_m(1), {}),
        ("points", "blocks", "pairs", "params", "kinds"),
        "_Tables(points=(Point(value=1, width=1),), blocks=(), pairs=(), "
        "params=DesignParams(v=1, b=0, r=0, k=1, lam=1), kinds={})",
        lambda: designs._Tables((), (), (), designs.DesignParams.from_m(1), {}),
    ),
    "Placement": (
        lambda: designs.Placement(P(1, 3), 0.93, 0.82),
        ("point", "x", "y", "primary"),
        "Placement(point=Point(value=1, width=3), x=0.93, y=0.82, primary=True)",
        lambda: designs.Placement(P(1, 3), 0.93, 0.82, False),
    ),
    "DayLabel": (lambda: resolver.DayLabel(3), ("value",), "DayLabel(value=3)", lambda: resolver.DayLabel(7)),
    "ParallelClass": (
        lambda: resolver.ParallelClass((BLOCK,)),
        ("blocks",),
        "ParallelClass(blocks=(Block(points=(Point(value=1, width=3), Point(value=2, width=3), "
        "Point(value=3, width=3))),))",
        lambda: resolver.ParallelClass(()),
    ),
    "Resolution": (
        lambda: resolver.Resolution({}, {resolver.DayLabel(1): BLOCK}),
        ("classes", "matching"),
        "Resolution(classes={}, matching={DayLabel(value=1): Block(points=(Point(value=1, width=3), "
        "Point(value=2, width=3), Point(value=3, width=3)))})",
        lambda: resolver.Resolution({}, {}),
    ),
    "ColorLabel": (
        lambda: colors.ColorLabel("R", 2),
        ("chroma", "flavor"),
        "ColorLabel(chroma='R', flavor=2)",
        lambda: colors.ColorLabel("B", 2),
    ),
    "HsvColor": (
        lambda: colors.HsvColor(0.0, 1.0, 0.55),
        ("hue", "saturation", "value"),
        "HsvColor(hue=0.0, saturation=1.0, value=0.55)",
        lambda: colors.HsvColor(0.0, 1.0, 0.7),
    ),
    "NoteLabel": (
        lambda: audio.NoteLabel("A", "flat"),
        ("letter", "signature"),
        "NoteLabel(letter='A', signature='flat')",
        lambda: audio.NoteLabel("A", "sharp"),
    ),
    "Scale": (
        audio.build_cps_scale,
        ("tonic", "ratios"),
        "Scale(tonic=220.0, ratios=(Fraction(65, 64), Fraction(33, 32), Fraction(35, 32), "
        "Fraction(143, 128), Fraction(77, 64), Fraction(39, 32), Fraction(21, 16), Fraction(85, 64), "
        "Fraction(91, 64), Fraction(187, 128), Fraction(51, 32), Fraction(55, 32), Fraction(221, 128), "
        "Fraction(119, 64), Fraction(15, 8)))",
        lambda: audio.build_cps_scale(tonic=110.0),
    ),
    "WindowParams": (
        audio.WindowParams,
        ("hop", "sigma"),
        "WindowParams(hop=0.8, sigma=0.12)",
        lambda: audio.WindowParams(hop=1.0),
    ),
    "SlotSpectrum": (
        lambda: SLOT,
        ("index", "expected_hz", "expected_bins", "peak_bins", "amplitudes", "margin", "residual", "passed"),
        _slot_repr(),
        lambda: audio.SlotSpectrum(1, (220.0,), (4.0,), (4.0,), (1.0,), 2.5, 1e-9, True),
    ),
    "SpectralReport": (
        lambda: audio.SpectralReport(2.5, (SLOT,)),
        ("bin_hz", "slots"),
        f"SpectralReport(bin_hz=2.5, slots=({_slot_repr()},))",
        lambda: audio.SpectralReport(2.5, ()),
    ),
    "DenseOp": (
        lambda: oracle.dense_of(pauli.q_label(1)),
        ("label", "tensor", "weight"),
        "DenseOp(label=PauliLabel(value=1, width=4), tensor=((1, 0, 0, 0), (0, -1, 0, 0), "
        "(0, 0, 1, 0), (0, 0, 0, -1)), weight=Fraction(1, 2))",
        lambda: oracle.dense_of(pauli.q_label(2)),
    ),
    "CheckResult": (
        lambda: CHECK,
        ("name", "passed", "details"),
        "CheckResult(name='point set', passed=True, details=())",
        lambda: report.CheckResult("point set", False, ("x",)),
    ),
    "VerificationReport": (
        lambda: report.VerificationReport("D(7,3,1)", (CHECK,)),
        ("subject", "checks"),
        "VerificationReport(subject='D(7,3,1)', checks=(CheckResult(name='point set', passed=True, details=()),))",
        lambda: report.VerificationReport("D(7,3,1)", ()),
    ),
}

# classes with a dict field hash like their field tuple: not at all
UNHASHABLE = {"Design", "_Tables", "Resolution"}


def _fields(x, names):
    return tuple(getattr(x, n) for n in names)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_covered():
    bases = {record.OrderedRecord, record.HashedRecord}
    classes = {c.__name__ for c in _subclasses(record.Record) if c not in bases}
    assert classes == set(CASES) and len(CASES) == 23


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueClass:
    def test_repr(self, name):
        make, _, text, _ = CASES[name]
        x = make()
        assert type(x).__name__ == name
        assert repr(x) == text

    def test_equality_by_fields(self, name):
        make, names, _, other = CASES[name]
        x, y, z = make(), make(), other()
        assert x == y and not x != y
        assert x != z and not x == z
        assert type(x)(*_fields(x, names)) == x
        assert x != _fields(x, names)
        assert x.__eq__(object()) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self, name):
        make, names, _, _ = CASES[name]
        x = make()
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(_fields(x, names))
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(_fields(x, names))
            assert hash(x) == hash(make())

    def test_frozen(self, name):
        make, names, _, _ = CASES[name]
        x = make()
        with pytest.raises(AttributeError):
            setattr(x, names[0], None)
        with pytest.raises(AttributeError):
            delattr(x, names[0])
        assert _fields(x, names) == _fields(make(), names)

    def test_constructor_takes_the_fields_in_order(self, name):
        make, names, _, _ = CASES[name]
        x = make()
        assert list(inspect.signature(type(x)).parameters) == list(names)
        assert type(x)(**dict(zip(names, _fields(x, names)))) == x

    def test_pickle_round_trip(self, name):
        make, _, _, _ = CASES[name]
        x = make()
        assert pickle.loads(pickle.dumps(x)) == x


def test_classes_with_equal_fields_differ():
    assert P(4, 4) != L(4, 4) and L(4, 4) != P(4, 4)
    assert resolver.DayLabel(3) != pauli.Phase(3)
    assert colors.HsvColor(0.0, 1.0, 0.5) != (0.0, 1.0, 0.5)
    assert len({P(4, 4), L(4, 4)}) == 2


def test_ordered_classes_sort_like_their_field_tuples():
    assert sorted([P(3, 4), P(1, 4), P(2, 3), P(7, 3)]) == [P(1, 4), P(2, 3), P(3, 4), P(7, 3)]
    assert sorted([L(9, 4), L(1, 6), L(2, 4)]) == [L(1, 6), L(2, 4), L(9, 4)]
    days = [resolver.DayLabel(v) for v in (5, 2, 7, 1)]
    assert [d.value for d in sorted(days)] == [1, 2, 5, 7]
    labels = [colors.ColorLabel(c, f) for c, f in (("R", 0), ("B", 3), ("G", 1), ("B", 0))]
    assert [str(c) for c in sorted(labels)] == ["B0", "B3", "G1", "R0"]
    blocks = [designs.Block.of(P(1, 3), P(4, 3), P(5, 3)), BLOCK, designs.Block.of(P(2, 3), P(4, 3), P(6, 3))]
    assert sorted(blocks) == [BLOCK, blocks[0], blocks[2]]
    assert P(1, 4) <= P(1, 4) and P(2, 4) > P(1, 4) and P(2, 4) >= P(2, 4)


@pytest.mark.parametrize(
    "a, b",
    [
        (P(1, 4), L(1, 4)),
        (L(1, 4), P(1, 4)),
        (resolver.DayLabel(1), P(1, 4)),
        (colors.ColorLabel("R", 1), BLOCK),
        (P(1, 4), (1, 4)),
    ],
)
def test_ordering_across_classes_is_a_type_error(a, b):
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
        with pytest.raises(TypeError):
            compare()


@pytest.mark.parametrize("unordered", [pauli.Phase(1), designs.DesignParams.from_m(2), CHECK])
def test_unordered_classes_do_not_order(unordered):
    with pytest.raises(TypeError):
        unordered < unordered


def test_phase_normalizes_its_exponent():
    assert pauli.Phase(7) == pauli.Phase(3) == pauli.Phase(-1)
    assert pauli.Phase(-1).k == 3 and pauli.Phase(4).value == 1


def test_defaults():
    assert inspect.signature(audio.WindowParams).parameters["hop"].default == 0.8
    w = audio.WindowParams()
    assert (w.hop, w.sigma) == (0.8, 0.12)
    for f in (audio.buffer_length, audio.synthesize, audio.write_wav, audio.spectral_report):
        assert inspect.signature(f).parameters["sample_rate"].default == 44100
    assert (audio._NOTE_AMPLITUDE, audio._PEAK_CEILING) == (1.0 / 3.0, 0.9)
    assert (colors._TILE, colors._ROW_GAP, colors._GROUP_GAP, colors._MARGIN) == (42.0, 6.0, 26.0, 12.0)
    assert designs.Placement(P(1, 2), 0.0, 1.0).primary is True
    assert report.CheckResult("c", False).details == ()


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: L(1, 3), LabelError, "label width must be positive and even, got 3"),
        (lambda: L(16, 4), LabelError, "label value 16 does not fit in 4 bits"),
        (lambda: P(0, 0), DesignError, "point width must be positive, got 0"),
        (lambda: P(-1, 3), DesignError, "point value -1 does not fit in 3 bits"),
        (lambda: resolver.DayLabel(8), ResolutionError, "day label must be a nonzero 3-bit word, got 8"),
        (lambda: colors.ColorLabel("Y", 1), RenderError, "invalid color label Y1"),
        (lambda: audio.NoteLabel("F", "flat"), SynthesisError, "invalid note 'F'/'flat'"),
        (lambda: audio.Scale(0.0, ()), SynthesisError, "tonic must be positive, got 0.0"),
        (lambda: audio.Scale(1.0, (1,) * 15), SynthesisError, "a scale needs 15 distinct ratios"),
        (
            lambda: audio.Scale(1.0, tuple(Fraction(31 - i, 16) for i in range(15))),
            SynthesisError,
            "scale ratios must ascend",
        ),
        (
            lambda: audio.Scale(1.0, tuple(Fraction(32 + i, 16) for i in range(15))),
            SynthesisError,
            "scale ratios must lie in [1, 2)",
        ),
        (lambda: audio.WindowParams(hop=0.0), SynthesisError, "hop and sigma must be positive and finite"),
        (
            lambda: audio.WindowParams(sigma=1e-170),
            SynthesisError,
            "sigma 1e-170 s is too small: its square underflows to zero",
        ),
        (
            lambda: audio.WindowParams(hop=0.1),
            SynthesisError,
            "hop 0.1 s is too short for sigma 0.12 s; chord onsets would not be separable",
        ),
        (lambda: audio.buffer_length(1, audio.WindowParams(), 0), SynthesisError, "sample rate must be positive"),
        (
            lambda: designs.Block.of(P(1, 3), P(1, 3), P(2, 3)),
            DesignError,
            "block needs three distinct equal-width points, got "
            "(Point(value=1, width=3), Point(value=1, width=3), Point(value=2, width=3))",
        ),
    ],
)
def test_validation_messages(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


_WORDS = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1), st.just(n))
)


@given(st.lists(_WORDS, min_size=1, max_size=8), st.sampled_from(["point", "label", "day"]))
def test_values_behave_like_their_field_tuples(words, kind):
    if kind == "point":
        made = [(P(v, w), (v, w), f"Point(value={v}, width={w})") for v, w in words]
    elif kind == "label":
        made = [(L(v, 2 * w), (v, 2 * w), f"PauliLabel(value={v}, width={2 * w})") for v, w in words]
    else:
        made = [(resolver.DayLabel(v % 7 + 1), (v % 7 + 1,), f"DayLabel(value={v % 7 + 1})") for v, _ in words]
    for x, fields, text in made:
        assert repr(x) == text
        assert hash(x) == hash(fields)
    for x, fx, _ in made:
        for y, fy, _ in made:
            assert (x == y) == (fx == fy)
            assert (x < y) == (fx < fy)
            assert (x >= y) == (fx >= fy)
    assert [f for _, f, _ in sorted(made, key=lambda t: t[0])] == sorted(f for _, f, _ in made)
    assert len({x for x, _, _ in made}) == len({f for _, f, _ in made})
