"""Label-level algebra of n-qubit Pauli tensors.

Every operator is addressed by a binary word of length 2n.  Each qubit
contributes two bits, most significant qubit first, under the factor code

    I : 00      sigma_z : 01      sigma_y : 10      sigma_x : 11

Reading the whole word as a base-10 number gives the operator's Q index;
the all-zero word is the identity.  Multiplication is bitwise XOR of the
words plus a power-of-i phase summed over the qubits from one 16-entry
table of single-factor phases (distinct non-identity factors multiply to
the third with phase +/-i, positive along the cyclic order x -> y -> z ->
x).  Commutation is the symplectic form of the stabilizer tableau
(Aaronson & Gottesman, quant-ph/0406196): a qubit whose factors have bits
(h_a, l_a) and (h_b, l_b) anticommutes iff h_a l_b + l_a h_b is odd, and
two operators commute iff that sum over all qubits is even, a parity read
off the two words with one XOR, one mask and one popcount.

The fifteen two-qubit operators additionally carry a dictionary row
(O index, tensor text, gamma text, color code, note code) loaded from
``data/dictionary.tsv``; their 15 x 15 commutator table is shipped as
``data/commutator_table.txt`` and cross-checked by the oracle module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .errors import LabelError
from .record import OrderedRecord, Record, freeze, set_field, set_key

__all__ = [
    "PauliLabel",
    "Phase",
    "DictionaryEntry",
    "CommutatorEntry",
    "q_label",
    "o_label",
    "all_labels",
    "product",
    "commutes",
    "commutant",
    "weight_of",
    "dictionary",
    "dictionary_entries",
    "o_index_of",
    "commutator",
    "commutator_of_labels",
    "commutator_table",
    "fixture_commutator_table",
    "O_INDICES",
]

# i-exponent of the ordered product of two single-qubit factors, indexed by
# 4*fa + fb: x.y = i z, y.z = i x, z.x = i y, the reverse orders -i, and
# every other pair no phase
_PHASE = (0, 0, 0, 0, 0, 0, 3, 1, 0, 1, 0, 3, 0, 3, 1, 0)

O_INDICES = tuple(range(2, 17))


class PauliLabel(OrderedRecord):
    """A 2n-bit binary word addressing one n-qubit Pauli tensor."""

    __slots__ = ("value", "width")

    def __init__(self, value, width):
        if width <= 0 or width % 2:
            raise LabelError(f"label width must be positive and even, got {width}")
        if not 0 <= value < (1 << width):
            raise LabelError(f"label value {value} does not fit in {width} bits")
        set_field(self, "value", value)
        set_field(self, "width", width)
        set_key(self, (value, width))

    @classmethod
    def from_bits(cls, bits):
        """Build a label from a bit string such as ``"0101"`` or ``"[0101]"``."""
        word = bits.strip().strip("[]()")
        if not word or set(word) - {"0", "1"}:
            raise LabelError(f"not a binary word: {bits!r}")
        return cls(int(word, 2), len(word))

    @property
    def bits(self):
        return format(self.value, f"0{self.width}b")

    @property
    def qubits(self):
        return self.width // 2

    @property
    def q_index(self):
        return self.value

    @property
    def is_identity(self):
        return self.value == 0

    def factor(self, qubit):
        """2-bit code of one tensor factor; qubit 0 is the most significant."""
        shift = self.width - 2 * (qubit + 1)
        return (self.value >> shift) & 3

    @property
    def factors(self):
        return tuple(self.factor(q) for q in range(self.qubits))

    @property
    def factor_count(self):
        return sum(1 for f in self.factors if f)

    def __str__(self):
        return f"[{self.bits}]"


def q_label(index, qubits=2):
    """The two-qubit operator with the given Q index (1..15 for qubits=2)."""
    width = 2 * qubits
    if not 1 <= index < (1 << width):
        raise LabelError(f"Q index {index} out of range for {qubits} qubits")
    return PauliLabel(index, width)


def all_labels(width, include_identity=False):
    """All labels of the given width in ascending Q order."""
    start = 0 if include_identity else 1
    return tuple(PauliLabel(v, width) for v in range(start, 1 << width))


class Phase(Record):
    """A power of i, stored as the exponent mod 4."""

    __slots__ = ("k",)

    def __init__(self, k):
        k %= 4
        set_field(self, "k", k)
        set_key(self, (k,))

    @property
    def value(self):
        return (1, 1j, -1, -1j)[self.k]


def product(a, b):
    """Label-level product a.b -> (result label, phase).

    The result label is the bitwise XOR; the phase sums the per-qubit
    factor phases, two bits of each word at a time.
    """
    if a.width != b.width:
        raise LabelError(f"width mismatch: {a} vs {b}")
    x, y = a.value, b.value
    k = 0
    while x and y:
        k += _PHASE[(x & 3) << 2 | y & 3]
        x >>= 2
        y >>= 2
    return PauliLabel(a.value ^ b.value, a.width), Phase(k)


def commutes(a, b):
    """True when the symplectic form of the two words is even."""
    if a.width != b.width:
        raise LabelError(f"width mismatch: {a} vs {b}")
    x, y = a.value, b.value
    return not ((x >> 1 & y ^ x & y >> 1) & ((1 << a.width) - 1) // 3).bit_count() & 1


def commutant(a):
    """All other nonidentity labels of the same width commuting with ``a``.

    For two qubits this is always a 6-set, and together with ``a`` it is
    closed under multiplication.
    """
    if a.is_identity:
        raise LabelError("the identity commutes with everything; its commutant is not defined here")
    return tuple(b for b in all_labels(a.width) if b != a and commutes(a, b))


def weight_of(label):
    """Normalization weight 2**-f where f counts non-identity factors."""
    return Fraction(1, 1 << label.factor_count)


# ---------------------------------------------------------------------------
# dictionary (two-qubit operators only)
# ---------------------------------------------------------------------------

class DictionaryEntry(Record):
    __slots__ = ("label", "q_index", "o_index", "tensor_text", "gamma_text", "color", "note")

    def __init__(self, label, q_index, o_index, tensor_text, gamma_text, color, note):
        freeze(self, label, q_index, o_index, tensor_text, gamma_text, color, note)


def _data_text(name):
    return resources.files(__package__).joinpath(f"data/{name}").read_text("utf-8")


@lru_cache(maxsize=None)
def dictionary_entries():
    """The 15 dictionary rows in ascending Q order."""
    rows = []
    for line in _data_text("dictionary.tsv").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        bits, q, o, tensor, gamma, color, note = line.split("\t")
        label = PauliLabel.from_bits(bits)
        entry = DictionaryEntry(label, int(q), int(o), tensor, gamma, color, note)
        if entry.q_index != label.value:
            raise LabelError(f"dictionary row {bits}: Q index {q} does not match the label")
        rows.append(entry)
    rows.sort(key=lambda e: e.q_index)
    # every column must be a bijection over the 15 rows
    for key in ("q_index", "o_index", "color", "note"):
        values = {getattr(e, key) for e in rows}
        if len(rows) != 15 or len(values) != 15:
            raise LabelError(f"dictionary column {key} is not a bijection")
    return tuple(rows)


_NOTE_ASCII = {"b": "♭", "#": "♯"}


def _normalize_note(text):
    if len(text) == 2 and text[1] in _NOTE_ASCII:
        return text[0] + _NOTE_ASCII[text[1]]
    return text


@lru_cache(maxsize=None)
def _dictionary_index():
    by = {"q": {}, "o": {}, "color": {}, "note": {}, "label": {}}
    for e in dictionary_entries():
        by["q"][e.q_index] = e
        by["o"][e.o_index] = e
        by["color"][e.color] = e
        by["note"][e.note] = e
        by["label"][e.label] = e
    return by


def dictionary(key):
    """Look up one dictionary row by any of its unique keys.

    Accepts a PauliLabel, a Q index integer, or a string: ``"Q12"``,
    ``"O5"``, a color code like ``"G2"``, a note like ``"D♯"`` (``"D#"``
    also works), or a 4-bit word like ``"1100"``.
    """
    index = _dictionary_index()
    if isinstance(key, PauliLabel):
        entry = index["label"].get(key)
    elif isinstance(key, int):
        entry = index["q"].get(key)
    elif isinstance(key, str):
        text = key.strip()
        entry = None
        if re.fullmatch(r"Q\d+", text):
            entry = index["q"].get(int(text[1:]))
        elif re.fullmatch(r"O\d+", text):
            entry = index["o"].get(int(text[1:]))
        elif re.fullmatch(r"[BGR][0-4]", text):
            entry = index["color"].get(text)
        elif re.fullmatch(r"\[?[01]{4}\]?", text):
            entry = index["label"].get(PauliLabel.from_bits(text))
        else:
            entry = index["note"].get(_normalize_note(text))
    else:
        raise LabelError(f"unsupported dictionary key type: {type(key).__name__}")
    if entry is None:
        raise LabelError(f"no dictionary entry for key {key!r}")
    return entry


def o_label(o_index):
    """The label carrying the given O index (2..16)."""
    try:
        return _dictionary_index()["o"][o_index].label
    except KeyError:
        raise LabelError(f"no dictionary entry for key 'O{o_index}'") from None


def o_index_of(label):
    try:
        return _dictionary_index()["label"][label].o_index
    except KeyError:
        raise LabelError(f"no dictionary entry for key {label!r}") from None


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

class CommutatorEntry(Record):
    """One cell of the commutator table: coefficient imag*i on O_result
    (a Fraction, and an O index or None)."""

    __slots__ = ("imag", "result_o")

    def __init__(self, imag, result_o):
        freeze(self, imag, result_o)

    @property
    def is_zero(self):
        return self.imag == 0

    @property
    def text(self):
        if self.imag == 0:
            return "0"
        sign = "-" if self.imag < 0 else ""
        mag = abs(self.imag)
        if mag == 1:
            coeff = "i"
        elif mag.numerator == 1:
            coeff = f"i/{mag.denominator}"
        else:
            coeff = f"{mag.numerator}i/{mag.denominator}"
        return f"{sign}{coeff}O{self.result_o}"


def commutator_of_labels(a, b):
    """Commutator of two normalized operators, at the label level.

    Returns ``(imag, label)`` meaning [w_a A, w_b B] = imag * i * w_c C,
    with exact Fraction arithmetic.  ``(0, None)`` when they commute.
    """
    if commutes(a, b):
        return Fraction(0), None
    c, phase = product(a, b)
    # anticommuting labels always multiply with phase +/-i
    if phase.k not in (1, 3):
        raise LabelError(f"unexpected product phase i^{phase.k} for anticommuting pair {a}, {b}")
    sign = 1 if phase.k == 1 else -1
    imag = 2 * sign * weight_of(a) * weight_of(b) / weight_of(c)
    return imag, c


def commutator(i, j):
    """Commutator [O_i, O_j] of two dictionary operators by O index."""
    imag, c = commutator_of_labels(o_label(i), o_label(j))
    return CommutatorEntry(imag, None if c is None else o_index_of(c))


def commutator_table():
    """The full 15 x 15 table keyed by (row O index, column O index)."""
    return {(i, j): commutator(i, j) for i in O_INDICES for j in O_INDICES}


_CELL_RE = re.compile(r"(-?)i(?:/(\d+))?O(\d+)")


def _parse_cell(text):
    if text == "0":
        return CommutatorEntry(Fraction(0), None)
    m = _CELL_RE.fullmatch(text)
    if not m:
        raise LabelError(f"unparseable commutator cell: {text!r}")
    sign, den, o = m.groups()
    imag = Fraction(-1 if sign else 1, int(den) if den else 1)
    return CommutatorEntry(imag, int(o))


@lru_cache(maxsize=None)
def fixture_commutator_table():
    """The shipped table parsed from ``data/commutator_table.txt``."""
    table = {}
    for line in _data_text("commutator_table.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, cells = line.partition(":")
        row = int(head.strip()[1:])
        values = [c.strip() for c in cells.split(",")]
        if len(values) != 15:
            raise LabelError(f"row O{row} has {len(values)} cells, expected 15")
        for col, text in zip(O_INDICES, values):
            table[(row, col)] = _parse_cell(text)
    if len(table) != 225:
        raise LabelError(f"fixture table has {len(table)} cells, expected 225")
    return table
