"""Triple-system designs expanded from seed operators.

An ordered tuple of m GF(2)-independent seeds spans a (2^m - 1, 3, 1)
design.  Points are the nonzero m-bit words, written in round brackets to
keep them apart from operator labels; the first seed sits at point
(10...0) and the last at (0...01), and the operator on any point is the
XOR-product of the seeds selected by its set bits.  Blocks are the point
triples whose coordinates XOR to zero; each block's three operators either
pairwise commute or pairwise anticommute, never a mix.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache

from . import pauli
from .errors import DependentSeedsError, DesignError, RenderError, SeedError
from .record import HashedRecord, Record, freeze, set_field, set_key

__all__ = [
    "Point",
    "Block",
    "BlockKind",
    "DesignParams",
    "Design",
    "Placement",
    "validate_seeds",
    "expand_seeds",
    "enumerate_blocks",
    "classify_block",
    "fano_subdesign",
    "embed_coordinates",
    "display_order",
    "LAYOUTS",
]

LAYOUTS = ("triangle", "cube", "tetrahedron")


class Point(HashedRecord):
    """An m-bit design coordinate (never an operator label)."""

    __slots__ = ("value", "width")

    def __init__(self, value, width):
        if width <= 0:
            raise DesignError(f"point width must be positive, got {width}")
        if not 0 <= value < (1 << width):
            raise DesignError(f"point value {value} does not fit in {width} bits")
        set_field(self, "value", value)
        set_field(self, "width", width)
        set_key(self, (value, width))
        set_field(self, "_hash", hash((value, width)))

    @classmethod
    def from_bits(cls, bits):
        word = bits.strip().strip("()")
        if not word or set(word) - {"0", "1"}:
            raise DesignError(f"not a binary coordinate: {bits!r}")
        return cls(int(word, 2), len(word))

    @property
    def bits(self):
        return format(self.value, f"0{self.width}b")

    @property
    def in_plane(self):
        """On the Fano plane: every point of width 3 or less, and the 4-bit
        points whose leading bit is zero."""
        return not self.value >> 3

    def __str__(self):
        return f"({self.bits})"


class Block(HashedRecord):
    """Three distinct points whose coordinates XOR to zero."""

    __slots__ = ("points",)

    def __init__(self, points):
        set_field(self, "points", points)
        set_key(self, (points,))
        set_field(self, "_hash", hash((points,)))

    @classmethod
    def of(cls, a, b, c):
        pts = tuple(sorted((a, b, c)))
        if len({p.value for p in pts}) != 3 or len({p.width for p in pts}) != 1:
            raise DesignError(f"block needs three distinct equal-width points, got {pts}")
        if pts[0].value ^ pts[1].value ^ pts[2].value:
            raise DesignError(f"points {pts[0]}, {pts[1]}, {pts[2]} do not XOR to zero")
        return cls(pts)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        return point in self.points

    def __str__(self):
        return "{" + ", ".join(str(p) for p in self.points) + "}"


class BlockKind(enum.Enum):
    COMMUTING = "commuting"
    CYCLIC = "cyclic"


class DesignParams(Record):
    __slots__ = ("v", "b", "r", "k", "lam")

    def __init__(self, v, b, r, k, lam):
        freeze(self, v, b, r, k, lam)

    @classmethod
    def from_m(cls, m):
        v = (1 << m) - 1
        # the single-point system is conventionally written (1, 1, 1)
        k = 1 if m == 1 else 3
        return cls(v=v, b=v * (v - 1) // 6, r=(v - 1) // 2, k=k, lam=1)

    @classmethod
    def from_v(cls, v):
        m = v.bit_length()
        if v <= 0 or v != (1 << m) - 1:
            raise DesignError(f"v={v} is not of the form 2^m - 1; this engine cannot construct it")
        return cls.from_m(m)


class Design(Record):
    """A fully expanded design; treat all members as immutable.

    ``assignment`` and ``kinds`` are dicts listing their keys in the order
    of ``points`` and ``blocks``.
    """

    __slots__ = ("m", "seeds", "points", "assignment", "blocks", "kinds", "params")

    def __init__(self, m, seeds, points, assignment, blocks, kinds, params):
        set_field(self, "m", m)
        set_field(self, "seeds", seeds)
        set_field(self, "points", points)
        set_field(self, "assignment", assignment)
        set_field(self, "blocks", blocks)
        set_field(self, "kinds", kinds)
        set_field(self, "params", params)
        set_key(self, (m, seeds, points, assignment, blocks, kinds, params))

    def label_at(self, point):
        try:
            return self.assignment[point]
        except KeyError:
            raise DesignError(f"{point} is not a point of this design") from None

    def point_of(self, label):
        for point, assigned in self.assignment.items():
            if assigned == label:
                return point
        raise DesignError(f"{label} is not assigned in this design")

    def describe(self):
        p = self.params
        seeds = ",".join(f"Q{s.q_index}" for s in self.seeds)
        return f"D({p.v},{p.k},{p.lam})|{seeds}>"


def validate_seeds(seeds):
    """Reject empty, oversized, identity-bearing or dependent seed tuples."""
    _seed_words(seeds)


def _seed_words(seeds):
    """Validate a seed tuple and return the label word of every coordinate.

    Index x of the result holds the XOR of the seeds that x's set bits
    select (index 0 holds 0).  The words are filled by doubling, one XOR
    per coordinate: the seed of bit b gives words[b | x] = words[x] ^ seed
    for every x below b.
    """
    m = len(seeds)
    if m not in (1, 2, 3, 4):
        raise SeedError(f"seed count must be between 1 and 4, got {m}")
    widths = {s.width for s in seeds}
    if len(widths) != 1:
        raise SeedError(f"seeds must share one width, got widths {sorted(widths)}")
    for i, s in enumerate(seeds, start=1):
        if s.is_identity:
            raise SeedError(f"seed {i} is the identity; seeds must be nonidentity operators")
    words = [0]
    # the last seed sits at bit 0, the first at bit m - 1
    for seed in reversed(seeds):
        value = seed.value
        words += [w ^ value for w in words]
    if words.count(0) > 1:
        _raise_dependent(seeds)
    return words


def _raise_dependent(seeds):
    # name the first minimal XOR-zero subset, smallest first, then lexicographic
    for size in range(2, len(seeds) + 1):
        for combo in itertools.combinations(range(len(seeds)), size):
            acc = 0
            for i in combo:
                acc ^= seeds[i].value
            if acc == 0:
                positions = tuple(i + 1 for i in combo)
                labels = tuple(seeds[i] for i in combo)
                shown = ", ".join(str(l) for l in labels)
                raise DependentSeedsError(
                    f"seeds are GF(2)-dependent: positions {positions} ({shown}) multiply to the identity",
                    positions,
                    labels,
                )


def enumerate_blocks(m):
    """All XOR-zero point triples for a supported size."""
    if m not in (2, 3, 4):
        raise DesignError(f"block enumeration is defined for m in 2..4, got {m}")
    return _tables(m).blocks


class _Tables(Record):
    """What every design of one size shares; only the labels differ.

    ``pairs`` holds the coordinate values of each block's point pairs,
    three per block in block order: (a, b), (a, c), (b, c).  ``kinds``
    caches the kinds dict of each commutation pattern of those pairs
    seen so far.  A linear assignment's commutation is an alternating
    form on the coordinates, so there are at most 2^(m(m-1)/2) patterns
    (64 at m=4, of which two-qubit seeds reach 28).
    """

    __slots__ = ("points", "blocks", "pairs", "params", "kinds")

    def __init__(self, points, blocks, pairs, params, kinds):
        freeze(self, points, blocks, pairs, params, kinds)


@lru_cache(maxsize=None)
def _tables(m):
    points = tuple(Point(v, m) for v in range(1, 1 << m))
    blocks = sorted(
        Block.of(a, b, points[(a.value ^ b.value) - 1])
        for a, b in itertools.combinations(points, 2)
        if a.value ^ b.value > b.value
    )
    pairs = []
    for block in blocks:
        a, b, c = (p.value for p in block.points)
        pairs += [(a, b), (a, c), (b, c)]
    return _Tables(points, tuple(blocks), tuple(pairs), DesignParams.from_m(m), {})


@lru_cache(maxsize=16)
def _block_index(blocks):
    """Each block's position in ``blocks``."""
    return {block: i for i, block in enumerate(blocks)}


def _kinds(tables, pattern):
    """A fresh kinds dict for the commutation pattern of ``tables.pairs``."""
    kinds = tables.kinds.get(pattern)
    if kinds is None:
        kinds = {}
        for i, block in enumerate(tables.blocks):
            ab, ac, bc = pattern[3 * i : 3 * i + 3]
            if ab and ac and bc:
                kinds[block] = BlockKind.COMMUTING
            elif not (ab or ac or bc):
                kinds[block] = BlockKind.CYCLIC
            else:
                raise DesignError("block is neither commuting nor cyclic; assignment is not linear")
        tables.kinds[pattern] = kinds
    return kinds.copy()


def _design(m, seeds, labels):
    """The size-m design whose point of coordinate x carries labels[x]."""
    tables = _tables(m)
    commutes = pauli.commutes
    pattern = tuple([commutes(labels[x], labels[y]) for x, y in tables.pairs])
    return Design(
        m=m,
        seeds=seeds,
        points=tables.points,
        assignment=dict(zip(tables.points, labels[1:])),
        blocks=tables.blocks,
        kinds=_kinds(tables, pattern),
        params=tables.params,
    )


def expand_seeds(seeds):
    """Expand a seed tuple into its full design."""
    seeds = tuple(seeds)
    words = _seed_words(seeds)
    width = seeds[0].width
    return _design(len(seeds), seeds, [pauli.PauliLabel(w, width) for w in words])


def classify_block(design, block):
    if block not in design.kinds:
        raise DesignError(f"block {block} does not belong to {design.describe()}")
    return design.kinds[block]


def fano_subdesign(design):
    """Restriction of a size-4 design to its seven leading-bit-zero points."""
    if design.m != 4:
        raise DesignError(f"fano_subdesign needs m=4, got m={design.m}")
    labels = [None] + [design.assignment[p] for p in design.points if p.in_plane]
    return _design(3, design.seeds[1:], labels)


def display_order(design, block):
    """Within-block point order used for display, chords and tiles.

    Commuting blocks are sorted by coordinate.  Cyclic blocks follow the
    orientation in which each ordered product of consecutive operators
    carries phase +i, starting from the least coordinate.
    """
    pts = block.points
    if classify_block(design, block) is BlockKind.COMMUTING:
        return pts
    first = pts[0]
    rest = list(pts[1:])
    for second in rest:
        _, phase = pauli.product(design.assignment[first], design.assignment[second])
        if phase.k == 1:
            third = rest[0] if second is rest[1] else rest[1]
            return (first, second, third)
    raise DesignError(f"no +i orientation found for cyclic block {block}")


# ---------------------------------------------------------------------------
# drawing coordinates
# ---------------------------------------------------------------------------

class Placement(Record):
    """A drawing position for a point; duplicates share the same point."""

    __slots__ = ("point", "x", "y", "primary")

    def __init__(self, point, x, y, primary=True):
        set_field(self, "point", point)
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "primary", primary)
        set_key(self, (point, x, y, primary))


_TRI_VERTICES = {
    0b100: (0.5, 0.07),
    0b010: (0.07, 0.82),
    0b001: (0.93, 0.82),
}

_TETRA_VERTICES = {
    0b1000: (0.50, 0.06),
    0b0100: (0.06, 0.90),
    0b0010: (0.94, 0.90),
    0b0001: (0.62, 0.58),
}


def _mean(positions):
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    return (sum(xs) / len(xs), sum(ys) / len(ys))


def _cube_corner_position(value):
    # value is a 4-bit corner (1xyz): x to the right, y up, z into the page
    x = (value >> 2) & 1
    y = (value >> 1) & 1
    z = value & 1
    px = 0.12 + 0.55 * x + 0.28 * z
    py = 0.88 - 0.55 * y - 0.24 * z
    return (px, py)


def _cube_placements(points):
    corners = [p for p in points if not p.in_plane]
    inner = [p for p in points if p.in_plane]
    placements = [Placement(c, *_cube_corner_position(c.value), True) for c in corners]
    base = 0b1000
    for point in inner:
        seen = set()
        for corner in corners:
            other = corner.value ^ point.value
            if other < corner.value:
                continue  # each corner pair once
            pos = _mean([_cube_corner_position(corner.value), _cube_corner_position(other)])
            if pos in seen:
                continue  # geometrically coincident pair (face or body diagonal)
            seen.add(pos)
            primary = corner.value == base or other == base
            placements.append(Placement(point, pos[0], pos[1], primary))
    return tuple(placements)


def embed_coordinates(design, layout):
    """2D drawing positions for every point, duplicates included.

    The cube layout puts the eight leading-bit-one points at the corners
    and every other point at all of its corner-pair midpoints (edge
    midpoints, the two centers of opposite faces, the body center); the
    placement on a segment through corner (1000) is marked primary.
    """
    if layout not in LAYOUTS:
        raise RenderError(f"unknown layout {layout!r}; pick one of {', '.join(LAYOUTS)}")
    size = 3 if layout == "triangle" else 4
    if design.m != size:
        raise RenderError(f"{layout} layout needs a size-{size} design, got m={design.m}")
    return _placements(design.points, layout)


@lru_cache(maxsize=16)
def _placements(points, layout):
    # placements depend on coordinates only, so designs sharing points share them
    if layout == "cube":
        return _cube_placements(points)
    vertices = _TRI_VERTICES if layout == "triangle" else _TETRA_VERTICES
    return tuple(Placement(p, *_mean([pos for bit, pos in vertices.items() if p.value & bit]), True) for p in points)
