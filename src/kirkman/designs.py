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
from dataclasses import dataclass
from functools import lru_cache

from . import pauli
from .errors import DependentSeedsError, DesignError, RenderError, SeedError

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


@dataclass(frozen=True, order=True)
class Point:
    """An m-bit design coordinate (never an operator label)."""

    value: int
    width: int

    def __post_init__(self):
        if self.width <= 0:
            raise DesignError(f"point width must be positive, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise DesignError(f"point value {self.value} does not fit in {self.width} bits")

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


@dataclass(frozen=True, order=True)
class Block:
    """Three distinct points whose coordinates XOR to zero."""

    points: tuple

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


@dataclass(frozen=True)
class DesignParams:
    v: int
    b: int
    r: int
    k: int
    lam: int

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


@dataclass(frozen=True)
class Design:
    """A fully expanded design; treat all members as immutable."""

    m: int
    seeds: tuple
    points: tuple
    assignment: dict
    blocks: tuple
    kinds: dict
    params: DesignParams

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
    m = len(seeds)
    if m not in (1, 2, 3, 4):
        raise SeedError(f"seed count must be between 1 and 4, got {m}")
    widths = {s.width for s in seeds}
    if len(widths) != 1:
        raise SeedError(f"seeds must share one width, got widths {sorted(widths)}")
    for i, s in enumerate(seeds, start=1):
        if s.is_identity:
            raise SeedError(f"seed {i} is the identity; seeds must be nonidentity operators")
    # search minimal XOR-zero subsets, smallest first, then lexicographic
    for size in range(2, m + 1):
        for combo in itertools.combinations(range(m), size):
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


@lru_cache(maxsize=None)
def _point_set(m):
    return tuple(Point(v, m) for v in range(1, 1 << m))


@lru_cache(maxsize=None)
def enumerate_blocks(m):
    """All XOR-zero point triples for a supported size."""
    if m not in (2, 3, 4):
        raise DesignError(f"block enumeration is defined for m in 2..4, got {m}")
    blocks = []
    points = _point_set(m)
    for a, b in itertools.combinations(points, 2):
        c = a.value ^ b.value
        if c > b.value:
            blocks.append(Block.of(a, b, Point(c, m)))
    return tuple(sorted(blocks))


def _classify(ops):
    a, b, c = ops
    ab = pauli.commutes(a, b)
    ac = pauli.commutes(a, c)
    bc = pauli.commutes(b, c)
    if ab and ac and bc:
        return BlockKind.COMMUTING
    if not (ab or ac or bc):
        return BlockKind.CYCLIC
    raise DesignError("block is neither commuting nor cyclic; assignment is not linear")


def expand_seeds(seeds):
    """Expand a seed tuple into its full design."""
    seeds = tuple(seeds)
    validate_seeds(seeds)
    m = len(seeds)
    width = seeds[0].width
    points = _point_set(m)
    assignment = {}
    for point in points:
        acc = 0
        for i, seed in enumerate(seeds):
            # bit i from the most significant end selects seed i
            if point.value >> (m - 1 - i) & 1:
                acc ^= seed.value
        assignment[point] = pauli.PauliLabel(acc, width)
    blocks = enumerate_blocks(m) if m >= 2 else ()
    kinds = {blk: _classify([assignment[p] for p in blk.points]) for blk in blocks}
    return Design(
        m=m,
        seeds=seeds,
        points=points,
        assignment=assignment,
        blocks=blocks,
        kinds=kinds,
        params=DesignParams.from_m(m),
    )


def classify_block(design, block):
    if block not in design.kinds:
        raise DesignError(f"block {block} does not belong to {design.describe()}")
    return design.kinds[block]


def fano_subdesign(design):
    """Restriction of a size-4 design to its seven leading-bit-zero points."""
    if design.m != 4:
        raise DesignError(f"fano_subdesign needs m=4, got m={design.m}")
    sub_points = tuple(Point(p.value, 3) for p in design.points if p.in_plane)
    assignment = {p: design.assignment[Point(p.value, 4)] for p in sub_points}
    blocks = enumerate_blocks(3)
    kinds = {blk: _classify([assignment[p] for p in blk.points]) for blk in blocks}
    return Design(
        m=3,
        seeds=design.seeds[1:],
        points=sub_points,
        assignment=assignment,
        blocks=blocks,
        kinds=kinds,
        params=DesignParams.from_m(3),
    )


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

@dataclass(frozen=True)
class Placement:
    """A drawing position for a point; duplicates share the same point."""

    point: Point
    x: float
    y: float
    primary: bool = True


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


def _simplex_placements(design, vertices):
    placements = []
    for point in design.points:
        chosen = [pos for bit, pos in vertices.items() if point.value & bit]
        x, y = _mean(chosen)
        placements.append(Placement(point, x, y, True))
    return tuple(placements)


def _cube_corner_position(value):
    # value is a 4-bit corner (1xyz): x to the right, y up, z into the page
    x = (value >> 2) & 1
    y = (value >> 1) & 1
    z = value & 1
    px = 0.12 + 0.55 * x + 0.28 * z
    py = 0.88 - 0.55 * y - 0.24 * z
    return (px, py)


def _cube_placements(design):
    corners = [p for p in design.points if not p.in_plane]
    inner = [p for p in design.points if p.in_plane]
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
    if layout == "triangle":
        if design.m != 3:
            raise RenderError(f"triangle layout needs a size-3 design, got m={design.m}")
        return _simplex_placements(design, _TRI_VERTICES)
    if design.m != 4:
        raise RenderError(f"{layout} layout needs a size-4 design, got m={design.m}")
    if layout == "tetrahedron":
        return _simplex_placements(design, _TETRA_VERTICES)
    return _cube_placements(design)
