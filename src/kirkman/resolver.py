"""Resolution of a (15, 3, 1) design into seven day-labeled parallel classes.

A parallel class (a spread) is five disjoint blocks covering all fifteen
points.  Exactly one block of any spread lies inside the seven
leading-bit-zero plane points, since two plane blocks always share a
point; the other four blocks each pair one remaining plane point with two
of the eight leading-bit-one corners.  Days carry nonzero 3-bit labels.
A matching gives every day a plane block through the point with the day's
own bits, and the resolver completes each matched block into a spread so
that the 35 blocks are used exactly once across the week.

The matching, the spreads and the week are exact covers, all found by one
search (Knuth's Algorithm X over bitmasks) that branches on the least
uncovered item.  Days are tried in ascending label order and blocks and
spreads in ascending block order, so the first cover is the
lexicographically least one and repeated runs produce identical output.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from . import pauli
from .designs import Block, Point, _block_index
from .errors import DesignError, ResolutionError
from .record import OrderedRecord, Record, freeze, set_field, set_key
from .report import VerificationReport, check_from_failures as _check

__all__ = [
    "DayLabel",
    "ParallelClass",
    "Resolution",
    "DAY_DISPLAY_ORDER",
    "all_days",
    "match_days",
    "resolve",
    "validate_resolution",
    "enumerate_spreads",
    "reference_week_rows",
    "reference_resolution",
    "reference_matching",
]

_DAY_NAMES = {1: "MON", 2: "TU", 3: "WED", 4: "TH", 5: "FRI", 6: "SAT", 7: "SUN"}
_DAY_VALUES = {name: value for value, name in _DAY_NAMES.items()}


class DayLabel(OrderedRecord):
    """A nonzero 3-bit day label with its fixed weekday name."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not 1 <= value <= 7:
            raise ResolutionError(f"day label must be a nonzero 3-bit word, got {value}")
        set_field(self, "value", value)
        set_key(self, (value,))

    @classmethod
    def from_name(cls, name):
        try:
            return cls(_DAY_VALUES[name.upper()])
        except KeyError:
            raise ResolutionError(f"unknown day name {name!r}") from None

    @classmethod
    def from_bits(cls, bits):
        """Parse the three binary digits ``bits`` gives, such as ``"011"``."""
        if not (isinstance(bits, str) and len(bits) == 3 and set(bits) <= {"0", "1"}):
            raise ResolutionError(f"day label must be three binary digits, got {bits!r}")
        return cls(int(bits, 2))

    @property
    def name(self):
        return _DAY_NAMES[self.value]

    @property
    def bits(self):
        return format(self.value, "03b")

    def __str__(self):
        return f"{self.name}({self.bits})"


def all_days():
    return tuple(DayLabel(v) for v in range(1, 8))


# column order of the printed week: Sunday first
DAY_DISPLAY_ORDER = tuple(DayLabel(v) for v in (7, 1, 2, 3, 4, 5, 6))


class ParallelClass(Record):
    """One day's blocks, in display order (plane block first)."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        set_field(self, "blocks", blocks)
        set_key(self, (blocks,))

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


class Resolution(Record):
    """Classes keyed by day plus the day-to-plane-block matching."""

    __slots__ = ("classes", "matching")

    def __init__(self, classes, matching):
        freeze(self, classes, matching)


@lru_cache(maxsize=16)
def _plane_lines(blocks):
    """The blocks inside the leading-bit-zero plane: all of them below size 4."""
    return tuple(b for b in blocks if all(p.in_plane for p in b.points))


def _exact_covers(n_items, options):
    """Yield every exact cover of the items 0 .. n_items-1, in search order.

    Items are bit positions.  options[i] lists the (key, mask) pairs that
    may cover item i, in the order to try them; each mask has the bits of
    all the items its option covers.  Each cover is yielded as the tuple
    of its options' keys.  The search always branches on the least
    uncovered item, so covers come out ordered lexicographically by the
    options' positions in these lists.
    """
    full = (1 << n_items) - 1
    chosen = []

    def search(covered):
        if covered == full:
            yield tuple(chosen)
            return
        item = (~covered & (covered + 1)).bit_length() - 1
        for key, mask in options[item]:
            if not mask & covered:
                chosen.append(key)
                yield from search(covered | mask)
                chosen.pop()

    return search(0)


@lru_cache(maxsize=16)
def _spreads_of(blocks):
    """Every spread of a size-4 block tuple as an ascending tuple of block
    indices, in ascending order; designs sharing a block tuple share them."""
    options = [[] for _ in range(15)]
    for index, block in enumerate(blocks):
        mask = sum(1 << (p.value - 1) for p in block.points)
        for p in block.points:
            options[p.value - 1].append((index, mask))
    return tuple(_exact_covers(15, options))


def match_days(design):
    """Lexicographically least valid day-to-plane-block matching.

    Defined for size-4 designs (on their seven plane blocks) and size-3
    designs (on all seven blocks).  Each day must receive a block through
    the point carrying the day's own bits; days are filled in ascending
    label order, trying candidate blocks in ascending block order, so the
    first complete matching is the least one.
    """
    if design.m not in (3, 4):
        raise ResolutionError(f"day matching needs a size-3 or size-4 design, got m={design.m}")
    cover = _lex_matching(design.blocks, design.m)
    if cover is None:
        raise ResolutionError("no incidence-respecting day matching exists")
    return dict(zip(all_days(), cover))


@lru_cache(maxsize=16)
def _lex_matching(blocks, m):
    # the matching depends on coordinates only, so designs sharing a block tuple share it
    lines = _plane_lines(blocks)
    days = all_days()
    # items: the days, then the lines
    options = [
        [(line, 1 << d | 1 << (len(days) + i)) for i, line in enumerate(lines) if Point(day.value, m) in line]
        for d, day in enumerate(days)
    ] + [()] * len(lines)
    return next(_exact_covers(len(options), options), None)


def _check_matching(design, matching):
    days = all_days()
    if set(matching) != set(days):
        raise ResolutionError("matching must assign exactly the seven days")
    plane = set(_plane_lines(design.blocks))
    seen = set()
    for day in days:
        block = matching[day]
        if block not in plane:
            raise ResolutionError(f"{day}: {block} is not a plane block of this design")
        if block in seen:
            raise ResolutionError(f"block {block} matched to more than one day")
        seen.add(block)
        if Point(day.value, design.m) not in block:
            raise ResolutionError(f"{day}: matched block {block} misses the day's point")


def resolve(design, matching=None):
    """Deterministically complete a matching into a full resolution.

    The week is the least choice of seven block-disjoint spreads, day by
    day the spread that holds the day's matched plane block.  Every day's
    class is that plane block plus four corner blocks, listed with the
    plane block first and the rest ordered by their plane point.  Raises
    when the design is not resolvable-sized or the matching admits no
    completion (which does not happen for any valid matching; the tests
    resolve all 24 of the canonical design).
    """
    if design.m != 4:
        raise ResolutionError(
            f"D({design.params.v},{design.params.k},1) is not a Kirkman-resolvable size here; resolution needs m=4"
        )
    if matching is None:
        matching = match_days(design)
    _check_matching(design, matching)

    days = all_days()
    index = _block_index(design.blocks)
    week = _week_of(design.blocks, tuple(index[matching[day]] for day in days))
    if week is None:
        raise ResolutionError("matching admits no resolution; the design or matching is corrupted")
    return Resolution(classes=dict(zip(days, week)), matching=dict(matching))


@lru_cache(maxsize=32)
def _week_of(blocks, lines):
    # the week depends on coordinates only, so designs sharing a block tuple
    # share it: the classes, plane block first, of the days matched to lines
    day_of_line = {line: d for d, line in enumerate(lines)}
    # items: the days, then the blocks; every spread holds exactly one plane
    # block, and the matching gives each plane block to one day
    options = [[] for _ in lines] + [()] * len(blocks)
    for spread in _spreads_of(blocks):
        d = next(day_of_line[i] for i in spread if i in day_of_line)
        options[d].append((spread, 1 << d | sum(1 << (len(lines) + i) for i in spread)))
    week = next(_exact_covers(len(options), options), None)
    if week is None:
        return None
    return tuple(
        ParallelClass((blocks[line], *(blocks[i] for i in spread if i != line))) for line, spread in zip(lines, week)
    )


def validate_resolution(design, resolution):
    """Report-style validation of a claimed resolution."""
    checks = []
    days = all_days()
    classes = resolution.classes

    day_bad = []
    if set(classes) != set(days):
        day_bad.append(f"days present: {sorted(d.value for d in classes)}")
    checks.append(_check("exactly the seven days are scheduled", day_bad))

    size_bad = [f"{d}: {len(c)} blocks" for d, c in classes.items() if len(c) != 5]
    checks.append(_check("each class holds five blocks", size_bad))

    known = set(design.blocks)
    foreign = [f"{d}: {b}" for d, c in classes.items() for b in c if b not in known]
    checks.append(_check("all blocks belong to the design", foreign))

    part_bad = []
    for d, c in classes.items():
        seen = [p for b in c for p in b.points]
        if len(seen) != 15 or len(set(seen)) != 15:
            part_bad.append(f"{d} does not partition the point set")
    checks.append(_check("each class partitions the fifteen points", part_bad))

    flat = [b for c in classes.values() for b in c]
    dup_bad = []
    if len(set(flat)) != len(flat):
        dup_bad.append("a block appears in more than one class")
    if set(flat) != known:
        dup_bad.append(f"{len(set(flat))} distinct blocks used, expected {len(known)}")
    checks.append(_check("the 35 blocks are used exactly once across the week", dup_bad))

    match_bad = []
    matched = list(resolution.matching.values())
    if set(resolution.matching) != set(days):
        match_bad.append("matching does not cover the seven days")
    if len(set(matched)) != len(matched):
        match_bad.append("matching reuses a block")
    plane = set(_plane_lines(design.blocks))
    for day, block in resolution.matching.items():
        if block not in plane:
            match_bad.append(f"{day}: matched block is not a plane block")
        elif Point(day.value, design.m) not in block:
            match_bad.append(f"{day}: matched block misses point ({day.bits})")
        if day in classes and block not in classes[day].blocks:
            match_bad.append(f"{day}: matched block absent from its class")
    checks.append(_check("day matching is an incidence-respecting bijection", match_bad))

    return VerificationReport("resolution of " + design.describe(), tuple(checks))


def enumerate_spreads(design):
    """Every spread of the design, canonically ordered.

    Generated by always extending through the least uncovered point, so
    each spread appears exactly once; for a valid size-4 design there are
    56 of them, each containing exactly one plane block.
    """
    if design.m != 4:
        raise ResolutionError(f"spread enumeration needs a size-4 design, got m={design.m}")
    return tuple(ParallelClass(tuple(design.blocks[i] for i in spread)) for spread in _spreads_of(design.blocks))


# ---------------------------------------------------------------------------
# shipped weekly arrangement
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def reference_week_rows():
    """Rows of the shipped week as color codes (primes stripped).

    Returns a dict DayLabel -> tuple of five rows, each a 3-tuple of color
    codes, preserving the printed row and cell order.
    """
    text = resources.files(__package__).joinpath("data/reference_week.txt").read_text("utf-8")
    rows = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, body = line.partition(":")
        name, bits = head.split()
        day = DayLabel.from_bits(bits)
        if day.name != name:
            raise ResolutionError(f"reference week: day {name} does not carry bits {bits}")
        parsed = []
        for cell in body.split("|"):
            codes = tuple(code.rstrip("'") for code in cell.split())
            if len(codes) != 3:
                raise ResolutionError(f"reference week: row {cell!r} does not hold three codes")
            parsed.append(codes)
        if len(parsed) != 5:
            raise ResolutionError(f"reference week: day {name} has {len(parsed)} rows")
        rows[day] = tuple(parsed)
    if len(rows) != 7:
        raise ResolutionError(f"reference week lists {len(rows)} days")
    return rows


def reference_resolution(design):
    """Decode the shipped week against a design, reporting any mismatch.

    Each color code is resolved through the operator dictionary to the
    design point carrying that operator; rows must then form blocks of the
    design.  Nothing is patched: a transcription or design mismatch raises
    with the offending row.
    """
    point_of = {label: point for point, label in design.assignment.items()}
    classes = {}
    matching = {}
    for day in all_days():
        blocks = []
        for codes in reference_week_rows()[day]:
            points = []
            for code in codes:
                label = pauli.dictionary(code).label
                if label not in point_of:
                    raise ResolutionError(f"{day}: color {code} names an operator absent from {design.describe()}")
                points.append(point_of[label])
            try:
                block = Block.of(*points)
            except DesignError as exc:
                raise ResolutionError(f"{day}: row {' '.join(codes)} is not a block: {exc}") from exc
            blocks.append(block)
        classes[day] = ParallelClass(tuple(blocks))
        plane_rows = [b for b in blocks if all(p.in_plane for p in b.points)]
        if len(plane_rows) != 1:
            raise ResolutionError(f"{day}: expected exactly one plane row, found {len(plane_rows)}")
        matching[day] = plane_rows[0]
    ordered = {day: classes[day] for day in all_days()}
    return Resolution(classes=ordered, matching={day: matching[day] for day in all_days()})


def reference_matching(design):
    """The day-to-plane-block matching encoded by the shipped week."""
    return reference_resolution(design).matching
