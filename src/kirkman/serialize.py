"""Design documents: a JSON-shaped text format for designs and resolutions.

A document records the seed Q-indices, every point with its dictionary
row, the canonical block list with kinds, and optionally the seven
day-labeled classes as indices into that block list.  Loading rebuilds
the design from the seeds alone and cross-checks every recorded field,
so a tampered document is rejected rather than trusted.
"""

from __future__ import annotations

import json
from functools import lru_cache

from . import pauli
from .designs import _block_index, enumerate_blocks, expand_seeds
from .errors import DocumentError, KirkmanError
from .resolver import DAY_DISPLAY_ORDER, DayLabel, ParallelClass, Resolution, all_days, validate_resolution

__all__ = [
    "FORMAT",
    "design_to_doc",
    "to_json",
    "save_document",
    "load_document",
]

FORMAT = "kirkman-design/1"


def design_to_doc(design, resolution=None):
    """Plain-dict form of a design, with day classes when a resolution is given."""
    doc = {
        "format": FORMAT,
        "m": design.m,
        "seeds": [s.q_index for s in design.seeds],
        "points": [
            {"coord": p.bits, "q": e.q_index, "o": e.o_index, "color": e.color, "note": e.note}
            for p, e in zip(design.points, map(pauli.dictionary, design.assignment.values()))
        ],
        "blocks": [[p.bits for p in blk.points] for blk in design.blocks],
        "kinds": [kind.value for kind in design.kinds.values()],
    }
    if resolution is not None:
        index_of = _block_index(design.blocks)
        doc["days"] = [
            {
                "label": day.bits,
                "name": day.name,
                "blocks": [index_of[blk] for blk in resolution.classes[day]],
            }
            for day in DAY_DISPLAY_ORDER
        ]
    return doc


def to_json(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save_document(path, design, resolution=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(design_to_doc(design, resolution)))


def _require(cond, message):
    if not cond:
        raise DocumentError(message)


def _exact(value, expected):
    """Equal in type as well as value, so 4.0 or true does not stand for an int."""
    return type(value) is type(expected) and value == expected


def _rebuild_design(doc):
    seeds_field = doc.get("seeds")
    _require(isinstance(seeds_field, list) and seeds_field, "document lacks a seed list")
    _require(all(type(q) is int for q in seeds_field), f"seeds {seeds_field!r} are not all integers")
    try:
        design = expand_seeds(tuple(pauli.q_label(q) for q in seeds_field))
    except KirkmanError as exc:
        raise DocumentError(f"document seeds are invalid: {exc}") from exc
    _require(_exact(doc.get("m"), design.m), f"m={doc.get('m')!r} does not match {design.m} seeds")
    return design


def _check_points(doc, design):
    points_field = doc.get("points")
    _require(isinstance(points_field, list), "document lacks a point list")
    _require(
        len(points_field) == len(design.points),
        f"expected {len(design.points)} points, found {len(points_field)}",
    )
    for row, point in zip(points_field, design.points):
        _require(isinstance(row, dict), f"point entry {row!r} is not an object")
        _require(row.get("coord") == point.bits, f"point order mismatch at ({row.get('coord')})")
        label = design.assignment[point]
        entry = pauli.dictionary(label)
        recorded = (row.get("q"), row.get("o"), row.get("color"), row.get("note"))
        actual = (label.q_index, entry.o_index, entry.color, entry.note)
        if not all(map(_exact, recorded, actual)):
            raise DocumentError(f"point ({point.bits}) records {recorded}, but the seeds give {actual}")


@lru_cache(maxsize=None)
def _coordinate_rows(m):
    """The block list of a size-m document: each block's coordinate strings."""
    return tuple(tuple(p.bits for p in blk.points) for blk in (enumerate_blocks(m) if m >= 2 else ()))


def _check_blocks(doc, design):
    blocks_field = doc.get("blocks")
    kinds_field = doc.get("kinds")
    _require(isinstance(blocks_field, list), "document lacks a block list")
    _require(isinstance(kinds_field, list), "document lacks a kind list")
    _require(
        len(blocks_field) == len(design.blocks) == len(kinds_field),
        f"expected {len(design.blocks)} blocks and kinds",
    )
    # the design was expanded from the seeds, so its kinds follow its blocks;
    # messages are formatted only on failure
    rows = zip(blocks_field, _coordinate_rows(design.m), design.blocks, kinds_field, design.kinds.values())
    for row, coords, blk, kind, actual in rows:
        if not (isinstance(row, list) and len(row) == 3):
            raise DocumentError(f"block entry {row!r} is not a coordinate triple")
        if tuple(row) != coords:
            raise DocumentError(f"block list diverges from the canonical enumeration at {row}")
        if kind != actual.value:
            raise DocumentError(f"block {blk} records kind {kind!r}, but the operators give {actual.value!r}")


def _rebuild_resolution(doc, design):
    days_field = doc["days"]
    _require(isinstance(days_field, list) and len(days_field) == 7, "day list must have 7 entries")
    classes = {}
    matching = {}
    for row in days_field:
        _require(isinstance(row, dict), f"day entry {row!r} is not an object")
        try:
            day = DayLabel.from_bits(row.get("label"))
        except KirkmanError as exc:
            raise DocumentError(f"bad day label {row.get('label')!r}") from exc
        _require(row.get("name") == day.name, f"day {day.bits} misnamed {row.get('name')!r}")
        _require(day not in classes, f"day {day} appears twice")
        indices = row.get("blocks")
        _require(isinstance(indices, list) and len(indices) == 5, f"day {day} needs 5 block indices")
        blocks = []
        for i in indices:
            _require(type(i) is int and 0 <= i < len(design.blocks), f"bad block index {i!r}")
            blocks.append(design.blocks[i])
        classes[day] = ParallelClass(tuple(blocks))
        plane = [b for b in blocks if all(p.in_plane for p in b.points)]
        _require(len(plane) == 1, f"day {day} does not hold exactly one plane block")
        matching[day] = plane[0]
    _require(set(classes) == set(all_days()), "day list does not cover the week")
    resolution = Resolution(
        classes={day: classes[day] for day in all_days()},
        matching={day: matching[day] for day in all_days()},
    )
    failures = validate_resolution(design, resolution).failures
    if failures:
        first = failures[0]
        raise DocumentError(f"day classes are not a resolution: {first.name} ({'; '.join(first.details)})")
    return resolution


def load_document(path):
    """Read, validate and rebuild a document; returns (design, resolution or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path} is not well-formed: {exc}") from exc
    _require(isinstance(doc, dict), "document root must be an object")
    _require(doc.get("format") == FORMAT, f"unrecognized format {doc.get('format')!r}")
    design = _rebuild_design(doc)
    _check_points(doc, design)
    _check_blocks(doc, design)
    resolution = None
    if "days" in doc:
        _require(design.m == 4, "day classes only belong to size-4 documents")
        resolution = _rebuild_resolution(doc, design)
    return design, resolution
