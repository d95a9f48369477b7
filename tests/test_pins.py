"""Byte pins of the week pipeline over a seeded sample of designs.

Every design shares its coordinates with the others, so whatever the
pipeline computes from coordinates alone may be reused across designs.
These digests were recorded before any such reuse, and each document and
SVG must stay byte-identical to them.
"""

import hashlib
import random

import pytest

from kirkman import colors, designs, oracle, pauli, resolver, serialize

SAMPLE_SEED, SAMPLE_SIZE = 20160, 200

PINNED = {
    "document": "d5c7278d339bb6f4b56c6c6cea0c0e445843112eb3b276f84253869088bd97cf",
    "resolved document": "2c21326159e98f52d2de337a5e29a7296553d8387e2017825f81d6f0028b5f4a",
    "tiling": "a86d5f03835a9d96a21948a585b9a8b14a66c9e928c0269378b8863d34756dcf",
    "tetrahedron": "d2a9568a82c999799257c3169f020add5dc081ec8bce4e02d8ceaff42d37c0e2",
    "cube": "ffe0936318e2a1f25d5582e931670d4c09260ad709968626ec27498931036126",
    "table4 resolved document": "206f568b0cad6655cc1406a54da0986bc863e383b5d9b4a76155d9d2f5715005",
    "table4 tiling": "2cf87949dcd0ca2328b4b1ee9dfa91615a73a9cf6caee93f1aedbbe7a1efe0a9",
}


def _texts(design, resolution, tmp_path):
    path = tmp_path / "doc.json"
    serialize.save_document(path, design)
    unresolved = path.read_text("utf-8")
    serialize.save_document(path, design, resolution)
    return unresolved, path.read_text("utf-8"), colors.render_tiling(design, resolution)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pins")
    sample = random.Random(SAMPLE_SEED).sample(list(oracle.independent_tuples(4)), SAMPLE_SIZE)
    hashes = {name: hashlib.sha256() for name in PINNED}
    for seeds in sample:
        design = designs.expand_seeds(tuple(pauli.q_label(q) for q in seeds))
        unresolved, resolved, tiling = _texts(design, resolver.resolve(design), tmp_path)
        hashes["document"].update(unresolved.encode())
        hashes["resolved document"].update(resolved.encode())
        hashes["tiling"].update(tiling.encode())
        for layout in ("tetrahedron", "cube"):
            hashes[layout].update(colors.render_diagram(design, layout).encode())
    canonical = designs.expand_seeds(tuple(pauli.q_label(q) for q in (12, 10, 4, 11)))
    table4 = resolver.resolve(canonical, resolver.reference_matching(canonical))
    _, resolved, tiling = _texts(canonical, table4, tmp_path)
    hashes["table4 resolved document"].update(resolved.encode())
    hashes["table4 tiling"].update(tiling.encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_their_pins(digests, name):
    assert digests[name] == PINNED[name]
