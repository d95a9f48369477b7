"""Output checks computed apart from the program.

Every check takes plain data (point values 1..15, label values, bit
strings, file paths) and raises CheckError on disagreement.  Nothing here
calls ``kirkman``: the expected values come from the definitions of the
objects and from the formulas the package documents.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import wave
import xml.etree.ElementTree as ET
from collections import Counter

POINTS = tuple(range(1, 16))
ALL_PAIRS = frozenset(itertools.combinations(POINTS, 2))
SVG = "{http://www.w3.org/2000/svg}"
WAV_FULL_SCALE = 32767


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's computation."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def commutes(a, b):
    """Symplectic commutation of Pauli words under I=00, z=01, y=10, x=11.

    Per qubit the form is a_hi*b_lo + a_lo*b_hi (mod 2); the words commute
    when the sum over qubits is even.
    """
    return bin((((a >> 1) & b) ^ (a & (b >> 1))) & 0x5555).count("1") % 2 == 0


def expand(seeds):
    """Point value -> operator word: the XOR of the seeds its bits select.

    The first seed sits at point 1000 and the last at 0001.
    """
    return {
        p: functools.reduce(operator.xor, (s for i, s in enumerate(seeds) if p >> (3 - i) & 1), 0)
        for p in POINTS
    }


def check_design(blocks, label_of, kinds):
    """A (15, 3, 1) design: every pair once, 15 commuting and 20 cyclic blocks.

    ``blocks`` holds point-value triples, ``label_of`` maps a point value to
    its operator's word and ``kinds`` gives each block's recorded kind.
    """
    require(sorted(label_of) == list(POINTS), "points are not the 15 nonzero words")
    require(sorted(label_of.values()) == list(POINTS), "labels are not the 15 nonidentity operators")
    require(len(blocks) == len(kinds) == 35, f"{len(blocks)} blocks and {len(kinds)} kinds, expected 35")
    require(all(a ^ b ^ c == 0 for a, b, c in blocks), "a block does not XOR to zero")
    pairs = Counter(pair for block in blocks for pair in itertools.combinations(sorted(block), 2))
    require(set(pairs) == ALL_PAIRS, f"{len(ALL_PAIRS - set(pairs))} point pairs lie in no block")
    require(set(pairs.values()) == {1}, "a point pair lies in two blocks")
    own = []
    for block, kind in zip(blocks, kinds):
        a, b, c = (label_of[p] for p in block)
        flags = {commutes(a, b), commutes(a, c), commutes(b, c)}
        require(len(flags) == 1, f"block {block} mixes commuting and anticommuting pairs")
        expected = "commuting" if flags == {True} else "cyclic"
        require(kind == expected, f"block {block} recorded {kind}, symplectic form gives {expected}")
        own.append(expected)
    require((own.count("commuting"), own.count("cyclic")) == (15, 20), "not 15 commuting and 20 cyclic blocks")


def _is_partition(blocks):
    return sorted(p for block in blocks for p in block) == list(POINTS)


def check_week(days, blocks):
    """Seven days of five blocks, each day a partition, each block used once."""
    require(len(days) == 7, f"{len(days)} days, expected 7")
    for i, day in enumerate(days):
        require(len(day) == 5 and _is_partition(day), f"day {i} does not partition the 15 points")
    used = [frozenset(block) for day in days for block in day]
    require(len(set(used)) == 35, "a block is used on two days")
    require(set(used) == {frozenset(block) for block in blocks}, "the week uses a block outside the design")


def check_spreads(spreads, blocks):
    """56 distinct partitions of the points into blocks of the design."""
    require(len(spreads) == 56, f"{len(spreads)} spreads, expected 56")
    known = {frozenset(block) for block in blocks}
    distinct = set()
    for spread in spreads:
        require(len(spread) == 5 and _is_partition(spread), f"spread {spread} is not a partition")
        require(all(frozenset(block) in known for block in spread), f"spread {spread} uses a foreign block")
        distinct.add(frozenset(frozenset(block) for block in spread))
    require(len(distinct) == 56, f"{len(distinct)} distinct spreads, expected 56")


def check_document(doc, seeds):
    """A resolved JSON document of the given seeds: design and week both valid."""
    require(doc.get("seeds") == list(seeds), f"document seeds {doc.get('seeds')} differ from {list(seeds)}")
    label_of = {int(row["coord"], 2): row["q"] for row in doc["points"]}
    require(label_of == expand(seeds), "document points are not the seed expansion")
    blocks = [tuple(int(bits, 2) for bits in row) for row in doc["blocks"]]
    check_design(blocks, label_of, doc["kinds"])
    check_week([[blocks[i] for i in day["blocks"]] for day in doc["days"]], blocks)


def check_same(what, original, reloaded):
    require(original == reloaded, f"reloaded document changes the {what}")


def _parse_svg(text):
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse as XML: {exc}") from None


def check_tiling_svg(text):
    """Well-formed SVG with 105 tiles, seven days of 15 distinct fills."""
    root = _parse_svg(text)
    tiles = [e for e in root.iter(SVG + "rect") if e.get("class") == "tile"]
    require(len(tiles) == 105, f"{len(tiles)} tiles, expected 105")
    for day in range(7):
        fills = {tile.get("fill") for tile in tiles[15 * day : 15 * day + 15]}
        require(len(fills) == 15, f"day {day} shows {len(fills)} distinct fills, expected 15")


# point dots per diagram: the tetrahedron places each point once; the cube
# puts 8 points on corners and the other 7 on all 19 distinct corner-pair
# midpoints (12 edges, 6 faces, the body centre)
DIAGRAM_DOTS = {"tetrahedron": 15, "cube": 8 + 12 + 6 + 1}


def check_diagram_svg(text, layout):
    root = _parse_svg(text)
    dots = [e for e in root.iter(SVG + "circle") if e.get("class") == "pt"]
    require(len(dots) == DIAGRAM_DOTS[layout], f"{layout}: {len(dots)} dots, expected {DIAGRAM_DOTS[layout]}")
    require(len({d.get("fill") for d in dots}) == 15, f"{layout}: dots do not show the 15 colors")


def expected_frames(chords, hop, sigma, rate):
    """ceil((chords*hop + 6*sigma) * rate), exactly, for Fraction hop and sigma."""
    return math.ceil((chords * hop + 6 * sigma) * rate)


def peak_limit(ceiling=0.9):
    """Largest 16-bit magnitude a buffer peaking at ``ceiling`` can write."""
    return math.floor(ceiling * WAV_FULL_SCALE + 0.5)


def read_wav(path, frames, rate):
    """Samples of a 16-bit mono WAV of the given length and rate, peak-checked."""
    import numpy as np

    with wave.open(str(path), "rb") as wav:
        require(wav.getnchannels() == 1, f"{wav.getnchannels()} channels, expected mono")
        require(wav.getsampwidth() == 2, f"{8 * wav.getsampwidth()}-bit samples, expected 16-bit")
        require(wav.getframerate() == rate, f"rate {wav.getframerate()}, expected {rate}")
        require(wav.getnframes() == frames, f"{wav.getnframes()} frames, expected {frames}")
        data = wav.readframes(frames)
    samples = np.frombuffer(data, dtype="<i2")
    require(len(samples) == frames, f"{len(samples)} frames of data, header says {frames}")
    require(max(int(samples.max()), -int(samples.min())) <= peak_limit(), "peak exceeds the ceiling")
    return samples


def synth_formula(i, chord_freqs, hop, sigma, rate, amplitude=1 / 3):
    """Sample i of the sum documented by ``synthesize``, before scaling.

    Chord n is centred at t_n = n*hop + 3*sigma; each note adds
    amplitude * exp(-(t - t_n)^2 / (2 sigma^2)) * sin(2 pi f t) inside the
    six-sigma window around t_n.
    """
    t = i / rate
    half = 3.0 * sigma
    total = 0.0
    for n, freqs in enumerate(chord_freqs):
        center = n * hop + 3.0 * sigma
        if math.ceil((center - half) * rate) <= i <= math.floor((center + half) * rate):
            envelope = amplitude * math.exp(-((t - center) ** 2) / (2.0 * sigma**2))
            total += sum(envelope * math.sin(2.0 * math.pi * f * t) for f in freqs)
    return total


def check_spot_samples(samples, chord_freqs, hop, sigma, rate):
    """Samples near each chord centre match the formula up to one global scale.

    The scale is fitted by least squares; it may only shrink the signal,
    and every spot must then agree within one 16-bit step.
    """
    spots = []
    for n in range(len(chord_freqs)):
        center = round((n * hop + 3.0 * sigma) * rate)
        for offset in (-0.1, 0.0, 0.13):
            spots.append(center + round(offset * rate))
    want = [synth_formula(i, chord_freqs, hop, sigma, rate) for i in spots]
    got = [int(samples[i]) for i in spots]
    scale = sum(w * g for w, g in zip(want, got)) / sum(w * w for w in want)
    require(0 < scale <= WAV_FULL_SCALE * (1 + 1e-9), f"global scale {scale:.1f} is not a reduction")
    worst = max(abs(g - scale * w) for w, g in zip(want, got))
    require(worst <= 1.0, f"a spot sample is {worst:.2f} steps off the documented formula")
