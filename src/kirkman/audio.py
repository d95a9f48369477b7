"""15-note scale construction and windowed chord synthesis.

Each two-qubit operator owns one note name, a letter A..E with a flat,
natural or sharp signature; all fifteen combinations are distinct pitches
(no enharmonic equivalence) and ascend with the operator's coordinate
index, so A-flat is the lowest note and E-sharp the highest.

The scale itself is a combination-product set: every pairwise product of
six odd primes, octave-reduced into [1, 2), sorted ascending and applied
to a tonic.  Chords render as Gabor atoms: a Gaussian window centered at
the chord's time slot multiplying a sine carrier per note.  Synthesis is
pure accumulation in a fixed order, so identical inputs give identical
buffers and identical files.

numpy is imported by the functions that work on arrays (synthesis, the
spectral fit and the WAV writer), so the rest of the package loads
without it.
"""

from __future__ import annotations

import math
import wave
from fractions import Fraction

from . import pauli
from .designs import display_order
from .errors import SynthesisError
from .record import Record, freeze
from .resolver import DAY_DISPLAY_ORDER

__all__ = [
    "NoteLabel",
    "Scale",
    "WindowParams",
    "SynthConfig",
    "SlotSpectrum",
    "SpectralReport",
    "NOTE_ORDER",
    "DEFAULT_PRIMES",
    "build_cps_scale",
    "note_of",
    "chord_sequence",
    "synthesize",
    "write_wav",
    "scale_listing",
    "spectral_report",
]

_LETTERS = "ABCDE"
_SIGNATURES = ("flat", "natural", "sharp")
_SIGNATURE_MARK = {"flat": "♭", "natural": "", "sharp": "♯"}
_SIGNATURE_ASCII = {"flat": "b", "natural": "", "sharp": "#"}

DEFAULT_PRIMES = (3, 5, 7, 11, 13, 17)

# largest buffer synthesize allocates: 2**25 float64 samples, 256 MiB
_MAX_SAMPLES = 1 << 25

# samples converted to 16 bits at a time: the float work block is 512 KiB
_PCM_BLOCK = 1 << 16


class NoteLabel(Record):
    """A letter A..E with a flat/natural/sharp signature; 15 distinct pitches."""

    __slots__ = ("letter", "signature")

    def __init__(self, letter, signature):
        if letter not in _LETTERS or signature not in _SIGNATURES:
            raise SynthesisError(f"invalid note {letter!r}/{signature!r}")
        freeze(self, letter, signature)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if not text:
            raise SynthesisError("empty note name")
        letter, rest = text[0].upper(), text[1:]
        if rest in ("", "♮"):
            return cls(letter, "natural")
        if rest in ("♭", "b"):
            return cls(letter, "flat")
        if rest in ("♯", "#"):
            return cls(letter, "sharp")
        raise SynthesisError(f"unparseable note name {text!r}")

    @property
    def text(self):
        return self.letter + _SIGNATURE_MARK[self.signature]

    @property
    def ascii_text(self):
        return self.letter + _SIGNATURE_ASCII[self.signature]

    @property
    def rank(self):
        """Scale degree 0..14; flats below naturals below sharps per letter."""
        return _LETTERS.index(self.letter) * 3 + _SIGNATURES.index(self.signature)

    def __str__(self):
        return self.text


NOTE_ORDER = tuple(
    NoteLabel(letter, sig) for letter in _LETTERS for sig in _SIGNATURES
)


def note_of(label):
    """Note name of a nonidentity two-qubit operator label."""
    return NoteLabel.parse(pauli.dictionary(label).note)


class Scale(Record):
    """A tonic frequency and 15 ascending rational ratios in [1, 2)."""

    __slots__ = ("tonic", "ratios")

    def __init__(self, tonic, ratios):
        if tonic <= 0:
            raise SynthesisError(f"tonic must be positive, got {tonic}")
        if len(ratios) != 15 or len(set(ratios)) != 15:
            raise SynthesisError("a scale needs 15 distinct ratios")
        if list(ratios) != sorted(ratios):
            raise SynthesisError("scale ratios must ascend")
        if not all(1 <= r < 2 for r in ratios):
            raise SynthesisError("scale ratios must lie in [1, 2)")
        freeze(self, tonic, ratios)

    @property
    def frequencies(self):
        return tuple(self.tonic * float(r) for r in self.ratios)

    def frequency_of(self, note):
        return self.frequencies[note.rank]


def _is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def build_cps_scale(primes=DEFAULT_PRIMES, tonic=220.0):
    """Combination-product-set scale from the pairwise products of 6 odd primes.

    Each product is divided by the unique power of two placing it in
    [1, 2); a collision after reduction is an error.
    """
    primes = tuple(primes)
    if len(primes) != 6 or len(set(primes)) != 6:
        raise SynthesisError(f"need 6 distinct primes, got {primes}")
    for p in primes:
        if not _is_prime(p) or p == 2:
            raise SynthesisError(f"{p} is not an odd prime (2 is reserved for the octave)")
    ratios = set()
    for i in range(6):
        for j in range(i + 1, 6):
            r = Fraction(primes[i] * primes[j])
            while r >= 2:
                r /= 2
            while r < 1:
                r *= 2
            if r in ratios:
                raise SynthesisError(f"octave reduction collides at {r} for primes {primes}")
            ratios.add(r)
    return Scale(tonic=float(tonic), ratios=tuple(sorted(ratios)))


def chord_sequence(design, resolution=None, matching=None):
    """Ordered note triples read off a design.

    A resolved size-4 design yields 35 chords: the Sunday class rows
    first, then Monday through Saturday, each class in its display order.
    A size-3 design yields 7 chords, ordered by a day-to-block matching
    when one is given, else by block order; a size-2 design yields its
    single block.
    """
    def notes(block):
        return tuple(note_of(design.assignment[p]) for p in display_order(design, block))

    if design.m == 4:
        if resolution is None:
            raise SynthesisError("a size-4 design needs a resolution for its 35-chord ordering")
        return tuple(
            notes(block) for day in DAY_DISPLAY_ORDER for block in resolution.classes[day]
        )
    if design.m == 3 and matching is not None:
        if set(matching) != {d for d in DAY_DISPLAY_ORDER}:
            raise SynthesisError("day matching must cover all seven days")
        return tuple(notes(matching[day]) for day in DAY_DISPLAY_ORDER)
    if design.m >= 2:
        return tuple(notes(block) for block in design.blocks)
    raise SynthesisError("a single-point design has no chords")


class WindowParams(Record):
    """Gaussian window width and hop; hop must keep chord onsets apart."""

    __slots__ = ("hop", "sigma")

    def __init__(self, hop=0.8, sigma=0.12):
        if not (0 < hop < math.inf and 0 < sigma < math.inf):
            raise SynthesisError("hop and sigma must be positive and finite")
        # the window must fall below 1% of peak by the next-but-one onset;
        # the squared ratio goes to inf, not OverflowError, for a huge hop
        ratio = hop / sigma
        if math.exp(-2.0 * ratio * ratio) >= 0.01:
            raise SynthesisError(
                f"hop {hop} s is too short for sigma {sigma} s; "
                "chord onsets would not be separable"
            )
        freeze(self, hop, sigma)


class SynthConfig(Record):
    __slots__ = ("sample_rate", "bit_depth", "channels", "note_amplitude", "peak_ceiling")

    def __init__(self, sample_rate=44100, bit_depth=16, channels=1, note_amplitude=1.0 / 3.0, peak_ceiling=0.9):
        if sample_rate <= 0:
            raise SynthesisError("sample rate must be positive")
        if bit_depth != 16 or channels != 1:
            raise SynthesisError("only 16-bit mono output is supported")
        if not 0 < peak_ceiling < 1:
            raise SynthesisError("peak ceiling must sit below full scale")
        if note_amplitude <= 0:
            raise SynthesisError("per-note amplitude must be positive")
        freeze(self, sample_rate, bit_depth, channels, note_amplitude, peak_ceiling)


def buffer_length(chord_count, window, config):
    """Closed-form sample count: ceil((count*hop + 6*sigma) * rate).

    A count above ``_MAX_SAMPLES`` (an infinite one included) is rejected.
    """
    samples = (chord_count * window.hop + 6.0 * window.sigma) * config.sample_rate
    if not samples <= _MAX_SAMPLES:
        count = math.ceil(samples) if math.isfinite(samples) else samples
        raise SynthesisError(f"{count} samples exceed the synthesis cap of {_MAX_SAMPLES}")
    return math.ceil(samples)


def _note_degree(note, pitch_order):
    """Index of the scale frequency a note sounds at."""
    if pitch_order == "q":
        return note.rank
    if pitch_order == "o":
        # alternative ordering by the coefficient index used in the
        # commutator table: degree = o-index - 2
        return pauli.dictionary(note.text).o_index - 2
    raise SynthesisError(f"unknown pitch order {pitch_order!r}")


def synthesize(chords, scale, window=None, config=None, pitch_order="q"):
    """Render chords to a float64 sample buffer.

    Chord n is centered at t_n = n*hop + 3*sigma; each note contributes
    amp * exp(-(t - t_n)^2 / (2 sigma^2)) * sin(2 pi f t) over a window
    truncated at t_n +/- 3 sigma.  The buffer is scaled down only if its
    peak exceeds the configured ceiling.  Parameters that would need more
    than ``_MAX_SAMPLES`` samples, or a scale reaching the Nyquist
    frequency, are rejected before anything is allocated.
    """
    import numpy as np

    window = window or WindowParams()
    config = config or SynthConfig()
    chords = [tuple(c) for c in chords]
    if not chords:
        raise SynthesisError("nothing to synthesize: no chords")
    rate = config.sample_rate
    total = buffer_length(len(chords), window, config)
    freqs = scale.frequencies
    top = max(freqs)
    if not top < rate / 2:
        raise SynthesisError(f"top note {top:.2f} Hz is not below the Nyquist frequency {rate / 2:g} Hz")
    buf = np.zeros(total, dtype=np.float64)
    half = 3.0 * window.sigma
    for n, chord in enumerate(chords):
        center = n * window.hop + 3.0 * window.sigma
        lo = max(0, math.ceil((center - half) * rate))
        hi = min(total - 1, math.floor((center + half) * rate))
        if lo > hi:
            continue
        t = np.arange(lo, hi + 1, dtype=np.float64) / rate
        envelope = config.note_amplitude * np.exp(-((t - center) ** 2) / (2.0 * window.sigma**2))
        for note in chord:
            freq = freqs[_note_degree(note, pitch_order)]
            buf[lo : hi + 1] += envelope * np.sin(2.0 * math.pi * freq * t)
    # the largest magnitude without an abs() copy of the buffer
    peak = float(max(buf.max(), -buf.min())) if total else 0.0
    if peak > config.peak_ceiling:
        buf *= config.peak_ceiling / peak
    return buf


def _pcm16(buffer):
    """Little-endian 16-bit samples of a float buffer.

    Each sample is floor(x * 32767 + 0.5) clipped to [-32768, 32767],
    worked out ``_PCM_BLOCK`` samples at a time in one float work
    block, so no full-length float temporary is made.
    """
    import numpy as np

    buffer = np.asarray(buffer, dtype=np.float64)
    samples = np.empty(len(buffer), dtype="<i2")
    work = np.empty(min(len(buffer), _PCM_BLOCK))
    for lo in range(0, len(buffer), _PCM_BLOCK):
        part = buffer[lo : lo + _PCM_BLOCK]
        block = work[: len(part)]
        np.multiply(part, 32767.0, out=block)
        block += 0.5
        np.floor(block, out=block)
        np.clip(block, -32768, 32767, out=block)
        samples[lo : lo + len(part)] = block
    return samples


def write_wav(path, buffer, config=None):
    """Write a float buffer as linear PCM: 16-bit signed mono RIFF/WAVE."""
    config = config or SynthConfig()
    samples = _pcm16(buffer)
    # open the file here: wave.open on a path it cannot create leaves a
    # half-built writer whose finalizer prints a second error
    with open(path, "wb") as fh, wave.open(fh, "wb") as out:
        out.setnchannels(config.channels)
        out.setsampwidth(config.bit_depth // 8)
        out.setframerate(config.sample_rate)
        out.writeframes(samples)


def scale_listing(scale):
    """Text listing of the scale: note, exact ratio, frequency in Hz."""
    lines = []
    for note, ratio, hz in zip(NOTE_ORDER, scale.ratios, scale.frequencies):
        lines.append(f"{note.text:<3} {str(ratio):>7}  {hz:9.3f} Hz")
    return "\n".join(lines) + "\n"


class SlotSpectrum(Record):
    """One chord slot of a spectral report.

    ``amplitudes`` are the fitted amplitudes of the 15 scale frequencies
    in scale order; ``peak_bins`` are the bins of the notes found present;
    ``margin`` is the smallest chord amplitude over the largest non-chord
    one; ``residual`` is the share of the segment's energy the fit leaves.
    """

    __slots__ = ("index", "expected_hz", "expected_bins", "peak_bins", "amplitudes", "margin", "residual", "passed")

    def __init__(self, index, expected_hz, expected_bins, peak_bins, amplitudes, margin, residual, passed):
        freeze(self, index, expected_hz, expected_bins, peak_bins, amplitudes, margin, residual, passed)


class SpectralReport(Record):
    __slots__ = ("bin_hz", "slots")

    def __init__(self, bin_hz, slots):
        freeze(self, bin_hz, slots)

    @property
    def passed(self):
        return all(s.passed for s in self.slots)

    def text(self):
        lines = [f"bin width {self.bin_hz:.3f} Hz"]
        for s in self.slots:
            mark = "ok  " if s.passed else "FAIL"
            bins = ", ".join(f"{b:.2f}" for b in s.peak_bins)
            lines.append(
                f"{mark} slot {s.index:2d}: notes at bins {bins}; "
                f"margin {s.margin:.3g}, residual {s.residual:.2g}"
            )
        return "\n".join(lines)


# Pass thresholds of the spectral fit, far from both sides: over weeks of
# random designs and scales (primes up to 43, tonics 55 to 3000 Hz), as
# floats and as 16-bit samples, the chord amplitudes agreed to 3e-5, the
# margin stayed above 3e4 and the residual below 1e-8, while a missing,
# swapped or added note moves one of them by orders of magnitude.
_AMPLITUDE_SPREAD = 1e-3
_MIN_MARGIN = 1e3
_MAX_RESIDUAL = 1e-4

# samples per block of the fit: a block of the basis stays in cache
_BLOCK = 2048


def _fit_slots(buffer, nearest, offset, reach, freqs, rate, sigma):
    """Least-squares fit of slots whose centres share a sub-sample offset.

    Each slot's centre lies ``offset`` samples past its sample in
    ``nearest``; its segment is the samples within ``reach`` of the
    centre.  The basis holds a Gaussian-windowed sine and cosine per
    frequency and is built and applied a block of samples at a time, so
    neither it nor the segments are held whole.  Returns each slot's
    amplitude per frequency and the share of its energy left unfitted.
    """
    import numpy as np

    tau = np.arange(math.ceil(offset - reach), math.floor(offset + reach) + 1, dtype=np.float64)
    omega = 2.0 * math.pi * np.asarray(freqs) / rate
    # a block's carriers are its first sample's phasors turned by these
    turns = np.exp(1j * np.outer(omega, np.arange(_BLOCK)))
    starts = np.asarray(nearest)[:, None] + int(tau[0])
    gram = np.zeros((2 * len(freqs), 2 * len(freqs)))
    proj = np.zeros((2 * len(freqs), len(nearest)))
    energy = np.zeros(len(nearest))
    for lo in range(0, len(tau), _BLOCK):
        part = tau[lo : lo + _BLOCK]
        carriers = np.exp(1j * omega * part[0])[:, None] * turns[:, : len(part)]
        envelope = np.exp(-(((part - offset) / rate) ** 2) / (2.0 * sigma**2))
        rows = np.concatenate([carriers.imag, carriers.real]) * envelope
        segments = buffer[starts + np.arange(lo, lo + len(part))]
        gram += rows @ rows.T
        proj += rows @ segments.T
        energy += np.einsum("ij,ij->i", segments, segments)
    coef = np.linalg.solve(gram, proj)
    amps = np.hypot(coef[: len(freqs)], coef[len(freqs) :]).T
    fitted = np.einsum("ij,ij->j", coef, proj)
    return amps, (energy - fitted) / np.maximum(energy, np.finfo(np.float64).tiny)


def spectral_report(buffer, chords, scale, window=None, config=None, pitch_order="q"):
    """Check each chord slot by a least-squares fit onto the 15 scale tones.

    Each slot's segment is fitted by windowed sines and cosines at all 15
    scale frequencies, the atoms ``synthesize`` adds.  The segment is the
    samples strictly inside the slot's synthesis window (3 sigma around
    its centre) and outside its neighbours' windows, so the model is
    exact there.  A sin/cos pair gives a note's amplitude, whatever the
    phase; slots whose centres share a sub-sample offset share one basis,
    and at the defaults every centre falls on a whole sample.

    A slot passes when the chord's notes have equal amplitudes (per
    occurrence, within ``_AMPLITUDE_SPREAD``), every other note stays
    below the smallest chord amplitude by ``_MIN_MARGIN``, and the fit
    leaves at most ``_MAX_RESIDUAL`` of the segment's energy, so an
    off-scale tone fails too.  ``bin_hz`` is the Fourier bin width of a
    6 sigma segment, the unit of ``expected_bins`` and ``peak_bins``.
    """
    import numpy as np

    window = window or WindowParams()
    config = config or SynthConfig()
    chords = [tuple(c) for c in chords]
    if not chords:
        raise SynthesisError("nothing to analyze: no chords")
    rate = config.sample_rate
    expected_len = buffer_length(len(chords), window, config)
    if len(buffer) != expected_len:
        raise SynthesisError(
            f"buffer length {len(buffer)} does not match these parameters "
            f"(expected {expected_len}); synthesize and analyze with the same settings"
        )
    half = 3.0 * window.sigma
    if window.hop <= half:
        raise SynthesisError(
            f"hop {window.hop} s is not above 3 sigma ({half:g} s): every slot centre "
            "lies in a neighbouring chord's window"
        )
    buffer = np.asarray(buffer, dtype=np.float64)
    hz = scale.frequencies
    counts = np.zeros((len(chords), len(hz)))
    for n, chord in enumerate(chords):
        for note in chord:
            counts[n, _note_degree(note, pitch_order)] += 1

    by_offset = {}
    for n in range(len(chords)):
        centre = (n * window.hop + half) * rate
        nearest = round(centre)
        by_offset.setdefault(round(centre - nearest, 6), []).append((n, nearest))
    # strictly inside: float rounding decides whether synthesize reached a
    # sample on the window's very edge
    reach = min(half, window.hop - half) * rate - 1e-6
    amps = np.empty(counts.shape)
    residual = np.empty(len(chords))
    for offset, group in by_offset.items():
        index, nearest = zip(*group)
        amps[list(index)], residual[list(index)] = _fit_slots(
            buffer, nearest, offset, reach, hz, rate, window.sigma
        )

    bin_hz = rate / round(6.0 * window.sigma * rate)
    slots = []
    for n, amp in enumerate(amps):
        in_chord = counts[n] > 0
        chord_amp = amp[in_chord]
        per_note = chord_amp / counts[n][in_chord]
        stray = amp[~in_chord].max(initial=0.0)
        margin = float(chord_amp.min() / stray) if stray > 0 else math.inf
        ok = (
            per_note.min() > 0
            and per_note.max() - per_note.min() <= _AMPLITUDE_SPREAD * per_note.max()
            and margin >= _MIN_MARGIN
            and residual[n] <= _MAX_RESIDUAL
        )
        expected = tuple(hz[d] for d in np.flatnonzero(in_chord))
        present = np.flatnonzero(amp * _MIN_MARGIN > amp.max())
        slots.append(
            SlotSpectrum(
                index=n,
                expected_hz=expected,
                expected_bins=tuple(f / bin_hz for f in expected),
                peak_bins=tuple(hz[d] / bin_hz for d in present),
                amplitudes=tuple(float(a) for a in amp),
                margin=margin,
                residual=float(residual[n]),
                passed=bool(ok),
            )
        )
    return SpectralReport(bin_hz=bin_hz, slots=tuple(slots))
