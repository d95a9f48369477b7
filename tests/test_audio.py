"""Scale construction, chord sequences, synthesis, spectra."""

import dataclasses
import hashlib
import math
import wave
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kirkman import audio, designs, pauli, resolver
from kirkman.errors import KirkmanError, SynthesisError


@pytest.fixture(scope="module")
def scale():
    return audio.build_cps_scale()


class TestNoteLabel:
    def test_parse_variants(self):
        assert audio.NoteLabel.parse("D♯") == audio.NoteLabel("D", "sharp")
        assert audio.NoteLabel.parse("D#") == audio.NoteLabel("D", "sharp")
        assert audio.NoteLabel.parse("Bb") == audio.NoteLabel("B", "flat")
        assert audio.NoteLabel.parse("E") == audio.NoteLabel("E", "natural")

    def test_text_forms(self):
        n = audio.NoteLabel("A", "flat")
        assert (n.text, n.ascii_text) == ("A♭", "Ab")

    def test_rank_order(self):
        assert [n.rank for n in audio.NOTE_ORDER] == list(range(15))
        assert audio.NOTE_ORDER[0].text == "A♭"
        assert audio.NOTE_ORDER[14].text == "E♯"

    def test_rejects_garbage(self):
        for bad in ("F", "Dx", "", "A♭♭"):
            with pytest.raises(SynthesisError):
                audio.NoteLabel.parse(bad)

    def test_note_of_tracks_the_dictionary(self):
        assert audio.note_of(pauli.q_label(1)).text == "A♭"
        assert audio.note_of(pauli.q_label(12)).text == "D♯"
        assert audio.note_of(pauli.q_label(15)).text == "E♯"

    def test_note_of_rejects_identity(self):
        with pytest.raises(KirkmanError):
            audio.note_of(pauli.PauliLabel(0, 4))


class TestScale:
    def test_default_scale_shape(self, scale):
        assert len(scale.ratios) == 15
        assert len(set(scale.ratios)) == 15
        assert list(scale.ratios) == sorted(scale.ratios)
        assert all(1 <= r < 2 for r in scale.ratios)
        assert all(isinstance(r, Fraction) for r in scale.ratios)

    def test_known_ratios_present(self, scale):
        assert Fraction(33, 32) in scale.ratios
        assert Fraction(15, 8) in scale.ratios
        assert scale.ratios[0] == Fraction(65, 64)

    def test_frequencies(self, scale):
        assert scale.tonic == 220.0
        assert scale.frequencies[0] == pytest.approx(220.0 * 65 / 64)
        assert scale.frequency_of(audio.NoteLabel.parse("E♯")) == pytest.approx(220.0 * 15 / 8)

    def test_rejects_bad_prime_sets(self):
        with pytest.raises(SynthesisError):
            audio.build_cps_scale(primes=(3, 5, 7, 11, 13))
        with pytest.raises(SynthesisError):
            audio.build_cps_scale(primes=(3, 5, 7, 11, 13, 13))
        with pytest.raises(SynthesisError):
            audio.build_cps_scale(primes=(3, 5, 7, 11, 13, 9))
        with pytest.raises(SynthesisError):
            audio.build_cps_scale(primes=(2, 5, 7, 11, 13, 17))
        with pytest.raises(SynthesisError):
            audio.build_cps_scale(tonic=0.0)


class TestChordSequence:
    def test_week_sequence(self, canonical_design, lex_resolution):
        chords = audio.chord_sequence(canonical_design, lex_resolution)
        assert len(chords) == 35
        counts = {}
        pairs = set()
        for chord in chords:
            assert len(chord) == 3
            for n in chord:
                counts[n.text] = counts.get(n.text, 0) + 1
            for a in chord:
                for b in chord:
                    if a.text < b.text:
                        assert (a.text, b.text) not in pairs
                        pairs.add((a.text, b.text))
        assert set(counts.values()) == {7}
        assert len(counts) == 15

    def test_needs_resolution_for_full_design(self, canonical_design):
        with pytest.raises(SynthesisError):
            audio.chord_sequence(canonical_design)

    def test_fano_sequence_default_is_block_order(self, fano_design):
        chords = audio.chord_sequence(fano_design)
        assert len(chords) == 7
        want = [
            tuple(
                audio.note_of(fano_design.assignment[p])
                for p in designs.display_order(fano_design, blk)
            )
            for blk in fano_design.blocks
        ]
        assert list(chords) == want

    def test_fano_sequence_with_matching(self, fano_design):
        matching = resolver.match_days(fano_design)
        chords = audio.chord_sequence(fano_design, matching=matching)
        assert len(chords) == 7
        # first chord belongs to Sunday's line
        sun = matching[resolver.DayLabel.from_name("SUN")]
        assert chords[0] == tuple(
            audio.note_of(fano_design.assignment[p])
            for p in designs.display_order(fano_design, sun)
        )

    def test_center_median_chord(self, fano_design):
        p = designs.Point.from_bits
        median = designs.Block.of(p("001"), p("110"), p("111"))
        chord = {
            audio.note_of(fano_design.assignment[q]).text
            for q in designs.display_order(fano_design, median)
        }
        assert chord == {"B", "D", "E"}

    def test_nesting(self, canonical_design, fano_design, lex_resolution):
        seq35 = audio.chord_sequence(canonical_design, lex_resolution)
        seq7 = audio.chord_sequence(fano_design, matching=resolver.match_days(fano_design))
        assert [seq35[5 * k] for k in range(7)] == list(seq7)

    def test_pair_design_single_chord(self):
        d = designs.expand_seeds((pauli.q_label(12), pauli.q_label(10)))
        chords = audio.chord_sequence(d)
        assert len(chords) == 1 and len(chords[0]) == 3

    def test_single_point_design_has_no_chords(self):
        d = designs.expand_seeds((pauli.q_label(7),))
        with pytest.raises(SynthesisError):
            audio.chord_sequence(d)


class TestWindowAndConfig:
    def test_defaults(self):
        w = audio.WindowParams()
        assert (w.hop, w.sigma) == (0.8, 0.12)
        assert [f.name for f in dataclasses.fields(w)] == ["hop", "sigma"]

    def test_separability_guard(self):
        with pytest.raises(SynthesisError):
            audio.WindowParams(hop=0.1, sigma=0.12)
        with pytest.raises(SynthesisError):
            audio.WindowParams(hop=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(SynthesisError):
                audio.WindowParams(hop=bad)
            with pytest.raises(SynthesisError):
                audio.WindowParams(sigma=bad)
        # comfortably separable
        audio.WindowParams(hop=0.5, sigma=0.12)

    def test_huge_hop_reaches_the_sample_cap(self):
        config = audio.SynthConfig()
        for hop in (1e200, 1e307):
            window = audio.WindowParams(hop=hop)
            with pytest.raises(SynthesisError, match="synthesis cap"):
                audio.buffer_length(35, window, config)

    def test_config_invariants(self):
        with pytest.raises(SynthesisError):
            audio.SynthConfig(peak_ceiling=1.0)
        with pytest.raises(SynthesisError):
            audio.SynthConfig(bit_depth=24)
        with pytest.raises(SynthesisError):
            audio.SynthConfig(channels=2)
        with pytest.raises(SynthesisError):
            audio.SynthConfig(sample_rate=0)


class TestSynthesis:
    def test_buffer_length_closed_form(self, canonical_design, lex_resolution, scale):
        chords = audio.chord_sequence(canonical_design, lex_resolution)
        buf = audio.synthesize(chords, scale)
        want = math.ceil((35 * 0.8 + 6 * 0.12) * 44100)
        assert len(buf) == want
        assert abs(len(buf) - 28.72 * 44100) <= 1

    def test_peak_ceiling(self, canonical_design, lex_resolution, scale):
        chords = audio.chord_sequence(canonical_design, lex_resolution)
        buf = audio.synthesize(chords, scale)
        assert float(np.max(np.abs(buf))) <= 0.9 + 1e-12

    def test_determinism(self, fano_design, scale):
        chords = audio.chord_sequence(fano_design)
        a = audio.synthesize(chords, scale)
        b = audio.synthesize(chords, scale)
        assert np.array_equal(a, b)

    def test_rejects_empty(self, scale):
        with pytest.raises(SynthesisError):
            audio.synthesize([], scale)

    def test_single_chord_energy_concentration(self, fano_design, scale):
        chords = [audio.chord_sequence(fano_design)[0]]
        buf = audio.synthesize(chords, scale)
        rate = 44100
        edge = int(round(6 * 0.12 * rate))
        inside = float(np.sum(buf[:edge] ** 2))
        total = float(np.sum(buf**2))
        assert inside >= 0.99 * total

    def test_notes_truncate_at_three_sigma(self, fano_design, scale):
        # the one chord sits at 3 sigma; its window ends at 6 sigma
        buf = audio.synthesize([audio.chord_sequence(fano_design)[0]], scale)
        edge = math.floor(6 * 0.12 * 44100)
        assert buf[edge - 10 : edge].any()
        assert not buf[edge + 1 :].any()

    def test_rejects_top_note_at_or_above_nyquist(self):
        high = audio.build_cps_scale(tonic=20000.0)
        assert max(high.frequencies) == 37500.0
        window = audio.WindowParams(hop=0.05, sigma=0.01)
        chord = [(audio.NOTE_ORDER[0],)]
        for rate in (44100, 75000):
            with pytest.raises(SynthesisError, match="Nyquist"):
                audio.synthesize(chord, high, window, audio.SynthConfig(sample_rate=rate))
        assert audio.synthesize(chord, high, window, audio.SynthConfig(sample_rate=75001)).any()

    def test_o_pitch_order_differs(self, scale):
        # B-flat is fourth by coordinate but lowest by table row
        note = audio.NoteLabel.parse("B♭")
        q_hz = audio.synthesize([(note,)], scale, pitch_order="q")
        o_hz = audio.synthesize([(note,)], scale, pitch_order="o")
        assert not np.array_equal(q_hz, o_hz)
        with pytest.raises(SynthesisError):
            audio.synthesize([(note,)], scale, pitch_order="x")

    def test_wav_round_trip(self, fano_design, scale, tmp_path):
        chords = audio.chord_sequence(fano_design)
        buf = audio.synthesize(chords, scale)
        out = tmp_path / "fano.wav"
        audio.write_wav(out, buf)
        with wave.open(str(out)) as wav:
            assert wav.getnchannels() == 1
            assert wav.getsampwidth() == 2
            assert wav.getframerate() == 44100
            assert wav.getnframes() == len(buf)
        # half-up quantization
        audio.write_wav(out, np.array([0.5, -0.5, 0.0]))
        with wave.open(str(out)) as wav:
            raw = np.frombuffer(wav.readframes(3), dtype="<i2")
        assert list(raw) == [16384, -16383, 0]

    # sha256 of the WAV of the canonical lex week at the default scale and
    # window, per sample rate; neither buffer is a whole number of blocks
    PINNED_WAVS = {
        44100: "9dad98082850ad2db9821ef87a8b34e0efd9b86d0f21e3099488d85a7888482b",
        22050: "8b3a9c416bb123d3d38dd18cdd05d21487c4e0d34fe5933903e7d1530620550c",
    }

    @pytest.mark.parametrize("rate", PINNED_WAVS)
    def test_wav_bytes_are_pinned(self, canonical_design, lex_resolution, scale, tmp_path, rate):
        config = audio.SynthConfig(sample_rate=rate)
        chords = audio.chord_sequence(canonical_design, lex_resolution)
        buf = audio.synthesize(chords, scale, config=config)
        assert len(buf) % audio._PCM_BLOCK != 0
        out = tmp_path / "week.wav"
        audio.write_wav(out, buf, config)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_WAVS[rate]

    # a small block, so that 0 to 3 whole and partial blocks are drawn
    SMALL_BLOCK = 4

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-2.0, 2.0), st.floats(-1e9, 1e9)), max_size=3 * SMALL_BLOCK))
    def test_block_conversion_matches_the_whole_buffer_formula(self, values):
        buf = np.array(values, dtype=np.float64)
        want = np.clip(np.floor(buf * 32767.0 + 0.5), -32768, 32767).astype("<i2")
        with mock.patch.object(audio, "_PCM_BLOCK", self.SMALL_BLOCK):
            got = audio._pcm16(buf)
        assert got.dtype == np.dtype("<i2")
        assert np.array_equal(got, want)

    def test_scale_listing(self, scale):
        listing = audio.scale_listing(scale)
        lines = listing.strip().split("\n")
        assert len(lines) == 15
        assert lines[0].startswith("A♭") and "65/64" in lines[0]
        assert lines[-1].startswith("E♯") and "15/8" in lines[-1]


class TestSpectralReport:
    def test_week_all_slots_pass(self, canonical_design, lex_resolution, scale):
        chords = audio.chord_sequence(canonical_design, lex_resolution)
        buf = audio.synthesize(chords, scale)
        report = audio.spectral_report(buf, chords, scale)
        assert len(report.slots) == 35
        assert report.passed, report.text()

    def test_fano_all_slots_pass(self, fano_design, scale):
        chords = audio.chord_sequence(fano_design)
        buf = audio.synthesize(chords, scale)
        report = audio.spectral_report(buf, chords, scale)
        assert len(report.slots) == 7
        assert report.passed, report.text()

    def test_detuned_slot_fails(self, fano_design, scale):
        chords = audio.chord_sequence(fano_design)
        buf = audio.synthesize(chords, scale).copy()
        window = audio.WindowParams()
        rate = 44100
        center = 3 * window.hop + 3 * window.sigma
        lo = int(round((center - 3 * window.sigma) * rate))
        n = int(round(6 * window.sigma * rate))
        t = np.arange(lo, lo + n) / rate
        buf[lo : lo + n] = (
            0.3 * np.exp(-((t - center) ** 2) / (2 * window.sigma**2)) * np.sin(2 * math.pi * 500.0 * t)
        )
        report = audio.spectral_report(buf, chords, scale)
        failed = [s.index for s in report.slots if not s.passed]
        assert failed == [3]

    def test_single_note_dominant_peak(self, scale):
        chords = [(audio.NoteLabel.parse("B"),)]
        buf = audio.synthesize(chords, scale)
        report = audio.spectral_report(buf, chords, scale)
        slot = report.slots[0]
        assert len(slot.peak_bins) == 1
        assert slot.passed

    def test_parameter_mismatch_rejected(self, fano_design, scale):
        chords = audio.chord_sequence(fano_design)
        buf = audio.synthesize(chords, scale)
        with pytest.raises(SynthesisError):
            audio.spectral_report(buf[:-10], chords, scale)
        with pytest.raises(SynthesisError):
            audio.spectral_report(buf, chords[:-1], scale)

    def test_text_reports_the_margin(self, fano_design, scale):
        chords = audio.chord_sequence(fano_design)
        report = audio.spectral_report(audio.synthesize(chords, scale), chords, scale)
        lines = report.text().split("\n")
        assert len(lines) == 8
        assert all("margin" in line and "residual" in line for line in lines[1:])
        assert all(len(s.amplitudes) == 15 and s.margin >= 1e3 for s in report.slots)


def _week(seeds):
    design = designs.expand_seeds(tuple(pauli.q_label(q) for q in seeds))
    return audio.chord_sequence(design, resolver.resolve(design))


def _failed(buffer, chords, scale, **kwargs):
    return [s.index for s in audio.spectral_report(buffer, chords, scale, **kwargs).slots if not s.passed]


# seeds Q8,Q14,Q9,Q5: slot 27 holds 5*11 and 13*17, 1.72 Hz apart at 220 Hz
FAULT_SEEDS = (8, 14, 9, 5)
CLOSE_PAIR = (Fraction(55, 32), Fraction(221, 128))


class TestSpectralFit:
    @pytest.fixture(scope="class")
    def week(self):
        return _week(FAULT_SEEDS)

    def test_close_notes_are_told_apart(self, week, scale):
        buf = audio.synthesize(week, scale)
        report = audio.spectral_report(buf, week, scale)
        assert report.passed, report.text()
        close = {scale.frequencies[scale.ratios.index(r)] for r in CLOSE_PAIR}
        assert close <= set(report.slots[27].expected_hz)
        assert set(report.slots[27].peak_bins) == {f / report.bin_hz for f in report.slots[27].expected_hz}

    def test_sixteen_bit_samples_pass(self, week, scale, tmp_path):
        path = tmp_path / "week.wav"
        audio.write_wav(path, audio.synthesize(week, scale))
        with wave.open(str(path)) as wav:
            samples = np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2") / 32767.0
        report = audio.spectral_report(samples, week, scale)
        assert report.passed, report.text()
        assert min(s.margin for s in report.slots) >= 1e4

    def test_neighbour_swap_fails_that_slot_only(self, week, scale):
        low, high = (audio.NOTE_ORDER[scale.ratios.index(r)] for r in CLOSE_PAIR)
        n = next(i for i, chord in enumerate(week) if low in chord and high not in chord)
        swapped = list(week)
        swapped[n] = tuple(high if note == low else note for note in week[n])
        assert _failed(audio.synthesize(swapped, scale), week, scale) == [n]

    def test_dropped_note_fails_that_slot(self, week, scale):
        dropped = list(week)
        dropped[27] = week[27][:2]
        assert _failed(audio.synthesize(dropped, scale), week, scale) == [27]

    def test_added_off_scale_tone_fails_that_slot(self, week, scale):
        buf = audio.synthesize(week, scale)
        window = audio.WindowParams()
        rate = 44100
        center = 3 * window.hop + 3 * window.sigma
        lo = int(round((center - 3 * window.sigma) * rate))
        t = np.arange(lo, lo + int(round(6 * window.sigma * rate))) / rate
        buf[lo : lo + len(t)] += (
            0.3 * np.exp(-((t - center) ** 2) / (2 * window.sigma**2)) * np.sin(2 * math.pi * 500.0 * t)
        )
        assert _failed(buf, week, scale) == [3]

    def test_pitch_order_must_match(self, week, scale):
        buf = audio.synthesize(week, scale, pitch_order="o")
        assert audio.spectral_report(buf, week, scale, pitch_order="o").passed
        assert not audio.spectral_report(buf, week, scale, pitch_order="q").passed

    def test_repeated_note_counts_twice(self, scale):
        b, c = audio.NoteLabel.parse("B"), audio.NoteLabel.parse("C")
        buf = audio.synthesize([(b, b, c)], scale)
        assert audio.spectral_report(buf, [(b, b, c)], scale).passed
        assert not audio.spectral_report(buf, [(b, c)], scale).passed

    def test_overlapping_windows(self, week, scale):
        # windows 6 sigma wide overlap at hop 0.5 s; the fit keeps to the
        # samples no neighbour reaches
        window = audio.WindowParams(hop=0.5, sigma=0.12)
        buf = audio.synthesize(week, scale, window)
        assert audio.spectral_report(buf, week, scale, window).passed
        window = audio.WindowParams(hop=0.3, sigma=0.12)
        buf = audio.synthesize(week, scale, window)
        with pytest.raises(SynthesisError, match="3 sigma"):
            audio.spectral_report(buf, week, scale, window)

    @settings(max_examples=20, deadline=None)
    @given(
        seeds=st.tuples(*[st.integers(1, 15)] * 4),
        primes=st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]), min_size=6, max_size=6, unique=True),
        tonic=st.floats(110.0, 11000.0),
    )
    def test_any_week_at_any_scale_passes(self, seeds, primes, tonic):
        try:
            week = _week(seeds)
            scale = audio.build_cps_scale(primes, tonic)
        except KirkmanError:
            assume(False)
        buf = audio.synthesize(week, scale)
        report = audio.spectral_report(buf, week, scale)
        assert report.passed, report.text()
