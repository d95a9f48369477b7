"""Document round trips and the command-line pipeline."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import kirkman
from kirkman import cli, designs, pauli, resolver, serialize
from kirkman.errors import DocumentError


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_week_reusing_a_block(path, design, resolution):
    """A resolved document whose Sunday swaps its last block for one of Monday's."""
    serialize.save_document(path, design, resolution)
    doc = json.loads(path.read_text())
    sunday, monday = doc["days"][0], doc["days"][1]
    assert (sunday["name"], monday["name"]) == ("SUN", "MON")
    sunday["blocks"] = sunday["blocks"][:4] + monday["blocks"][1:2]
    path.write_text(json.dumps(doc))


def save_tampered(path, design, resolution, edit):
    """Save a document, then apply ``edit`` to its parsed JSON and write it back."""
    serialize.save_document(path, design, resolution)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(serialize.to_json(doc))


def _field(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(path, value):
    def edit(doc):
        _field(doc, path[:-1])[path[-1]] = value

    return edit


def _true_for_index_one(doc):
    day = next(d for d in doc["days"] if 1 in d["blocks"])
    day["blocks"][day["blocks"].index(1)] = True


# values that compare equal to, or cast to, a stored field but are not
# what save_document writes
LOOSE_FIELDS = {
    "m 4.0": _set(("m",), 4.0),
    "seed 12.9": _set(("seeds", 0), 12.9),
    "seed '10'": _set(("seeds", 1), "10"),
    "seed true": _set(("seeds", 0), True),
    "q 11.0": _set(("points", 0, "q"), 11.0),
    "o true": _set(("points", 0, "o"), True),
    "block index true": _true_for_index_one,
    "label SUN": _set(("days", 0, "label"), "SUN"),
    "label null": _set(("days", 0, "label"), None),
    "label 111": _set(("days", 0, "label"), 111),
    "label 0b111": _set(("days", 0, "label"), "0b111"),
}


_CANONICAL = designs.expand_seeds(tuple(pauli.q_label(q) for q in (12, 10, 4, 11)))
RESOLVED_TEXT = serialize.to_json(serialize.design_to_doc(_CANONICAL, resolver.resolve(_CANONICAL)))
RESOLVED_DOC = json.loads(RESOLVED_TEXT)


def _field_paths(node, path=()):
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _field_paths(child, path + (key,))


def _mutants(path):
    """Stand-ins for one field: wrong types, a huge int, neighbouring valid values."""
    value = _field(RESOLVED_DOC, path)
    out = [None, True, False, 0.5, "SUN", [value], 2**64, -1]
    if type(value) is int:
        out += [float(value), str(value), value + 1, value - 1]
    lists = [i for i, key in enumerate(path) if type(key) is int]
    if lists:
        # the same field of the next entry of the innermost list
        i = lists[-1]
        size = len(_field(RESOLVED_DOC, path[:i]))
        out.append(_field(RESOLVED_DOC, path[:i] + ((path[i] + 1) % size,) + path[i + 1 :]))
    return out


FIELD_PATHS = list(_field_paths(RESOLVED_DOC))


def _draw_mutant(path, data):
    """The resolved document's text with the field at ``path`` replaced by a stand-in."""
    doc = json.loads(RESOLVED_TEXT)
    _field(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(_mutants(path)))
    return serialize.to_json(doc)


@functools.lru_cache(maxsize=None)
def _verify_text(text):
    """Exit code, stdout and stderr of ``kirkman verify`` on a document's text."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "document.json")
        with open(source, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", source])
    return code, out.getvalue(), err.getvalue()


class TestDocuments:
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(FIELD_PATHS), data=st.data())
    def test_mutant_loads_exactly_or_is_rejected(self, path, data):
        text = _draw_mutant(path, data)
        with tempfile.TemporaryDirectory() as tmp:
            source = os.path.join(tmp, "mutant.json")
            with open(source, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                design, resolution = serialize.load_document(source)
            except DocumentError:
                return
            again = os.path.join(tmp, "again.json")
            serialize.save_document(again, design, resolution)
            with open(again, encoding="utf-8") as fh:
                assert fh.read() == text

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(FIELD_PATHS), data=st.data())
    def test_verify_on_a_mutant_exits_one_or_as_the_document(self, path, data):
        text = _draw_mutant(path, data)
        with tempfile.TemporaryDirectory() as tmp:
            source = os.path.join(tmp, "mutant.json")
            with open(source, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                serialize.load_document(source)
                rejected = False
            except DocumentError:
                rejected = True
        code, out, err = _verify_text(text)
        if rejected:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert (code, out, err) == _verify_text(RESOLVED_TEXT)

    @pytest.mark.parametrize("edit", LOOSE_FIELDS.values(), ids=LOOSE_FIELDS.keys())
    def test_loose_field_is_rejected(self, canonical_design, lex_resolution, tmp_path, edit):
        path = tmp_path / "resolved.json"
        save_tampered(path, canonical_design, lex_resolution, edit)
        with pytest.raises(DocumentError):
            serialize.load_document(path)

    def test_design_round_trip(self, canonical_design, tmp_path):
        path = tmp_path / "design.json"
        serialize.save_document(path, canonical_design)
        loaded, resolution = serialize.load_document(path)
        assert resolution is None
        assert loaded.seeds == canonical_design.seeds
        assert loaded.assignment == canonical_design.assignment
        assert loaded.blocks == canonical_design.blocks
        assert loaded.kinds == canonical_design.kinds

    def test_resolution_round_trip(self, canonical_design, lex_resolution, tmp_path):
        path = tmp_path / "resolved.json"
        serialize.save_document(path, canonical_design, lex_resolution)
        loaded, resolution = serialize.load_document(path)
        assert resolution is not None
        assert resolution.classes == lex_resolution.classes
        assert resolution.matching == lex_resolution.matching

    def test_serialization_is_stable(self, canonical_design, lex_resolution):
        a = serialize.to_json(serialize.design_to_doc(canonical_design, lex_resolution))
        b = serialize.to_json(serialize.design_to_doc(canonical_design, lex_resolution))
        assert a == b
        assert a.endswith("\n")

    def test_days_serialize_in_display_order(self, canonical_design, lex_resolution):
        doc = serialize.design_to_doc(canonical_design, lex_resolution)
        assert [d["name"] for d in doc["days"]] == ["SUN", "MON", "TU", "WED", "TH", "FRI", "SAT"]

    def test_tampered_color_is_rejected(self, canonical_design, tmp_path):
        path = tmp_path / "design.json"
        serialize.save_document(path, canonical_design)
        doc = json.loads(path.read_text())
        doc["points"][0]["color"] = "G4"
        path.write_text(json.dumps(doc))
        with pytest.raises(DocumentError):
            serialize.load_document(path)

    def test_tampered_kind_is_rejected(self, canonical_design, tmp_path):
        path = tmp_path / "design.json"
        serialize.save_document(path, canonical_design)
        doc = json.loads(path.read_text())
        doc["kinds"][0] = "cyclic" if doc["kinds"][0] == "commuting" else "commuting"
        path.write_text(json.dumps(doc))
        with pytest.raises(DocumentError):
            serialize.load_document(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set(("blocks", 3), ["0001", "1000"]), "block entry ['0001', '1000'] is not a coordinate triple"),
            (_set(("blocks", 0), "0001"), "block entry '0001' is not a coordinate triple"),
            (
                _set(("blocks", 6), ["1110", "0001", "1111"]),
                "block list diverges from the canonical enumeration at ['1110', '0001', '1111']",
            ),
            (
                _set(("kinds", 9), "commuting"),
                "block {(0010), (1000), (1010)} records kind 'commuting', but the operators give 'cyclic'",
            ),
            (
                _set(("kinds", 2), None),
                "block {(0001), (0110), (0111)} records kind None, but the operators give 'commuting'",
            ),
            (
                _set(("points", 4, "q"), 2),
                "point (0101) records (2, 3, 'B3', 'A♭'), but the seeds give (1, 3, 'B3', 'A♭')",
            ),
            (_set(("points", 2, "coord"), "0100"), "point order mismatch at (0100)"),
        ],
    )
    def test_rejection_messages_are_pinned(self, canonical_design, tmp_path, edit, message):
        path = tmp_path / "design.json"
        save_tampered(path, canonical_design, None, edit)
        with pytest.raises(DocumentError) as err:
            serialize.load_document(path)
        assert str(err.value) == message

    def test_tampered_day_is_rejected(self, canonical_design, lex_resolution, tmp_path):
        path = tmp_path / "resolved.json"
        serialize.save_document(path, canonical_design, lex_resolution)
        doc = json.loads(path.read_text())
        doc["days"][0]["blocks"] = doc["days"][0]["blocks"][:4] + doc["days"][1]["blocks"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DocumentError):
            serialize.load_document(path)

    def test_week_reusing_a_block_is_rejected(self, canonical_design, lex_resolution, tmp_path):
        path = tmp_path / "resolved.json"
        save_week_reusing_a_block(path, canonical_design, lex_resolution)
        with pytest.raises(DocumentError) as err:
            serialize.load_document(path)
        assert "not a resolution" in str(err.value)

    def test_unknown_format_rejected(self, canonical_design, tmp_path):
        path = tmp_path / "design.json"
        serialize.save_document(path, canonical_design)
        doc = json.loads(path.read_text())
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(DocumentError):
            serialize.load_document(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError):
            serialize.load_document(path)


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_generate_resolve_render_pipeline(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        resolved = tmp_path / "resolved.json"
        assert self.run("generate", "--out", str(design)) == 0
        out = capsys.readouterr().out
        assert "D(15,3,1)|Q12,Q10,Q4,Q11>" in out
        assert "v=15 b=35 r=7 k=3 lambda=1" in out
        assert "15 commuting, 20 cyclic" in out

        assert self.run("resolve", str(design), "--out", str(resolved)) == 0
        grid = capsys.readouterr().out
        assert "SUN 111" in grid and "SAT 110" in grid
        assert grid.count("|") == 36  # 6 column separators, header + 5 rows

        svg = tmp_path / "week.svg"
        assert self.run("render", str(resolved), "--kind", "color-tiling", "--out", str(svg)) == 0
        capsys.readouterr()
        assert svg.read_text().count('class="tile"') == 105

        wav = tmp_path / "week.wav"
        assert self.run("render", str(resolved), "--kind", "audio", "--out", str(wav)) == 0
        capsys.readouterr()
        assert wav.stat().st_size > 2_000_000

        assert self.run("verify", str(resolved)) == 0
        assert "verification passed" in capsys.readouterr().out

    def test_generate_to_stdout(self, capsys):
        assert self.run("generate", "--seeds", "Q10,Q4,Q11") == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["m"] == 3 and len(doc["blocks"]) == 7

    def test_repeated_renders_hash_identically(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        w1 = tmp_path / "a.wav"
        w2 = tmp_path / "b.wav"
        self.run("render", str(design), "--kind", "diagram", "--out", str(a))
        self.run("render", str(design), "--kind", "diagram", "--out", str(b))
        self.run("render", str(design), "--kind", "audio", "--out", str(w1))
        self.run("render", str(design), "--kind", "audio", "--out", str(w2))
        capsys.readouterr()
        assert sha(a) == sha(b)
        assert sha(w1) == sha(w2)

    def test_resolve_matching_presets_differ(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        lex_doc = tmp_path / "lex.json"
        ref_doc = tmp_path / "ref.json"
        self.run("generate", "--out", str(design))
        self.run("resolve", str(design), "--out", str(lex_doc))
        self.run("resolve", str(design), "--matching", "table4", "--out", str(ref_doc))
        capsys.readouterr()
        assert sha(lex_doc) != sha(ref_doc)
        _, res = serialize.load_document(ref_doc)
        assert res.matching == resolver.reference_matching(
            serialize.load_document(design)[0]
        )

    def test_missing_document_exit_one(self, tmp_path, capsys):
        assert self.run("verify", str(tmp_path / "missing.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "missing.json" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--out"),
            ("resolve", "{week}", "--out"),
            ("render", "{week}", "--out"),
            ("render", "{fano}", "--kind", "diagram", "--out"),
            ("render", "{fano}", "--kind", "audio", "--out"),
        ],
    )
    def test_unwritable_output_exit_one(self, tmp_path, capsys, argv):
        fano, week = tmp_path / "fano.json", tmp_path / "week.json"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(fano))
        self.run("generate", "--out", str(week))
        self.run("resolve", str(week), "--out", str(week))
        capsys.readouterr()
        out = tmp_path / "no" / "such" / "file"
        argv = [arg.format(fano=fano, week=week) for arg in argv]
        assert self.run(*argv, str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err

    def test_dependent_seeds_exit_one(self, capsys):
        assert self.run("generate", "--seeds", "Q1,Q2,Q3") == 1
        assert "GF(2)-dependent" in capsys.readouterr().err

    def test_resolve_fano_exit_one(self, tmp_path, capsys):
        design = tmp_path / "fano.json"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))
        assert self.run("resolve", str(design)) == 1
        assert "not a Kirkman-resolvable size" in capsys.readouterr().err

    def test_audio_without_out_exit_one(self, tmp_path, capsys):
        design = tmp_path / "fano.json"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))
        assert self.run("render", str(design), "--kind", "audio") == 1
        capsys.readouterr()

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            self.run("render", "x.json", "--kind", "bogus")
        assert err.value.code == 2
        capsys.readouterr()

    def test_verify_tampered_document_exit_one(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        self.run("generate", "--out", str(design))
        doc = json.loads(design.read_text())
        doc["points"][3]["note"] = "C"
        design.write_text(json.dumps(doc))
        assert self.run("verify", str(design)) == 1
        capsys.readouterr()

    def test_week_reusing_a_block_exit_one(self, canonical_design, lex_resolution, tmp_path, capsys):
        path = tmp_path / "resolved.json"
        save_week_reusing_a_block(path, canonical_design, lex_resolution)
        runs = [
            ("resolve", str(path)),
            ("render", str(path), "--kind", "color-tiling", "--out", str(tmp_path / "week.svg")),
            ("render", str(path), "--kind", "audio", "--out", str(tmp_path / "week.wav")),
            ("verify", str(path)),
        ]
        for argv in runs:
            assert self.run(*argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: day classes are not a resolution")
        assert not (tmp_path / "week.svg").exists()
        assert not (tmp_path / "week.wav").exists()

    def test_bad_day_label_exit_one(self, canonical_design, lex_resolution, tmp_path, capsys):
        path = tmp_path / "resolved.json"
        save_tampered(path, canonical_design, lex_resolution, LOOSE_FIELDS["label SUN"])
        assert self.run("verify", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: bad day label 'SUN'")

    def test_audio_huge_hop_exit_one(self, tmp_path, capsys):
        design = tmp_path / "fano.json"
        wav = tmp_path / "far.wav"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))
        for hop in ("1e200", "1e307"):
            assert self.run("render", str(design), "--kind", "audio", "--hop", hop, "--out", str(wav)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "synthesis cap" in err
        assert not wav.exists()

    def test_tables_dictionary(self, capsys):
        assert self.run("tables", "--dictionary") == 0
        out = capsys.readouterr().out
        assert "Q12 | [1100] | O5 | σx/2 | -γ5/2 | G2 | D♯" in out
        assert len(out.strip().split("\n")) == 15

    def test_tables_commutators(self, capsys):
        assert self.run("tables", "--commutators") == 0
        out = capsys.readouterr().out.strip().split("\n")
        header = out[0].split()
        row2 = out[1].split()
        assert row2[0] == "O2"
        col = header.index("O5")
        assert row2[1 + col] == "iO6"

    def test_dictionary_lookup(self, capsys):
        assert self.run("dictionary", "D#") == 0
        assert "Q12" in capsys.readouterr().out
        assert self.run("dictionary", "Q99") == 1
        capsys.readouterr()

    def test_custom_synthesis_flags(self, tmp_path, capsys):
        design = tmp_path / "fano.json"
        wav = tmp_path / "fast.wav"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))
        code = self.run(
            "render", str(design), "--kind", "audio",
            "--tonic", "330", "--hop", "0.5", "--sigma", "0.1",
            "--sample-rate", "22050", "--out", str(wav),
        )
        capsys.readouterr()
        assert code == 0
        import wave

        with wave.open(str(wav)) as fh:
            assert fh.getframerate() == 22050

    def test_audio_over_the_sample_cap_exit_one(self, tmp_path, capsys, monkeypatch):
        import numpy

        design = tmp_path / "fano.json"
        wav = tmp_path / "huge.wav"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))

        def no_alloc(*args, **kwargs):
            raise AssertionError("render allocated a sample buffer")

        monkeypatch.setattr(numpy, "zeros", no_alloc)
        code = self.run("render", str(design), "--kind", "audio", "--sample-rate", "1000000000", "--out", str(wav))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "synthesis cap" in err
        assert not wav.exists()

    def test_audio_top_note_above_nyquist_exit_one(self, tmp_path, capsys):
        design = tmp_path / "fano.json"
        wav = tmp_path / "aliased.wav"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))
        assert self.run("render", str(design), "--kind", "audio", "--tonic", "20000", "--out", str(wav)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Nyquist" in err
        assert not wav.exists()

    @pytest.mark.parametrize(
        "content, message",
        [(b"[" * 100000, "recursion"), (b"\xff{}", "can't decode byte 0xff")],
        ids=["nested", "not-utf8"],
    )
    def test_malformed_document_file_exit_one(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        for argv in (("verify",), ("resolve",), ("render", "--out", str(tmp_path / "bad.svg"))):
            assert self.run(argv[0], str(path), *argv[1:]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith(f"error: {path} is not well-formed: ") and message in captured.err
        assert not (tmp_path / "bad.svg").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--primes", f"3,5,7,11,13,{10**18 + 3}"), "is not below the cap of 2**32"),
            (("--sigma", "1e-170"), "its square underflows to zero"),
        ],
        ids=["huge-prime", "tiny-sigma"],
    )
    def test_audio_bad_scale_or_window_exit_one(self, tmp_path, capsys, flags, message):
        design = tmp_path / "fano.json"
        wav = tmp_path / "bad.wav"
        self.run("generate", "--seeds", "Q10,Q4,Q11", "--out", str(design))
        capsys.readouterr()
        assert self.run("render", str(design), "--kind", "audio", *flags, "--out", str(wav)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not wav.exists()

    def test_seed_echo_matches_dictionary(self, capsys):
        # default seeds are the worked example of the operator dictionary
        assert cli.DEFAULT_SEEDS == "Q12,Q10,Q4,Q11"
        assert [pauli.q_label(q).q_index for q in (12, 10, 4, 11)] == [12, 10, 4, 11]


# runs each command in one fresh interpreter and reports, after the import
# and after each command, its exit code and whether numpy is loaded, and
# whether dataclasses is loaded
_NUMPY_PROBE = """
import contextlib, json, os, sys
import kirkman.cli

tmp = sys.argv[1]
design, resolved = (os.path.join(tmp, name) for name in ("design.json", "resolved.json"))
steps = {
    "generate": ["generate", "--out", design],
    "resolve": ["resolve", design, "--out", resolved],
    "color-tiling": ["render", resolved, "--kind", "color-tiling", "--out", os.path.join(tmp, "t.svg")],
    "diagram": ["render", resolved, "--kind", "diagram", "--out", os.path.join(tmp, "d.svg")],
    "verify": ["verify", resolved],
    "tables": ["tables", "--commutators"],
    "dictionary": ["dictionary", "D#"],
    "audio": ["render", resolved, "--kind", "audio", "--out", os.path.join(tmp, "w.wav")],
}
seen = {"import": ["kirkman.audio" in sys.modules, "numpy" in sys.modules]}
dataclasses = {"import": "dataclasses" in sys.modules}
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    for name, argv in steps.items():
        seen[name] = [kirkman.cli.main(argv), "numpy" in sys.modules]
        dataclasses[name] = "dataclasses" in sys.modules
print(json.dumps({"numpy": seen, "dataclasses": dataclasses}))
"""


@pytest.fixture(scope="module")
def start_up_probe(tmp_path_factory):
    src = os.path.dirname(os.path.dirname(kirkman.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path_factory.mktemp("probe"))],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(run.stdout)


def test_only_audio_commands_load_numpy(start_up_probe):
    assert start_up_probe["numpy"] == {
        "import": [True, False],
        "generate": [0, False],
        "resolve": [0, False],
        "color-tiling": [0, False],
        "diagram": [0, False],
        "verify": [0, False],
        "tables": [0, False],
        "dictionary": [0, False],
        "audio": [0, True],
    }


def test_start_up_and_non_audio_commands_load_no_dataclasses(start_up_probe):
    seen = dict(start_up_probe["dataclasses"])
    del seen["audio"]
    assert seen == {
        "import": False,
        "generate": False,
        "resolve": False,
        "color-tiling": False,
        "diagram": False,
        "verify": False,
        "tables": False,
        "dictionary": False,
    }
