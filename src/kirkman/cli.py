"""Command-line pipeline over design documents.

Subcommands: generate, resolve, render, verify, tables, dictionary.
Every run is fully determined by its flags; there is no randomness and
no environment-dependent behavior, so repeated invocations produce
byte-identical files.  Exit codes: 0 success, 1 validation failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import audio, colors, oracle, pauli, serialize
from .designs import expand_seeds
from .errors import KirkmanError
from .resolver import (
    DAY_DISPLAY_ORDER,
    reference_matching,
    resolve,
    validate_resolution,
)

DEFAULT_SEEDS = "Q12,Q10,Q4,Q11"


def _parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if part.upper().startswith("Q"):
            part = part[1:]
        try:
            seeds.append(pauli.q_label(int(part)))
        except ValueError as exc:
            raise KirkmanError(f"bad seed {part!r}: expected a Q-index 1..15") from exc
    return tuple(seeds)


def _parse_primes(text):
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise KirkmanError(f"bad prime list {text!r}") from exc


def _summarize(design, out):
    p = design.params
    kinds = [k.value for k in design.kinds.values()]
    print(design.describe(), file=out)
    print(f"v={p.v} b={p.b} r={p.r} k={p.k} lambda={p.lam}", file=out)
    print(
        f"blocks: {kinds.count('commuting')} commuting, {kinds.count('cyclic')} cyclic",
        file=out,
    )


def _cmd_generate(args):
    design = expand_seeds(_parse_seeds(args.seeds))
    doc_text = serialize.to_json(serialize.design_to_doc(design))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc_text)
        _summarize(design, sys.stdout)
        print(f"wrote {args.out}")
    else:
        _summarize(design, sys.stderr)
        sys.stdout.write(doc_text)
    return 0


def _color_code(design, point):
    return pauli.dictionary(design.assignment[point]).color


def _week_grid(design, resolution):
    """Seven-column text grid: day headers, then five rows of color triples."""
    days = list(DAY_DISPLAY_ORDER)
    from .designs import display_order

    cells = {
        day: [
            " ".join(f"{_color_code(design, p):<3}" for p in display_order(design, blk))
            for blk in resolution.classes[day]
        ]
        for day in days
    }
    width = 11
    header = " | ".join(f"{day.name + ' ' + day.bits:^{width}}" for day in days)
    rule = "-+-".join("-" * width for _ in days)
    lines = [header, rule]
    for row in range(5):
        lines.append(" | ".join(f"{cells[day][row]:^{width}}" for day in days))
    return "\n".join(lines)


def _cmd_resolve(args):
    design, _ = serialize.load_document(args.document)
    matching = reference_matching(design) if args.matching == "table4" else None
    resolution = resolve(design, matching=matching)
    print(_week_grid(design, resolution))
    if args.out:
        serialize.save_document(args.out, design, resolution)
        print(f"wrote {args.out}")
    return 0


def _render_audio(design, resolution, args):
    if args.out is None:
        raise KirkmanError("audio rendering needs --out for the WAVE file")
    scale = audio.build_cps_scale(_parse_primes(args.primes), args.tonic)
    window = audio.WindowParams(hop=args.hop, sigma=args.sigma)
    config = audio.SynthConfig(sample_rate=args.sample_rate)
    chords = audio.chord_sequence(design, resolution)
    buffer = audio.synthesize(chords, scale, window, config)
    audio.write_wav(args.out, buffer, config)
    print(f"wrote {args.out}: {len(chords)} chords, {len(buffer)} samples")
    return 0


def _cmd_render(args):
    design, resolution = serialize.load_document(args.document)
    if args.kind == "audio":
        return _render_audio(design, resolution, args)
    if args.kind == "color-tiling":
        text = colors.render_tiling(design, resolution)
    else:
        text = colors.render_diagram(design, layout=args.layout)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args):
    design, resolution = serialize.load_document(args.document)
    reports = [
        oracle.verify_algebra(design.seeds[0].width // 2),
        oracle.verify_design(design),
    ]
    if resolution is not None:
        reports.append(validate_resolution(design, resolution))
    ok = True
    for report in reports:
        print(report.text())
        ok = ok and report.passed
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _dictionary_row(entry):
    return (
        f"Q{entry.q_index} | [{entry.label.bits}] | O{entry.o_index} | "
        f"{entry.tensor_text} | {entry.gamma_text} | {entry.color} | {entry.note}"
    )


def _cmd_tables(args):
    if args.dictionary:
        for entry in pauli.dictionary_entries():
            print(_dictionary_row(entry))
        return 0
    table = pauli.commutator_table()
    names = [f"O{o}" for o in pauli.O_INDICES]
    width = 7
    print(" " * 5 + "".join(f"{n:>{width}}" for n in names))
    for oi in pauli.O_INDICES:
        cells = "".join(f"{table[(oi, oj)].text:>{width}}" for oj in pauli.O_INDICES)
        print(f"{f'O{oi}':<5}" + cells)
    return 0


def _cmd_dictionary(args):
    print(_dictionary_row(pauli.dictionary(args.key)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kirkman",
        description="Generate, resolve, verify and render triple-system designs "
        "built from two-qubit operator seeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="expand seeds into a design document")
    p.add_argument("--seeds", default=DEFAULT_SEEDS, help=f"comma-separated Q-indices (default {DEFAULT_SEEDS})")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("resolve", help="split a 35-block document into seven day classes")
    p.add_argument("document", help="design document to resolve")
    p.add_argument("--matching", choices=("lex", "table4"), default="lex", help="day-to-line matching preset")
    p.add_argument("--out", help="write the resolved document here")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("render", help="render a document as an image or audio file")
    p.add_argument("document", help="design document to render")
    p.add_argument("--kind", choices=("color-tiling", "diagram", "audio"), default="color-tiling")
    p.add_argument("--layout", choices=("triangle", "cube", "tetrahedron"), help="diagram geometry")
    p.add_argument("--tonic", type=float, default=220.0, help="scale tonic in Hz")
    p.add_argument("--primes", default="3,5,7,11,13,17", help="six odd primes for the scale")
    p.add_argument("--hop", type=float, default=0.8, help="chord hop in seconds")
    p.add_argument("--sigma", type=float, default=0.12, help="Gaussian window width in seconds")
    p.add_argument("--sample-rate", type=int, default=44100, help="samples per second")
    p.add_argument("--out", help="output file (required for audio)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="run the independent checks on a document")
    p.add_argument("document", help="design document to verify")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tables", help="print the operator dictionary or commutator grid")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dictionary", action="store_true", help="all fifteen dictionary rows")
    group.add_argument("--commutators", action="store_true", help="the 15 x 15 commutator grid")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("dictionary", help="look up one operator by any of its names")
    p.add_argument("key", help="Q12, O5, 1100, G2, D#, ...")
    p.set_defaults(func=_cmd_dictionary)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KirkmanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
