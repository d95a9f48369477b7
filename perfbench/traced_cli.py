"""The ``kirkman`` command with per-layer spans, for traced ``cli`` runs.

    python traced_cli.py SPANS_JSON ARG...

Runs ``kirkman ARG...`` with every traced function wrapped, writes the
folded spans to SPANS_JSON when the command returns, and exits with the
command's code.
"""

import json
import sys

import kirkman.cli
import spans

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.install()
    code = kirkman.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
    sys.exit(code)
