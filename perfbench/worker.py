"""One workload in a fresh interpreter; started by run.py.

    python worker.py WORKLOAD SEED SECONDS TRACE WORKDIR T0
    python worker.py setup T0

T0 is the starting process's time.monotonic() just before it started this
one (the clock is system-wide), so set-up time counts interpreter start,
the import of ``kirkman`` and its fixed tables.  Benchmark modules are
imported only after set-up ends.  The second form does the set-up alone
and prints its time: a run takes further cold set-up samples that way.
"""

import sys
import time


def setup():
    before = len(sys.modules)
    start = time.perf_counter()
    import kirkman

    import_ms = (time.perf_counter() - start) * 1e3
    modules = len(sys.modules) - before
    kirkman.dictionary_entries()
    kirkman.commutator_table()
    kirkman.build_cps_scale()
    return kirkman, {"import.kirkman_ms": import_ms, "import.modules": modules}


if __name__ == "__main__":
    t0 = float(sys.argv[-1])
    kirkman, import_metrics = setup()
    setup_s = time.monotonic() - t0
    if sys.argv[1] == "setup":
        # a set-up-only interpreter started by a run: report and leave
        print(repr(setup_s))
        sys.exit(0)
    workload, seed, seconds, trace, workdir = sys.argv[1:6]

    import workloads

    sys.exit(workloads.main(kirkman, workload, int(seed), float(seconds), trace == "1", workdir, setup_s, import_metrics))
