"""Run one workload of the kirkman benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from the root of a source tree holding ``src/kirkman``.  The workload
runs in a fresh interpreter with ``src`` first on its path; its temporary
files live in ``perfbench/.out`` and are removed when it ends.  The last
line of stdout is the result object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics.  See README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, ".out")
WORKLOADS = ("census", "week", "audio", "cli")
TIMEOUT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kirkman", "__init__.py")):
        print(f"error: no kirkman package under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed), str(args.seconds), args.trace, workdir]
    # one core for the worker and the processes it starts; numpy's BLAS
    # then starts no helper threads on the other core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        t0 = time.monotonic()
        proc = subprocess.Popen(worker + [repr(t0)], env=env, start_new_session=True)
        try:
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
            return 3
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
