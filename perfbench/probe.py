"""Set up one workload in a fresh process, the way a benchmark run starts.

    python3 perfbench/probe.py --workload sweep-exact --seed 3 [--step]

``run.py`` starts this several times per untraced run, one process at a
time, to measure ``setup_s`` and ``peak_rss_mb``.  It prints one JSON line:

- ``ready``: the ``CLOCK_MONOTONIC`` time at which set-up ended, that is
  after interpreter start, ``import dualbench``, writing the first step's
  input files and loading the goldens.  The parent subtracts the time at
  which it started the process.
- with ``--step``, ``peak_rss_mb``: the peak resident memory after the first
  step has run, untimed, and its outputs have been checked.  This process
  runs no calibration loop and no tracer, so the peak is the program's own.

It exits 1 if an operation of the step fails.
"""

import argparse
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import SRC, Session  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """This process's own peak resident memory, VmHWM in /proc/self/status.

    ``ru_maxrss`` is not used: Linux carries it over from the parent through
    fork and exec, so it would report the harness's peak when that is higher.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--step", action="store_true", help="run the first step, report peak RSS")
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        session = Session(WORKLOADS[args.workload], args.seed, work)
        report = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
        if args.step:
            ops = session.first_step
            session.check(ops, [session.run_op(op) for op in ops])
            if session.failures:
                print("\n".join(session.failures), file=sys.stderr)
                return 1
            report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
