"""Record the SHA-256 of every output of every workload at the pinned seed.

The first ``golden_steps`` steps of each workload are recorded; a run at the
pinned seed that goes further checks the later steps structurally only.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json.  Run it only at a commit whose outputs are
known good: a perf change must leave every digest as it is, so a mismatch in
a benchmark run counts as a failed operation.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import GOLDENS_PATH, PINNED_SEED, WORKLOADS, check_op, output_digests  # noqa: E402


def record() -> dict:
    import dualbench.cli as cli

    goldens = {}
    for name, workload in sorted(WORKLOADS.items()):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
            digests, reports = {}, {}
            for i in range(workload.golden_steps):
                for op in workload.step(PINNED_SEED, i, work, cli):
                    rc = cli.main(list(op.argv))
                    why = check_op(op, rc, PINNED_SEED, {}, reports)
                    if why:
                        raise SystemExit(f"{name} {op.label}: {why}")
                    digests[op.label] = output_digests(op, PINNED_SEED)
        goldens[name] = digests
        print(f"{name}: {len(digests)} operations", file=sys.stderr)
    return goldens


def main() -> int:
    goldens = record()
    with open(GOLDENS_PATH, "w", encoding="ascii") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
