"""The four pinned CLI workloads and the checks on their outputs.

Every operation is one ``dualbench.cli.main([...])`` call, the path a user
of the ``dualbench`` command takes, with its report written to a file
through ``--out``.  A run is a sequence of steps; step ``i`` is a list of
operations timed together between two calibrations (see ``run.py``), with
inputs made from the benchmark seed and ``i``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

PINNED_SEED = 0
# Step i of a protocol-roundtrip run uses CLI seed ``seed * STREAM + i``: a
# stream of distinct inputs per benchmark seed, so that a run's median
# averages over many instances instead of depending on a few.
STREAM = 1000
GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


@dataclass(frozen=True)
class Op:
    label: str  # stable name, the key of this operation's goldens
    argv: tuple
    kind: str  # "experiment", "protocol" or "verify"
    out: str  # the report file the operation writes
    tree: str = ""  # the tree file a protocol op writes or a verify op reads
    pair: str = ""  # for a verify op, the label of the protocol op it checks


def _experiment(label: str, args: str, seed: int, work: str) -> Op:
    out = os.path.join(work, f"{label}.json")
    argv = ("experiment", *args.split(), "--seed", str(seed), "--out", out)
    return Op(label, argv, "experiment", out)


class OracleSlice:
    name = "oracle-slice"
    # The weight-2 slices do not depend on the seed, which the report only
    # echoes; so every step has the same input and the goldens hold on every
    # seed once the echo is normalised.
    seed_free = True
    golden_steps = 1
    trace_steps = 1

    def step(self, seed: int, i: int, work: str, cli) -> list:
        return [_experiment("counterexample", "--name counterexample --ns 6,8,9", seed, work)]


class PipelineDense:
    name = "pipeline-dense"
    # Pinned like sweep-exact.  With a new CLI seed per step, the spread of
    # instance costs (8-10% coefficient of variation) added to the machine's
    # drift gave a run-to-run IQR/median of 0.07-0.18 over seeds.
    seed_free = True
    golden_steps = 1
    trace_steps = 1

    def step(self, seed: int, i: int, work: str, cli) -> list:
        args = "--name dual-pipeline --family random --n 14 --size 600"
        return [_experiment("pipeline", args, PINNED_SEED, work)]


class SweepExact:
    name = "sweep-exact"
    # The CLI seed picks the nine matrices, and a call's cost differs by up
    # to 2.7x between seeds (measured over CLI seeds 0-7), far more than a
    # bound could absorb; so the instances are pinned.  The benchmark seed
    # does not change this workload's input.
    seed_free = True
    golden_steps = 1
    trace_steps = 1

    def step(self, seed: int, i: int, work: str, cli) -> list:
        args = "--name log-rank-sweep --ranks 4,6,8 --k 20 --l 20 --instances 3 --strategy exact"
        return [_experiment("sweep", args, PINNED_SEED, work)]


class ProtocolRoundtrip:
    name = "protocol-roundtrip"
    seed_free = False
    golden_steps = 64
    trace_steps = 3  # nine matrices
    ranks = (6, 8, 10)
    size = 64

    def step(self, seed: int, i: int, work: str, cli) -> list:
        """Write one matrix of each rank, then protocol + verify on each."""
        ops = []
        for rank in self.ranks:
            label = f"r{rank}-{i}"
            matrix = os.path.join(work, f"{label}.txt")
            tree = os.path.join(work, f"{label}.tree.json")
            rc = cli.main(["gen-matrix", "--family", "random-f2-rank", "--k", str(self.size),
                           "--l", str(self.size), "--rank", str(rank),
                           "--seed", str(seed * STREAM + i), "--out", matrix])
            if rc != 0:
                raise RuntimeError(f"gen-matrix for {label} exited {rc}")
            built = os.path.join(work, f"{label}.protocol.json")
            checked = os.path.join(work, f"{label}.verify.json")
            ops.append(Op(f"protocol-{label}",
                          ("protocol", "--matrix", matrix, "--strategy", "greedy",
                           "--tree-out", tree, "--seed", str(seed), "--out", built),
                          "protocol", built, tree))
            ops.append(Op(f"verify-{label}",
                          ("verify", "--matrix", matrix, "--tree", tree, "--seed", str(seed),
                           "--out", checked),
                          "verify", checked, tree, pair=f"protocol-{label}"))
        return ops


WORKLOADS = {w.name: w for w in (OracleSlice(), PipelineDense(), SweepExact(), ProtocolRoundtrip())}


def load_goldens(workload, seed: int) -> dict:
    """label -> {"out": sha256, "tree": sha256} when the goldens apply to this seed."""
    if seed != PINNED_SEED and not workload.seed_free:
        return {}
    with open(GOLDENS_PATH, encoding="ascii") as fh:
        return json.load(fh)[workload.name]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def output_digests(op: Op, seed: int) -> dict:
    """SHA-256 of the files the operation wrote, with the seed echo normalised."""
    report = re.sub(rb'\n  "seed": -?\d+\n}\n$', b'\n  "seed": %d\n}\n' % PINNED_SEED,
                    _read(op.out))
    digests = {"out": _digest(report)}
    if op.kind == "protocol":
        digests["tree"] = _digest(_read(op.tree))
    return digests


def check_op(op: Op, rc: int, seed: int, goldens: dict, reports: dict) -> str:
    """Return "" when the operation's outputs are correct, else why not.

    Operations past the recorded golden steps get the structural checks only.

    ``reports`` maps the labels of checked operations to their parsed
    reports, so that a verify op is compared with its protocol op.
    """
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads(_read(op.out))
    reports[op.label] = report
    results = report.get("results", {})
    if op.kind == "experiment":
        if report.get("ok") is not True or report.get("assertion_failures"):
            return f"ok={report.get('ok')} assertion_failures={report.get('assertion_failures')}"
    elif op.kind == "protocol":
        json.loads(_read(op.tree))
    elif op.kind == "verify":
        built = reports.get(op.pair, {}).get("results", {})
        if results.get("ok") is not True:
            return "verify did not report ok"
        for key in ("leaves", "depth", "audited_nodes"):
            if results.get(key) != built.get(key):
                return f"verify {key}={results.get(key)} but protocol {key}={built.get(key)}"
    expected = goldens.get(op.label)
    if expected is not None and output_digests(op, seed) != expected:
        return "output differs from the golden"
    return ""
