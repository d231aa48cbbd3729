"""dualbench benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep-exact --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full record (machine, calibrations, quartiles, sample counts).  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from machine import REFERENCE_START_S, calibrate, machine_record, reference_start_s  # noqa: E402
from tracer import COUNTERS, SPAN_NAMES, Tracer, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, check_op, load_goldens  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE = os.path.join(HERE, "probe.py")
SETUP_PROBES = 6


def quartiles(values) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


class Session:
    """One workload at one seed: set-up, timed steps, checks and counts."""

    def __init__(self, workload, seed: int, work: str):
        self.cli = importlib.import_module("dualbench.cli")
        self.workload = workload
        self.seed = seed
        self.work = work
        self.goldens = load_goldens(workload, seed)
        self.first_step = self.make_step(0)
        self.attempted = 0
        self.golden_checked = 0
        self.failures = []
        self.calibrations = []

    def make_step(self, i: int) -> list:
        """The operations of step i, with their input files written."""
        return self.workload.step(self.seed, i, self.work, self.cli)

    def run_op(self, op) -> int:
        try:
            return self.cli.main(list(op.argv))
        except Exception as exc:  # an exception is a failed operation, not a crash
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return -1

    def check(self, ops, codes) -> None:
        """Count the operations and record why each failed one failed."""
        reports = {}
        for op, rc in zip(ops, codes):
            self.attempted += 1
            if rc == -1:
                continue  # already recorded by run_op
            try:
                why = check_op(op, rc, self.seed, self.goldens, reports)
            except (OSError, ValueError) as exc:
                why = f"unreadable output: {exc}"
            self.golden_checked += op.label in self.goldens
            if why:
                self.failures.append(f"{op.label}: {why}")

    def run_step(self, ops, tracer=None) -> dict:
        """Time one step between two calibrations, then check its outputs.

        Its wall time, and with a tracer its span times, are divided by the
        mean of the calibration just before and just after it.
        """
        if not self.calibrations:
            self.calibrations.append(calibrate())
        before = tracer.snapshot() if tracer else None
        start = time.perf_counter()
        codes = [self.run_op(op) for op in ops]
        wall = time.perf_counter() - start
        after = tracer.snapshot() if tracer else None
        self.calibrations.append(calibrate())
        unit = (self.calibrations[-2] + self.calibrations[-1]) / 2
        self.check(ops, codes)
        step = {"cu": wall / unit, "s": wall, "unit_s": unit}
        if tracer:
            step["calls"] = {n: after["calls"][n] - before["calls"][n] for n in SPAN_NAMES}
            step["counters"] = {k: after["counters"][k] - before["counters"][k] for k in COUNTERS}
            for kind in ("incl", "self"):
                step[kind] = {n: (after[kind][n] - before[kind][n]) / unit for n in SPAN_NAMES}
            step["top_level_s"] = after["top_level"] - before["top_level"]
        return step


def measure(session: Session, seconds: float) -> list:
    """Untraced steps 0, 1, 2, ... until the next one would end after ``seconds``."""
    start = time.perf_counter()
    steps, lengths = [], []
    ops = session.first_step
    while True:
        began = time.perf_counter()
        steps.append(session.run_step(ops))
        lengths.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return steps
        ops = session.make_step(len(steps))


def run_pass(session: Session, fixed: list, tracer=None) -> dict:
    """The fixed traced steps once; times summed over them."""
    steps = [session.run_step(ops, tracer) for ops in fixed]
    total = {"cu": sum(s["cu"] for s in steps), "s": sum(s["s"] for s in steps)}
    if tracer:
        for key in ("calls", "counters", "incl", "self"):
            total[key] = {k: sum(s[key][k] for s in steps) for k in steps[0][key]}
        total["top_level_s"] = sum(s["top_level_s"] for s in steps)
    return total


def traced_pass(session: Session, fixed: list) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(session, fixed, tracer)
    finally:
        tracer.remove()
        leftover = installed_wrappers()
        if leftover:
            raise RuntimeError(f"tracer wrappers left installed: {leftover}")


def measure_traced(session: Session, seconds: float) -> dict:
    """Pairs of an untraced and a traced pass over the workload's first
    ``trace_steps`` steps, in alternating order; at least one pair."""
    fixed = [session.first_step]
    fixed += [session.make_step(i) for i in range(1, session.workload.trace_steps)]
    start = time.perf_counter()
    plain, traced, lengths = [], [], []
    while True:
        began = time.perf_counter()
        if len(lengths) % 2:
            traced.append(traced_pass(session, fixed))
            plain.append(run_pass(session, fixed))
        else:
            plain.append(run_pass(session, fixed))
            traced.append(traced_pass(session, fixed))
        lengths.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return {"plain": plain, "traced": traced}


def end_to_end(steps: list, setup: dict) -> dict:
    # A ratio of totals, not the median of the steps' ratios: a step's own
    # ratio spreads about 15% whatever the calibration, and the totals
    # average that out over the run better than a median of 10-45 steps.
    run_cu = sum(s["s"] for s in steps) / sum(s["unit_s"] for s in steps)
    return {
        "run_cu": {"value": run_cu, "unit": "cu"},
        "setup_s": {"value": statistics.median(setup["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": setup["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    traced = result["traced"]
    metrics = {}
    for name in SPAN_NAMES:
        # every traced pass runs the same steps, so each has the same calls
        metrics[f"{name}.calls"] = {"value": traced[0]["calls"][name], "unit": "count"}
        for kind in ("incl", "self"):
            value = statistics.median(t[kind][name] for t in traced)
            metrics[f"{name}.{kind}_cu"] = {"value": value, "unit": "cu"}
    for key in COUNTERS:
        metrics[key] = {"value": traced[0]["counters"][key], "unit": "count"}
    plain_cu = statistics.median(p["cu"] for p in result["plain"])
    traced_cu = statistics.median(t["cu"] for t in traced)
    metrics["trace.overhead"] = {"value": traced_cu / plain_cu, "unit": "ratio"}
    coverage = statistics.median(t["top_level_s"] / t["s"] for t in traced)
    metrics["trace.coverage"] = {"value": coverage, "unit": "share"}
    return metrics


def probe(args, step: bool = False) -> dict:
    """Run perfbench/probe.py in a fresh process; its set-up time in wall seconds."""
    cmd = [sys.executable, PROBE, "--workload", args.workload, "--seed", str(args.seed)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd + ["--step"] * step, capture_output=True, text=True,
                          timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    report["wall_s"] = report.pop("ready") - started
    return report


def measure_setup(args) -> dict:
    """SETUP_PROBES fresh set-ups, one at a time, each just after a reference start.

    ``setup_s`` is the median of set-up wall time / reference start wall
    time, times REFERENCE_START_S: set-up seconds at the reference speed.
    The last probe also runs the first step and reports the peak memory.
    """
    references, walls = [], []
    for i in range(SETUP_PROBES):
        references.append(reference_start_s())
        report = probe(args, step=i == SETUP_PROBES - 1)
        walls.append(report["wall_s"])
    scaled = [wall / ref * REFERENCE_START_S for wall, ref in zip(walls, references)]
    return {"setup_s": scaled, "wall_s": walls, "reference_s": references,
            "peak_rss_mb": report["peak_rss_mb"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not os.path.isdir(os.path.join(SRC, "dualbench")):
        print(f"error: no dualbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    machine = machine_record()
    setup = None
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        session = Session(workload, args.seed, work)
        if args.trace:
            result = measure_traced(session, args.seconds)
            metrics = per_layer(result)
            timed = {"run_cu": [p["cu"] for p in result["plain"]],
                     "run_s": [p["s"] for p in result["plain"]],
                     "traced_run_cu": [t["cu"] for t in result["traced"]],
                     "traced_run_s": [t["s"] for t in result["traced"]]}
        else:
            setup = measure_setup(args)
            steps = measure(session, args.seconds)
            metrics = end_to_end(steps, setup)
            timed = {"run_cu": [s["cu"] for s in steps], "run_s": [s["s"] for s in steps]}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "golden_checked_ops": session.golden_checked,
        "calibrations_s": session.calibrations,
        "failures": session.failures[:20],
    }
    if setup:
        record["setup"] = setup | {"median": quartiles(setup["setup_s"])}
    record |= {key: quartiles(values) | {"values": values} for key, values in timed.items()}
    print(json.dumps({"record": record}, sort_keys=True))
    failed = len(session.failures)
    print(json.dumps({"correct": failed == 0, "attempted": session.attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
