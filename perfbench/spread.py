"""Run the benchmark on sets of seeds and write the result record.

    python3 perfbench/spread.py --workloads all --sets 1-10,11-20 \
        --out perfbench/results/BENCH_baseline.json
    python3 perfbench/spread.py --workloads all --sets 0 --trace 1 \
        --out perfbench/results/BENCH_baseline_trace.json

Runs one process at a time, from the root of the checkout, with
``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given.  For each
set, workload and metric it records the median over the set's seeds, the
quartiles and the interquartile range as a share of the median, which is
what the bounds in BENCHMARK.json are checked against.  With two sets it
also records by how much the second set's median is worse than the first's.
A traced set records each span's share of ``cli.main``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(x) for x in text.split("+")]


def summarise(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {"median": median, "q1": q[0], "q3": q[2], "n": len(values),
            "iqr_over_median": (q[2] - q[0]) / median if median else None}


def spread_of(values: list[float]) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def run_once(bench: dict, workload: str, seed: int, seconds: str, trace: str) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", trace]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return {"seed": seed, "result": json.loads(lines[-1]),
            "record": json.loads(lines[-2])["record"]}


def shares_of_top(metrics: dict) -> dict:
    top = metrics["cli.main.incl_cu"]["median"]
    shares = {}
    for kind in ("incl", "self"):
        shares[f"{kind}_share_of_cli_main"] = {
            name[: -len(f".{kind}_cu")]: round(m["median"] / top, 4)
            for name, m in metrics.items() if name.endswith(f".{kind}_cu") and m["median"] > 0}
    return shares


def summarise_set(bench: dict, runs: list, trace: str) -> dict:
    metrics = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
               for name in runs[0]["result"]["metrics"]}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out = {"attempted": attempted, "failed": failed, "error_rate": failed / attempted,
           "run_s_raw_per_run_median": spread_of([r["record"]["run_s"]["median"] for r in runs]),
           "calibration_s": spread_of([c for r in runs for c in r["record"]["calibrations_s"]]),
           "loadavg_1min_at_start": [r["record"]["machine"]["loadavg_start"][0] for r in runs],
           "runs": [{"seed": r["seed"], "steps": r["record"]["run_cu"]["n"],
                     **{k: v["value"] for k, v in r["result"]["metrics"].items()
                        if trace == "0" or k.startswith("trace.")}} for r in runs]}
    if trace == "0":
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        out["end_to_end"] = metrics
        out["spread_within_bound"] = {name: metrics[name]["iqr_over_median"] <= bound
                                      for name, bound in bounds.items()}
    else:
        out["per_layer"] = metrics
        out |= shares_of_top(metrics)
    return out


def compare(bench: dict, first: dict, second: dict) -> dict:
    """Per workload and gated metric: how much worse the second median is."""
    result = {}
    for workload in first:
        result[workload] = {}
        for m in bench["end_to_end"]:
            a = first[workload]["end_to_end"][m["name"]]["median"]
            b = second[workload]["end_to_end"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            result[workload][m["name"]] = {"worse_share": worse, "within_bound": worse <= m["bound"]}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all", help="comma-separated, or all")
    parser.add_argument("--sets", default="1-10",
                        help="comma-separated seed sets, each a range 1-10 or a list 1+4+7")
    parser.add_argument("--seconds", default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    workloads = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
                 else args.workloads.split(","))
    seconds = args.seconds or str(bench["run_seconds"])
    record = {"command": " ".join(["python3", "perfbench/spread.py"] + sys.argv[1:]),
              "seconds_per_run": float(seconds), "trace": int(args.trace),
              "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]}, "sets": []}
    for seeds in args.sets.split(","):
        summary = {}
        for workload in workloads:
            runs = []
            for seed in seeds_from(seeds):
                runs.append(run_once(bench, workload, seed, seconds, args.trace))
                record.setdefault("machine", runs[-1]["record"]["machine"])
                print(workload, json.dumps(runs[-1]["result"], sort_keys=True), flush=True)
            summary[workload] = summarise_set(bench, runs, args.trace)
            for name, m in sorted(summary[workload].get("end_to_end", {}).items()):
                print(f"  set {seeds} {workload} {name}: median={m['median']:.5g} "
                      f"iqr/median={m['iqr_over_median']:.4f}", flush=True)
        record["sets"].append({"seeds": seeds, "workloads": summary})
    if args.trace == "0" and len(record["sets"]) == 2:
        record["second_median_vs_first"] = compare(
            bench, record["sets"][0]["workloads"], record["sets"][1]["workloads"])
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
