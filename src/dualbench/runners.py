"""The named experiments, which experiments.run_experiment loads and calls
by name (experiments.EXPERIMENTS).

Each takes a config dict, a seed and the modules it runs, which
run_experiment loads for it alone (experiments.EXPERIMENT_MODULES), and
returns (report, csv_rows).  They run the duality pipeline, the exact
oracles and protocol compilation, none of which experiments or this module
loads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import experiments as xp
from .errors import FormatError, SearchFailure
from .f2 import duality_measure
from .matrix import EXACT_CAP, dedup, find_biased_submatrix, rank_real


def _int_within(config: dict, key: str, default: int, low: int, high=None) -> int:
    """config[key] as an int (default when absent); FormatError naming the
    flag below low or above high."""
    value = int(config.get(key, default))
    flag = key.replace("_", "-")
    if value < low:
        raise FormatError(f"--{flag} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise FormatError(f"--{flag} must be at most {high}, got {value}")
    return value


def experiment_dual_pipeline(config: dict, seed: int, approxdual) -> tuple[dict, list[dict]]:
    family = config.get("family", "subspace")
    n = _int_within(config, "n", 6, 1)
    oracle_cap = _int_within(config, "oracle_cap", EXACT_CAP, 0, xp.ORACLE_CAP_MAX)
    params = {
        "n": n,
        "d": int(config.get("d", max(1, n // 2))),
        "w": int(config.get("w", 2)),
        "size": int(config.get("size", 12)),
        "outliers": int(config.get("outliers", 3)),
    }
    a = xp.generate_sets(family, params, seed)
    b = a  # the pipeline measures A against itself
    growth = config.get("K")
    trace = approxdual.find_dual_pair(a, b, growth_bound=growth, seed=seed)
    # D(A, B) as the pipeline measured it, on its one character table of B
    duality = trace.state.duality if trace.state is not None else duality_measure(a, b)
    report = xp.report_envelope("dual-pipeline", seed, dict(config))
    report["results"]["instance"] = {
        "family": family,
        "n": n,
        "size_a": len(a),
        "size_b": len(b),
        "duality": xp.rat(duality),
        "growth_bound": xp.rat(approxdual.default_growth_bound(n) if growth is None else growth),
    }
    report["results"]["pipeline"] = xp.trace_payload(trace)
    if not trace.ok:
        report["search_failures"].append(
            f"pipeline stage {trace.failed_stage}: {trace.failure_message}"
        )
    rows: list[dict] = []
    if min(len(a), len(b)) <= oracle_cap:
        oracle = approxdual.exact_dual_oracle(a, b, exact_cap=oracle_cap)
        report["results"]["oracle"] = {
            "area": oracle.area(),
            "a_size": len(oracle.a_side),
            "b_size": len(oracle.b_side),
            "constant_bit": oracle.constant_bit,
        }
        if trace.ok:
            report["results"]["flags"] = {
                "pipeline_valid": True,
                "oracle_at_least_pipeline": oracle.area() >= trace.final.area(),
                "matches_oracle_area": oracle.area() == trace.final.area(),
            }
            if oracle.area() < trace.final.area():
                report["assertion_failures"].append("oracle smaller than pipeline pair")
                report["ok"] = False
    rows.append(
        {
            "family": family,
            "n": n,
            "ok": trace.ok,
            "failed_stage": trace.failed_stage or "",
            "area": trace.final.area() if trace.ok else 0,
        }
    )
    return report, rows


def experiment_log_rank_sweep(config: dict, seed: int, protocol) -> tuple[dict, list[dict]]:
    ranks = config.get("ranks", [2, 3, 4])
    k = _int_within(config, "k", 12, 1)
    l = _int_within(config, "l", 12, 1)
    per_rank = _int_within(config, "instances", 5, 1)
    strategy = config.get("strategy", "exact")
    protocol.finder_for(strategy)  # an unknown strategy fails before any instance is made
    report = xp.report_envelope("log-rank-sweep", seed, dict(config))
    detail = []
    aggregate_rows = []
    index = 0
    for r in ranks:
        leaves_sum = 0
        depth_sum = 0
        for _ in range(per_rank):
            rng = xp.instance_rng(seed, index)
            index += 1
            m = xp.make_random_f2_rank(k, l, r, rng)
            tree = protocol.build_protocol(m, strategy, seed=seed)
            cost = protocol.verify(tree, m)
            leaves_sum += tree.leaves
            depth_sum += tree.depth
            detail.append(
                {
                    "rank": r,
                    "instance": index - 1,
                    "rank_f2": cost.rank_f2,
                    "rank_real": cost.rank_real,
                    "leaves": tree.leaves,
                    "depth": tree.depth,
                }
            )
        aggregate_rows.append(
            {
                "rank": r,
                "instances": per_rank,
                "mean_leaves": f"{leaves_sum / per_rank:.4f}",
                "mean_depth": f"{depth_sum / per_rank:.4f}",
                "rank_over_log_rank": f"{r / math.log2(r):.4f}" if r >= 2 else "",
            }
        )
    report["results"]["detail"] = detail
    report["results"]["aggregate"] = aggregate_rows
    return report, aggregate_rows


def experiment_counterexample(config: dict, seed: int, approxdual) -> tuple[dict, list[dict]]:
    """Duality measure against the exact maximum dual pair on weight-w slices.

    One row per n: D(A,A), the exact oracle's maximum pair area and sides,
    and the area over |A|^2.  `ratio_strictly_decreasing` says whether that
    ratio falls strictly along `ns`.  For w = 2 and n >= 6 the rows follow
    D(A,A) = |1 - 8(n-2)/(n(n-1))| and max area C(floor(n/2),2) *
    C(ceil(n/2),2), so the ratio rises toward 1/16 (((m-1)/(4m-2))^2 at
    n = 2m), while D(A,A) rises toward 1 from n = 7 on; the flag is false
    for any increasing `ns` of two or more such n.
    """
    ns = config.get("ns", [6, 8, 10])
    w = int(config.get("w", 2))
    oracle_cap = _int_within(config, "oracle_cap", 64, 0, xp.ORACLE_CAP_MAX)
    for n in ns:  # each slice needs n >= w, and a dimension is at least 1
        if n < max(1, w):
            raise FormatError(f"--ns entries must be at least {max(1, w)}, got {n}")
    report = xp.report_envelope("counterexample", seed, dict(config))
    rows = []
    ratios = []
    for n in ns:
        a = xp.make_weight_slice(n, w)
        d = duality_measure(a, a)
        pair = approxdual.exact_dual_oracle(a, a, exact_cap=oracle_cap)
        ratio = Fraction(pair.area(), len(a) * len(a))
        min_side = Fraction(min(len(pair.a_side), len(pair.b_side)), len(a))
        ratios.append(ratio)
        rows.append(
            {
                "n": n,
                "set_size": len(a),
                "duality": xp.rat(d),
                "max_pair_area": pair.area(),
                "a_side": len(pair.a_side),
                "b_side": len(pair.b_side),
                "area_ratio": xp.rat(ratio),
                "area_ratio_float": f"{float(ratio):.6f}",
                "min_side_ratio": xp.rat(min_side),
            }
        )
    decreasing = all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    report["results"]["rows"] = rows
    report["results"]["ratio_strictly_decreasing"] = decreasing
    return report, rows


def experiment_doubling(config: dict, seed: int, adcomb) -> tuple[dict, list[dict]]:
    # the subspace-plus-noise instance puts 3 outliers off a subspace of
    # dimension max(1, n // 2): at n = 2 only 2 points lie off it
    n = _int_within(config, "n", 10, 3)
    instances = [
        ("weight-slice", {"n": n, "w": 1}),
        ("weight-slice", {"n": n, "w": 2}),
        ("subspace", {"n": n, "d": max(1, n // 2)}),
        ("subspace-plus-noise", {"n": n, "d": max(1, n // 2), "outliers": 3}),
        ("random", {"n": n, "size": min(32, 1 << (n - 1))}),
    ]
    report = xp.report_envelope("doubling", seed, dict(config))
    rows = []
    for idx, (family, params) in enumerate(instances):
        a = xp.generate_sets(family, params, seed * 1000 + idx)
        rep = adcomb.doubling_report(a)
        rows.append(
            {
                "family": family,
                "n": a.n,
                "size": len(a),
                "doubling": xp.rat(rep.doubling),
                "span_ratio": xp.rat(rep.span_ratio),
                "log2_span_ratio": f"{rep.log2_span_ratio:.4f}",
                "freiman_log2_bound": f"{rep.freiman_log2_bound:.4f}",
                "green_tao_log2_bound": f"{rep.green_tao_log2_bound:.4f}",
                "sanders_log2_bound": f"{rep.sanders_log2_bound:.4f}",
                "within_freiman": rep.within_freiman,
                "within_green_tao": rep.within_green_tao,
                "within_sanders": rep.within_sanders,
            }
        )
        if not (rep.within_freiman and rep.within_green_tao):
            report["assertion_failures"].append(
                f"theorem bound violated on {family} instance {idx}"
            )
            report["ok"] = False
    report["results"]["rows"] = rows
    return report, rows


def experiment_nw_bias(config: dict, seed: int) -> tuple[dict, list[dict]]:
    count = _int_within(config, "count", 20, 1)
    k = _int_within(config, "k", 12, 1)
    l = _int_within(config, "l", 12, 1)
    r = int(config.get("rank", 4))
    report = xp.report_envelope("nw-bias", seed, dict(config))
    rows = []
    not_found = 0
    for idx in range(count):
        rng = xp.instance_rng(seed, idx)
        m = xp.make_low_real_rank(k, l, r, rng)
        m, _, _ = dedup(m)
        rank = rank_real(m)
        try:
            view = find_biased_submatrix(m, rank)
        except SearchFailure as exc:
            not_found += 1
            report["search_failures"].append(f"instance {idx}: {exc}")
            rows.append(
                {
                    "instance": idx,
                    "rows": m.n_rows,
                    "cols": m.n_cols,
                    "rank_real": rank,
                    "found": False,
                    "exhaustive_nonexistence": exc.exhaustive,
                    "area_ratio": "",
                    "discrepancy": "",
                }
            )
            continue
        zeros, ones = view.counts()
        area = view.area()
        bound_r = max(rank, 1)
        area_ok = area * area * bound_r**3 >= m.size() * m.size()
        delta_ok = (zeros - ones) ** 2 * bound_r**3 >= area * area
        if not (area_ok and delta_ok):
            report["assertion_failures"].append(f"contract violated on instance {idx}")
            report["ok"] = False
        rows.append(
            {
                "instance": idx,
                "rows": m.n_rows,
                "cols": m.n_cols,
                "rank_real": rank,
                "found": True,
                "exhaustive_nonexistence": False,
                "area_ratio": xp.rat(Fraction(area, m.size())),
                "discrepancy": xp.rat(view.discrepancy()),
            }
        )
    report["results"]["rows"] = rows
    report["results"]["not_found"] = not_found
    return report, rows
