"""Instance generators, named experiments, and report assembly.

Reports are plain dicts of JSON-safe values (rationals as "p/q" strings),
built in a fixed order and serialized with sorted keys, so a given
config+seed always produces byte-identical output.  Per-instance randomness
comes from `random.Random(f"{seed}:{index}")`, which hashes the string with
a stable algorithm, so instance streams are reproducible across processes.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

from .adcomb import doubling_report
from .approxdual import default_growth_bound, exact_dual_oracle, find_dual_pair
from .errors import FormatError, NotFound
from .f2 import F2Set, duality_measure, ip_rows, span
from .matrix import BoolMatrix, dedup, find_biased_submatrix, rank_f2, rank_real
from .protocol import build_protocol, finder_for, verify

SCHEMA_VERSION = 1
WEIGHT_SLICE_CAP = 1 << 20
IP_MAX_N = 12  # the ip family's 2^n x 2^n matrix stays within 2^24 entries


def rat(x) -> str:
    """Rationals as exact 'p/q' strings for reports."""
    return str(Fraction(x))


def instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


# -- set generators ------------------------------------------------------------------


def make_weight_slice(n: int, w: int) -> F2Set:
    if not 0 <= w <= n:
        raise FormatError(f"weight {w} outside 0..{n}")
    if math.comb(n, w) > WEIGHT_SLICE_CAP:
        raise FormatError(f"weight slice has {math.comb(n, w)} elements; too large")
    return F2Set(n, (sum(1 << i for i in c) for c in combinations(range(n), w)))


def make_subspace(n: int, d: int, rng: random.Random) -> F2Set:
    if not 0 <= d <= n:
        raise FormatError(f"dimension {d} outside 0..{n}")
    while True:
        gens = F2Set(n, (rng.randrange(1 << n) for _ in range(d)))
        candidate = span(gens)
        if len(candidate) == 1 << d:
            return candidate


def make_subspace_plus_noise(n: int, d: int, outliers: int, rng: random.Random) -> F2Set:
    base = make_subspace(n, d, rng)
    if (1 << d) + outliers > (1 << n):
        raise FormatError("more outliers than complement elements")
    extra = []
    while len(extra) < outliers:
        w = rng.randrange(1 << n)
        if w not in base and w not in extra:
            extra.append(w)
    return F2Set(n, list(base.members) + extra)


def make_random_set(n: int, size: int, rng: random.Random) -> F2Set:
    if size < 1 or size > (1 << n):
        raise FormatError(f"size {size} outside 1..2^{n}")
    return F2Set(n, rng.sample(range(1 << n), size))


def _need(params: dict, key: str, family: str) -> int:
    value = params.get(key)
    if value is None:
        raise FormatError(f"family {family!r} needs --{key}")
    return int(value)


def generate_sets(family: str, params: dict, seed: int = 0) -> F2Set:
    """Families: weight-slice(n,w), subspace(n,d),
    subspace-plus-noise(n,d,outliers), random(n,size)."""
    rng = random.Random(f"sets:{seed}")
    n = _need(params, "n", family)
    if family == "weight-slice":
        return make_weight_slice(n, _need(params, "w", family))
    if family == "subspace":
        return make_subspace(n, _need(params, "d", family), rng)
    if family == "subspace-plus-noise":
        return make_subspace_plus_noise(
            n, _need(params, "d", family), int(params.get("outliers") or 3), rng
        )
    if family == "random":
        return make_random_set(n, _need(params, "size", family), rng)
    raise FormatError(f"unknown set family {family!r}")


# -- matrix generators ----------------------------------------------------------------


def make_ip_matrix(n: int) -> BoolMatrix:
    """The 2^n x 2^n inner-product matrix: entry (x, y) is <x, y>."""
    if not 1 <= n <= IP_MAX_N:
        raise FormatError(f"ip matrix dimension must be in 1..{IP_MAX_N}, got {n}")
    words = range(1 << n)
    return BoolMatrix(1 << n, 1 << n, ip_rows(words, words))


def make_random_f2_rank(k: int, l: int, r: int, rng: random.Random) -> BoolMatrix:
    """Uniform F2 factor matrices, rejected until both have full rank r."""
    if r > min(k, l) or r < 1:
        raise FormatError(f"rank {r} impossible for {k}x{l}")
    while True:
        left = [rng.randrange(1 << r) for _ in range(k)]
        right = [rng.randrange(1 << l) for _ in range(r)]
        if rank_f2(BoolMatrix(k, r, left)) != r:
            continue
        if rank_f2(BoolMatrix(r, l, right)) != r:
            continue
        rows = []
        for x in left:
            acc = 0
            for s in range(r):
                if (x >> s) & 1:
                    acc ^= right[s]
            rows.append(acc)
        m = BoolMatrix(k, l, rows)
        if rank_f2(m) == r:
            return m


def make_random_dense(k: int, l: int, p: float, rng: random.Random) -> BoolMatrix:
    return BoolMatrix(
        k, l, [sum((rng.random() < p) << j for j in range(l)) for _ in range(k)]
    )


def make_from_sets(a: F2Set, b: F2Set) -> BoolMatrix:
    if a.n != b.n:
        raise FormatError("sets live in different dimensions")
    return BoolMatrix(len(a), len(b), ip_rows(a.members, b.members))


def make_low_real_rank(k: int, l: int, r: int, rng: random.Random) -> BoolMatrix:
    """Rows sampled from r templates, so the rank over the rationals is at
    most r; rejected until it is exactly r (needs k >= r)."""
    if r > min(k, l) or r < 1:
        raise FormatError(f"rank {r} impossible for {k}x{l}")
    while True:
        templates = [rng.randrange(1 << l) for _ in range(r)]
        rows = templates + [templates[rng.randrange(r)] for _ in range(k - r)]
        rng.shuffle(rows)
        m = BoolMatrix(k, l, rows)
        if rank_real(m) == r:
            return m


def make_block_low_rank(k: int, l: int, r: int, rng: random.Random) -> BoolMatrix:
    """Rows are unions of r disjoint column blocks, so the rank over the
    rationals is at most r while up to 2^r distinct rows can appear."""
    if r > min(k, l) or r < 1:
        raise FormatError(f"rank {r} impossible for {k}x{l}")
    while True:
        cuts = sorted(rng.sample(range(1, l), r - 1)) if r > 1 else []
        bounds = [0] + cuts + [l]
        blocks = [
            ((1 << bounds[i + 1]) - 1) ^ ((1 << bounds[i]) - 1) for i in range(r)
        ]
        rows = []
        for _ in range(k):
            picks = rng.randrange(1 << r)
            rows.append(
                sum(blocks[i] for i in range(r) if (picks >> i) & 1)
            )
        m = BoolMatrix(k, l, rows)
        if rank_real(m) == r:
            return m


def generate_matrix(family: str, params: dict, seed: int = 0) -> BoolMatrix:
    """Families: ip(n), random-f2-rank(k,l,rank), random-dense(k,l,p),
    from-sets(a,b as F2Set values)."""
    rng = random.Random(f"matrix:{seed}")
    if family == "ip":
        return make_ip_matrix(_need(params, "n", family))
    if family == "random-f2-rank":
        return make_random_f2_rank(
            _need(params, "k", family),
            _need(params, "l", family),
            _need(params, "rank", family),
            rng,
        )
    if family == "random-dense":
        return make_random_dense(
            _need(params, "k", family),
            _need(params, "l", family),
            float(params.get("p") if params.get("p") is not None else 0.5),
            rng,
        )
    if family == "from-sets":
        return make_from_sets(params["a"], params["b"])
    raise FormatError(f"unknown matrix family {family!r}")


# -- report plumbing ------------------------------------------------------------------


def report_envelope(experiment: str, seed: int, config: dict) -> dict:
    # assertion_failures flag broken guarantees (CLI exit 3); search_failures
    # record stages that legitimately found nothing (CLI exit 2)
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": "dualbench",
        "experiment": experiment,
        "seed": seed,
        "config": config,
        "results": {},
        "assertion_failures": [],
        "search_failures": [],
        "ok": True,
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def to_csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def trace_payload(trace) -> dict:
    payload = {
        "ok": trace.ok,
        "failed_stage": trace.failed_stage,
        "failure_message": trace.failure_message,
    }
    if trace.state is not None:
        payload["t"] = trace.state.t
        payload["duality"] = rat(trace.state.duality)
        payload["levels"] = [
            {
                "index": rec.index,
                "size": len(rec.members),
                "epsilon": rat(rec.epsilon),
                "bucket": rec.bucket,
                "pair_mass": rec.pair_mass,
                "duality_prev": rat(rec.duality_prev),
                "precondition_held": rec.precondition_held,
                "eq_mass_holds": rec.eq_mass_holds,
                "eq_size_holds": rec.eq_size_holds,
            }
            for rec in trace.state.levels
        ]
    if trace.bsg is not None:
        payload["bsg"] = {
            "subset_size": len(trace.bsg.subset),
            "ratio_in": rat(trace.bsg.ratio_in),
            "doubling_out": rat(trace.bsg.doubling_out),
            "density_bound": rat(trace.bsg.density_bound),
            "size_bound": rat(trace.bsg.size_bound),
        }
    if trace.pfr is not None:
        payload["pfr"] = {
            "subset_size": len(trace.pfr.subset),
            "span_size": trace.pfr.span_size,
            "ratio": rat(trace.pfr.ratio),
            "strategy": trace.pfr.strategy,
            "size_check_waived": trace.pfr.size_check_waived,
            "input_doubling": rat(trace.pfr.input_doubling),
        }
    if trace.small_span is not None:
        payload["small_span"] = {
            key: (rat(value) if isinstance(value, Fraction) else value)
            for key, value in sorted(trace.small_span.items())
        }
    if trace.ok:
        payload["final"] = {
            "a_size": len(trace.final.a_side),
            "b_size": len(trace.final.b_side),
            "area": trace.final.area(),
            "constant_bit": trace.final.constant_bit,
            "ratio_a": rat(trace.ratio_a),
            "ratio_b": rat(trace.ratio_b),
        }
        payload["references"] = {
            "eps_top": rat(trace.references["eps_top"]),
            "poly_argument": rat(trace.references["poly_argument"]),
            "global_a_shape": rat(trace.references["global_a_shape"]),
            "levels": [
                {
                    "level": ref["level"],
                    "a_bound": rat(ref["a_bound"]),
                    "b_bound": rat(ref["b_bound"]),
                    "m_factor": rat(ref["m_factor"]),
                }
                for ref in trace.references["levels"]
            ],
        }
    return payload


# -- named experiments -----------------------------------------------------------------


def experiment_dual_pipeline(config: dict, seed: int) -> tuple[dict, list[str], list[dict]]:
    family = config.get("family", "subspace")
    n = int(config.get("n", 6))
    params = {
        "n": n,
        "d": int(config.get("d", max(1, n // 2))),
        "w": int(config.get("w", 2)),
        "size": int(config.get("size", 12)),
        "outliers": int(config.get("outliers", 3)),
    }
    a = generate_sets(family, params, seed)
    b = generate_sets(family, params, seed) if family != "subspace-plus-noise" else a
    growth = config.get("K")
    trace = find_dual_pair(a, b, growth_bound=growth, seed=seed)
    report = report_envelope("dual-pipeline", seed, dict(config))
    report["results"]["instance"] = {
        "family": family,
        "n": n,
        "size_a": len(a),
        "size_b": len(b),
        "duality": rat(duality_measure(a, b)),
        "growth_bound": rat(growth if growth is not None else default_growth_bound(n)),
    }
    report["results"]["pipeline"] = trace_payload(trace)
    if not trace.ok:
        report["search_failures"].append(
            f"pipeline stage {trace.failed_stage}: {trace.failure_message}"
        )
    oracle_cap = int(config.get("oracle_cap", 20))
    rows: list[dict] = []
    if min(len(a), len(b)) <= oracle_cap:
        oracle = exact_dual_oracle(a, b, exact_cap=oracle_cap)
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
    return report, ["family", "n", "ok", "failed_stage", "area"], rows


def experiment_log_rank_sweep(config: dict, seed: int) -> tuple[dict, list[str], list[dict]]:
    ranks = config.get("ranks", [2, 3, 4])
    k = int(config.get("k", 12))
    l = int(config.get("l", 12))
    per_rank = int(config.get("instances", 5))
    finder = finder_for(config.get("strategy", "exact"))
    report = report_envelope("log-rank-sweep", seed, dict(config))
    detail = []
    aggregate_rows = []
    index = 0
    for r in ranks:
        leaves_sum = 0
        depth_sum = 0
        for _ in range(per_rank):
            rng = instance_rng(seed, index)
            index += 1
            m = make_random_f2_rank(k, l, r, rng)
            tree = build_protocol(m, mono_finder=finder)
            cost = verify(tree, m)
            leaves_sum += cost.leaves
            depth_sum += cost.depth
            detail.append(
                {
                    "rank": r,
                    "instance": index - 1,
                    "rank_f2": cost.rank_f2,
                    "rank_real": cost.rank_real,
                    "leaves": cost.leaves,
                    "depth": cost.depth,
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
    header = ["rank", "instances", "mean_leaves", "mean_depth", "rank_over_log_rank"]
    return report, header, aggregate_rows


def experiment_counterexample(config: dict, seed: int) -> tuple[dict, list[str], list[dict]]:
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
    oracle_cap = int(config.get("oracle_cap", 64))
    report = report_envelope("counterexample", seed, dict(config))
    rows = []
    ratios = []
    for n in ns:
        a = make_weight_slice(n, w)
        d = duality_measure(a, a)
        pair = exact_dual_oracle(a, a, exact_cap=oracle_cap)
        ratio = Fraction(pair.area(), len(a) * len(a))
        min_side = Fraction(min(len(pair.a_side), len(pair.b_side)), len(a))
        ratios.append(ratio)
        rows.append(
            {
                "n": n,
                "set_size": len(a),
                "duality": rat(d),
                "max_pair_area": pair.area(),
                "a_side": len(pair.a_side),
                "b_side": len(pair.b_side),
                "area_ratio": rat(ratio),
                "area_ratio_float": f"{float(ratio):.6f}",
                "min_side_ratio": rat(min_side),
            }
        )
    decreasing = all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    report["results"]["rows"] = rows
    report["results"]["ratio_strictly_decreasing"] = decreasing
    header = [
        "n",
        "set_size",
        "duality",
        "max_pair_area",
        "a_side",
        "b_side",
        "area_ratio",
        "area_ratio_float",
        "min_side_ratio",
    ]
    return report, header, rows


def experiment_doubling(config: dict, seed: int) -> tuple[dict, list[str], list[dict]]:
    n = int(config.get("n", 10))
    instances = [
        ("weight-slice", {"n": n, "w": 1}),
        ("weight-slice", {"n": n, "w": 2}),
        ("subspace", {"n": n, "d": max(1, n // 2)}),
        ("subspace-plus-noise", {"n": n, "d": max(1, n // 2), "outliers": 3}),
        ("random", {"n": n, "size": min(32, 1 << (n - 1))}),
    ]
    report = report_envelope("doubling", seed, dict(config))
    rows = []
    for idx, (family, params) in enumerate(instances):
        a = generate_sets(family, params, seed * 1000 + idx)
        rep = doubling_report(a)
        rows.append(
            {
                "family": family,
                "n": a.n,
                "size": len(a),
                "doubling": rat(rep.doubling),
                "span_ratio": rat(rep.span_ratio),
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
    header = [
        "family",
        "n",
        "size",
        "doubling",
        "span_ratio",
        "log2_span_ratio",
        "freiman_log2_bound",
        "green_tao_log2_bound",
        "sanders_log2_bound",
        "within_freiman",
        "within_green_tao",
        "within_sanders",
    ]
    return report, header, rows


def experiment_nw_bias(config: dict, seed: int) -> tuple[dict, list[str], list[dict]]:
    count = int(config.get("count", 20))
    k = int(config.get("k", 12))
    l = int(config.get("l", 12))
    r = int(config.get("rank", 4))
    report = report_envelope("nw-bias", seed, dict(config))
    rows = []
    not_found = 0
    for idx in range(count):
        rng = instance_rng(seed, idx)
        m = make_low_real_rank(k, l, r, rng)
        m, _, _ = dedup(m)
        rank = rank_real(m)
        try:
            view = find_biased_submatrix(m)
        except NotFound as exc:
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
                "area_ratio": rat(Fraction(area, m.size())),
                "discrepancy": rat(view.discrepancy()),
            }
        )
    report["results"]["rows"] = rows
    report["results"]["not_found"] = not_found
    header = [
        "instance",
        "rows",
        "cols",
        "rank_real",
        "found",
        "exhaustive_nonexistence",
        "area_ratio",
        "discrepancy",
    ]
    return report, header, rows


# name -> (experiment, the config keys it reads)
EXPERIMENTS = {
    "dual-pipeline": (
        experiment_dual_pipeline,
        ("family", "n", "d", "w", "size", "outliers", "K", "oracle_cap"),
    ),
    "log-rank-sweep": (
        experiment_log_rank_sweep,
        ("ranks", "k", "l", "instances", "strategy"),
    ),
    "counterexample": (experiment_counterexample, ("ns", "w", "oracle_cap")),
    "doubling": (experiment_doubling, ("n",)),
    "nw-bias": (experiment_nw_bias, ("count", "k", "l", "rank")),
}


def run_experiment(name: str, config: dict, seed: int = 0):
    """Dispatch a named experiment; returns (report, csv_header, csv_rows)."""
    if name not in EXPERIMENTS:
        raise FormatError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name][0](config, seed)
