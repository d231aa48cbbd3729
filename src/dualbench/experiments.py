"""Instance generators, the names the parser reads, and report assembly.

Reports are plain dicts of JSON-safe values (rationals as "p/q" strings),
built in a fixed order and serialized with sorted keys, so a given
config+seed always produces byte-identical output.  Per-instance randomness
comes from `random.Random(f"{seed}:{index}")`, which hashes the string with
a stable algorithm, so instance streams are reproducible across processes.

This module loads only errors, f2 and matrix, so the parser and the
generator verbs load no more.  The named experiments themselves are in
runners, which run_experiment loads by name, with only the modules the
named experiment runs (EXPERIMENT_MODULES).
"""

from __future__ import annotations

import importlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

from .errors import FormatError
from .f2 import F2Set, combine, echelon_basis, ip_rows, mask_of, same_dim, span
from .matrix import BoolMatrix, rank_f2, rank_real

SCHEMA_VERSION = 1
SET_SIZE_CAP = 1 << 20  # members of any generated set, checked before it is drawn
IP_MAX_N = 12  # the ip family's 2^n x 2^n matrix stays within 2^24 entries
# --oracle-cap's bound: the oracle runs on A against itself, so its
# inner-product matrix stays within 128 x 128 bits (weight 2 up to n = 16)
ORACLE_CAP_MAX = 128


def rat(x) -> str:
    """Rationals as exact 'p/q' strings for reports."""
    return str(Fraction(x))


def instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


# -- set generators ------------------------------------------------------------------


def make_weight_slice(n: int, w: int) -> F2Set:
    if not 0 <= w <= n:
        raise FormatError(f"weight {w} outside 0..{n}")
    if math.comb(n, w) > SET_SIZE_CAP:
        raise FormatError(f"weight slice has {math.comb(n, w)} elements; too large")
    return F2Set(n, map(mask_of, combinations(range(n), w)))


def make_subspace(n: int, d: int, rng: random.Random) -> F2Set:
    if not 0 <= d <= n:
        raise FormatError(f"dimension {d} outside 0..{n}")
    if 1 << d > SET_SIZE_CAP:
        raise FormatError(f"subspace has {1 << d} elements; too large")
    while True:
        gens = F2Set(n, (rng.randrange(1 << n) for _ in range(d)))
        # d independent draws span 2^d words; a dependent draw is never spanned
        if len(echelon_basis(gens.members)) == d:
            return span(gens)


def make_subspace_plus_noise(n: int, d: int, outliers: int, rng: random.Random) -> F2Set:
    if outliers < 0:
        raise FormatError(f"outliers must be nonnegative, got {outliers}")
    # make_subspace names a dimension outside 0..n
    if 0 <= d <= n and (1 << d) + outliers > SET_SIZE_CAP:
        raise FormatError(f"subspace plus noise has {(1 << d) + outliers} elements; too large")
    base = make_subspace(n, d, rng)
    if (1 << d) + outliers > (1 << n):
        raise FormatError("more outliers than complement elements")
    extra = set()
    while len(extra) < outliers:
        w = rng.randrange(1 << n)
        if w not in base:
            extra.add(w)
    return F2Set(n, [*base.members, *extra])


def make_random_set(n: int, size: int, rng: random.Random) -> F2Set:
    if size < 1 or size > (1 << n):
        raise FormatError(f"size {size} outside 1..2^{n}")
    if size > SET_SIZE_CAP:
        raise FormatError(f"random set has {size} elements; too large")
    return F2Set(n, rng.sample(range(1 << n), size))


def _need(params: dict, key: str, family: str) -> int:
    value = params.get(key)
    if value is None:
        raise FormatError(f"family {family!r} needs --{key}")
    return int(value)


# The params each set family reads; the CLI rejects a flag its family does not read.
SET_FAMILIES = {
    "weight-slice": ("n", "w"),
    "subspace": ("n", "d"),
    "subspace-plus-noise": ("n", "d", "outliers"),
    "random": ("n", "size"),
}


def generate_sets(family: str, params: dict, seed: int = 0) -> F2Set:
    """A set of the family; see SET_FAMILIES for the params each reads."""
    rng = random.Random(f"sets:{seed}")
    n = _need(params, "n", family)
    if family == "weight-slice":
        return make_weight_slice(n, _need(params, "w", family))
    if family == "subspace":
        return make_subspace(n, _need(params, "d", family), rng)
    if family == "subspace-plus-noise":
        outliers = params.get("outliers")
        return make_subspace_plus_noise(
            n, _need(params, "d", family), 3 if outliers is None else int(outliers), rng
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
        m = BoolMatrix(k, l, [combine(x, right) for x in left])
        if rank_f2(m) == r:
            return m


def make_random_dense(k: int, l: int, p: float, rng: random.Random) -> BoolMatrix:
    return BoolMatrix(
        k, l, [sum((rng.random() < p) << j for j in range(l)) for _ in range(k)]
    )


def make_from_sets(a: F2Set, b: F2Set) -> BoolMatrix:
    same_dim(a, b)
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
        # the blocks are disjoint, so a XOR of blocks is their union
        m = BoolMatrix(k, l, [combine(rng.randrange(1 << r), blocks) for _ in range(k)])
        if rank_real(m) == r:
            return m


# The params each matrix family reads (set_a, set_b as F2Set values); the CLI
# rejects a flag its family does not read.
MATRIX_FAMILIES = {
    "ip": ("n",),
    "random-f2-rank": ("k", "l", "rank"),
    "random-dense": ("k", "l", "p"),
    "from-sets": ("set_a", "set_b"),
}


def generate_matrix(family: str, params: dict, seed: int = 0) -> BoolMatrix:
    """A matrix of the family; see MATRIX_FAMILIES for the params each reads."""
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
        p = float(params.get("p") if params.get("p") is not None else 0.5)
        if not 0 <= p <= 1:
            raise FormatError(f"--p must be a probability in [0, 1], got {p}")
        return make_random_dense(_need(params, "k", family), _need(params, "l", family), p, rng)
    if family == "from-sets":
        return make_from_sets(params["set_a"], params["set_b"])
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


def to_csv(rows: list[dict]) -> str:
    """One line per row under a header of the first row's keys."""
    header = list(rows[0]) if rows else []
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


# The rectangle finders a protocol can use, by the name protocol.finder_for
# takes; only via-dual runs the duality pipeline.
STRATEGIES = ("exact", "greedy", "via-dual")

# name -> (its runner in dualbench.runners, the config keys it reads)
EXPERIMENTS = {
    "dual-pipeline": (
        "experiment_dual_pipeline",
        ("family", "n", "d", "w", "size", "outliers", "K", "oracle_cap"),
    ),
    "log-rank-sweep": (
        "experiment_log_rank_sweep",
        ("ranks", "k", "l", "instances", "strategy"),
    ),
    "counterexample": ("experiment_counterexample", ("ns", "w", "oracle_cap")),
    "doubling": ("experiment_doubling", ("n",)),
    "nw-bias": ("experiment_nw_bias", ("count", "k", "l", "rank")),
}


# name -> the modules its runner takes after (config, seed), loaded only
# when that experiment runs
EXPERIMENT_MODULES = {
    "dual-pipeline": ("approxdual",),
    "log-rank-sweep": ("protocol",),
    "counterexample": ("approxdual",),
    "doubling": ("adcomb",),
    "nw-bias": (),
}


def run_experiment(name: str, config: dict, seed: int = 0):
    """Dispatch a named experiment; returns (report, csv_rows).  The runners
    load here, with the modules the named one runs (EXPERIMENT_MODULES)."""
    if name not in EXPERIMENTS:
        raise FormatError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    runners, *modules = (importlib.import_module(f".{module}", __package__)
                         for module in ("runners", *EXPERIMENT_MODULES[name]))
    return getattr(runners, EXPERIMENTS[name][0])(config, seed, *modules)
