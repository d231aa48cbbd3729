"""Command-line surface.

Verbs: gen-matrix, gen-sets, analyze, factor, dual, mono, protocol, verify,
experiment.  All randomness flows from one --seed per invocation and the
seed is echoed in every report, so identical invocations produce
byte-identical output.  Exit codes: 0 ok, 1 usage/format/IO, 2 a search
legitimately found nothing, 3 an internal invariant fired (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import experiments as xp
from .approxdual import exact_dual_oracle, find_dual_pair, greedy_dual_pair
from .errors import (
    DualbenchError,
    FormatError,
    InvariantViolation,
    SearchFailure,
)
from .f2 import duality_measure, format_set, read_set_file, write_set_file
from .matrix import EXACT_CAP, dedup, factorize_f2, format_matrix, read_matrix_file, stats
from .protocol import (
    STRATEGIES,
    build_protocol,
    finder_for,
    leaf_recurrence_audit,
    read_tree_file,
    simulate,
    verify,
    write_tree_file,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_FOUND = 2
EXIT_INVARIANT = 3


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, args, csv_header=None, csv_rows=None) -> None:
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "csv":
        if csv_header is None:
            raise FormatError("this command has no CSV form; use --format json")
        _emit(xp.to_csv(csv_header, csv_rows), args.out)
    else:
        _emit(xp.to_json(report), args.out)


def _simple_report(command: str, args, payload: dict) -> dict:
    return {
        "schema_version": xp.SCHEMA_VERSION,
        "generator": "dualbench",
        "command": command,
        "seed": getattr(args, "seed", 0),
        "results": payload,
    }


# -- verb implementations --------------------------------------------------------------


def cmd_gen_matrix(args) -> int:
    params = {
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "rank": args.rank,
        "p": args.p,
    }
    if args.family == "from-sets":
        if not (args.set_a and args.set_b):
            raise FormatError("from-sets needs --set-a and --set-b")
        params["a"] = read_set_file(args.set_a)
        params["b"] = read_set_file(args.set_b)
    m = xp.generate_matrix(args.family, params, seed=args.seed)
    _emit(format_matrix(m), args.out)
    return EXIT_OK


def cmd_gen_sets(args) -> int:
    params = {
        "n": args.n,
        "w": args.w,
        "d": args.d,
        "outliers": args.outliers,
        "size": args.size,
    }
    s = xp.generate_sets(args.family, params, seed=args.seed)
    _emit(format_set(s), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    m = read_matrix_file(args.matrix)
    st = stats(m)
    deduped, _, _ = dedup(m)
    payload = {
        "rows": m.n_rows,
        "cols": m.n_cols,
        "size": st.size,
        "zeros": st.zeros,
        "ones": st.ones,
        "discrepancy": xp.rat(st.discrepancy),
        "rank_f2": st.rank_f2,
        "rank_real": st.rank_real,
        "dedup_rows": deduped.n_rows,
        "dedup_cols": deduped.n_cols,
    }
    report = _simple_report("analyze", args, payload)
    header = list(payload.keys())
    _emit_report(report, args, header, [payload])
    return EXIT_OK


def cmd_factor(args) -> int:
    m = read_matrix_file(args.matrix)
    deduped, _, _ = dedup(m)
    fact = factorize_f2(deduped)
    if args.out_a:
        write_set_file(args.out_a, fact.a_set)
    if args.out_b:
        write_set_file(args.out_b, fact.b_set)
    payload = {
        "rank_f2": fact.r,
        "vector_dimension": fact.a_set.n,
        "a_size": len(fact.a_set),
        "b_size": len(fact.b_set),
        "duality": xp.rat(duality_measure(fact.a_set, fact.b_set)),
        "discrepancy": xp.rat(stats(deduped).discrepancy),
    }
    _emit_report(_simple_report("factor", args, payload), args)
    return EXIT_OK


def _exact_cap(args, read: bool) -> int:
    """--exact-cap, or its default; a usage error where the strategy ignores it."""
    if args.exact_cap is None:
        return EXACT_CAP
    if not read:
        raise FormatError(f"--strategy {args.strategy} does not read --exact-cap")
    return args.exact_cap


def cmd_dual(args) -> int:
    if args.growth_bound is not None and args.strategy != "pipeline":
        raise FormatError(f"--strategy {args.strategy} does not read --K")
    exact_cap = _exact_cap(args, args.strategy == "exact")
    a = read_set_file(args.set_a)
    b = read_set_file(args.set_b)
    if args.strategy == "pipeline":
        trace = find_dual_pair(
            a,
            b,
            growth_bound=Fraction(args.growth_bound) if args.growth_bound else None,
            seed=args.seed,
        )
        payload = xp.trace_payload(trace)
        _emit_report(_simple_report("dual", args, payload), args)
        return EXIT_OK if trace.ok else EXIT_NOT_FOUND
    if args.strategy == "exact":
        pair = exact_dual_oracle(a, b, exact_cap=exact_cap)
    else:
        pair = greedy_dual_pair(a, b)
    payload = {
        "strategy": args.strategy,
        "a_size": len(pair.a_side),
        "b_size": len(pair.b_side),
        "area": pair.area(),
        "constant_bit": pair.constant_bit,
        "a_side": pair.a_side.to_lines(),
        "b_side": pair.b_side.to_lines(),
    }
    _emit_report(_simple_report("dual", args, payload), args)
    return EXIT_OK


def cmd_mono(args) -> int:
    finder = finder_for(args.strategy, _exact_cap(args, args.strategy != "greedy"), args.seed)
    m = read_matrix_file(args.matrix)
    deduped, _, _ = dedup(m)
    view = finder(deduped)
    payload = {
        "strategy": args.strategy,
        "rows": list(view.rows),
        "cols": list(view.cols),
        "area": view.area(),
        "value": view.value(),
        "monochromatic": view.is_monochromatic(),
        "dedup_size": deduped.size(),
        "area_ratio": xp.rat(Fraction(view.area(), deduped.size())),
    }
    _emit_report(_simple_report("mono", args, payload), args)
    return EXIT_OK


def cmd_protocol(args) -> int:
    finder = finder_for(args.strategy, _exact_cap(args, args.strategy != "greedy"), args.seed)
    m = read_matrix_file(args.matrix)
    tree = build_protocol(m, mono_finder=finder)
    cost = verify(tree, m)
    audit = leaf_recurrence_audit(tree)
    if args.tree_out:
        write_tree_file(args.tree_out, tree)
    payload = {
        "strategy": args.strategy,
        "size": cost.size,
        "rank_real": cost.rank_real,
        "rank_f2": cost.rank_f2,
        "leaves": cost.leaves,
        "depth": cost.depth,
        "internal_nodes": cost.internal_nodes,
        "log2_leaves": f"{cost.log2_leaves:.4f}",
        "cc_lower_reference": f"{cost.cc_lower_reference:.4f}",
        "cc_upper_reference": cost.cc_upper_reference,
        "leaf_target_reference": (
            f"{cost.leaf_target_reference:.4f}" if cost.leaf_target_reference else ""
        ),
        "binomial_leaf_reference": cost.binomial_leaf_reference,
        "audited_nodes": len(audit["nodes"]),
    }
    report = _simple_report("protocol", args, payload)
    header = list(payload.keys())
    _emit_report(report, args, header, [payload])
    return EXIT_OK


def cmd_verify(args) -> int:
    m = read_matrix_file(args.matrix)
    tree = read_tree_file(args.tree)
    cost = verify(tree, m)
    audit = leaf_recurrence_audit(tree)
    payload = {
        "verified_entries": m.n_rows * m.n_cols,
        "leaves": cost.leaves,
        "depth": cost.depth,
        "audited_nodes": len(audit["nodes"]),
        "sample_bits": simulate(tree, 0, 0)[1],
        "ok": True,
    }
    _emit_report(_simple_report("verify", args, payload), args)
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = {}
    for key in (
        "n",
        "k",
        "l",
        "rank",
        "count",
        "instances",
        "w",
        "d",
        "size",
        "outliers",
        "oracle_cap",
        "strategy",
        "family",
        "ns",
        "ranks",
        "K",
    ):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    reads = xp.EXPERIMENTS[args.name][1]
    unread = ", ".join("--" + key.replace("_", "-") for key in config if key not in reads)
    if unread:
        raise FormatError(f"experiment {args.name} does not read {unread}")
    started = time.monotonic()
    report, header, rows = xp.run_experiment(args.name, config, seed=args.seed)
    if args.timings:
        report["timings"] = {"wall_seconds": round(time.monotonic() - started, 6)}
    _emit_report(report, args, header, rows)
    if not report.get("ok", True):
        return EXIT_INVARIANT
    if report.get("search_failures"):
        return EXIT_NOT_FOUND
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _growth_bound(text: str) -> str:
    """--K: a positive rational, kept as typed so reports echo it unchanged."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return text


def _int_list(text: str) -> list[int]:
    """--ns, --ranks: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, not the usage block, and exit 1."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualbench",
        description="exact workbench for duality-measure experiments over F2^n "
        "and protocol compilation of low-rank boolean matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, fmt=True, exact_cap=False):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="write output to this file")
        if exact_cap:
            p.add_argument("--exact-cap", type=int, default=None, dest="exact_cap")

    p = sub.add_parser("gen-matrix", help="write a matrix file")
    p.add_argument("--family", required=True,
                   choices=["ip", "random-f2-rank", "random-dense", "from-sets"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--set-a", dest="set_a", default=None)
    p.add_argument("--set-b", dest="set_b", default=None)
    common(p, fmt=False)
    p.set_defaults(func=cmd_gen_matrix)

    p = sub.add_parser("gen-sets", help="write a set file")
    p.add_argument("--family", required=True,
                   choices=["weight-slice", "subspace", "subspace-plus-noise", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, default=None, help="weight for weight-slice")
    p.add_argument("--d", type=int, default=None, help="dimension for subspace families")
    p.add_argument("--outliers", type=int, default=None)
    p.add_argument("--size", type=int, default=None, help="size for the random family")
    common(p, fmt=False)
    p.set_defaults(func=cmd_gen_sets)

    p = sub.add_parser("analyze", help="ranks, counts and discrepancy of a matrix")
    p.add_argument("--matrix", required=True)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("factor", help="inner-product factorization of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-a", dest="out_a", default=None, help="write the row set file")
    p.add_argument("--out-b", dest="out_b", default=None, help="write the column set file")
    common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("dual", help="find a dual pair for two set files")
    p.add_argument("--set-a", dest="set_a", required=True)
    p.add_argument("--set-b", dest="set_b", required=True)
    p.add_argument("--strategy", choices=["pipeline", "exact", "greedy"],
                   default="pipeline")
    p.add_argument("--K", dest="growth_bound", type=_growth_bound, default=None,
                   help="growth bound for the pipeline (rational, e.g. 16 or 3/2)")
    common(p, exact_cap=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("mono", help="find a monochromatic rectangle")
    p.add_argument("--matrix", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="exact")
    common(p, exact_cap=True)
    p.set_defaults(func=cmd_mono)

    p = sub.add_parser("protocol", help="compile a matrix into a protocol tree")
    p.add_argument("--matrix", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="exact")
    p.add_argument("--tree-out", dest="tree_out", default=None,
                   help="write the tree JSON here")
    common(p, exact_cap=True)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("verify", help="re-verify a stored tree against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tree", required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("--name", required=True, choices=sorted(xp.EXPERIMENTS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--outliers", type=int, default=None)
    p.add_argument("--oracle-cap", type=int, default=None, dest="oracle_cap")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--ns", type=_int_list, help="comma-separated dimensions")
    p.add_argument("--ranks", type=_int_list, help="comma-separated ranks")
    p.add_argument("--K", type=_growth_bound, default=None)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-determinism)")
    common(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchFailure as exc:
        print(f"not found ({exc.stage}): {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DualbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
