"""Command-line surface.

Verbs: gen-matrix, gen-sets, analyze, factor, dual, mono, protocol, verify,
experiment.  All randomness flows from one --seed per invocation and the
seed is echoed in every report, so identical invocations produce
byte-identical output.  Exit codes: 0 ok, 1 usage/format/IO, 2 a search
legitimately found nothing, 3 an internal invariant fired (a bug).

The head imports only what the parser and the generator verbs need; main
loads the modules a verb runs after parsing (VERB_MODULES), so a gen-matrix,
protocol or verify process never loads the duality pipeline.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
import time
from fractions import Fraction
from functools import cache

from . import experiments as xp
from .errors import DualbenchError, FormatError, InvariantViolation, SearchFailure, TreeMismatch
from .f2 import duality_measure, format_set, members, read_set_file, write_set_file
from .matrix import (
    EXACT_CAP,
    dedup,
    discrepancy,
    factorize_f2,
    format_matrix,
    read_matrix_file,
    stats,
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


def _emit_report(report: dict, args, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv":
        _emit(xp.to_csv(csv_rows), args.out)
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


def _given(args, reads, what: str) -> dict:
    """The verb's parameter flags that were given; a usage error if what
    does not read one of them."""
    given = {key: getattr(args, key) for key in args.params if getattr(args, key) is not None}
    unread = ", ".join("--" + key.replace("_", "-") for key in given if key not in reads)
    if unread:
        raise FormatError(f"{what} does not read {unread}")
    return given


def cmd_gen_matrix(args) -> int:
    params = _given(args, xp.MATRIX_FAMILIES[args.family], f"family {args.family}")
    if args.family == "from-sets":
        if not (args.set_a and args.set_b):
            raise FormatError("from-sets needs --set-a and --set-b")
        params["set_a"] = read_set_file(args.set_a)
        params["set_b"] = read_set_file(args.set_b)
    m = xp.generate_matrix(args.family, params, seed=args.seed)
    _emit(format_matrix(m), args.out)
    return EXIT_OK


def cmd_gen_sets(args) -> int:
    params = _given(args, xp.SET_FAMILIES[args.family], f"family {args.family}")
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
    _emit_report(_simple_report("analyze", args, payload), args, [payload])
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
        "discrepancy": xp.rat(discrepancy(deduped)),
    }
    _emit_report(_simple_report("factor", args, payload), args)
    return EXIT_OK


def _exact_cap(args) -> int:
    """--exact-cap, or its default; a usage error outside 0..EXACT_CAP: the
    default is the largest, since find_biased_submatrix's exhaustive pass
    loops over 2^cap subsets."""
    if args.exact_cap is None:
        return EXACT_CAP
    if not 0 <= args.exact_cap <= EXACT_CAP:
        raise FormatError(f"--exact-cap must be within 0..{EXACT_CAP}, got {args.exact_cap}")
    return args.exact_cap


def cmd_dual(args, approxdual) -> int:
    _given(args, DUAL_STRATEGIES[args.strategy], f"--strategy {args.strategy}")
    exact_cap = _exact_cap(args)
    a = read_set_file(args.set_a)
    b = read_set_file(args.set_b)
    if args.strategy == "pipeline":
        trace = approxdual.find_dual_pair(
            a,
            b,
            growth_bound=Fraction(args.K) if args.K else None,
            seed=args.seed,
        )
        payload = xp.trace_payload(trace)
        _emit_report(_simple_report("dual", args, payload), args)
        return EXIT_OK if trace.ok else EXIT_NOT_FOUND
    if args.strategy == "exact":
        pair = approxdual.exact_dual_oracle(a, b, exact_cap=exact_cap)
    else:
        pair = approxdual.greedy_dual_pair(a, b)
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


def cmd_mono(args, protocol) -> int:
    _given(args, FINDER_STRATEGIES[args.strategy], f"--strategy {args.strategy}")
    finder = protocol.finder_for(args.strategy, _exact_cap(args), args.seed)
    m = read_matrix_file(args.matrix)
    deduped, _, _ = dedup(m)
    view = finder(deduped, *deduped.whole())
    payload = {
        "strategy": args.strategy,
        "rows": members(view.rows),
        "cols": members(view.cols),
        "area": view.area(),
        "value": view.value(),
        "monochromatic": view.is_monochromatic(),
        "dedup_size": deduped.size(),
        "area_ratio": xp.rat(Fraction(view.area(), deduped.size())),
    }
    _emit_report(_simple_report("mono", args, payload), args)
    return EXIT_OK


def cmd_protocol(args, protocol) -> int:
    _given(args, FINDER_STRATEGIES[args.strategy], f"--strategy {args.strategy}")
    exact_cap = _exact_cap(args)
    m = read_matrix_file(args.matrix)
    tree = protocol.build_protocol(m, args.strategy, exact_cap, args.seed)
    cost = protocol.verify(tree, m)
    audited = protocol.leaf_recurrence_audit(tree)
    if args.tree_out:
        protocol.write_tree_file(args.tree_out, tree)
    payload = {
        "strategy": args.strategy,
        "size": cost.size,
        "rank_real": cost.rank_real,
        "rank_f2": cost.rank_f2,
        "leaves": tree.leaves,
        "depth": tree.depth,
        "internal_nodes": tree.internal_nodes,
        "log2_leaves": f"{math.log2(tree.leaves):.4f}",
        "cc_lower_reference": f"{cost.cc_lower_reference:.4f}",
        "cc_upper_reference": cost.cc_upper_reference,
        "leaf_target_reference": (
            f"{cost.leaf_target_reference:.4f}" if cost.leaf_target_reference else ""
        ),
        "binomial_leaf_reference": cost.binomial_leaf_reference,
        "audited_nodes": audited,
    }
    _emit_report(_simple_report("protocol", args, payload), args, [payload])
    return EXIT_OK


def cmd_verify(args, protocol) -> int:
    m = read_matrix_file(args.matrix)
    tree = protocol.read_tree_file(args.tree)
    try:
        protocol.verify(tree, m)
        audited = protocol.leaf_recurrence_audit(tree)
    except TreeMismatch as exc:  # a tree no build could have made
        raise FormatError(f"{args.tree}: {exc}") from None
    payload = {
        "verified_entries": m.n_rows * m.n_cols,
        "leaves": tree.leaves,
        "depth": tree.depth,
        "audited_nodes": audited,
        "sample_bits": protocol.simulate(tree, 0, 0)[1],
        "ok": True,
    }
    _emit_report(_simple_report("verify", args, payload), args)
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _given(args, xp.EXPERIMENTS[args.name][1], f"experiment {args.name}")
    started = time.monotonic()
    report, rows = xp.run_experiment(args.name, config, seed=args.seed)
    if args.timings:
        report["timings"] = {"wall_seconds": round(time.monotonic() - started, 6)}
    _emit_report(report, args, rows)
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


# Each parameter flag's type (a tuple lists its choices) and --help hint.  A
# verb's parser declares the keys its reads tables list (the families', the
# experiments' or the strategies' below) and no others; _given rejects a
# given flag that the chosen family, experiment or strategy does not read.
PARAMS = {
    "n": (int, None), "k": (int, None), "l": (int, None), "rank": (int, None),
    "p": (float, None), "count": (int, None), "instances": (int, None),
    "w": (int, "weight for weight-slice"),
    "d": (int, "dimension for subspace families"),
    "size": (int, "size for the random family"),
    "outliers": (int, None), "oracle_cap": (int, None), "exact_cap": (int, None),
    "strategy": (xp.STRATEGIES, None), "family": (str, None),
    "ns": (_int_list, "comma-separated dimensions"),
    "ranks": (_int_list, "comma-separated ranks"),
    "K": (_growth_bound, "growth bound for the pipeline (rational, e.g. 16 or 3/2)"),
    "set_a": (str, None), "set_b": (str, None),
}

# The params each strategy reads, of dual and of the rectangle finders that
# mono and protocol run.
DUAL_STRATEGIES = {"pipeline": ("K",), "exact": ("exact_cap",), "greedy": ()}
FINDER_STRATEGIES = {name: () if name == "greedy" else ("exact_cap",) for name in xp.STRATEGIES}


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

    def common(p, fmt=False):
        p.add_argument("--seed", type=int, default=0)
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="write output to this file")

    def params(p, reads):
        """Add the flag of every key that one of reads lists, in PARAMS
        order, and record the keys for _given."""
        listed = set().union(*reads)
        keys = [key for key in PARAMS if key in listed]
        for key in keys:
            kind, hint = PARAMS[key]
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), help=hint, **typed)
        p.set_defaults(params=keys)

    p = sub.add_parser("gen-matrix", help="write a matrix file")
    p.add_argument("--family", required=True, choices=list(xp.MATRIX_FAMILIES))
    params(p, xp.MATRIX_FAMILIES.values())
    common(p)

    p = sub.add_parser("gen-sets", help="write a set file")
    p.add_argument("--family", required=True, choices=list(xp.SET_FAMILIES))
    params(p, xp.SET_FAMILIES.values())
    common(p)

    p = sub.add_parser("analyze", help="ranks, counts and discrepancy of a matrix")
    p.add_argument("--matrix", required=True)
    common(p, fmt=True)

    p = sub.add_parser("factor", help="inner-product factorization of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-a", dest="out_a", default=None, help="write the row set file")
    p.add_argument("--out-b", dest="out_b", default=None, help="write the column set file")
    common(p)

    p = sub.add_parser("dual", help="find a dual pair for two set files")
    p.add_argument("--set-a", dest="set_a", required=True)
    p.add_argument("--set-b", dest="set_b", required=True)
    p.add_argument("--strategy", choices=list(DUAL_STRATEGIES), default="pipeline")
    params(p, DUAL_STRATEGIES.values())
    common(p)

    p = sub.add_parser("mono", help="find a monochromatic rectangle")
    p.add_argument("--matrix", required=True)
    p.add_argument("--strategy", choices=list(FINDER_STRATEGIES), default="exact")
    params(p, FINDER_STRATEGIES.values())
    common(p)

    p = sub.add_parser("protocol", help="compile a matrix into a protocol tree")
    p.add_argument("--matrix", required=True)
    p.add_argument("--strategy", choices=list(FINDER_STRATEGIES), default="exact")
    p.add_argument("--tree-out", dest="tree_out", default=None,
                   help="write the tree JSON here")
    params(p, FINDER_STRATEGIES.values())
    common(p, fmt=True)

    p = sub.add_parser("verify", help="re-verify a stored tree against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tree", required=True)
    common(p)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("--name", required=True, choices=sorted(xp.EXPERIMENTS))
    params(p, (read for _, read in xp.EXPERIMENTS.values()))
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-determinism)")
    common(p, fmt=True)

    return parser


_parser = cache(build_parser)  # one parser per process

# The modules a verb runs beyond this one's head imports, the arguments its
# cmd_ function takes after args; an experiment's runners load in
# experiments.run_experiment.
VERB_MODULES = {
    "dual": ("approxdual",),
    "mono": ("protocol",),
    "protocol": ("protocol",),
    "verify": ("protocol",),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # the verb's cmd_ function is looked up per call, not stored in the parser
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        modules = [importlib.import_module(f".{name}", __package__)
                   for name in VERB_MODULES.get(args.command, ())]
        return run(args, *modules)
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
