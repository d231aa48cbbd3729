"""Deterministic two-party protocol trees from boolean matrices.

A matrix is compiled by recursive splitting: find a large monochromatic
rectangle Q, let the player whose block beside Q has the smaller rank
announce membership of their input in Q's side, and recurse on the two
halves.  Each sent bit is one internal node; leaves output the entry value.
Simulation, full verification against the source matrix, and a recurrence
audit of the per-node rank/area bookkeeping are provided.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import (
    AuditViolation,
    DegenerateSplit,
    DepthCapExceeded,
    FormatError,
    InvariantViolation,
    MismatchError,
    read_text,
)
from .matrix import (
    EXACT_CAP,
    BoolMatrix,
    SubmatrixView,
    dedup,
    max_mono_exact,
    parse_matrix_text,
    rank_f2,
    rank_real,
)

TREE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NodeStats:
    area: int
    rank: int
    rank_r: int  # block sharing Q's rows
    rank_s: int  # block sharing Q's columns
    mono_area: int
    mono_fraction: Fraction  # |Q| / area, the recurrence's delta
    mono_value: int


@dataclass(frozen=True)
class Leaf:
    output: int


@dataclass(frozen=True)
class Internal:
    speaker: str  # "row" | "col"
    split: tuple[int, ...]  # deduped-matrix indices; sent bit = membership
    child0: "ProtocolNode"  # input outside the split
    child1: "ProtocolNode"  # input inside the split
    stats: NodeStats


ProtocolNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class ProtocolTree:
    root: ProtocolNode
    matrix: BoolMatrix  # deduplicated
    row_map: tuple[int, ...]  # original row index -> deduped index
    col_map: tuple[int, ...]
    source_rows: int
    source_cols: int
    leaves: int
    depth: int
    internal_nodes: int


@dataclass(frozen=True)
class CostReport:
    size: int  # entries of the deduplicated matrix
    rank_real: int
    rank_f2: int
    leaves: int
    depth: int
    internal_nodes: int
    log2_leaves: float
    cc_lower_reference: float  # log2(rank), the classical lower bound
    cc_upper_reference: int  # rank itself, the classical upper bound
    leaf_target_reference: Optional[float]  # rank / log2(rank), None if rank < 2
    binomial_leaf_reference: int  # C(ceil(log2 m) + ceil(log2 r), ceil(log2 r))


def mono_finder_exact(exact_cap: int = 20) -> Callable[[BoolMatrix], SubmatrixView]:
    def finder(m: BoolMatrix) -> SubmatrixView:
        return max_mono_exact(m, exact_cap=exact_cap)

    return finder


def mono_finder_greedy() -> Callable[[BoolMatrix], SubmatrixView]:
    """Greedy row-growing rectangle: seed with the best single row per color,
    add rows while the forced-column area does not shrink."""

    def finder(m: BoolMatrix) -> SubmatrixView:
        full = (1 << m.n_cols) - 1
        best = None
        for color in (0, 1):
            masks = [r if color else full ^ r for r in m.rows]
            seed = max(range(m.n_rows), key=lambda i: (masks[i].bit_count(), -i))
            forced = masks[seed]
            if not forced:
                continue
            rows = [seed]
            taken = {seed}
            while True:
                area = len(rows) * forced.bit_count()
                pick = None
                pick_area = -1
                pick_mask = 0
                for i in range(m.n_rows):
                    if i in taken:
                        continue
                    nm = forced & masks[i]
                    new_area = (len(rows) + 1) * nm.bit_count()
                    if nm and new_area > pick_area:
                        pick, pick_area, pick_mask = i, new_area, nm
                if pick is None or pick_area < area:
                    break
                rows.append(pick)
                taken.add(pick)
                forced = pick_mask
            cols = tuple(j for j in range(m.n_cols) if (forced >> j) & 1)
            cand = (
                -len(rows) * len(cols),
                tuple(sorted(rows)),
                cols,
                color,
            )
            if best is None or cand < best:
                best = cand
        _, rows, cols, _color = best
        return SubmatrixView(m, rows, cols)

    return finder


def mono_finder_via_dual(
    exact_cap: int = 20, seed: int = 0
) -> Callable[[BoolMatrix], SubmatrixView]:
    """Monochromatic rectangle through the duality pipeline.

    Falls back to the exact dual oracle (then greedy) when a pipeline stage
    comes up empty, and to the plain greedy rectangle when no submatrix
    meets the biased-stage bounds at all (certified nonexistence cases), so
    protocol building always gets some rectangle back.
    """
    from .approxdual import exact_dual_oracle, find_dual_pair, greedy_dual_pair
    from .errors import NotFound
    from .matrix import find_mono_via_dual

    greedy = mono_finder_greedy()

    def dual_finder(a, b):
        trace = find_dual_pair(a, b, seed=seed)
        if trace.ok:
            return trace.final
        if min(len(a), len(b)) <= exact_cap:
            return exact_dual_oracle(a, b, exact_cap=exact_cap)
        return greedy_dual_pair(a, b)

    def finder(m: BoolMatrix) -> SubmatrixView:
        core, row_map, col_map = dedup(m)
        try:
            view = find_mono_via_dual(core, dual_finder, exact_cap=exact_cap)
        except NotFound:
            return greedy(m)
        kept_rows = set(view.rows)
        kept_cols = set(view.cols)
        rows = tuple(i for i in range(m.n_rows) if row_map[i] in kept_rows)
        cols = tuple(j for j in range(m.n_cols) if col_map[j] in kept_cols)
        return SubmatrixView(m, rows, cols)

    return finder


STRATEGIES = ("exact", "greedy", "via-dual")


def finder_for(
    strategy: str, exact_cap: int = EXACT_CAP, seed: int = 0
) -> Callable[[BoolMatrix], SubmatrixView]:
    """The rectangle finder a strategy names: exact, greedy or via-dual."""
    if strategy == "exact":
        return mono_finder_exact(exact_cap)
    if strategy == "greedy":
        return mono_finder_greedy()
    if strategy == "via-dual":
        return mono_finder_via_dual(exact_cap, seed)
    raise FormatError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def build_protocol(
    m: BoolMatrix,
    mono_finder: Optional[Callable[[BoolMatrix], SubmatrixView]] = None,
) -> ProtocolTree:
    """Compile a matrix into a protocol tree.

    The input is deduplicated first; duplicate rows/columns answer through
    the index maps.  The speaker at each node is the player whose off-Q
    block has the smaller rank, except that a rectangle covering all rows
    (or all columns) forces the other player to speak so the split stays
    proper.  Area strictly decreases along every edge, so the tree is finite;
    recursion past 4 (rows + cols) bits of the deduplicated matrix is a bug
    trap (DepthCapExceeded).
    """
    if mono_finder is None:
        mono_finder = mono_finder_exact()
    core, row_map, col_map = dedup(m)
    depth_cap = 4 * (core.n_rows + core.n_cols)

    def build(rows: tuple[int, ...], cols: tuple[int, ...], depth: int) -> ProtocolNode:
        if depth > depth_cap:
            raise DepthCapExceeded(f"protocol recursion passed {depth_cap} bits")
        sub = core.take(rows, cols)
        zeros, ones = sub.counts()
        if zeros == 0 or ones == 0:
            return Leaf(output=0 if ones == 0 else 1)
        q = mono_finder(sub)
        q_rows = tuple(rows[i] for i in q.rows)
        q_cols = tuple(cols[j] for j in q.cols)
        rows_all = len(q_rows) == len(rows)
        cols_all = len(q_cols) == len(cols)
        if rows_all and cols_all:
            raise DegenerateSplit("rectangle covers a non-monochromatic matrix")
        rest_rows = tuple(i for i in rows if i not in set(q_rows))
        rest_cols = tuple(j for j in cols if j not in set(q_cols))
        rank_r = rank_real(core.take(q_rows, rest_cols)) if rest_cols else 0
        rank_s = rank_real(core.take(rest_rows, q_cols)) if rest_rows else 0
        if rows_all:
            speaker = "col"
        elif cols_all:
            speaker = "row"
        else:
            speaker = "row" if rank_r <= rank_s else "col"
        stats = NodeStats(
            area=len(rows) * len(cols),
            rank=rank_real(sub),
            rank_r=rank_r,
            rank_s=rank_s,
            mono_area=q.area(),
            mono_fraction=Fraction(q.area(), len(rows) * len(cols)),
            mono_value=q.value(),
        )
        if speaker == "row":
            child1 = build(q_rows, cols, depth + 1)
            child0 = build(rest_rows, cols, depth + 1)
            split = q_rows
        else:
            child1 = build(rows, q_cols, depth + 1)
            child0 = build(rows, rest_cols, depth + 1)
            split = q_cols
        return Internal(
            speaker=speaker, split=split, child0=child0, child1=child1, stats=stats
        )

    root = build(tuple(range(core.n_rows)), tuple(range(core.n_cols)), 0)
    leaves, depth, internal = _tree_shape(root)
    return ProtocolTree(
        root=root,
        matrix=core,
        row_map=row_map,
        col_map=col_map,
        source_rows=m.n_rows,
        source_cols=m.n_cols,
        leaves=leaves,
        depth=depth,
        internal_nodes=internal,
    )


def _tree_shape(node: ProtocolNode) -> tuple[int, int, int]:
    if isinstance(node, Leaf):
        return 1, 0, 0
    l0, d0, i0 = _tree_shape(node.child0)
    l1, d1, i1 = _tree_shape(node.child1)
    return l0 + l1, max(d0, d1) + 1, i0 + i1 + 1


def simulate(tree: ProtocolTree, x: int, y: int) -> tuple[int, int]:
    """Run the protocol on original-matrix indices; returns (output, bits)."""
    if not 0 <= x < tree.source_rows or not 0 <= y < tree.source_cols:
        raise FormatError(f"input ({x},{y}) outside the source matrix")
    row = tree.row_map[x]
    col = tree.col_map[y]
    node = tree.root
    bits = 0
    while isinstance(node, Internal):
        bits += 1
        if node.speaker == "row":
            node = node.child1 if row in node.split else node.child0
        else:
            node = node.child1 if col in node.split else node.child0
    return node.output, bits


def verify(tree: ProtocolTree, m: BoolMatrix) -> CostReport:
    """Simulate every entry and audit the per-node rank bookkeeping.

    Raises MismatchError on any disagreement with the matrix; asserts the
    block-rank inequality rank(R) + rank(S) <= rank + 1 and the balanced
    split min(rank(R), rank(S)) <= (rank + 1) / 2 at every internal node,
    plus the leaf-count bounds rank - 1 <= L <= 2 * size.
    """
    if m.n_rows != tree.source_rows or m.n_cols != tree.source_cols:
        raise FormatError("tree was built from a matrix of different shape")
    for x in range(m.n_rows):
        for y in range(m.n_cols):
            got, _bits = simulate(tree, x, y)
            expected = m.entry(x, y)
            if got != expected:
                raise MismatchError(x, y, got, expected)

    def audit(node: ProtocolNode):
        if isinstance(node, Leaf):
            return
        s = node.stats
        if s.rank_r + s.rank_s > s.rank + 1:
            raise InvariantViolation(
                f"block ranks {s.rank_r}+{s.rank_s} exceed rank {s.rank}+1"
            )
        if 2 * min(s.rank_r, s.rank_s) > s.rank + 1:
            raise InvariantViolation("neither block has rank at most (rank+1)/2")
        audit(node.child0)
        audit(node.child1)

    audit(tree.root)

    r = rank_real(tree.matrix)
    size = tree.matrix.size()
    if tree.leaves < r - 1:
        raise InvariantViolation(f"{tree.leaves} leaves below rank bound {r} - 1")
    if tree.leaves > 2 * size:
        raise InvariantViolation("leaf count exceeds twice the matrix size")
    log_m = max(1, math.ceil(math.log2(size))) if size > 1 else 1
    log_r = max(1, math.ceil(math.log2(r))) if r > 1 else 1
    return CostReport(
        size=size,
        rank_real=r,
        rank_f2=rank_f2(tree.matrix),
        leaves=tree.leaves,
        depth=tree.depth,
        internal_nodes=tree.internal_nodes,
        log2_leaves=math.log2(tree.leaves),
        cc_lower_reference=math.log2(r) if r >= 1 else 0.0,
        cc_upper_reference=r,
        leaf_target_reference=(r / math.log2(r)) if r >= 2 else None,
        binomial_leaf_reference=math.comb(log_m + log_r, log_r),
    )


def leaf_recurrence_audit(tree: ProtocolTree) -> dict:
    """Walk the tree checking the area/rank recurrence at every split.

    Asserted: strict area decrease on both edges; the out child's area is at
    most area - |Q|; the in child's rank is at most the adjacent block's
    rank + 1.  Recorded, not asserted (the intended invariant is ambiguous):
    whether the in child's rank is also at most half the parent rank.
    Globals: rank <= size <= 2^(2 rank) after dedup, and the measured
    log2(leaves) against the rank/log2(rank) and binomial references.
    """
    core = tree.matrix
    nodes: list[dict] = []

    def walk(node: ProtocolNode, rows: tuple[int, ...], cols: tuple[int, ...], path: str):
        if isinstance(node, Leaf):
            return
        s = node.stats
        area = len(rows) * len(cols)
        if area != s.area:
            raise AuditViolation(path, f"recorded area {s.area} != actual {area}")
        split = set(node.split)
        if node.speaker == "row":
            in_rows = tuple(i for i in rows if i in split)
            out_rows = tuple(i for i in rows if i not in split)
            in_sets = (in_rows, cols)
            out_sets = (out_rows, cols)
        else:
            in_cols = tuple(j for j in cols if j in split)
            out_cols = tuple(j for j in cols if j not in split)
            in_sets = (rows, in_cols)
            out_sets = (rows, out_cols)
        in_area = len(in_sets[0]) * len(in_sets[1])
        out_area = len(out_sets[0]) * len(out_sets[1])
        if not (in_area < area and out_area < area):
            raise AuditViolation(path, "child area failed to decrease strictly")
        if out_area > area - s.mono_area:
            raise AuditViolation(
                path, f"out-child area {out_area} exceeds {area} - |Q|={s.mono_area}"
            )
        in_rank = rank_real(core.take(*in_sets))
        adjacent = s.rank_r if node.speaker == "row" else s.rank_s
        if in_rank > adjacent + 1:
            raise AuditViolation(
                path, f"in-child rank {in_rank} exceeds block rank {adjacent}+1"
            )
        nodes.append(
            {
                "path": path or "root",
                "speaker": node.speaker,
                "area": area,
                "rank": s.rank,
                "rank_r": s.rank_r,
                "rank_s": s.rank_s,
                "mono_area": s.mono_area,
                "mono_fraction": s.mono_fraction,
                "in_child_rank": in_rank,
                "in_rank_within_block_plus_one": True,
                "in_rank_at_most_half_parent": 2 * in_rank <= s.rank + 1,
            }
        )
        walk(node.child0, *out_sets, path=path + "0")
        walk(node.child1, *in_sets, path=path + "1")

    all_rows = tuple(range(core.n_rows))
    all_cols = tuple(range(core.n_cols))
    walk(tree.root, all_rows, all_cols, "")

    r = rank_real(core)
    size = core.size()
    if not (r <= size):
        raise AuditViolation("root", f"rank {r} exceeds size {size}")
    if size > 2 ** (2 * r):
        raise AuditViolation("root", f"size {size} exceeds 2^(2*{r}) after dedup")
    return {
        "nodes": nodes,
        "rank": r,
        "size": size,
        "leaves": tree.leaves,
        "log2_leaves": math.log2(tree.leaves),
        "rank_over_log_rank": (r / math.log2(r)) if r >= 2 else None,
        "size_within_rank_window": True,
    }


# -- serialization ------------------------------------------------------------------
# JSON with stable field order so identical trees serialize byte-identically.


def _node_to_dict(node: ProtocolNode) -> dict:
    if isinstance(node, Leaf):
        return {"type": "leaf", "output": node.output}
    s = node.stats
    return {
        "type": "internal",
        "speaker": node.speaker,
        "split": sorted(node.split),
        "stats": {
            "area": s.area,
            "rank": s.rank,
            "rank_r": s.rank_r,
            "rank_s": s.rank_s,
            "mono_area": s.mono_area,
            "mono_fraction": str(s.mono_fraction),
            "mono_value": s.mono_value,
        },
        "children": [_node_to_dict(node.child0), _node_to_dict(node.child1)],
    }


_STAT_COUNTS = ("area", "rank", "rank_r", "rank_s", "mono_area", "mono_value")


def _get(data, key: str, kind: type):
    """data[key], which must be present and of the JSON type kind."""
    value = data.get(key) if isinstance(data, dict) else None
    if type(value) is not kind:
        raise FormatError(f"tree field {key!r} is missing or not of type {kind.__name__}")
    return value


def _indices(data, key: str, bound: int) -> tuple[int, ...]:
    """data[key] as a tuple of integers in 0..bound-1."""
    values = _get(data, key, list)
    if not all(type(v) is int and 0 <= v < bound for v in values):
        raise FormatError(f"tree field {key!r} has an entry outside 0..{bound - 1}")
    return tuple(values)


def _node_from_dict(data, rows: tuple[int, ...], cols: tuple[int, ...], path: str) -> ProtocolNode:
    """Load the node at path, whose block is rows x cols of the stored matrix.

    The split must be a proper nonempty subset of the speaker's side of the
    block, and the stored stats must fit the block: area, a 0/1 mono_value, a
    mono_area in 1..area-1 that is a multiple of the split size, mono_fraction
    = mono_area / area, rank in 1..min(|rows|, |cols|), rank_r and rank_s in
    0..rank.  Ranks within those bounds are taken as stored.
    """
    kind = _get(data, "type", str)
    if kind == "leaf":
        if _get(data, "output", int) not in (0, 1):
            raise FormatError("leaf output must be 0 or 1")
        return Leaf(output=data["output"])
    if kind != "internal":
        raise FormatError(f"unknown node type {kind!r}")
    speaker = _get(data, "speaker", str)
    if speaker not in ("row", "col"):
        raise FormatError(f"unknown speaker {speaker!r}")
    children = _get(data, "children", list)
    if len(children) != 2:
        raise FormatError("an internal node needs exactly two children")
    s = _get(data, "stats", dict)
    counts = {key: _get(s, key, int) for key in _STAT_COUNTS}
    try:
        mono_fraction = Fraction(_get(s, "mono_fraction", str))
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad mono_fraction {s['mono_fraction']!r}") from None

    def bad(message: str) -> FormatError:
        return FormatError(f"node {path or 'root'}: {message}")

    side = rows if speaker == "row" else cols
    split = _get(data, "split", list)
    if not all(type(v) is int for v in split):
        raise bad("split entries must be integers")
    chosen = set(split)
    if not split or len(chosen) != len(split) or not chosen < set(side):
        raise bad(f"split is not a proper nonempty subset of the block's {speaker}s")
    area = len(rows) * len(cols)
    mono_area, rank = counts["mono_area"], counts["rank"]
    if counts["area"] != area:
        raise bad(f"area {counts['area']} != {len(rows)} x {len(cols)}")
    if counts["mono_value"] not in (0, 1):
        raise bad("mono_value must be 0 or 1")
    if not 0 < mono_area < area or mono_area % len(split):
        raise bad(f"mono_area {mono_area} is outside 1..{area - 1} "
                  f"or not a multiple of the split size {len(split)}")
    if mono_fraction * area != mono_area:
        raise bad(f"mono_fraction {mono_fraction} != mono_area / area")
    if not 1 <= rank <= min(len(rows), len(cols)):
        raise bad(f"rank {rank} outside 1..min(rows, cols)")
    if not (0 <= counts["rank_r"] <= rank and 0 <= counts["rank_s"] <= rank):
        raise bad("rank_r or rank_s outside 0..rank")
    inside = tuple(i for i in side if i in chosen)
    outside = tuple(i for i in side if i not in chosen)
    if speaker == "row":
        blocks = ((outside, cols), (inside, cols))
    else:
        blocks = ((rows, outside), (rows, inside))
    return Internal(
        speaker=speaker,
        split=tuple(split),
        child0=_node_from_dict(children[0], *blocks[0], path + "0"),
        child1=_node_from_dict(children[1], *blocks[1], path + "1"),
        stats=NodeStats(mono_fraction=mono_fraction, **counts),
    )


def tree_to_dict(tree: ProtocolTree) -> dict:
    return {
        "format": "protocol-tree",
        "version": TREE_FORMAT_VERSION,
        "source_rows": tree.source_rows,
        "source_cols": tree.source_cols,
        "rows": tree.matrix.n_rows,
        "cols": tree.matrix.n_cols,
        "matrix": tree.matrix.to_lines(),
        "row_map": list(tree.row_map),
        "col_map": list(tree.col_map),
        "stats": {
            "leaves": tree.leaves,
            "depth": tree.depth,
            "internal_nodes": tree.internal_nodes,
        },
        "root": _node_to_dict(tree.root),
    }


def tree_from_dict(data: dict) -> ProtocolTree:
    """Load a tree document; a missing, mistyped or out-of-range field is a
    FormatError.  Tree-level counts are re-derived; node stats are checked
    against each node's block (see _node_from_dict), ranks only for range."""
    if not isinstance(data, dict) or data.get("format") != "protocol-tree":
        raise FormatError("not a protocol-tree document")
    if _get(data, "version", int) != TREE_FORMAT_VERSION:
        raise FormatError(f"unsupported protocol-tree version {data['version']}")
    lines = _get(data, "matrix", list)
    if not all(type(line) is str for line in lines):
        raise FormatError("tree field 'matrix' must hold row strings")
    shape = f"{_get(data, 'rows', int)} {_get(data, 'cols', int)}"
    matrix = parse_matrix_text("\n".join([shape, *lines]))
    row_map = _indices(data, "row_map", matrix.n_rows)
    col_map = _indices(data, "col_map", matrix.n_cols)
    source_rows = _get(data, "source_rows", int)
    source_cols = _get(data, "source_cols", int)
    if (len(row_map), len(col_map)) != (source_rows, source_cols):
        raise FormatError("index maps disagree with the source shape")
    root = _node_from_dict(
        data.get("root"), tuple(range(matrix.n_rows)), tuple(range(matrix.n_cols)), ""
    )
    leaves, depth, internal = _tree_shape(root)
    stored = _get(data, "stats", dict)
    counts = [_get(stored, key, int) for key in ("leaves", "depth", "internal_nodes")]
    if counts != [leaves, depth, internal]:
        raise FormatError("stored stats disagree with the stored tree")
    return ProtocolTree(
        root=root,
        matrix=matrix,
        row_map=row_map,
        col_map=col_map,
        source_rows=source_rows,
        source_cols=source_cols,
        leaves=leaves,
        depth=depth,
        internal_nodes=internal,
    )


def format_tree(tree: ProtocolTree) -> str:
    return json.dumps(tree_to_dict(tree), indent=2) + "\n"


def parse_tree_text(text: str) -> ProtocolTree:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad tree JSON: {exc}") from exc
    return tree_from_dict(data)


def read_tree_file(path) -> ProtocolTree:
    return parse_tree_text(read_text(path))


def write_tree_file(path, tree: ProtocolTree) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_tree(tree))
