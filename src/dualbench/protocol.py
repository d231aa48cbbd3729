"""Deterministic two-party protocol trees from boolean matrices.

A matrix is compiled by recursive splitting: find a large monochromatic
rectangle Q, let the player whose block beside Q has the smaller rank
announce membership of their input in Q's side, and recurse on the two
halves.  Each sent bit is one internal node; leaves output the entry value.
A node states its bookkeeping once, as six counts (NodeStats), and delta
= |Q| / area is derived from them.  Simulation, full verification against
the source matrix, and a recurrence audit of the per-node rank/area
bookkeeping, which returns the number of splits it checked, are provided.
A block of the stored matrix is a mask pair (rows, cols), as a view is, and
a split a mask.  Every block rank is the stored matrix's
BoolMatrix.block_rank, one memo shared by the finder, the build, verify and
the audit, so no block is ranked twice.  A protocol is built by strategy name, and finder_for gives
the strategy's rectangle finder, a plain function from a block (matrix,
row mask, column mask) to a monochromatic view of that matrix inside the
block, so no block is copied: matrix's exact and greedy finders
(max_mono_exact, greedy_rectangle) or approxdual.mono_via_dual, which
loads the duality pipeline only when via-dual is the strategy.  A tree
file is JSON written straight from the nodes (format_tree) and read
through one table of field types per object kind (_fields).
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress
from typing import Callable, Optional, Union

from .errors import FormatError, InvariantViolation, TreeMismatch, read_text
from .experiments import STRATEGIES
from .f2 import NOT_BITS, mask_of, members, picks
from .matrix import (
    EXACT_CAP,
    BoolMatrix,
    SubmatrixView,
    dedup,
    greedy_rectangle,
    max_mono_exact,
    rank_f2,
)

TREE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NodeStats:
    """The bookkeeping of one split, six counts; delta = |Q| / area is the
    mono_fraction property, derived from them.  Every invariant readable
    from the stats alone is checked on construction."""

    area: int
    rank: int
    rank_r: int  # block sharing Q's rows
    rank_s: int  # block sharing Q's columns
    mono_area: int
    mono_value: int

    @property
    def mono_fraction(self) -> Fraction:
        """|Q| / area, the recurrence's delta."""
        return Fraction(self.mono_area, self.area)

    def __post_init__(self):
        r, rr, rs = self.rank, self.rank_r, self.rank_s
        if self.mono_value not in (0, 1):
            raise InvariantViolation(f"mono_value {self.mono_value} is not 0 or 1")
        if not 0 < self.mono_area < self.area:
            raise InvariantViolation(f"mono_area {self.mono_area} outside 1..{self.area - 1}")
        if r < 1:
            raise InvariantViolation(f"rank {r} is below 1")
        if not (0 <= rr <= r and 0 <= rs <= r):
            raise InvariantViolation(f"rank_r {rr} or rank_s {rs} outside 0..{r}")
        # The block-rank bound beside a monochromatic rectangle.  It implies the
        # balanced split 2 min(rank_r, rank_s) <= rank + 1, as 2 min(a, b) <= a + b.
        if rr + rs > r + 1:
            raise InvariantViolation(f"block ranks {rr}+{rs} exceed rank {r}+1")


@dataclass(frozen=True)
class Leaf:
    output: int


@dataclass(frozen=True)
class Internal:
    speaker: str  # "row" | "col"
    split: int  # bit mask of deduped-matrix indices; sent bit = membership
    child0: "ProtocolNode"  # input outside the split
    child1: "ProtocolNode"  # input inside the split
    stats: NodeStats

    def __post_init__(self):
        # The speaker's off-Q block has the smaller rank, ties to the row
        # player; a rectangle spanning all rows (rank_s = 0) forces the column.
        rr, rs = self.stats.rank_r, self.stats.rank_s
        if self.speaker == "row" and rr > rs:
            raise InvariantViolation(f"row speaks although rank_r {rr} > rank_s {rs}")
        if self.speaker == "col" and not (rs < rr or rs == 0):
            raise InvariantViolation(f"col speaks although rank_s {rs} >= rank_r {rr}")


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
    """verify's whole-matrix ranks and references; the leaf, depth and
    internal-node counts are the ProtocolTree's."""

    size: int  # entries of the deduplicated matrix
    rank_real: int
    rank_f2: int
    cc_lower_reference: float  # log2(rank), the classical lower bound
    cc_upper_reference: int  # rank itself, the classical upper bound
    leaf_target_reference: Optional[float]  # rank / log2(rank), None if rank < 2
    binomial_leaf_reference: int  # C(ceil(log2 m) + ceil(log2 r), ceil(log2 r))


def finder_for(
    strategy: str, exact_cap: int = EXACT_CAP, seed: int = 0
) -> Callable[[BoolMatrix, int, int], SubmatrixView]:
    """The rectangle finder a strategy names, exact, greedy or via-dual,
    called as finder(matrix, rows, cols) on a block of the matrix.

    Only an exact tree hands Q to the in-child, which skips its search:
    max_mono_exact returns the least maximum rectangle of its block, ties
    broken on the matrix's own index lists, and the in-child's block holds
    Q inside the same matrix, so no rectangle there is larger or precedes
    Q, and it would return Q again.  A greedy or via-dual answer in the
    child can differ.
    """
    if strategy == "exact":
        return partial(max_mono_exact, exact_cap=exact_cap)
    if strategy == "greedy":
        return greedy_rectangle
    if strategy == "via-dual":
        # the bridge runs the duality pipeline, which loads only here
        bridge = importlib.import_module(".approxdual", __package__).mono_via_dual
        return partial(bridge, exact_cap=exact_cap, seed=seed)
    raise FormatError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def build_protocol(
    m: BoolMatrix, strategy: str = "exact", exact_cap: int = EXACT_CAP, seed: int = 0
) -> ProtocolTree:
    """Compile a matrix into a protocol tree, each rectangle from the finder
    finder_for(strategy, exact_cap, seed) names.

    The input is deduplicated first; duplicate rows/columns answer through
    the index maps.  The speaker at each node is the player whose off-Q
    block has the smaller rank, except that a rectangle covering all rows
    (or all columns) forces the other player to speak so the split stays
    proper.  Area strictly decreases along every edge, so the tree is finite;
    recursion past 4 (rows + cols) bits of the deduplicated matrix is a bug
    trap (InvariantViolation).  Blocks are ranked by core.block_rank.
    The finder searches each block of the deduplicated matrix in place, and
    its view's masks are Q as they stand.  An exact tree hands Q to the
    in-child, which holds it (see finder_for).
    """
    finder = finder_for(strategy, exact_cap, seed)
    core, row_map, col_map = dedup(m)
    depth_cap = 4 * (core.n_rows + core.n_cols)
    rank = core.block_rank

    def build(rows: int, cols: int, depth: int, q=None) -> ProtocolNode:
        """The node of block rows x cols; q is its rectangle (row mask,
        column mask, value) when already known."""
        if depth > depth_cap:
            raise InvariantViolation(f"protocol recursion passed {depth_cap} bits")
        area = rows.bit_count() * cols.bit_count()
        ones = sum(map(int.bit_count, map(cols.__and__, compress(core.rows, picks(rows)))))
        if ones == 0 or ones == area:
            return Leaf(output=0 if ones == 0 else 1)
        if q is None:
            view = finder(core, rows, cols)
            q = (view.rows, view.cols, view.value())
        q_rows, q_cols, value = q
        if q_rows == rows and q_cols == cols:
            raise InvariantViolation("rectangle covers a non-monochromatic matrix")
        rest_rows, rest_cols = rows ^ q_rows, cols ^ q_cols
        rank_r = rank(q_rows, rest_cols) if rest_cols else 0
        rank_s = rank(rest_rows, q_cols) if rest_rows else 0
        # a rectangle covering all rows (columns) makes the other player speak
        speaker = "col" if not rest_rows or (rest_cols and rank_s < rank_r) else "row"
        stats = NodeStats(
            area=area,
            rank=rank(rows, cols),
            rank_r=rank_r,
            rank_s=rank_s,
            mono_area=q_rows.bit_count() * q_cols.bit_count(),
            mono_value=value,
        )
        split = q_rows if speaker == "row" else q_cols
        out_block, in_block = _child_blocks(speaker, split, rows, cols)
        child1 = build(*in_block, depth + 1, q if strategy == "exact" else None)
        child0 = build(*out_block, depth + 1)
        return Internal(speaker, split, child0, child1, stats)

    root = build(*core.whole(), 0)
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
        bit = row if node.speaker == "row" else col
        node = node.child1 if node.split >> bit & 1 else node.child0
    return node.output, bits


def _audit_violation(path: str, message: str) -> TreeMismatch:
    return TreeMismatch(f"audit violation at node {path or 'root'}: {message}")


def verify(tree: ProtocolTree, m: BoolMatrix) -> CostReport:
    """Check the tree's stored matrix, its answers and its node ranks, then
    the tree's whole-matrix numbers.

    Raises FormatError when the tree's stored matrix and index maps are not
    dedup(m).  The answers are checked by leaf blocks: every leaf's block of
    the stored matrix must be constant and equal to its output.  As every
    split is a subset of its node's block, that is the same as simulating
    every entry; on a failure the entries are simulated, so the first wrong
    entry raises TreeMismatch.  Each internal node's stored rank must be
    its block's rank (TreeMismatch).  Asserted on the deduplicated matrix:
    rank <= size <= 2^(2 rank) and the leaf-count bounds
    rank - 1 <= L <= 2 * size.  The per-node stat invariants are checked
    when each NodeStats is made, so a tree holds no node that breaks them.
    """
    if m.n_rows != tree.source_rows or m.n_cols != tree.source_cols:
        raise FormatError("tree was built from a matrix of different shape")
    if (tree.matrix, tree.row_map, tree.col_map) != dedup(m):
        raise FormatError("the tree's stored matrix and index maps are not dedup of the matrix")
    core = tree.matrix
    answers_agree = True
    internal = []
    for node, rows, cols, path, _blocks in _walk(tree):
        if isinstance(node, Leaf):
            want = cols if node.output else 0
            words = map(cols.__and__, compress(core.rows, picks(rows)))
            answers_agree = answers_agree and all(map(want.__eq__, words))
        else:
            internal.append((node.stats.rank, rows, cols, path))
    if not answers_agree:
        for x in range(m.n_rows):
            for y in range(m.n_cols):
                got, _bits = simulate(tree, x, y)
                expected = m.entry(x, y)
                if got != expected:
                    raise TreeMismatch(
                        f"protocol mismatch at ({x},{y}): got {got}, expected {expected}"
                    )
        raise InvariantViolation("a leaf block disagrees but every entry simulates")
    for stored, rows, cols, path in internal:
        actual = core.block_rank(rows, cols)
        if stored != actual:
            raise _audit_violation(path, f"stored rank {stored} != block rank {actual}")

    r = core.block_rank(*core.whole())
    size = tree.matrix.size()
    if r > size:
        raise InvariantViolation(f"rank {r} exceeds size {size}")
    if size > 2 ** (2 * r):
        raise InvariantViolation(f"size {size} exceeds 2^(2*{r}) after dedup")
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
        cc_lower_reference=math.log2(r) if r >= 1 else 0.0,
        cc_upper_reference=r,
        leaf_target_reference=(r / math.log2(r)) if r >= 2 else None,
        binomial_leaf_reference=math.comb(log_m + log_r, log_r),
    )


def _walk(tree: ProtocolTree):
    """Yield (node, rows, cols, path, child blocks) for every node, depth
    first with child0 before child1; the masks rows x cols are the node's
    block of the stored matrix and the child blocks are _child_blocks's
    pair, or None at a leaf."""
    stack = [(tree.root, *tree.matrix.whole(), "")]
    while stack:
        node, rows, cols, path = stack.pop()
        if isinstance(node, Leaf):
            yield node, rows, cols, path, None
            continue
        out_block, in_block = _child_blocks(node.speaker, node.split, rows, cols)
        yield node, rows, cols, path, (out_block, in_block)
        stack.append((node.child1, *in_block, path + "1"))
        stack.append((node.child0, *out_block, path + "0"))


def _child_blocks(speaker: str, split: int, rows: int, cols: int):
    """The (rows, cols) mask blocks of child0 (input outside the split) and
    child1 (inside) of a node whose block is rows x cols."""
    side = rows if speaker == "row" else cols
    inside = side & split
    outside = side ^ inside
    if speaker == "row":
        return (outside, cols), (inside, cols)
    return (rows, outside), (rows, inside)


def leaf_recurrence_audit(tree: ProtocolTree) -> int:
    """Walk the tree checking the area/rank recurrence at every split; returns
    the number of splits audited, tree.internal_nodes.

    Asserted: the recorded area is the block's; strict area decrease on both
    edges; the out child's area is at most area - |Q|; the in child's rank is
    at most the adjacent block's rank + 1.  The whole-matrix numbers are
    verify's.
    """
    audited = 0
    for node, rows, cols, path, blocks in _walk(tree):
        if blocks is None:
            continue
        s = node.stats
        area = rows.bit_count() * cols.bit_count()
        if area != s.area:
            raise _audit_violation(path, f"recorded area {s.area} != actual {area}")
        out_sets, in_sets = blocks
        in_area = in_sets[0].bit_count() * in_sets[1].bit_count()
        out_area = out_sets[0].bit_count() * out_sets[1].bit_count()
        if not (in_area < area and out_area < area):
            raise _audit_violation(path, "child area failed to decrease strictly")
        if out_area > area - s.mono_area:
            raise _audit_violation(
                path, f"out-child area {out_area} exceeds {area} - |Q|={s.mono_area}"
            )
        in_rank = tree.matrix.block_rank(*in_sets)
        adjacent = s.rank_r if node.speaker == "row" else s.rank_s
        if in_rank > adjacent + 1:
            raise _audit_violation(
                path, f"in-child rank {in_rank} exceeds block rank {adjacent}+1"
            )
        audited += 1
    return audited


# -- serialization ------------------------------------------------------------------
# JSON with stable field order so identical trees serialize byte-identically.


# The JSON type of each field the loader reads from each kind of object,
# a node's stats in NodeStats's field order.  The loader reads the
# document's format, version and root and a node's type before these.
_DOCUMENT = {"source_rows": int, "source_cols": int, "rows": int, "cols": int, "matrix": list,
             "row_map": list, "col_map": list, "stats": dict}
_TREE_STATS = {"leaves": int, "depth": int, "internal_nodes": int}
_INTERNAL = {"speaker": str, "split": list, "stats": dict, "children": list}
_NODE_STATS = {"area": int, "rank": int, "rank_r": int, "rank_s": int, "mono_area": int,
               "mono_value": int, "mono_fraction": str}
_LEAF = {"output": int}


def _fields(data, table: dict) -> list:
    """The values of table's keys in data, in table order; each must be
    present and of the JSON type the table gives it."""
    values = list(map(data.get, table)) if isinstance(data, dict) else [None] * len(table)
    for key, kind, value in zip(table, table.values(), values):
        if type(value) is not kind:
            raise FormatError(f"tree field {key!r} is missing or not of type {kind.__name__}")
    return values


def _node_from_dict(data, rows: int, cols: int, path: str) -> ProtocolNode:
    """Load the node at path, whose block is the masks rows x cols of the
    stored matrix.

    The split must be a proper nonempty subset of the speaker's side of the
    block, the stored stats must pass NodeStats's own checks and fit the
    block (area, rank at most min(|rows|, |cols|), and a mono_area that is a
    multiple of the split size), the stored mono_fraction must be the text
    the writer gives, mono_area / area in lowest terms, and the speaker must
    be the one the ranks name (Internal's check).  verify re-derives each
    node's rank from its block.  rank_r and rank_s cannot be re-derived:
    their blocks lie beside Q, and a tree stores only the speaker's side of
    Q, so they are taken as stored once they pass these checks.
    """
    (kind,) = _fields(data, {"type": str})  # the type names the node's table
    if kind == "leaf":
        (output,) = _fields(data, _LEAF)
        if output not in (0, 1):
            raise FormatError("leaf output must be 0 or 1")
        return Leaf(output)
    if kind != "internal":
        raise FormatError(f"unknown node type {kind!r}")
    speaker, split, s, children = _fields(data, _INTERNAL)
    if speaker not in ("row", "col"):
        raise FormatError(f"unknown speaker {speaker!r}")
    if len(children) != 2:
        raise FormatError("an internal node needs exactly two children")
    area, rank, rank_r, rank_s, mono_area, mono_value, fraction = _fields(s, _NODE_STATS)

    def bad(message: str) -> FormatError:
        return FormatError(f"node {path or 'root'}: {message}")

    side = rows if speaker == "row" else cols
    if not all(type(v) is int for v in split):
        raise bad("split entries must be integers")
    # only indices on the side become bits; one outside it, or a duplicate,
    # leaves fewer bits than entries
    chosen = mask_of(v for v in split if v >= 0 and side >> v & 1)
    if not split or chosen.bit_count() != len(split) or chosen == side:
        raise bad(f"split is not a proper nonempty subset of the block's {speaker}s")
    n_rows, n_cols = rows.bit_count(), cols.bit_count()
    if area != n_rows * n_cols:
        raise bad(f"area {area} != {n_rows} x {n_cols}")
    try:
        stats = NodeStats(area, rank, rank_r, rank_s, mono_area, mono_value)
    except InvariantViolation as exc:
        raise bad(str(exc)) from None
    if fraction != str(stats.mono_fraction):
        raise bad(f"mono_fraction {fraction!r} is not {stats.mono_fraction}, mono_area / area")
    if rank > min(n_rows, n_cols):
        raise bad(f"rank {rank} exceeds min(rows, cols)")
    if mono_area % len(split):
        raise bad(f"mono_area {mono_area} is not a multiple of the split size {len(split)}")
    blocks = _child_blocks(speaker, chosen, rows, cols)
    child0 = _node_from_dict(children[0], *blocks[0], path + "0")
    child1 = _node_from_dict(children[1], *blocks[1], path + "1")
    try:
        return Internal(speaker, chosen, child0, child1, stats)
    except InvariantViolation as exc:
        raise bad(str(exc)) from None


def tree_from_dict(data: dict) -> ProtocolTree:
    """Load a tree document; a missing, mistyped or out-of-range field is a
    FormatError, and so is a matrix that is not exactly rows strings of cols
    bits.  Tree-level counts are re-derived; node stats are checked by
    NodeStats and against each node's block (see _node_from_dict)."""
    if not isinstance(data, dict) or data.get("format") != "protocol-tree":
        raise FormatError("not a protocol-tree document")
    (version,) = _fields(data, {"version": int})  # the version names the table
    if version != TREE_FORMAT_VERSION:
        raise FormatError(f"unsupported protocol-tree version {version}")
    source_rows, source_cols, n_rows, n_cols, lines, row_map, col_map, stored = _fields(
        data, _DOCUMENT
    )
    if len(lines) != n_rows or not all(
        type(line) is str and len(line) == n_cols and not line.translate(NOT_BITS)
        for line in lines
    ):
        raise FormatError(f"tree field 'matrix' must hold {n_rows} row strings of {n_cols} bits")
    matrix = BoolMatrix.from_strings(lines)
    for key, values, bound in (("row_map", row_map, matrix.n_rows),
                               ("col_map", col_map, matrix.n_cols)):
        if not all(type(v) is int and 0 <= v < bound for v in values):
            raise FormatError(f"tree field {key!r} has an entry outside 0..{bound - 1}")
    if (len(row_map), len(col_map)) != (source_rows, source_cols):
        raise FormatError("index maps disagree with the source shape")
    root = _node_from_dict(data.get("root"), *matrix.whole(), "")
    leaves, depth, internal = _tree_shape(root)
    if _fields(stored, _TREE_STATS) != [leaves, depth, internal]:
        raise FormatError("stored stats disagree with the stored tree")
    return ProtocolTree(
        root=root,
        matrix=matrix,
        row_map=tuple(row_map),
        col_map=tuple(col_map),
        source_rows=source_rows,
        source_cols=source_cols,
        leaves=leaves,
        depth=depth,
        internal_nodes=internal,
    )


def format_tree(tree: ProtocolTree) -> str:
    """The tree document as JSON text: the bytes json.dumps(document,
    indent=2) gives, plus a newline, written straight from the nodes."""
    core = tree.matrix
    lines = '",\n    "'.join(core.to_lines())
    row_map = ",\n    ".join(map(str, tree.row_map))
    col_map = ",\n    ".join(map(str, tree.col_map))
    out = [
        f'{{\n  "format": "protocol-tree",\n  "version": {TREE_FORMAT_VERSION},\n'
        f'  "source_rows": {tree.source_rows},\n  "source_cols": {tree.source_cols},\n'
        f'  "rows": {core.n_rows},\n  "cols": {core.n_cols},\n  "matrix": [\n    "{lines}"\n  ],\n'
        f'  "row_map": [\n    {row_map}\n  ],\n  "col_map": [\n    {col_map}\n  ],\n'
        f'  "stats": {{\n    "leaves": {tree.leaves},\n    "depth": {tree.depth},\n'
        f'    "internal_nodes": {tree.internal_nodes}\n  }},\n  "root": '
    ]
    _write_node(tree.root, "\n  ", out)
    out.append("\n}\n")
    return "".join(out)


def _write_node(node: ProtocolNode, newline: str, out: list[str]) -> None:
    """Append the JSON text of node to out; newline is the line break plus
    the indent of the node's own line."""
    i1 = newline + "  "
    if isinstance(node, Leaf):
        out.append(f'{{{i1}"type": "leaf",{i1}"output": {node.output}{newline}}}')
        return
    i2 = i1 + "  "
    s = node.stats
    split = f",{i2}".join(map(str, members(node.split)))
    out.append(
        f'{{{i1}"type": "internal",{i1}"speaker": "{node.speaker}",{i1}"split": [{i2}{split}{i1}],'
        f'{i1}"stats": {{{i2}"area": {s.area},{i2}"rank": {s.rank},{i2}"rank_r": {s.rank_r},'
        f'{i2}"rank_s": {s.rank_s},{i2}"mono_area": {s.mono_area},'
        f'{i2}"mono_fraction": "{s.mono_fraction!s}",{i2}"mono_value": {s.mono_value}{i1}}},'
        f'{i1}"children": [{i2}'
    )
    _write_node(node.child0, i2, out)
    out.append("," + i2)
    _write_node(node.child1, i2, out)
    out.append(f"{i1}]{newline}}}")


def parse_tree_text(text: str) -> ProtocolTree:
    """Load a tree from its JSON text.  The decoder and the loader recurse
    once per nesting level, so a document nested past the recursion limit
    is a FormatError too."""
    try:
        return tree_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad tree JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("tree JSON is nested too deeply to load") from None


def read_tree_file(path) -> ProtocolTree:
    return parse_tree_text(read_text(path))


def write_tree_file(path, tree: ProtocolTree) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_tree(tree))
