"""Reference implementations of the two exact rectangle oracles and of
reduced row echelon form over F2.

The oracles are the searches the library used before both moved onto the
Close-by-One loop of `dualbench.matrix.max_mono_exact`: a branch-and-bound
over subsets of one side for maximum-area dual pairs, and a subset DP over
all 2^k row subsets for maximum monochromatic rectangles.
The library's dual-pair searches are now its rectangle finders on the
inner-product matrix of A x B; `ip_matrix` builds that matrix pair by pair
with `parity_dot`, the inner product of two words, and `pair_of_view` reads a rectangle of it back as a
dual pair, so the tests can hold `exact_dual_oracle` to `max_mono_exact`
here (tie-breaks included) and to the old branch-and-bound (area).
`_rref_f2` is the eliminator `dualbench.matrix` kept before
`dualbench.f2.echelon_basis` became the one reduced echelon kernel.
`greedy_dual_pair` is the one-pass greedy the library used before its
greedy pair became `greedy_rectangle` on the inner-product matrix; it
computes each inner product pair by pair and seeds the old oracle.
`pfr_exact_subset` is the include-first branch-and-bound that
`dualbench.adcomb.pfr_extract` ran as its exact strategy before it became a
scan over the closed sets A & span(X); it ranks spans with `_rref_f2`.
`bsg_extract_s_side` is `dualbench.adcomb.bsg_extract` as it was before its
neighbourhoods A & (x + S) walked the smaller of A and S: it always walks S,
and counts pair sums directly instead of by transform.  `rank_fraction` is
the rank over the rationals by Gauss-Jordan elimination on Fractions, for
`dualbench.matrix.rank_real`.  `parity_dot` and `rep_count` (the ordered
pairs of s x s summing to one word) are per-word references for the
library's batch kernels, `dualbench.f2.ip_rows` and `rep_counts`.
`take_indices` is `BoolMatrix.take` as it was before views held masks:
rows and columns by index list, read entry by entry, repeats allowed.
`pull_back` is `dualbench.approxdual.pull_back` as it was before its sum
graph came from `dualbench.f2.neighbourhoods`: `sum_components` builds a
neighbour dict and finds sorted component lists by depth-first search,
and each inner product is taken pair by pair.
`greedy_rectangle` is `dualbench.matrix.greedy_rectangle` as it was before
finders searched a block in place: it searches a whole matrix, and
`found_on_copy` runs such a finder the way `build_protocol` did, on the
block copied out by `take`, spreading the answer back onto the matrix's
indices.  `tree_to_dict` is the protocol-tree document as nested dicts,
which `json.dumps(..., indent=2)` turns into the bytes
`dualbench.protocol.format_tree` writes straight from the nodes.
They share no code with the library, so tests compare the library's
answers, tie-breaks included, against them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from dualbench.adcomb import BSG_PIVOTS, BsgResult
from dualbench.approxdual import DualPair
from dualbench.errors import FormatError, InvariantViolation, SearchFailure
from dualbench.f2 import F2Set
from dualbench.matrix import BoolMatrix, SubmatrixView
from dualbench.protocol import TREE_FORMAT_VERSION, Leaf, ProtocolTree

EXACT_CAP = 20


def parity_dot(x: int, y: int) -> int:
    """Inner product of two bit words over F2."""
    return (x & y).bit_count() & 1


def rep_count(s: F2Set, word: int) -> int:
    """Number of ordered pairs (u, v) in s x s with u + v = word."""
    if not 0 <= word < (1 << s.n):
        raise FormatError(f"word {word:#x} not in F2^{s.n}")
    return sum(1 for u in s.members if u ^ word in s)


def exact_dual_oracle(
    a: F2Set, b: F2Set, exact_cap: int = 20, enumerate_side: str = "auto"
) -> DualPair:
    """Maximum-area dual pair by branch and bound over the smaller side.

    Any dual pair extends to one whose B side is forced (all elements
    compatible with the chosen A side), so enumerating subsets of one side
    with forced complements is exhaustive.  Branches are cut only when their
    best possible area is strictly below the incumbent, and a greedy seed
    primes the incumbent, so the search stays exact: maximum area, ties by
    the enumerated side's canonical member order, then constant bit 0.
    """
    if a.n != b.n:
        raise FormatError(f"sets live in different spaces, F2^{a.n} and F2^{b.n}")
    if len(a) == 0 or len(b) == 0:
        raise FormatError("exact_dual_oracle needs nonempty sets")
    if enumerate_side == "auto":
        swap = len(b) < len(a)
    elif enumerate_side in ("a", "b"):
        swap = enumerate_side == "b"
    else:
        raise ValueError(f"bad enumerate_side {enumerate_side!r}")
    xs_set, ys_set = (b, a) if swap else (a, b)
    if len(xs_set) > exact_cap:
        raise FormatError(
            f"enumerated side has {len(xs_set)} elements; cap is {exact_cap}"
        )
    xs = xs_set.members
    ys = ys_set.members
    masks = []
    for x in xs:
        m1 = 0
        for yi, y in enumerate(ys):
            m1 |= parity_dot(x, y) << yi
        full = (1 << len(ys)) - 1
        masks.append((full ^ m1, m1))
    full = (1 << len(ys)) - 1

    best = None  # (-area, chosen words tuple, bit, ymask)

    seed = greedy_dual_pair(a, b)
    seed_x = (seed.b_side if swap else seed.a_side).members
    seed_ymask = 0
    seed_y = (seed.a_side if swap else seed.b_side)._lookup
    for yi, y in enumerate(ys):
        if y in seed_y:
            seed_ymask |= 1 << yi
    best = (-seed.area(), tuple(seed_x), seed.constant_bit, seed_ymask)

    n_x = len(xs)
    chosen: list[int] = []

    def extend(start: int, ymask: int, bit: int):
        nonlocal best
        ycount = ymask.bit_count()
        for idx in range(start, n_x):
            if (len(chosen) + n_x - idx) * ycount < -best[0]:
                break
            nm = ymask & masks[idx][bit]
            if not nm:
                continue
            chosen.append(idx)
            nm_count = nm.bit_count()
            area = len(chosen) * nm_count
            if area >= -best[0]:
                # materialize the tie-break key only when it can matter
                cand = (-area, tuple(xs[i] for i in chosen), bit, nm)
                if cand[:3] < best[:3]:
                    best = cand
            if (len(chosen) + n_x - idx - 1) * nm_count >= -best[0]:
                extend(idx + 1, nm, bit)
            chosen.pop()

    for bit in (0, 1):
        extend(0, full, bit)

    _neg_area, x_words, bit, ymask = best
    y_words = [y for yi, y in enumerate(ys) if (ymask >> yi) & 1]
    x_side = F2Set(a.n, x_words)
    y_side = F2Set(a.n, y_words)
    if swap:
        return DualPair(y_side, x_side, bit)
    return DualPair(x_side, y_side, bit)


def greedy_dual_pair(a: F2Set, b: F2Set) -> DualPair:
    """Best single-element seed, then grow the A side whenever the area
    does not drop; every parity taken pair by pair."""
    best_seed = None
    for x in a.members:
        ones = [y for y in b.members if parity_dot(x, y)]
        zeros = [y for y in b.members if not parity_dot(x, y)]
        for bit, side in ((0, zeros), (1, ones)):
            if side and (best_seed is None or len(side) > len(best_seed[2])):
                best_seed = (x, bit, side)
    x0, bit, b_side = best_seed
    chosen = [x0]
    for x in a.members:
        if x == x0:
            continue
        narrowed = [y for y in b_side if parity_dot(x, y) == bit]
        if narrowed and (len(chosen) + 1) * len(narrowed) >= len(chosen) * len(b_side):
            chosen.append(x)
            b_side = narrowed
    return DualPair(F2Set(a.n, chosen), F2Set(b.n, b_side), bit)


def ip_matrix(a: F2Set, b: F2Set) -> BoolMatrix:
    """Entry (i, j) is <a.members[i], b.members[j]>, one pair at a time."""
    rows = [
        sum(parity_dot(x, y) << j for j, y in enumerate(b.members)) for x in a.members
    ]
    return BoolMatrix(len(a), len(b), rows)


def pair_of_view(a: F2Set, b: F2Set, view: SubmatrixView) -> DualPair:
    """The dual pair a rectangle of ip_matrix(a, b) stands for."""
    return DualPair(
        F2Set(a.n, [a.members[i] for i in _bits_to_tuple(view.rows)]),
        F2Set(b.n, [b.members[j] for j in _bits_to_tuple(view.cols)]),
        view.value(),
    )


def take_indices(m: BoolMatrix, rows: Sequence[int], cols: Sequence[int]) -> BoolMatrix:
    """The matrix of entries (rows[a], cols[b]); an index may repeat."""
    words = [sum(m.entry(i, j) << b for b, j in enumerate(cols)) for i in rows]
    return BoolMatrix(len(words), len(cols), words)


def _mono_candidates_by_rows(m: BoolMatrix):
    """Yield (row_subset_mask, forced_cols_0, forced_cols_1) for all masks.

    forced_cols_v[S] is the set of columns that are constant v on the rows
    of S, computed by a subset DP so the whole scan is O(2^k) word ops.
    """
    k = m.n_rows
    full_cols = (1 << m.n_cols) - 1
    zero_masks = [full_cols ^ r for r in m.rows]
    one_masks = list(m.rows)
    size = 1 << k
    forced0 = [full_cols] * size
    forced1 = [full_cols] * size
    for s in range(1, size):
        low = s & -s
        i = low.bit_length() - 1
        rest = s ^ low
        forced0[s] = forced0[rest] & zero_masks[i]
        forced1[s] = forced1[rest] & one_masks[i]
    return forced0, forced1


def _bits_to_tuple(mask: int) -> tuple[int, ...]:
    """The indices in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mono_scan(m: BoolMatrix, transposed: bool, exact_cap: int) -> SubmatrixView:
    """Enumerate one dimension's subsets; the other dimension is forced.

    Best candidate under (larger area, then lexicographically smallest row
    index tuple, then column index tuple, then color 0 before 1), stated on
    the original orientation.  Every maximum-area rectangle is closed on
    both sides, so either dimension's scan sees all of them and the winner
    is the same.
    """
    work = m.transpose() if transposed else m
    if work.n_rows > exact_cap:
        raise FormatError(
            f"enumerated dimension {work.n_rows} exceeds exact cap {exact_cap}"
        )
    forced0, forced1 = _mono_candidates_by_rows(work)
    best_area = -1
    best = None
    for s in range(1, 1 << work.n_rows):
        srows = s.bit_count()
        for color, forced in ((0, forced0[s]), (1, forced1[s])):
            if not forced:
                continue
            area = srows * forced.bit_count()
            if area < best_area:
                continue
            enum_side = _bits_to_tuple(s)
            other_side = _bits_to_tuple(forced)
            rows, cols = (other_side, enum_side) if transposed else (enum_side, other_side)
            cand = (rows, cols, color)
            if area > best_area or cand < best:
                best_area = area
                best = cand
    rows, cols, _color = best
    return SubmatrixView(m, sum(1 << i for i in rows), sum(1 << j for j in cols))


def max_mono_exact(m: BoolMatrix, exact_cap: int = EXACT_CAP) -> SubmatrixView:
    """Largest monochromatic rectangle, enumerating the smaller dimension."""
    return _mono_scan(m, transposed=m.n_cols < m.n_rows, exact_cap=exact_cap)


def max_mono_exact_other_dimension(
    m: BoolMatrix, exact_cap: int = EXACT_CAP
) -> SubmatrixView:
    """Independent second oracle: enumerate the dimension max_mono_exact skips."""
    return _mono_scan(m, transposed=not (m.n_cols < m.n_rows), exact_cap=exact_cap)


def _rref_f2(words: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over F2: (basis rows, pivot columns).

    Pivot columns are the lowest set bit of each basis row; bit j = column j,
    so "leading" means least significant here, scanning columns left to right.
    """
    rows = [w for w in words if w]
    basis: list[int] = []
    pivots: list[int] = []
    for w in rows:
        for p, b in zip(pivots, basis):
            if (w >> p) & 1:
                w ^= b
        if not w:
            continue
        p = (w & -w).bit_length() - 1
        for idx in range(len(basis)):
            if (basis[idx] >> p) & 1:
                basis[idx] ^= w
        basis.append(w)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def pfr_exact_subset(a: F2Set) -> F2Set:
    """Largest subset of ``a`` (|a| >= 2) whose span has at most |a| words.

    `dualbench.adcomb.pfr_extract`'s exact strategy before it scanned the
    closed sets A & span(X): an include-first branch-and-bound over the
    members in canonical order, pruning on remaining size and span growth.
    It keeps the first maximum it meets, the lexicographically smallest.
    """
    members = a.members
    budget = len(members)
    best: list[int] = []

    def explore(idx: int, chosen: list[int], basis: list[int], size: int):
        nonlocal best
        if len(chosen) + (len(members) - idx) <= len(best):
            return
        if idx == len(members):
            return
        word = members[idx]
        new_basis = _rref_f2(basis + [word])[0]
        grown = size << (len(new_basis) - len(basis))
        if grown <= budget:
            chosen.append(word)
            if len(chosen) > len(best):
                best = list(chosen)
            explore(idx + 1, chosen, new_basis, grown)
            chosen.pop()
        explore(idx + 1, chosen, basis, size)

    explore(0, [], [], 1)
    return F2Set(a.n, best)


def bsg_extract_s_side(a: F2Set, s: F2Set, rho, seed: int = 0) -> BsgResult:
    """BSG candidates from pivot neighbourhoods A & (x + S), each found by a
    walk over S, pruned at codegree thresholds 1/4 and 1/2; the candidate of
    least |c + c| / |c| wins (ties: larger, then canonical order)."""
    rho = Fraction(rho)
    if len(a) == 0 or len(s) == 0:
        raise FormatError("bsg_extract needs nonempty sets")
    if rho <= 0:
        raise FormatError("required density must be positive")
    members = a.members
    member_set = set(members)
    hits = sum(1 for x in members for y in members if x ^ y in s)
    density = Fraction(hits, len(a) * len(a))
    if density < rho:
        raise SearchFailure("bsg", f"pair density {density} < required {rho}")

    memo: dict[int, frozenset] = {}

    def neighbors(x: int) -> frozenset:
        if x not in memo:
            memo[x] = frozenset(x ^ w for w in s.members if x ^ w in member_set)
        return memo[x]

    def prune(base: tuple, threshold: Fraction) -> tuple:
        current = set(base)
        codeg = {x: len(neighbors(x) & current) for x in base}
        while current:
            bad = [x for x in current if codeg[x] < threshold * len(current)]
            if not bad:
                break
            for x in bad:
                current.remove(x)
                codeg.pop(x)
            for x in bad:
                for y in neighbors(x):
                    if y in current:
                        codeg[y] -= 1
        return tuple(sorted(current))

    rng = random.Random(seed)
    pool = list(members)
    picked = pool if len(pool) <= BSG_PIVOTS else sorted(rng.sample(pool, BSG_PIVOTS))
    candidates = {members}
    seen = set()
    for pivot in picked:
        base = tuple(sorted(neighbors(pivot)))
        if not base or base in seen:
            continue
        seen.add(base)
        candidates.add(base)
        for threshold in (Fraction(1, 4), Fraction(1, 2)):
            pruned = prune(base, threshold)
            if pruned:
                candidates.add(pruned)

    floor = Fraction(len(a)) * rho * rho / 8
    sized = [c for c in candidates if len(c) >= floor]
    if not sized:
        raise SearchFailure("bsg", "no candidate met the size floor")
    sizes = {c: len({x ^ y for x in c for y in c}) for c in sized}
    best = min(sized, key=lambda c: (Fraction(sizes[c], len(c)), -len(c), c))
    return BsgResult(
        subset=F2Set(a.n, best),
        ratio_in=Fraction(len(best), len(a)),
        doubling_out=Fraction(sizes[best], len(a)),
        sumset_size=sizes[best],
        density_bound=rho,
        size_bound=Fraction(len(s), len(a)),
    )


def sum_components(a_prev: F2Set, a_side: F2Set) -> list[list[int]] | None:
    """The connected components, as sorted member lists in order of their
    first member, of the graph on a_prev joining x and y when x + y is in
    a_side; None when that graph has no edge and 0 is not in a_side."""
    targets = a_side.members
    neighbors = {
        x: [x ^ s for s in targets if s and x ^ s in a_prev] for x in a_prev.members
    }
    # 0 in the A side is always usable: x + x = 0 for any x in the level below
    if not (any(neighbors.values()) or (0 in a_side and a_prev.members)):
        return None
    seen = set()
    components = []
    for start in a_prev.members:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(sorted(comp))
    return components


def pull_back(a_prev: F2Set, pair_i: DualPair, a_i: F2Set) -> DualPair:
    """Join two members of a_prev when their sum lies in the pair's A side;
    keep the largest component (ties: smallest first member), the larger
    half of the B side by its product with that first member (ties: bit
    0), and for constant bit 1 the larger parity class (ties: class 0)."""
    if not pair_i.a_side.issubset(a_i):
        raise FormatError("pair's A side must sit inside the level set")
    components = sum_components(a_prev, pair_i.a_side)
    if components is None:
        raise SearchFailure("pull_back", "pair's A side is disjoint from the previous sumset")
    component = min(components, key=lambda c: (-len(c), c[0]))
    anchor = component[0]

    sides = ([], [])
    for y in pair_i.b_side.members:
        sides[parity_dot(anchor, y)].append(y)
    b_keep, bit = (sides[0], 0) if len(sides[0]) >= len(sides[1]) else (sides[1], 1)

    if pair_i.constant_bit == 0:
        a_keep = component
    else:
        classes = ([], [])
        for x in component:
            bits = {parity_dot(x, y) for y in b_keep}
            if len(bits) > 1:
                raise InvariantViolation(
                    "component element has non-constant product against B'"
                )
            classes[bits.pop()].append(x)
        a_keep, bit = (
            (classes[0], 0) if len(classes[0]) >= len(classes[1]) else (classes[1], 1)
        )
    pair = DualPair(F2Set(a_prev.n, a_keep), F2Set(a_prev.n, b_keep), bit)
    if 2 * len(pair.b_side) < len(pair_i.b_side):
        raise InvariantViolation("pull-back lost more than half of the B side")
    return pair


def rank_fraction(m: BoolMatrix) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    a = [[Fraction(m.entry(i, j)) for j in range(m.n_cols)] for i in range(m.n_rows)]
    rank = 0
    for col in range(m.n_cols):
        piv = next((r for r in range(rank, m.n_rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(m.n_rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def greedy_rectangle(m: BoolMatrix) -> SubmatrixView:
    """Seed with the best single row per color, add rows while the
    forced-column area does not shrink; the whole matrix is the block."""
    full = (1 << m.n_cols) - 1
    best_area = 0
    best = None  # (row mask, column mask, color)
    for color in (0, 1):
        masks = [r if color else full ^ r for r in m.rows]
        seed = max(range(m.n_rows), key=lambda i: (masks[i].bit_count(), -i))
        forced = masks[seed]
        if not forced:
            continue
        rows = 1 << seed
        count = 1
        while True:
            area = count * forced.bit_count()
            pick = None
            pick_area = -1
            pick_mask = 0
            for i, mask in enumerate(masks):
                if rows >> i & 1:
                    continue
                nm = forced & mask
                new_area = (count + 1) * nm.bit_count()
                if nm and new_area > pick_area:
                    pick, pick_area, pick_mask = i, new_area, nm
            if pick is None or pick_area < area:
                break
            rows |= 1 << pick
            count += 1
            forced = pick_mask
        cand = (_bits_to_tuple(rows), _bits_to_tuple(forced), color)
        if best is None or area > best_area or (area == best_area and cand < best):
            best_area, best = area, cand
    rows, cols, _color = best
    return SubmatrixView(m, sum(1 << i for i in rows), sum(1 << j for j in cols))


def found_on_copy(finder, m: BoolMatrix, rows: int, cols: int) -> SubmatrixView:
    """finder's answer on the block rows x cols of m copied out by take,
    as a view of m: the copy's k-th row (column) is the block's k-th."""
    view = finder(m.take(rows, cols))
    row_ids, col_ids = _bits_to_tuple(rows), _bits_to_tuple(cols)
    return SubmatrixView(
        m,
        sum(1 << row_ids[k] for k in _bits_to_tuple(view.rows)),
        sum(1 << col_ids[k] for k in _bits_to_tuple(view.cols)),
    )


def _node_to_dict(node) -> dict:
    if isinstance(node, Leaf):
        return {"type": "leaf", "output": node.output}
    s = node.stats
    return {
        "type": "internal",
        "speaker": node.speaker,
        "split": list(_bits_to_tuple(node.split)),
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


def tree_to_dict(tree: ProtocolTree) -> dict:
    """The protocol-tree document, as dualbench.protocol.tree_from_dict reads it."""
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
