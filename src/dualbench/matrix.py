"""Exact boolean-matrix analytics.

Matrices are stored row-major as bit words (bit j of a row word is column j).
Ranks are exact: over F2 by word-level elimination, over the rationals by
fraction-free integer elimination.  Submatrix search routines return views
whose claimed properties are always re-verified before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (
    CapExceeded,
    FormatError,
    InvariantViolation,
    MonochromaticityViolation,
    NotFound,
    PreconditionViolation,
    read_text,
)
from .f2 import F2Set, echelon_basis, ip_rows

EXACT_CAP = 20  # size cap on the enumerated side of the exact searches


class BoolMatrix:
    """A k x l {0,1} matrix with rows packed into ints."""

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows: int, n_cols: int, rows: Iterable[int]):
        rows = tuple(rows)
        if n_rows < 1 or n_cols < 1:
            raise FormatError("matrix must have at least one row and column")
        if len(rows) != n_rows:
            raise FormatError(f"expected {n_rows} rows, got {len(rows)}")
        full = (1 << n_cols) - 1
        for r in rows:
            if not 0 <= r <= full:
                raise FormatError("row word wider than the declared column count")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows = rows

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BoolMatrix":
        k = len(entries)
        l = len(entries[0]) if k else 0
        words = []
        for row in entries:
            if len(row) != l:
                raise FormatError("ragged rows")
            word = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise FormatError(f"entry {v!r} is not a bit")
                word |= v << j
            words.append(word)
        return cls(k, l, words)

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BoolMatrix":
        return cls.from_lists([[int(c) for c in line] for line in lines])

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_list(self, i: int) -> list[int]:
        return [(self.rows[i] >> j) & 1 for j in range(self.n_cols)]

    def to_lines(self) -> list[str]:
        return ["".join(str((r >> j) & 1) for j in range(self.n_cols)) for r in self.rows]

    def column_word(self, j: int) -> int:
        """Column j packed over row indices (bit i = entry (i, j))."""
        word = 0
        for i, r in enumerate(self.rows):
            word |= ((r >> j) & 1) << i
        return word

    def transpose(self) -> "BoolMatrix":
        return BoolMatrix(
            self.n_cols, self.n_rows, [self.column_word(j) for j in range(self.n_cols)]
        )

    def take(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "BoolMatrix":
        rows = []
        for i in row_idx:
            word = 0
            for new_j, j in enumerate(col_idx):
                word |= ((self.rows[i] >> j) & 1) << new_j
            rows.append(word)
        return BoolMatrix(len(row_idx), len(col_idx), rows)

    def counts(self) -> tuple[int, int]:
        ones = sum(r.bit_count() for r in self.rows)
        return self.n_rows * self.n_cols - ones, ones

    def size(self) -> int:
        return self.n_rows * self.n_cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoolMatrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n_rows, self.n_cols, self.rows))

    def __repr__(self) -> str:
        return f"BoolMatrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True)
class SubmatrixView:
    """A rectangle of a parent matrix given by row and column index sets."""

    parent: BoolMatrix
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if not self.rows or not self.cols:
            raise FormatError("view must keep at least one row and one column")
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise FormatError("duplicate indices in view")
        if max(self.rows) >= self.parent.n_rows or max(self.cols) >= self.parent.n_cols:
            raise FormatError("view index out of bounds")
        if min(self.rows) < 0 or min(self.cols) < 0:
            raise FormatError("negative view index")

    def area(self) -> int:
        return len(self.rows) * len(self.cols)

    def counts(self) -> tuple[int, int]:
        mask = 0
        for j in self.cols:
            mask |= 1 << j
        ones = sum((self.parent.rows[i] & mask).bit_count() for i in self.rows)
        return self.area() - ones, ones

    def discrepancy(self) -> Fraction:
        zeros, ones = self.counts()
        return Fraction(abs(zeros - ones), self.area())

    def is_monochromatic(self) -> bool:
        zeros, ones = self.counts()
        return zeros == 0 or ones == 0

    def value(self) -> int:
        return self.parent.entry(self.rows[0], self.cols[0])

    def materialize(self) -> BoolMatrix:
        return self.parent.take(self.rows, self.cols)


def discrepancy(m: BoolMatrix | SubmatrixView) -> Fraction:
    """Exact |#zeros - #ones| / size for a matrix or a view."""
    if isinstance(m, SubmatrixView):
        return m.discrepancy()
    zeros, ones = m.counts()
    return Fraction(abs(zeros - ones), m.size())


# -- dedup ---------------------------------------------------------------------


def dedup(m: BoolMatrix) -> tuple[BoolMatrix, tuple[int, ...], tuple[int, ...]]:
    """Drop duplicate rows, then duplicate columns, keeping first occurrences.

    Returns the compressed matrix plus maps sending each original row/column
    index to its surviving representative's index.
    """
    seen: dict[int, int] = {}
    keep_rows: list[int] = []
    row_map = []
    for i, word in enumerate(m.rows):
        if word not in seen:
            seen[word] = len(keep_rows)
            keep_rows.append(i)
        row_map.append(seen[word])
    stage = m.take(keep_rows, range(m.n_cols))

    seen_cols: dict[int, int] = {}
    keep_cols: list[int] = []
    col_map = []
    for j in range(stage.n_cols):
        word = stage.column_word(j)
        if word not in seen_cols:
            seen_cols[word] = len(keep_cols)
            keep_cols.append(j)
        col_map.append(seen_cols[word])
    out = stage.take(range(stage.n_rows), keep_cols)
    return out, tuple(row_map), tuple(col_map)


def has_duplicates(m: BoolMatrix) -> bool:
    if len(set(m.rows)) != m.n_rows:
        return True
    cols = [m.column_word(j) for j in range(m.n_cols)]
    return len(set(cols)) != m.n_cols


# -- ranks ---------------------------------------------------------------------


def rank_f2(m: BoolMatrix) -> int:
    """Rank over F2 via bit-parallel elimination on row words."""
    return len(echelon_basis(m.rows))


def rank_real(m: BoolMatrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination.

    All intermediate entries are integers (minors of the original matrix),
    so the result is exact with no tolerance parameter.
    """
    a = [m.row_list(i) for i in range(m.n_rows)]
    k, l = m.n_rows, m.n_cols
    rank = 0
    piv_row = 0
    prev = 1
    for col in range(l):
        pivot = None
        for r in range(piv_row, k):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != piv_row:
            a[piv_row], a[pivot] = a[pivot], a[piv_row]
        p = a[piv_row][col]
        for r in range(piv_row + 1, k):
            factor = a[r][col]
            row_r = a[r]
            row_p = a[piv_row]
            for c in range(col + 1, l):
                row_r[c] = (row_r[c] * p - factor * row_p[c]) // prev
            row_r[col] = 0
        prev = p
        rank += 1
        piv_row += 1
        if piv_row == k:
            break
    return rank


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


@dataclass(frozen=True)
class Factorization:
    """Inner-product factorization M[i][j] = <row_words[i], col_words[j]>.

    The words live in F2^r for r the F2-rank; a_set/b_set hold them as sets
    (all distinct when the source matrix was deduplicated first).
    """

    r: int
    a_set: F2Set
    b_set: F2Set
    row_words: tuple[int, ...]
    col_words: tuple[int, ...]


def factorize_f2(m: BoolMatrix) -> Factorization:
    """Express a deduplicated matrix as inner products of F2^r vectors.

    Row i's vector is the row expressed in coordinates of a row-space basis;
    column j's vector is that basis restricted to column j.
    """
    if has_duplicates(m):
        raise PreconditionViolation("factorize_f2 needs a deduplicated matrix")
    basis, pivots = _rref_f2(m.rows)
    r = len(basis)
    dim = max(r, 1)  # all-zero matrix factors through F2^1 with zero vectors
    row_words = []
    for word in m.rows:
        a = 0
        for s, p in enumerate(pivots):
            a |= ((word >> p) & 1) << s
        row_words.append(a)
    col_words = []
    for j in range(m.n_cols):
        b = 0
        for s, brow in enumerate(basis):
            b |= ((brow >> j) & 1) << s
        col_words.append(b)
    if tuple(ip_rows(row_words, col_words)) != m.rows:
        raise InvariantViolation("factorization failed to reproduce the matrix")
    return Factorization(
        r,
        F2Set(dim, row_words),
        F2Set(dim, col_words),
        tuple(row_words),
        tuple(col_words),
    )


@dataclass(frozen=True)
class MatrixStats:
    rank_real: int
    rank_f2: int
    size: int
    zeros: int
    ones: int
    discrepancy: Fraction


def stats(m: BoolMatrix) -> MatrixStats:
    zeros, ones = m.counts()
    return MatrixStats(
        rank_real=rank_real(m),
        rank_f2=rank_f2(m),
        size=m.size(),
        zeros=zeros,
        ones=ones,
        discrepancy=Fraction(abs(zeros - ones), m.size()),
    )


# -- monochromatic rectangle search ---------------------------------------------


def _bits_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def max_closed_rectangle(masks, n_y: int, key, floor: int = 0):
    """Maximum-area rectangle of a two-colour relation, by Close-by-One.

    masks[x] = (ymask of the y related to x under bit 0, ymask under bit 1).
    A maximum-area rectangle (xmask, ymask, bit) is closed: each side is all
    that the other side allows.  Per bit, this visits each closed pair once
    (Kuznetsov's Close-by-One), cutting a branch only when its best possible
    area is strictly below the incumbent, which starts at floor.  Returns
    the maximum rectangle of area >= floor with the smallest
    key(xmask, ymask, bit), or None when no rectangle reaches floor.
    """
    n_x = len(masks)
    best_area = floor
    best = None  # (key, xmask, ymask, bit)
    for bit in (0, 1):
        rows = [m[bit] for m in masks]
        cols = [
            sum(((row >> y) & 1) << x for x, row in enumerate(rows)) for y in range(n_y)
        ]

        def closure(ymask: int) -> int:
            xmask = (1 << n_x) - 1
            while ymask:
                low = ymask & -ymask
                xmask &= cols[low.bit_length() - 1]
                ymask ^= low
            return xmask

        def visit(xmask: int, ymask: int, start: int) -> None:
            nonlocal best_area, best
            size = xmask.bit_count()
            ycount = ymask.bit_count()
            if size and size * ycount >= best_area:
                cand = key(xmask, ymask, bit)
                if best is None or size * ycount > best_area or cand < best[0]:
                    best_area = size * ycount
                    best = (cand, xmask, ymask, bit)
            for j in range(start, n_x):
                if (size + n_x - j) * ycount < best_area:
                    break
                if (xmask >> j) & 1:
                    continue
                child_y = ymask & rows[j]
                if not child_y or (size + n_x - j) * child_y.bit_count() < best_area:
                    continue
                child_x = closure(child_y)
                if not (child_x ^ xmask) & ((1 << j) - 1):  # else not canonical
                    visit(child_x, child_y, j + 1)

        full_y = (1 << n_y) - 1
        visit(closure(full_y), full_y, 0)
    return None if best is None else best[1:]


def _mono_scan(m: BoolMatrix, transposed: bool, exact_cap: int) -> SubmatrixView:
    """Maximum-area monochromatic rectangle, enumerating closed row sets of
    one orientation.

    Best candidate under (larger area, then lexicographically smallest row
    set, then column set, then color 0 before 1), stated on the original
    orientation.  The search visits every maximum-area rectangle whichever
    dimension it enumerates, so the winner does not depend on it.
    """
    work = m.transpose() if transposed else m
    if work.n_rows > exact_cap:
        raise CapExceeded(
            f"enumerated dimension {work.n_rows} exceeds exact cap {exact_cap}"
        )
    full_cols = (1 << work.n_cols) - 1
    masks = [(full_cols ^ r, r) for r in work.rows]

    def key(xmask: int, ymask: int, color: int):
        enum_side = _bits_to_tuple(xmask)
        other_side = _bits_to_tuple(ymask)
        if transposed:
            return other_side, enum_side, color
        return enum_side, other_side, color

    xmask, ymask, color = max_closed_rectangle(masks, work.n_cols, key)
    rows, cols, _color = key(xmask, ymask, color)
    return SubmatrixView(m, rows, cols)


def max_mono_exact(m: BoolMatrix, exact_cap: int = EXACT_CAP) -> SubmatrixView:
    """Largest monochromatic rectangle, enumerating the smaller dimension."""
    return _mono_scan(m, transposed=m.n_cols < m.n_rows, exact_cap=exact_cap)


def max_mono_exact_other_dimension(
    m: BoolMatrix, exact_cap: int = EXACT_CAP
) -> SubmatrixView:
    """max_mono_exact's search, enumerating the dimension it skips."""
    return _mono_scan(m, transposed=not (m.n_cols < m.n_rows), exact_cap=exact_cap)


# -- biased submatrix search -----------------------------------------------------


def _meets_area(area: int, r: int, total: int) -> bool:
    # area >= r^(-3/2) * total  <=>  area^2 * r^3 >= total^2
    return area * area * r**3 >= total * total


def _meets_delta(imbalance: int, area: int, r: int) -> bool:
    # |zeros - ones| / area >= r^(-3/2)  <=>  imbalance^2 * r^3 >= area^2
    return imbalance * imbalance * r**3 >= area * area


def _column_scan(col_words, n_cols: int, row_mask: int, n_rows: int, r: int, total: int):
    """Best-effort column choice for a fixed row set (given as a bit mask).

    Column j contributes zeros-minus-ones over the chosen rows; scanning
    sorted prefixes on both signs finds a qualifying column set whenever one
    exists for this row set.
    """
    contrib = [n_rows - 2 * (col_words[j] & row_mask).bit_count() for j in range(n_cols)]
    pos_order = sorted(range(n_cols), key=lambda j: (-contrib[j], j))
    neg_order = sorted(range(n_cols), key=lambda j: (contrib[j], j))
    for order in (pos_order, neg_order):
        running = 0
        for c in range(1, n_cols + 1):
            running += contrib[order[c - 1]]
            area = n_rows * c
            if not _meets_area(area, r, total):
                continue
            if _meets_delta(abs(running), area, r):
                return tuple(sorted(order[:c]))
    return None


def _similarity_clusters(m: BoolMatrix) -> list[tuple[int, ...]]:
    out = []
    limit = m.n_cols / 4
    for pivot in range(m.n_rows):
        cluster = tuple(
            i
            for i in range(m.n_rows)
            if (m.rows[i] ^ m.rows[pivot]).bit_count() <= limit
        )
        if cluster:
            out.append(cluster)
    return out


def _eigen_sign_split(m: BoolMatrix) -> list[tuple[int, ...]]:
    """Row split by the sign pattern of a dominant singular vector estimate.

    Power iteration on the +/-1 sign matrix; float precision is fine because
    the output only proposes candidate row sets, never certifies them.
    """
    k, l = m.n_rows, m.n_cols
    sign = [[1 - 2 * m.entry(i, j) for j in range(l)] for i in range(k)]
    u = [1.0] * k
    for _ in range(25):
        v = [sum(sign[i][j] * u[i] for i in range(k)) for j in range(l)]
        w = [sum(sign[i][j] * v[j] for j in range(l)) for i in range(k)]
        norm = max(abs(x) for x in w)
        if norm == 0:
            return []
        u = [x / norm for x in w]
    plus = tuple(i for i in range(k) if u[i] >= 0)
    minus = tuple(i for i in range(k) if u[i] < 0)
    return [s for s in (plus, minus) if s]


def find_biased_submatrix(m: BoolMatrix, exact_cap: int = EXACT_CAP) -> SubmatrixView:
    """Find a view with area >= r^(-3/2)|M| and discrepancy >= r^(-3/2).

    r is the rank of M over the rationals.  Strategy cascade: the whole
    matrix, then heuristic row pools (single rows, similarity clusters,
    eigenvector sign splits) with a sort-and-scan column choice, then exact
    search over all subsets of the smaller dimension.  Both inequalities are
    re-verified on the returned view with exact integer arithmetic.
    """
    r = max(rank_real(m), 1)
    total = m.size()

    def verified(rows, cols):
        view = SubmatrixView(m, tuple(sorted(rows)), tuple(sorted(cols)))
        zeros, ones = view.counts()
        if not _meets_area(view.area(), r, total):
            raise InvariantViolation("biased view fails the area bound")
        if not _meets_delta(abs(zeros - ones), view.area(), r):
            raise InvariantViolation("biased view fails the discrepancy bound")
        return view

    zeros, ones = m.counts()
    if _meets_delta(abs(zeros - ones), total, r):
        return verified(range(m.n_rows), range(m.n_cols))

    col_words = [m.column_word(j) for j in range(m.n_cols)]
    pool: list[tuple[int, ...]] = [(i,) for i in range(m.n_rows)]
    pool += _similarity_clusters(m)
    pool += _eigen_sign_split(m)
    seen = set()
    for row_set in pool:
        if row_set in seen:
            continue
        seen.add(row_set)
        mask = 0
        for i in row_set:
            mask |= 1 << i
        cols = _column_scan(col_words, m.n_cols, mask, len(row_set), r, total)
        if cols is not None:
            return verified(row_set, cols)

    transposed = m.n_cols < m.n_rows
    work = m.transpose() if transposed else m
    if work.n_rows <= exact_cap:
        work_cols = [work.column_word(j) for j in range(work.n_cols)]
        for s in range(1, 1 << work.n_rows):
            cols = _column_scan(work_cols, work.n_cols, s, s.bit_count(), r, total)
            if cols is not None:
                row_set = _bits_to_tuple(s)
                if transposed:
                    return verified(cols, row_set)
                return verified(row_set, cols)
        raise NotFound(
            "exhaustive search: no submatrix meets the literal rank^(-3/2) "
            "bounds on this matrix",
            exhaustive=True,
        )
    raise NotFound("heuristics exhausted below exact scale", exhaustive=False)


def find_mono_via_dual(
    m: BoolMatrix,
    dual_finder: Callable[[F2Set, F2Set], "object"],
    exact_cap: int = EXACT_CAP,
) -> SubmatrixView:
    """Monochromatic rectangle through the duality bridge.

    Pipeline: biased submatrix -> inner-product factorization -> dual pair of
    the factor sets -> the corresponding rectangle, which must come back
    monochromatic (verified, with duplicates re-expanded into the view).
    """
    if has_duplicates(m):
        raise PreconditionViolation("find_mono_via_dual needs a deduplicated matrix")
    biased = find_biased_submatrix(m, exact_cap=exact_cap)
    sub = biased.materialize()
    core, row_map, col_map = dedup(sub)
    fact = factorize_f2(core)
    pair = dual_finder(fact.a_set, fact.b_set)
    picked_rows = {
        i for i, w in enumerate(fact.row_words) if w in pair.a_side
    }
    picked_cols = {
        j for j, w in enumerate(fact.col_words) if w in pair.b_side
    }
    rows = tuple(
        sorted(
            biased.rows[i_sub]
            for i_sub in range(sub.n_rows)
            if row_map[i_sub] in picked_rows
        )
    )
    cols = tuple(
        sorted(
            biased.cols[j_sub]
            for j_sub in range(sub.n_cols)
            if col_map[j_sub] in picked_cols
        )
    )
    view = SubmatrixView(m, rows, cols)
    if not view.is_monochromatic():
        raise MonochromaticityViolation(
            "dual-pair rectangle is not monochromatic"
        )
    return view


# -- matrix file format -----------------------------------------------------------
# First non-comment line: "k l"; then k lines of l characters from {0,1}.


def parse_matrix_text(text: str) -> BoolMatrix:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise FormatError("matrix file has no content")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected 'k l' header, got {lines[0]!r}")
    try:
        k, l = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != k:
        raise FormatError(f"expected {k} rows, got {len(body)}")
    for line in body:
        if len(line) != l or any(c not in "01" for c in line):
            raise FormatError(f"bad matrix row {line!r}")
    return BoolMatrix.from_strings(body)


def format_matrix(m: BoolMatrix) -> str:
    return "\n".join([f"{m.n_rows} {m.n_cols}"] + m.to_lines()) + "\n"


def read_matrix_file(path) -> BoolMatrix:
    return parse_matrix_text(read_text(path))


def write_matrix_file(path, m: BoolMatrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(m))
