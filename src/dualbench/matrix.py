"""Exact boolean-matrix analytics.

Matrices are stored row-major as bit words (bit j of a row word is column j).
Ranks are exact: over F2 by word-level elimination; over the rationals by a
GF(3) elimination on bit planes, certified by the counts of distinct nonzero
rows and columns, with fraction-free integer elimination when it is not.
A set of row or column indices is a mask (bit i is index i), as in f2.
A block is a matrix with a row and a column mask; the matrix memoises each
block's rank (block_rank) for every holder.  The rectangle finders search a
block in place.  Submatrix search routines return views whose claimed
properties are always re-verified before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

from .errors import FormatError, InvariantViolation, SearchFailure, read_text
from .f2 import NOT_BITS, F2Set, echelon_basis, ip_rows, mask_of, members, picks, transpose

EXACT_CAP = 20  # size cap on the enumerated side of the exact searches


class BoolMatrix:
    """A k x l {0,1} matrix with rows packed into ints and a memo of its block ranks."""

    # the block-rank memo (block_rank) is made by the first block_rank call
    __slots__ = ("n_rows", "n_cols", "rows", "_ranks", "_independent")

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
    def from_strings(cls, lines: Sequence[str]) -> "BoolMatrix":
        """Rows as {0,1} strings, column 0 first."""
        l = len(lines[0]) if lines else 0
        for line in lines:
            if len(line) != l:
                raise FormatError("ragged rows")
            stray = line.translate(NOT_BITS)
            if stray:
                raise FormatError(f"entry {stray[0]} is not a bit")
        return cls(len(lines), l, [int(line[::-1] or "0", 2) for line in lines])

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lines(self) -> list[str]:
        return [format(r, f"0{self.n_cols}b")[::-1] for r in self.rows]

    def columns(self) -> list[int]:
        """The column words: bit i of column j is entry (i, j)."""
        return transpose(self.rows, self.n_cols)

    def transpose(self) -> "BoolMatrix":
        return BoolMatrix(self.n_cols, self.n_rows, self.columns())

    def whole(self) -> tuple[int, int]:
        """The row and column masks of the block of every entry."""
        return (1 << self.n_rows) - 1, (1 << self.n_cols) - 1

    def take(self, rows: int, cols: int) -> "BoolMatrix":
        """The submatrix on the row and column masks, in index order."""
        if rows >> self.n_rows or cols >> self.n_cols:
            raise FormatError("take index out of bounds")
        words = _gather(compress(self.rows, picks(rows)), cols)
        return BoolMatrix(len(words), cols.bit_count(), words)

    def block_rank(self, rows: int, cols: int) -> int:
        """rank_real of the block rows x cols, each block ranked once."""
        try:
            got = self._ranks.get((rows, cols))
        except AttributeError:
            self._ranks, self._independent = {}, {}  # cols -> independent row masks
            got = None
        if got is None:
            # the count of distinct nonzero row words masked to cols is the
            # rank for one or two (0/1 rows are never proportional) and for
            # a row subset of an independent block on the same columns
            words = dict.fromkeys(map(cols.__and__, compress(self.rows, picks(rows))))
            words.pop(0, None)
            got = len(words)
            independent = self._independent.setdefault(cols, [])
            if got > 2 and not any(rows | wider == wider for wider in independent):
                got = rank_real(BoolMatrix(len(words), self.n_cols, words))
                if got == len(words):
                    independent.append(rows)
            self._ranks[rows, cols] = got
        return got

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
    """A rectangle of a parent matrix given by row and column masks."""

    parent: BoolMatrix
    rows: int
    cols: int

    def __post_init__(self):
        if not self.rows or not self.cols:
            raise FormatError("view must keep at least one row and one column")
        # a negative mask shifts down to -1, never to 0
        if self.rows >> self.parent.n_rows or self.cols >> self.parent.n_cols:
            raise FormatError("view index out of bounds")

    def area(self) -> int:
        return self.rows.bit_count() * self.cols.bit_count()

    def counts(self) -> tuple[int, int]:
        words = compress(self.parent.rows, picks(self.rows))
        ones = sum(map(int.bit_count, map(self.cols.__and__, words)))
        return self.area() - ones, ones

    def discrepancy(self) -> Fraction:
        zeros, ones = self.counts()
        return Fraction(abs(zeros - ones), self.area())

    def is_monochromatic(self) -> bool:
        zeros, ones = self.counts()
        return zeros == 0 or ones == 0

    def value(self) -> int:
        """The entry at the view's first row and first column."""
        return self.parent.entry(*((x & -x).bit_length() - 1 for x in (self.rows, self.cols)))

    def materialize(self) -> BoolMatrix:
        return self.parent.take(self.rows, self.cols)


def discrepancy(m: BoolMatrix) -> Fraction:
    """Exact |#zeros - #ones| / size; a view has its own discrepancy()."""
    zeros, ones = m.counts()
    return Fraction(abs(zeros - ones), m.size())


# -- dedup ---------------------------------------------------------------------


def dedup(m: BoolMatrix) -> tuple[BoolMatrix, tuple[int, ...], tuple[int, ...]]:
    """Drop duplicate rows, then duplicate columns, keeping first occurrences.

    Returns the compressed matrix plus maps sending each original row/column
    index to its surviving representative's index.
    """
    keep_rows, row_map = _first_occurrences(m.rows)
    keep_cols, col_map = _first_occurrences(m.columns())
    return m.take(keep_rows, keep_cols), row_map, col_map


def _first_occurrences(words: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The mask of each word's first occurrence, and for every index the
    position of its word's first occurrence among them."""
    first: dict[int, int] = {}
    for i, word in enumerate(words):
        first.setdefault(word, i)
    position = {word: k for k, word in enumerate(first)}
    return mask_of(first.values()), tuple(position[word] for word in words)


# -- ranks ---------------------------------------------------------------------


def rank_f2(m: BoolMatrix) -> int:
    """Rank over F2 via bit-parallel elimination on row words."""
    return len(echelon_basis(m.rows))


def rank_real(m: BoolMatrix) -> int:
    """Rank over the rationals, exact with no tolerance parameter.

    The rank mod 3 is a lower bound (a minor that is nonzero mod 3 is
    nonzero), and the numbers of distinct nonzero rows and of distinct
    nonzero columns are upper bounds.  When the GF(3) rank meets either
    bound it is the rank; otherwise fraction-free (Bareiss) elimination on
    the distinct nonzero rows decides.  The GF(3) pass stops early once its
    rank reaches the count of distinct nonzero rows or of nonzero columns,
    whichever is less; the Bareiss pass stops only at the count of rows.
    """
    words = list(dict.fromkeys(word for word in m.rows if word))
    support = 0
    for word in words:
        support |= word
    bound = min(len(words), support.bit_count())
    low = _rank_gf3(words, bound)
    if low == bound or low == len(set(transpose(words, m.n_cols)) - {0}):
        return low
    return _rank_bareiss(words, m.n_cols)


def _rank_gf3(words: Sequence[int], stop: int) -> int:
    """Rank mod 3 of 0/1 row words, or stop once the rank reaches it.

    A row over GF(3) is two bit planes (ones, twos): the columns holding 1
    and those holding 2.  Adding two rows takes a few whole-word operations,
    and negating one swaps its planes.  Each basis row is scaled to hold 1
    at its lowest nonzero column, its key.
    """
    basis: dict[int, tuple[int, int]] = {}
    for ones in words:
        twos = 0
        nonzero = ones
        while nonzero:
            lead = nonzero & -nonzero
            row = basis.get(lead)
            if row is None:
                basis[lead] = (ones, twos) if ones & lead else (twos, ones)
                if len(basis) == stop:
                    return stop
                break
            b1, b2 = row
            if ones & lead:  # a 1 at lead: add -row, its planes swapped
                b1, b2 = b2, b1
            t = (ones | b2) ^ (twos | b1)
            ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
            nonzero = ones | twos
    return len(basis)


def _rank_bareiss(words: Sequence[int], l: int) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    All intermediate entries are integers (minors of the original matrix).
    """
    a = [[(word >> j) & 1 for j in range(l)] for word in words]
    k = len(a)
    piv_row = 0  # also the rank so far
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
        piv_row += 1
        if piv_row == k:
            break
    return piv_row


@dataclass(frozen=True)
class Factorization:
    """Inner-product factorization M[i][j] = <row_words[i], col_words[j]>.

    The words live in F2^r for r the F2-rank; a_set/b_set hold them as sets,
    so equal rows (columns) of the source, whose words are equal, appear once.
    """

    r: int
    a_set: F2Set
    b_set: F2Set
    row_words: tuple[int, ...]
    col_words: tuple[int, ...]


def factorize_f2(m: BoolMatrix) -> Factorization:
    """Express a matrix as inner products of F2^r vectors.

    Row i's vector is the row expressed in coordinates of the reduced echelon
    basis of the row space (its pivot bits); column j's vector is that basis
    restricted to column j.  Duplicate rows or columns are allowed: equal
    ones get equal vectors, and the factor sets of m are those of dedup(m).
    """
    basis = echelon_basis(m.rows)
    r = len(basis)
    dim = max(r, 1)  # all-zero matrix factors through F2^1 with zero vectors
    columns = m.columns()
    pivot_columns = [columns[(row & -row).bit_length() - 1] for row in basis]
    row_words = transpose(pivot_columns, m.n_rows)
    col_words = transpose(basis, m.n_cols)
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


def _precedes(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether rectangle a = (rows, cols, color) comes before b: the smaller
    row index list, then column list, then color.  Two masks' lists agree
    below their lowest differing bit, low; the mask holding low comes first
    unless the other has nothing past low, which makes it a proper prefix."""
    for x, y in zip(a[:2], b[:2]):
        if x != y:
            low = (x ^ y) & -(x ^ y)
            return y >= low if x & low else x < low
    return a[2] < b[2]


def check_exact_cap(k: int, l: int, exact_cap: int) -> None:
    """FormatError when a k x l exact search would enumerate more than
    exact_cap rows or columns; it enumerates the smaller dimension."""
    if min(k, l) > exact_cap:
        raise FormatError(f"enumerated dimension {min(k, l)} exceeds exact cap {exact_cap}")


def max_mono_exact(
    m: BoolMatrix, rows: int, cols: int, exact_cap: int = EXACT_CAP
) -> SubmatrixView:
    """Largest monochromatic rectangle in the block rows x cols of m, by
    Close-by-One over the closed sets of the block's smaller dimension.

    A maximum-area rectangle (xmask, ymask, color) is closed: each side is
    all that the other side allows.  Per color, this visits each closed
    pair once (Kuznetsov's Close-by-One), cutting a branch only when its
    best possible area is strictly below the incumbent, so it sees every
    maximum-area rectangle whichever dimension it enumerates.  The winner
    is the best candidate under (larger area, then lexicographically
    smallest row set, then column set, then color 0 before 1).  Both sides
    of the block are numbered by position, which keeps the order of index
    lists: its rows are gathered once and transposed once, at block width,
    and color 0's words on either side are color 1's complements.
    """
    n_rows, n_cols = rows.bit_count(), cols.bit_count()
    check_exact_cap(n_rows, n_cols, exact_cap)
    words = _gather(compress(m.rows, picks(rows)), cols)
    transposed = n_cols < n_rows  # then x, the enumerated side, is the columns
    columns = transpose(words, n_cols)
    x_words, y_words = (columns, words) if transposed else (words, columns)
    n_x = len(x_words)
    full_x, full_y = (1 << n_x) - 1, (1 << len(y_words)) - 1
    bits = [1 << j for j in range(n_x)]
    below = [bit - 1 for bit in bits]
    best_area = 0
    best = None  # (row mask, column mask, color), each side by position
    for color in (0, 1):
        row_words = x_words if color else [full_y ^ w for w in x_words]
        # y's word over x at index y + 1, the bit_length of y's bit
        col_words = [0, *(y_words if color else [full_x ^ c for c in y_words])]

        def visit(xmask: int, ymask: int, start: int) -> None:
            nonlocal best_area, best
            size = xmask.bit_count()
            ycount = ymask.bit_count()
            area = size * ycount
            if size and area >= best_area:
                cand = (ymask, xmask, color) if transposed else (xmask, ymask, color)
                if best is None or area > best_area or _precedes(cand, best):
                    best_area = area
                    best = cand
            room = size + n_x
            for j in range(start, n_x):
                if (room - j) * ycount < best_area:
                    break
                if xmask & bits[j]:
                    continue
                child_y = ymask & row_words[j]
                if not child_y or (room - j) * child_y.bit_count() < best_area:
                    continue
                child_x = full_x  # the closure: every x holding all of child_y
                y = child_y
                while y:
                    low = y & -y
                    child_x &= col_words[low.bit_length()]
                    y ^= low
                if not (child_x ^ xmask) & below[j]:  # else not canonical
                    visit(child_x, child_y, j + 1)

        visit(mask_of(j for j, word in enumerate(row_words) if word == full_y), full_y, 0)
    got_rows, got_cols, _color = best
    return SubmatrixView(m, _spread(got_rows, rows), _spread(got_cols, cols))


def greedy_rectangle(m: BoolMatrix, rows: int, cols: int) -> SubmatrixView:
    """Greedy row-growing rectangle in the block rows x cols of m: seed with
    the best single row per color, add rows while the forced-column area
    does not shrink."""
    words = [cols & word for word in compress(m.rows, picks(rows))]
    best_area = 0
    best = None  # (row mask by position, column mask, color)
    for color in (0, 1):
        masks = words if color else [cols ^ w for w in words]
        seed = max(range(len(masks)), key=lambda i: (masks[i].bit_count(), -i))
        forced = masks[seed]
        if not forced:
            continue
        chosen = 1 << seed
        count = 1
        while True:
            area = count * forced.bit_count()
            pick = None
            pick_area = -1
            pick_mask = 0
            for i, mask in enumerate(masks):
                if chosen >> i & 1:
                    continue
                nm = forced & mask
                new_area = (count + 1) * nm.bit_count()
                if nm and new_area > pick_area:
                    pick, pick_area, pick_mask = i, new_area, nm
            if pick is None or pick_area < area:
                break
            chosen |= 1 << pick
            count += 1
            forced = pick_mask
        cand = (chosen, forced, color)
        if best is None or area > best_area or (area == best_area and _precedes(cand, best)):
            best_area, best = area, cand
    got_rows, got_cols, _color = best
    return SubmatrixView(m, _spread(got_rows, rows), got_cols)


def _spread(positions: int, mask: int) -> int:
    """The submask of mask holding its members at the given positions."""
    return mask_of(compress(members(mask), picks(positions)))


def _gather(words: Iterable[int], cols: int) -> list[int]:
    """Each word's bits on the column mask cols, moved down to their
    positions in it, each run of adjacent columns shifted at once."""
    runs = []  # (a run of adjacent columns, its shift down to its new place)
    placed = 0
    while cols:
        low = cols & -cols
        run = cols & ~(cols + low)
        runs.append((run, low.bit_length() - 1 - placed))
        placed += run.bit_count()
        cols ^= run
    gathered = []
    for source in words:
        word = 0
        for run, shift in runs:
            word |= (source & run) >> shift
        gathered.append(word)
    return gathered


# -- biased submatrix search -----------------------------------------------------


def _meets_area(area: int, r: int, total: int) -> bool:
    # area >= r^(-3/2) * total  <=>  area^2 * r^3 >= total^2
    return area * area * r**3 >= total * total


def _meets_delta(imbalance: int, area: int, r: int) -> bool:
    # |zeros - ones| / area >= r^(-3/2)  <=>  imbalance^2 * r^3 >= area^2
    return imbalance * imbalance * r**3 >= area * area


def _column_scan(col_words: Sequence[int], row_mask: int, r: int, total: int) -> int | None:
    """Best-effort column mask for a fixed row mask.

    Column j contributes zeros-minus-ones over the chosen rows; scanning
    sorted prefixes on both signs finds a qualifying column set whenever one
    exists for this row set.
    """
    n_rows, n_cols = row_mask.bit_count(), len(col_words)
    contrib = [n_rows - 2 * (word & row_mask).bit_count() for word in col_words]
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
                return mask_of(order[:c])
    return None


def _similarity_clusters(m: BoolMatrix) -> Iterator[int]:
    """For each pivot row, the mask of rows within Hamming distance l/4 of it."""
    limit = m.n_cols / 4
    for pivot in m.rows:
        yield mask_of(i for i, row in enumerate(m.rows) if (row ^ pivot).bit_count() <= limit)


def _eigen_sign_split(m: BoolMatrix) -> Iterator[int]:
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
            return
        u = [x / norm for x in w]
    plus = mask_of(i for i in range(k) if u[i] >= 0)
    yield from (s for s in (plus, ((1 << k) - 1) ^ plus) if s)


def find_biased_submatrix(m: BoolMatrix, rank: int, exact_cap: int = EXACT_CAP) -> SubmatrixView:
    """Find a view with area >= r^(-3/2)|M| and discrepancy >= r^(-3/2).

    r is max(rank, 1), and rank is the caller's rank of M over the
    rationals (rank_real(m), or the block_rank of the block M was gathered
    from), which this never computes.  Strategy cascade: the whole
    matrix, then heuristic row pools with a sort-and-scan column choice,
    then exact search over all subsets of the smaller dimension.  The pools
    are tried lazily, in order: single rows, similarity clusters, then
    eigenvector sign splits, and a pool is computed only when the ones
    before it found nothing.  Both inequalities are re-verified on the
    returned view with exact integer arithmetic.
    """
    r = max(rank, 1)
    total = m.size()

    def verified(rows: int, cols: int) -> SubmatrixView:
        view = SubmatrixView(m, rows, cols)
        zeros, ones = view.counts()
        if not _meets_area(view.area(), r, total):
            raise InvariantViolation("biased view fails the area bound")
        if not _meets_delta(abs(zeros - ones), view.area(), r):
            raise InvariantViolation("biased view fails the discrepancy bound")
        return view

    zeros, ones = m.counts()
    if _meets_delta(abs(zeros - ones), total, r):
        return verified(*m.whole())

    col_words = m.columns()
    pools = ((1 << i for i in range(m.n_rows)), _similarity_clusters(m), _eigen_sign_split(m))
    seen = set()
    for rows in chain.from_iterable(pools):
        if rows in seen:
            continue
        seen.add(rows)
        cols = _column_scan(col_words, rows, r, total)
        if cols is not None:
            return verified(rows, cols)

    transposed = m.n_cols < m.n_rows  # enumerate subsets of the smaller side
    enum_size, other = (m.n_cols, m.rows) if transposed else (m.n_rows, col_words)
    if enum_size <= exact_cap:
        for s in range(1, 1 << enum_size):
            cols = _column_scan(other, s, r, total)
            if cols is not None:
                return verified(cols, s) if transposed else verified(s, cols)
        raise SearchFailure(
            "search",
            "exhaustive search: no submatrix meets the literal rank^(-3/2) "
            "bounds on this matrix",
            exhaustive=True,
        )
    raise SearchFailure("search", "heuristics exhausted below exact scale")


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
        if len(line) != l or line.translate(NOT_BITS):
            raise FormatError(f"bad matrix row {line!r}")
    return BoolMatrix.from_strings(body)


def format_matrix(m: BoolMatrix) -> str:
    return "\n".join([f"{m.n_rows} {m.n_cols}"] + m.to_lines()) + "\n"


def read_matrix_file(path) -> BoolMatrix:
    return parse_matrix_text(read_text(path))
