"""Exact arithmetic and set combinatorics over F2^n.

Vectors are bit words: coordinate ``i`` of a vector is bit ``i`` of the word.
Sets keep their members as deduplicated, ascending word tuples so every
operation has one canonical, reproducible output.  All bias and duality
values are exact rationals (integer character sums over integer set sizes);
nothing in this module touches floating point.  Dense 2^n tables (the
transforms, and the 2^n-bit translate words behind ``sumset_size`` and
``neighbourhoods``) are built only where ``dense_pays``.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, insort
from collections import Counter
from operator import itemgetter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .errors import FormatError, read_text

MAX_DIMENSION = 24
DENSE_CAP = 20  # build 2^n tables only up to this dimension
NOT_BITS = str.maketrans("", "", "01")  # str.translate table: what is left is not a bit
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bytes of bools -> binary digits
_PICKS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits -> bytes of bools
# neighbourhoods: one translated 2^n-bit word costs about as much as a direct
# pass over 2^n / NEIGHBOURHOOD_COST members (measured crossover 28-67)
NEIGHBOURHOOD_COST = 48


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 1 or n > MAX_DIMENSION:
        raise FormatError(f"dimension must be in 1..{MAX_DIMENSION}, got {n!r}")


class F2Set:
    """An immutable subset of F2^n; members are ascending bit words."""

    __slots__ = ("n", "members", "_lookup")

    def __init__(self, n: int, members: Iterable[int] = ()):
        _check_dim(n)
        words = sorted(set(members))
        if words and not 0 <= words[0] <= words[-1] < (1 << n):
            raise FormatError(f"member word out of range for dimension {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", tuple(words))
        object.__setattr__(self, "_lookup", frozenset(words))

    def __setattr__(self, name, value):
        raise AttributeError("F2Set is immutable")

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "F2Set":
        """Parse {0,1} strings of one length, most significant coordinate
        first: one str.translate check and one int() per string."""
        lines = list(lines)
        if not lines:
            raise FormatError("cannot infer dimension from zero vectors")
        n = len(lines[0])  # the first string fixes n
        for line in lines:
            if len(line) != n:
                raise FormatError(f"inconsistent element width: {len(line)} != {n}")
        for i, line in enumerate(lines):
            if not line or line.translate(NOT_BITS):
                raise FormatError(f"not a {{0,1}} string: {line!r}")
            if i == 0:  # a bad first string is named before a bad n
                _check_dim(n)
        return cls(n, [int(line, 2) for line in lines])

    def to_lines(self) -> list[str]:
        return [format(w, f"0{self.n}b") for w in self.members]

    def indicator(self) -> list[int]:
        """Dense 0/1 table over words 0..2^n-1."""
        table = [0] * (1 << self.n)
        for w in self.members:
            table[w] = 1
        return table

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, word) -> bool:
        return word in self._lookup

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Set)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"F2Set(n={self.n}, size={len(self.members)})"

    def issubset(self, other: "F2Set") -> bool:
        return self.n == other.n and self._lookup <= other._lookup


def same_dim(a: F2Set, b: F2Set) -> int:
    """The common n of a and b; FormatError when they differ."""
    if a.n != b.n:
        raise FormatError(f"sets live in different spaces, F2^{a.n} and F2^{b.n}")
    return a.n


def sumset(a: F2Set, b: F2Set) -> F2Set:
    """{x + y : x in a, y in b} over F2."""
    n = same_dim(a, b)
    return F2Set(n, (x ^ y for x in a.members for y in b.members))


def coset_rep(word: int, basis: Sequence[int]) -> int:
    """The canonical member of word + span(basis), for a reduced echelon
    basis: word with every pivot bit cleared.  It is 0 iff word lies in the
    span."""
    for row in basis:
        if word & row & -row:
            word ^= row
    return word


def echelon_basis(words: Iterable[int]) -> list[int]:
    """The reduced row echelon basis of the words' span.

    Each row's pivot is its lowest set bit, no other row has that bit, and
    rows ascend by pivot, so the basis is unique to the span; its length is
    the F2-rank of the words.
    """
    basis: list[int] = []
    for w in words:
        w = coset_rep(w, basis)
        if w:
            low = w & -w
            basis = [row ^ w if row & low else row for row in basis]
            insort(basis, w, key=lambda row: row & -row)
    return basis


def span(a: F2Set) -> F2Set:
    """Linear F2-span; the empty set spans {0}."""
    basis = echelon_basis(a.members)
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return F2Set(a.n, words)


def dense_pays(n: int, direct_work: int) -> bool:
    """The one rule for a dense 2^n table, a transform or the translated
    2^n-bit words of sumset_size and neighbourhoods: it must fit
    (n <= DENSE_CAP) and cost no more than the direct sums it replaces."""
    return n <= DENSE_CAP and (1 << n) <= direct_work


def rep_table(s: F2Set) -> list[int]:
    """#{(u, v) in s x s : u + v = x} for every word x, as a dense table of
    length 2^n.

    Uses the transform identity conv(1_s, 1_s) = wht(wht(1_s)^2) / 2^n.
    """
    g = wht(s.indicator())
    conv = wht([v * v for v in g])
    return [c >> s.n for c in conv]


def rep_counts(s: F2Set) -> dict[int, int]:
    """The nonzero pair-sum counts {x: #{(u, v) in s x s : u + v = x}}.

    Reads them off the dense transform table when it pays against the
    |s|^2 pair sums; else counts the pair sums.
    """
    if dense_pays(s.n, len(s) * len(s)):
        return {x: c for x, c in enumerate(rep_table(s)) if c}
    return Counter(u ^ v for u in s.members for v in s.members)


def sumset_size(s: F2Set) -> int:
    """|s + s|: the popcount of the union of s's translates (_sumset_bits)
    when a dense table pays against the |s|(|s| + 1)/2 unordered pair sums,
    else the distinct sums of those pairs.  (Measured crossover: |s| about
    21 at n = 8, 100 at n = 14, 1,400 at n = 20.)"""
    if dense_pays(s.n, len(s) * (len(s) + 1) // 2):
        return _sumset_bits(s).bit_count()
    c = s.members
    out: set[int] = set()
    for i, u in enumerate(c):
        out.update(map(u.__xor__, c[i:]))
    return len(out)


def neighbourhoods(a: F2Set, s: F2Set) -> list[int]:
    """For each member u of a, in order, the member-index mask of
    a & (u + s): bit j is set iff u + a.members[j] is in s.

    Each mask is one pass over a, or over s when s is the smaller set,
    unless a dense word pays against that pass (2^n against
    NEIGHBOURHOOD_COST times the smaller size): then the members are walked
    in ascending order with s's 2^n-bit indicator word translated to the
    current one, one ``_xor_swap`` per bit in which it differs from the
    previous one, and a mask is that word's digits at the members'
    positions.
    """
    n = same_dim(a, s)
    members = a.members
    if dense_pays(n, NEIGHBOURHOOD_COST * min(len(members), len(s))):
        masks = _swap_masks(n)
        digits = f"0{1 << n}b"  # bit x is digit 2^n - 1 - x; member 0 comes last
        pick = itemgetter(*[(1 << n) - 1 - x for x in reversed(members)])
        word, at, rows = _indicator_word(s), 0, []
        for u in members:
            moved = u ^ at
            while moved:
                h = moved & -moved
                word = _xor_swap(word, masks[h.bit_length() - 1], h)
                moved ^= h
            at = u
            rows.append(int("".join(pick(format(word, digits))), 2))
        return rows
    if len(s) < len(members):
        index = {x: i for i, x in enumerate(members)}
        return [
            sum(1 << index[y] for y in map(u.__xor__, s.members) if y in index)
            for u in members
        ]
    in_s = s._lookup.__contains__
    backwards = members[::-1]
    return [
        int(bytes(map(in_s, map(u.__xor__, backwards))).translate(_DIGITS), 2)
        for u in members
    ]


def _sumset_bits(s: F2Set) -> int:
    """The indicator of s + s as a 2^n-bit word (bit x set iff x is in
    s + s), the union of the translates s + u over u in s.

    Translating the indicator word w by 2^b swaps the halves of every
    2^(b+1)-bit block (``_xor_swap``).  The translates by the 2^k low parts,
    k = min(6, n), are tabulated in Gray-code order, one swap each; the
    members' high bits are then merged down their binary trie
    (``_union_of_translates``), one swap per branch.  The table holds
    2^(n+k) bits, 8 MB at n = 20, and dies on return.
    """
    n, members = s.n, s.members
    masks = _swap_masks(n)
    table = [_indicator_word(s)] * (1 << min(6, n))
    for i in range(1, len(table)):
        h = i & -i  # the Gray codes of i - 1 and i differ in bit h
        table[i ^ i >> 1] = _xor_swap(table[(i - 1) ^ (i - 1) >> 1], masks[h.bit_length() - 1], h)
    return _union_of_translates(members, 0, len(members), n - 1, table, masks)


def _swap_masks(n: int) -> list[int]:
    """masks[b]: the 2^n-bit word of the positions with bit b clear, for
    _xor_swap by 2^b."""
    # from the low half (b = n - 1) down: the positions with bits b and
    # b - 1 clear, and the same shifted up by 2^b
    masks = [(1 << (1 << (n - 1))) - 1]
    for b in range(n - 1, 0, -1):
        both = masks[-1] & masks[-1] >> (1 << (b - 1))
        masks.append(both | both << (1 << b))
    masks.reverse()
    return masks


def _indicator_word(s: F2Set) -> int:
    """s's indicator as a 2^n-bit word: bit x set iff x is in s."""
    indicator = bytearray((1 << s.n) + 7 >> 3)
    for u in s.members:
        indicator[u >> 3] |= 1 << (u & 7)
    return int.from_bytes(indicator, "little")


def _xor_swap(w: int, mask: int, h: int) -> int:
    """w with every bit moved from position x to x ^ h, h a power of two:
    the halves of every 2h-bit block swapped; mask marks the positions x
    with x & h == 0."""
    return (w & mask) << h | (w >> h) & mask


def _union_of_translates(
    members: Sequence[int], lo: int, hi: int, b: int, table: list[int], masks: list[int]
) -> int:
    """The union of table[0]'s translates by members[lo:hi], ascending words
    that agree above bit b; table[l] is table[0]'s translate by l < len(table)."""
    if 1 << b < len(table):  # bits 0..b are tabulated
        low = len(table) - 1
        acc = 0
        for u in members[lo:hi]:
            acc |= table[u & low]
        return acc
    split = bisect_left(members, (members[lo] >> b | 1) << b, lo, hi)  # first with bit b set
    acc = _union_of_translates(members, lo, split, b - 1, table, masks) if split > lo else 0
    if split < hi:
        high = _union_of_translates(members, split, hi, b - 1, table, masks)
        acc |= _xor_swap(high, masks[b], 1 << b)
    return acc


def wht(values: Sequence) -> list:
    """Walsh-Hadamard transform: out[x] = sum_y values[y] * (-1)^<x,y>.

    Exact on integer (and Fraction) inputs; the input is not modified.
    Integer tables with sum |v| < 2^62, such as indicators and the squared
    tables of ``rep_table``, take the lane-packed ``_wht_lanes`` in the
    narrowest of 16-, 32- or 64-bit lanes whose guard the sum meets;
    anything else (Fractions, floats, larger sums) takes ``_wht_loop``, the
    one exact fallback.  Both give the same list.
    """
    size = len(values)
    if size == 0 or size & (size - 1):
        raise FormatError(f"table length {size} is not a power of two")
    lanes = _wht_lanes(values)
    if lanes is None:
        return _wht_loop(values)
    return lanes.tolist()


# (array code, lane width in bits) of the 16-, 32- and 64-bit lanes
_LANES = tuple((code, 8 * array(code).itemsize) for code in "hiq")


def _wht_lanes(values: Sequence) -> memoryview | None:
    """The transform of a power-of-two table as a memoryview of signed
    lanes of the narrowest width w in 16, 32 and 64 bits with
    sum |v| < 2^(w-2); None unless every value is an int, the sum meets the
    64-bit guard and the machine is little-endian, the byte order the lanes
    assume.  Indicators of up to 2^14 members fit 16-bit lanes, and the
    squared spectra of ``rep_table`` (sum 2^n |s|) 32-bit lanes.

    Value y sits in lane y of one int as v + 2^(w-2), and each butterfly
    level is a handful of whole-int operations.  Every lane only ever holds
    a signed partial sum of the inputs plus the offset, so the guard keeps
    it in [0, 2^w) and no carry or borrow crosses a lane.  At n = 20 each
    int here is up to 8 MB, so the steps are in-place and every local dies
    on return.
    """
    if sys.byteorder != "little":
        return None
    try:
        total = sum(map(abs, values))
        code, width = next((c, w) for c, w in _LANES if total < 1 << (w - 2))
        lanes = array(code, values)  # the int check, in C
    except (TypeError, StopIteration):  # not all ints, or sum |v| >= 2^62
        return None
    size = len(lanes)
    p = int.from_bytes(lanes, "little")
    del lanes
    offset = (1 << (width - 2)).to_bytes(width // 8, "little")
    c = int.from_bytes(offset * size, "little")  # 2^(w-2) in every lane
    p ^= c << 1  # two's complement v -> v + 2^(w-1)
    p -= c  # -> v + 2^(w-2)
    shift = width // 2 * size  # w bits per lane, h = size / 2 lanes
    m = (1 << shift) - 1  # the low h lanes of every 2h-lane block
    while shift >= width:
        a = p & m
        p >>= shift
        p &= m  # b, the high lanes moved down
        p += a
        p -= c & m  # a + b
        p |= ((a << 1) - p) << shift  # a - b = 2a - (a + b), moved up
        shift >>= 1
        m &= m >> shift  # for the next h: lanes [0, h) of every 4h-lane block,
        m |= m << (2 * shift)  # then of every 2h-lane block
    p += c
    p ^= c << 1  # v + 2^(w-2) -> v + 2^(w-1) -> two's complement v
    return memoryview(p.to_bytes(width // 8 * size, "little")).cast(code)


def _wht_loop(values: Sequence) -> list:
    """wht by the element loop, exact on any numeric type."""
    out = list(values)
    size = len(out)
    h = 1
    while h < size:
        for start in range(0, size, h * 2):
            for j in range(start, start + h):
                x, y = out[j], out[j + h]
                out[j] = x + y
                out[j + h] = x - y
        h *= 2
    return out


def char_sum(b: F2Set, word: int) -> int:
    """Integer character sum sum_{y in b} (-1)^<word,y>."""
    odd = sum(1 for y in b.members if (word & y).bit_count() & 1)
    return len(b) - 2 * odd


def char_table(b: F2Set) -> list[int]:
    """char_sum(b, x) for every word x, as a dense table of length 2^n."""
    return wht(b.indicator())


class CharSums:
    """The character sums of a fixed set b: the one character-sum kernel.
    ``CharSums(b).values(words)`` is [char_sum(b, x) for x in words], read
    from char_table(b) once the distinct words asked so far times |b| pay
    for it (dense_pays), else direct sums memoised per word; a direct sum is
    |b| - 2 popcount(combine(x, transpose(b))), b transposed on the first."""

    __slots__ = ("b", "_memo", "_table", "_columns")

    def __init__(self, b: F2Set):
        self.b = b
        self._memo: dict[int, int] = {}
        self._table: list[int] | None = None
        self._columns: list[int] | None = None

    def values(self, words: Sequence[int]) -> list[int]:
        """[char_sum(b, x) for x in words], one dense-or-direct choice per batch."""
        if self._table is None:
            memo, size = self._memo, len(self.b)
            new = {w for w in words if w not in memo}
            if not dense_pays(self.b.n, (len(memo) + len(new)) * size):
                if new and self._columns is None:
                    self._columns = transpose(self.b.members, self.b.n)
                for w in new:
                    memo[w] = size - 2 * combine(w, self._columns).bit_count()
                return list(map(memo.__getitem__, words))
            self._table = char_table(self.b)
        return list(map(self._table.__getitem__, words))

    def duality(self, words: Sequence[int]) -> Fraction:
        """D(words, b): the absolute mean of (-1)^<x,y> over words x b."""
        return Fraction(abs(sum(self.values(words))), len(words) * len(self.b))


def bias(b: F2Set, word: int) -> Fraction:
    """Signed mean of (-1)^<word,y> over y in b, as an exact rational."""
    if len(b) == 0:
        raise FormatError("bias over an empty set")
    return Fraction(char_sum(b, word), len(b))


@dataclass(frozen=True)
class SpectrumResult:
    """All character biases of a set plus the |bias| >= alpha sublevel set."""

    alpha: Fraction
    biases: dict  # word -> Fraction in [-1, 1]
    members: F2Set


def spectrum(b: F2Set, alpha) -> SpectrumResult:
    """Vectors whose character bias against b has magnitude at least alpha."""
    if len(b) == 0:
        raise FormatError("spectrum of an empty set")
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise FormatError(f"alpha must be in [0,1], got {alpha}")
    size = 1 << b.n
    table = char_table(b)
    m = len(b)
    members = [x for x in range(size) if in_spectrum(table[x], m, alpha)]
    biases = {x: Fraction(table[x], m) for x in range(size)}
    return SpectrumResult(alpha, biases, F2Set(b.n, members))


def in_spectrum(char_value: int, set_size: int, alpha: Fraction) -> bool:
    """Exact membership test |char_value / set_size| >= alpha."""
    return abs(char_value) * alpha.denominator >= alpha.numerator * set_size


def duality_measure(a: F2Set, b: F2Set) -> Fraction:
    """Absolute mean of (-1)^<x,y> over a x b; 1 iff the pair is fully dual."""
    same_dim(a, b)
    if len(a) == 0 or len(b) == 0:
        raise FormatError("duality measure needs two nonempty sets")
    return CharSums(b).duality(a.members)


def transpose(words: Sequence[int], width: int) -> list[int]:
    """The column words of the rows ``words``, each below 2^width: bit i of
    column j is bit j of words[i].  Zips the rows' digit strings, row 0 last."""
    if not width:  # format(w, "00b") still writes one digit
        return []
    if not words:
        return [0] * width
    digits = zip(*(format(w, f"0{width}b") for w in reversed(words)))
    return [int("".join(column), 2) for column in digits][::-1]


def combine(x: int, rows: Sequence[int]) -> int:
    """The XOR of rows[k] over the set bits k of x; bits of x at or past
    len(rows) are ignored."""
    x &= (1 << len(rows)) - 1
    acc = 0
    while x:
        low = x & -x
        acc ^= rows[low.bit_length() - 1]
        x ^= low
    return acc


def picks(mask: int) -> bytes:
    """itertools.compress selectors for the index set mask (index i is in
    it when bit i is set): one byte per bit, lowest first, 1 where set."""
    return bin(mask)[:1:-1].encode().translate(_PICKS)


def members(mask: int) -> list[int]:
    """The indices in mask, ascending."""
    return list(compress(range(mask.bit_length()), picks(mask)))


def mask_of(indices: Iterable[int]) -> int:
    """The mask of distinct indices (a repeated index carries into a higher
    bit, so the mask then has fewer bits than there are indices)."""
    return sum(map((1).__lshift__, indices))


def ip_rows(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Inner-product matrix as row words: bit j of row i is <xs[i], ys[j]>,
    row i being the XOR of the columns of ys at the set bits of xs[i]."""
    columns = transpose(ys, max(ys, default=0).bit_length())
    return [combine(x, columns) for x in xs]


def is_dual_pair(a: F2Set, b: F2Set) -> int | None:
    """The common inner-product bit if <x,y> is constant on a x b, else None."""
    same_dim(a, b)
    if len(a) == 0 or len(b) == 0:
        return None
    rows = set(ip_rows(a.members, b.members))  # one row each all 0 or all 1
    return {0: 0, (1 << len(b)) - 1: 1}.get(rows.pop()) if len(rows) == 1 else None


# -- set file format ---------------------------------------------------------
# One element per line as a {0,1} string (most significant coordinate first);
# blank lines and '#' comments are ignored; all lines must share one length.


def parse_set_text(text: str) -> F2Set:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise FormatError("set file has no elements")
    return F2Set.from_strings(lines)


def format_set(s: F2Set) -> str:
    return "\n".join(s.to_lines()) + "\n"


def read_set_file(path) -> F2Set:
    return parse_set_text(read_text(path))


def write_set_file(path, s: F2Set) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_set(s))
