"""Exact arithmetic and set combinatorics over F2^n.

Vectors are bit words: coordinate ``i`` of a vector is bit ``i`` of the word.
Sets keep their members as deduplicated, ascending word tuples so every
operation has one canonical, reproducible output.  All bias and duality
values are exact rationals (integer character sums over integer set sizes);
nothing in this module touches floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EmptySetError, FormatError, read_text

MAX_DIMENSION = 24
DENSE_CAP = 20  # build 2^n tables only up to this dimension


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 1 or n > MAX_DIMENSION:
        raise FormatError(f"dimension must be in 1..{MAX_DIMENSION}, got {n!r}")


def parity_dot(x: int, y: int) -> int:
    """Inner product of two bit words over F2."""
    return (x & y).bit_count() & 1


@dataclass(frozen=True)
class F2Vector:
    """A vector in F2^n stored as an n-bit word."""

    n: int
    bits: int

    def __post_init__(self):
        _check_dim(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise FormatError(f"word {self.bits:#x} does not fit in {self.n} bits")

    @classmethod
    def from_string(cls, text: str) -> "F2Vector":
        """Parse a {0,1} string, most significant coordinate first."""
        if not text or any(c not in "01" for c in text):
            raise FormatError(f"not a {{0,1}} string: {text!r}")
        return cls(len(text), int(text, 2))

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b")

    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} != {other.n}")
        return F2Vector(self.n, self.bits ^ other.bits)


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
    def from_vectors(cls, vectors: Iterable[F2Vector]) -> "F2Set":
        vectors = list(vectors)
        if not vectors:
            raise EmptySetError("cannot infer dimension from zero vectors")
        n = vectors[0].n
        for v in vectors:
            if v.n != n:
                raise DimensionMismatch(f"{v.n} != {n}")
        return cls(n, (v.bits for v in vectors))

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "F2Set":
        return cls.from_vectors(F2Vector.from_string(s) for s in lines)

    def vectors(self) -> tuple[F2Vector, ...]:
        return tuple(F2Vector(self.n, w) for w in self.members)

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

    def __contains__(self, item) -> bool:
        word = item.bits if isinstance(item, F2Vector) else item
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

    def intersection(self, words: Iterable[int]) -> "F2Set":
        return F2Set(self.n, (w for w in words if w in self._lookup))


def _same_dim(a: F2Set | F2Vector, b: F2Set | F2Vector) -> int:
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    return a.n


def inner_product(a: F2Vector, b: F2Vector) -> int:
    """Sum of coordinate products mod 2."""
    _same_dim(a, b)
    return parity_dot(a.bits, b.bits)


def sumset(a: F2Set, b: F2Set) -> F2Set:
    """{x + y : x in a, y in b} over F2."""
    n = _same_dim(a, b)
    return F2Set(n, (x ^ y for x in a.members for y in b.members))


def echelon_basis(words: Iterable[int]) -> list[int]:
    """Row-reduce words into an echelon basis (leading bits descending).

    The basis length is the F2-rank of the words, and the basis spans them.
    """
    basis: list[int] = []
    for w in words:
        for row in basis:
            w = min(w, w ^ row)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    return basis


def span(a: F2Set) -> F2Set:
    """Linear F2-span; the empty set spans {0}."""
    basis = echelon_basis(a.members)
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return F2Set(a.n, words)


def rep_count(s: F2Set, x: F2Vector | int) -> int:
    """Number of ordered pairs (u, v) in s x s with u + v = x."""
    word = x.bits if isinstance(x, F2Vector) else x
    if isinstance(x, F2Vector):
        _same_dim(s, x)
    elif not 0 <= word < (1 << s.n):
        raise DimensionMismatch(f"word {word:#x} not in F2^{s.n}")
    lookup = s._lookup
    return sum(1 for u in s.members if u ^ word in lookup)


def dense_pays(n: int, direct_work: int) -> bool:
    """The one rule for a dense 2^n transform table: it must fit
    (n <= DENSE_CAP) and cost no more than the direct sums it replaces."""
    return n <= DENSE_CAP and (1 << n) <= direct_work


def rep_table(s: F2Set, t: F2Set | None = None) -> list[int]:
    """#{(u, v) in s x t : u + v = x} for every word x, as a dense table of
    length 2^n; t defaults to s.

    Uses the transform identity conv(1_s, 1_t) = wht(wht(1_s) wht(1_t)) / 2^n.
    """
    g = wht(s.indicator())
    h = g if t is None else wht(t.indicator())
    conv = wht([u * v for u, v in zip(g, h)])
    return [c >> s.n for c in conv]


def rep_counts(s: F2Set, t: F2Set | None = None) -> dict[int, int]:
    """The nonzero pair-sum counts {x: #{(u, v) in s x t : u + v = x}}; t
    defaults to s.

    Reads them off the dense transform table when it pays against the
    |s| |t| pair sums; else counts the pair sums.
    """
    other = s if t is None else t
    _same_dim(s, other)
    if dense_pays(s.n, len(s) * len(other)):
        return {x: c for x, c in enumerate(rep_table(s, t)) if c}
    return Counter(u ^ v for u in s.members for v in other.members)


def wht(values: Sequence) -> list:
    """Walsh-Hadamard transform: out[x] = sum_y values[y] * (-1)^<x,y>.

    Exact on integer (and Fraction) inputs; the input is not modified.
    """
    out = list(values)
    size = len(out)
    if size == 0 or size & (size - 1):
        raise FormatError(f"table length {size} is not a power of two")
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


def char_table(b: F2Set) -> list[int] | None:
    """Dense table of char_sum(b, x) for all x, or None above DENSE_CAP;
    callers asking word by word build it once dense_pays(n, words x |b|)."""
    if b.n > DENSE_CAP:
        return None
    return wht(b.indicator())


def bias(b: F2Set, x: F2Vector | int) -> Fraction:
    """Signed mean of (-1)^<x,y> over y in b, as an exact rational."""
    if len(b) == 0:
        raise EmptySetError("bias over an empty set")
    word = x.bits if isinstance(x, F2Vector) else x
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
        raise EmptySetError("spectrum of an empty set")
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise FormatError(f"alpha must be in [0,1], got {alpha}")
    size = 1 << b.n
    table = wht(b.indicator())
    m = len(b)
    members = [x for x in range(size) if in_spectrum(table[x], m, alpha)]
    biases = {x: Fraction(table[x], m) for x in range(size)}
    return SpectrumResult(alpha, biases, F2Set(b.n, members))


def in_spectrum(char_value: int, set_size: int, alpha: Fraction) -> bool:
    """Exact membership test |char_value / set_size| >= alpha."""
    return abs(char_value) * alpha.denominator >= alpha.numerator * set_size


def duality_measure(a: F2Set, b: F2Set) -> Fraction:
    """Absolute mean of (-1)^<x,y> over a x b; 1 iff the pair is fully dual."""
    _same_dim(a, b)
    if len(a) == 0 or len(b) == 0:
        raise EmptySetError("duality measure needs two nonempty sets")
    total = sum(char_sum(b, x) for x in a.members)
    return Fraction(abs(total), len(a) * len(b))


def ip_rows(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Inner-product matrix as row words: bit j of row i is <xs[i], ys[j]>."""
    return [sum(parity_dot(x, y) << j for j, y in enumerate(ys)) for x in xs]


def is_dual_pair(a: F2Set, b: F2Set) -> int | None:
    """The common inner-product bit if <x,y> is constant on a x b, else None."""
    _same_dim(a, b)
    if len(a) == 0 or len(b) == 0:
        return None
    first = parity_dot(a.members[0], b.members[0])
    for x in a.members:
        for y in b.members:
            if parity_dot(x, y) != first:
                return None
    return first


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
    width = len(lines[0])
    for line in lines:
        if len(line) != width:
            raise FormatError(
                f"inconsistent element width: {len(line)} != {width}"
            )
    return F2Set.from_strings(lines)


def format_set(s: F2Set) -> str:
    return "\n".join(s.to_lines()) + "\n"


def read_set_file(path) -> F2Set:
    return parse_set_text(read_text(path))


def write_set_file(path, s: F2Set) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_set(s))
