"""Constructive search for fully-dual subset pairs over F2^n.

Given A, B with nonzero duality measure, the pipeline builds a short tower
of sumset levels restricted to ever-smaller spectrum thresholds, extracts a
small-span core at the top via dense-subgraph (BSG) and span-shrinking (PFR)
steps, converts the core into a fully-dual pair, and pulls that pair back
down the tower one level at a time.  Every dual pair is verified
exhaustively on construction; every level records the exact inequalities it
was supposed to satisfy.  An exact closure-search oracle provides
ground-truth maximum-area dual pairs at small scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .adcomb import BsgResult, PfrResult, bsg_extract, pfr_extract
from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyNext,
    EmptySetError,
    GraphEmpty,
    InvariantViolation,
    PreconditionViolation,
    SearchFailure,
    ZeroDuality,
)
from .f2 import (
    F2Set,
    char_sum,
    char_table,
    dense_pays,
    echelon_basis,
    in_spectrum,
    ip_rows,
    is_dual_pair,
    parity_dot,
    rep_counts,
)
from .matrix import max_closed_rectangle


@dataclass(frozen=True)
class DualPair:
    """Subsets with a constant inner-product bit; verified on construction."""

    a_side: F2Set
    b_side: F2Set
    constant_bit: int

    def __post_init__(self):
        if self.a_side.n != self.b_side.n:
            raise DimensionMismatch(f"{self.a_side.n} != {self.b_side.n}")
        if len(self.a_side) == 0 or len(self.b_side) == 0:
            raise InvariantViolation("dual pair sides must be nonempty")
        if is_dual_pair(self.a_side, self.b_side) != self.constant_bit:
            raise InvariantViolation(f"<x,y> is not {self.constant_bit} on all pairs")

    def area(self) -> int:
        return len(self.a_side) * len(self.b_side)


class _BiasOracle:
    """Cached character sums of a fixed set B: char_sum memoised per word
    until the words asked times |B| pay for a dense table (f2.dense_pays)."""

    def __init__(self, b: F2Set):
        self.b = b
        self.size = len(b)
        self._table: list[int] | None = None
        self._memo: dict[int, int] = {}

    def char(self, word: int) -> int:
        if self._table is not None:
            return self._table[word]
        got = self._memo.get(word)
        if got is None:
            if dense_pays(self.b.n, (len(self._memo) + 1) * self.size):
                self._table = char_table(self.b)
                return self._table[word]
            got = char_sum(self.b, word)
            self._memo[word] = got
        return got

    def in_spectrum(self, word: int, alpha: Fraction) -> bool:
        return in_spectrum(self.char(word), self.size, alpha)

    def duality(self, words) -> Fraction:
        words = list(words)
        total = sum(self.char(w) for w in words)
        return Fraction(abs(total), len(words) * self.size)


@dataclass(frozen=True)
class LevelRecord:
    """One level of the sumset tower and its recorded inequalities.

    ``precondition_held`` says whether the previous level's duality measure
    was at least its threshold; only then are the pair-mass (eq_mass) and
    set-size (eq_size) lower bounds guaranteed, and they are hard-asserted
    in that case.  Both are recorded unconditionally.
    """

    index: int
    members: F2Set
    epsilon: Fraction
    bucket: Optional[int]  # j, None at level 1
    pair_mass: Optional[int]
    duality_prev: Fraction
    precondition_held: bool
    eq_mass_holds: Optional[bool]
    eq_size_holds: Optional[bool]


@dataclass(frozen=True)
class SequenceState:
    n: int
    growth_bound: Fraction  # K
    source_a: F2Set
    source_b: F2Set
    duality: Fraction
    levels: tuple[LevelRecord, ...]  # levels 1 .. t+1
    t: int

    def level(self, i: int) -> LevelRecord:
        return self.levels[i - 1]


def markov_restrict(a: F2Set, b: F2Set):
    """Halve the duality threshold and keep the high-bias part of A.

    Returns (A1, eps1) with eps1 = D(A,B)/2 and A1 the members of A whose
    bias against B is at least eps1 in magnitude; |A1| >= eps1 |A| always.
    """
    return _markov_restrict(a, _BiasOracle(b))


def _markov_restrict(a: F2Set, oracle: _BiasOracle):
    if len(a) == 0 or oracle.size == 0:
        raise EmptySetError("markov_restrict needs nonempty sets")
    d = oracle.duality(a.members)
    if d == 0:
        raise ZeroDuality("duality measure is zero; nothing to restrict")
    eps1 = d / 2
    kept = [w for w in a.members if oracle.in_spectrum(w, eps1)]
    a1 = F2Set(a.n, kept)
    if Fraction(len(a1)) < eps1 * len(a):
        raise InvariantViolation("Markov restriction bound failed")
    return a1, eps1


def _next_level(
    a_prev: F2Set, oracle: _BiasOracle, index: int, eps_next: Fraction
) -> LevelRecord:
    """One sumset step: keep sums in the eps_next spectrum, bucketed by
    representation count, choosing the bucket with the most ordered pairs.

    Bucket j holds sums x with 2^j <= rep(x) <= 2^(j+1); assignment uses
    floor(log2 rep) (clamped to n-1) so buckets partition the pairs, and the
    tie between equal masses goes to the smaller j.

    When D(A_prev, B)^2 >= 2 * eps_next (the regime the threshold recursion
    eps_i = eps_(i-1)^2 / 2 produces), the chosen bucket provably holds an
    eps_next/n fraction of ordered pairs and the level size is at least
    eps_next |A_prev|^2 / (2^(j+1) n); both are hard-asserted then, and
    recorded either way.
    """
    if len(a_prev) == 0:
        raise EmptySetError("next_set needs a nonempty previous level")
    n = a_prev.n
    mass = [0] * n
    buckets: list[list[int]] = [[] for _ in range(n)]
    for x, c in rep_counts(a_prev).items():
        if not oracle.in_spectrum(x, eps_next):
            continue
        j = min(c.bit_length() - 1, n - 1)
        mass[j] += c
        buckets[j].append(x)
    best_j = max(range(n), key=lambda j: (mass[j], -j))
    if mass[best_j] == 0:
        raise EmptyNext(f"no pair lands in the {eps_next} spectrum")
    members = F2Set(n, buckets[best_j])
    d_prev = oracle.duality(a_prev.members)
    held = d_prev * d_prev >= 2 * eps_next
    need = eps_next * len(a_prev) * len(a_prev)
    eq_mass = Fraction(mass[best_j]) >= need / n
    eq_size = Fraction(len(members)) >= need / (n << (best_j + 1))
    if held and not (eq_mass and eq_size):
        raise InvariantViolation("guaranteed pair-mass/size bound failed")
    return LevelRecord(
        index=index,
        members=members,
        epsilon=eps_next,
        bucket=best_j,
        pair_mass=mass[best_j],
        duality_prev=d_prev,
        precondition_held=held,
        eq_mass_holds=eq_mass,
        eq_size_holds=eq_size,
    )


def next_set(a_prev: F2Set, b: F2Set, eps_next):
    """Public wrapper for one sumset step; returns (A_next, j)."""
    level = _next_level(a_prev, _BiasOracle(b), 2, Fraction(eps_next))  # index is a label
    return level.members, level.bucket


def run_sequence(a: F2Set, b: F2Set, growth_bound) -> SequenceState:
    """Build levels until one grows by at most the growth bound K.

    Level 1 is the Markov restriction of A; level i is a bucketed sumset of
    level i-1 at threshold eps_i = eps_(i-1)^2 / 2.  Stops at the first t
    with |A_(t+1)| <= K |A_t|; the pigeonhole bound K^(t-1) < 2^n is
    asserted exactly.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    growth_bound = Fraction(growth_bound)
    if growth_bound <= 1:
        raise PreconditionViolation("growth bound K must exceed 1")
    n = a.n
    oracle = _BiasOracle(b)
    a1, eps1 = _markov_restrict(a, oracle)
    d = oracle.duality(a.members)
    levels = [
        LevelRecord(
            index=1,
            members=a1,
            epsilon=eps1,
            bucket=None,
            pair_mass=None,
            duality_prev=d,
            precondition_held=True,
            eq_mass_holds=None,
            eq_size_holds=None,
        )
    ]
    # growth can continue only while K^(i-1) < 2^n, so this cap is safe
    cap = 2
    power = growth_bound
    while power < (1 << n):
        power *= growth_bound
        cap += 1
    prev = a1
    eps_prev = eps1
    t = None
    for i in range(2, cap + 3):
        eps_i = eps_prev * eps_prev / 2
        # the guarantee precondition d_prev^2 >= 2 eps_i is exactly
        # d_prev >= eps_prev under this threshold recursion
        nxt = _next_level(prev, oracle, i, eps_i)
        levels.append(nxt)
        if Fraction(len(nxt.members)) <= growth_bound * len(prev):
            t = i - 1
            break
        prev = nxt.members
        eps_prev = eps_i
    if t is None:
        raise InvariantViolation("growth never stopped; impossible in F2^n")
    if growth_bound ** (t - 1) >= (1 << n):
        raise InvariantViolation(f"stopping index {t} breaks the pigeonhole bound")
    return SequenceState(
        n=n,
        growth_bound=growth_bound,
        source_a=a,
        source_b=b,
        duality=d,
        levels=tuple(levels),
        t=t,
    )


# -- small-span dual pairs --------------------------------------------------------


def _small_span(a: F2Set, b: F2Set, eps: Fraction):
    """Dual pair when A sits inside the eps-spectrum of B.

    Partition B by the inner-product pattern against a basis of span(A): all
    elements of one class act identically on span(A), so any class B' plus
    the majority side of A under that action is a dual pair.  The class
    maximizing |B'| * (|A| + |charsum_A|) -- i.e. the area of the resulting
    pair -- is chosen, which guarantees |A'| >= |A|/2 and
    |B'| >= |B| / (2 |span A|) >= (eps/2) |B| / |span A|.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    if len(a) == 0 or len(b) == 0:
        raise EmptySetError("small_span_dual needs nonempty sets")
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionViolation("eps must be positive")
    for w in a.members:
        if not in_spectrum(char_sum(b, w), len(b), eps):
            raise PreconditionViolation(
                f"element {w:#x} has bias below {eps}; A not in the spectrum"
            )
    basis = echelon_basis(a.members)
    classes: dict[int, list[int]] = {}
    for y, key in zip(b.members, ip_rows(b.members, basis)):
        classes.setdefault(key, []).append(y)

    span_size = 1 << len(basis)

    def score(item):
        _key, ys = item
        charsum = char_sum(a, ys[0])
        return (-(len(ys) * (len(a) + abs(charsum))), -len(ys), ys[0])

    _, chosen = min(classes.items(), key=score)
    rep_y = chosen[0]
    side0 = [x for x in a.members if parity_dot(x, rep_y) == 0]
    side1 = [x for x in a.members if parity_dot(x, rep_y) == 1]
    if len(side0) >= len(side1):
        kept, bit = side0, 0
    else:
        kept, bit = side1, 1
    pair = DualPair(F2Set(a.n, kept), F2Set(b.n, chosen), bit)
    if 2 * len(pair.a_side) < len(a):
        raise InvariantViolation("majority side lost more than half of A")
    if Fraction(len(pair.b_side)) < (eps / 2) * Fraction(len(b), span_size):
        raise InvariantViolation("class size fell below the promised bound")
    record = {
        "span_size": span_size,
        "a_kept": len(pair.a_side),
        "b_kept": len(pair.b_side),
        "promised_b": (eps / 2) * Fraction(len(b), span_size),
        "achieved_b_floor": Fraction(len(b), 2 * span_size),
        "reference_general_a": (eps / 4) * len(a),
        "reference_general_b": (eps * eps / 4) * Fraction(len(a), span_size) * len(b),
        "reference_spectrum_a": Fraction(len(a), 2),
        "reference_spectrum_b": eps * eps * Fraction(len(a), span_size) * len(b),
    }
    return pair, record


def small_span_dual(a: F2Set, b: F2Set, eps) -> DualPair:
    """Dual pair from a set that lies inside the eps-spectrum of B."""
    pair, _record = _small_span(a, b, Fraction(eps))
    return pair


@dataclass(frozen=True)
class BaseCaseResult:
    pair: DualPair
    bsg: BsgResult
    pfr: PfrResult
    small_span: dict


def base_case_dual(state: SequenceState, seed: int = 0) -> BaseCaseResult:
    """Dual pair at the top level t of a finished sequence.

    Chain: dense-subgraph extraction from A_t against A_(t+1) at density
    eps_(t+1)/n, span-shrinking extraction on the result, then the
    small-span construction against B at threshold eps_t.  Stage failures
    raise SearchFailure subclasses tagged with the stage name.
    """
    t = state.t
    a_t = state.level(t).members
    a_next = state.level(t + 1).members
    eps_next = state.level(t + 1).epsilon
    eps_t = state.level(t).epsilon
    rho = eps_next / state.n
    bsg = bsg_extract(a_t, a_next, rho, seed=seed)
    pfr = pfr_extract(bsg.subset)
    pair, record = _small_span(pfr.subset, state.source_b, eps_t)
    return BaseCaseResult(pair=pair, bsg=bsg, pfr=pfr, small_span=record)


# -- pull-back ---------------------------------------------------------------------


def pull_back(a_prev: F2Set, pair_i: DualPair, a_i: F2Set) -> DualPair:
    """Convert a dual pair one level up into one on the previous level.

    Join two previous-level elements when their sum lies in the pair's A
    side; take the largest connected component; keep the half of the B side
    agreeing with the component's canonical vertex; then keep the whole
    component (constant bit 0) or its larger parity class (constant bit 1).
    """
    if not pair_i.a_side.issubset(a_i):
        raise PreconditionViolation("pair's A side must sit inside the level set")
    if a_prev.n != a_i.n:
        raise DimensionMismatch(f"{a_prev.n} != {a_i.n}")
    targets = pair_i.a_side._lookup
    prev_lookup = a_prev._lookup
    # 0 in targets is always usable: x + x = 0 for any x in the level below
    usable = (0 in targets and len(a_prev) > 0) or any(
        x ^ s in prev_lookup for s in targets for x in a_prev.members
    )
    if not usable:
        raise GraphEmpty("pair's A side is disjoint from the previous sumset")

    neighbors = {
        x: [x ^ s for s in targets if s and x ^ s in prev_lookup]
        for x in a_prev.members
    }
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
    component = min(components, key=lambda c: (-len(c), c[0]))
    anchor = component[0]

    side0 = [y for y in pair_i.b_side.members if parity_dot(anchor, y) == 0]
    side1 = [y for y in pair_i.b_side.members if parity_dot(anchor, y) == 1]
    b_keep = side0 if len(side0) >= len(side1) else side1

    if pair_i.constant_bit == 0:
        a_keep = component
        bit = parity_dot(anchor, b_keep[0])
    else:
        class0, class1 = [], []
        for x in component:
            vals = {parity_dot(x, y) for y in b_keep}
            if len(vals) != 1:
                raise InvariantViolation(
                    "component element has non-constant product against B'"
                )
            (class0 if vals.pop() == 0 else class1).append(x)
        a_keep, bit = (class0, 0) if len(class0) >= len(class1) else (class1, 1)

    pair = DualPair(F2Set(a_prev.n, a_keep), F2Set(a_prev.n, b_keep), bit)
    if 2 * len(pair.b_side) < len(pair_i.b_side):
        raise InvariantViolation("pull-back lost more than half of the B side")
    return pair


# -- end-to-end pipeline -------------------------------------------------------------


@dataclass
class PipelineTrace:
    """Everything one pipeline run produced, including partial failures."""

    state: Optional[SequenceState] = None
    bsg: Optional[BsgResult] = None
    pfr: Optional[PfrResult] = None
    small_span: Optional[dict] = None
    level_pairs: dict = field(default_factory=dict)  # level index -> DualPair
    final: Optional[DualPair] = None
    failed_stage: Optional[str] = None
    failure_message: Optional[str] = None
    ratio_a: Optional[Fraction] = None
    ratio_b: Optional[Fraction] = None
    references: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.final is not None


def default_growth_bound(n: int) -> Fraction:
    """K = 2^ceil(4n / log2(n)); 2 for the degenerate one-dimensional case."""
    if n < 2:
        return Fraction(2)
    return Fraction(2) ** math.ceil(4 * n / math.log2(n))


def find_dual_pair(a: F2Set, b: F2Set, growth_bound=None, seed: int = 0) -> PipelineTrace:
    """Run the full pipeline; stage failures land in the trace, not raised.

    Misuse (dimension mismatch, empty sets, K <= 1) still raises.  On
    success the trace carries the final pair plus measured size ratios and
    the per-level reference expressions they can be compared against (with
    the classical statements' unspecified polynomial factor set to one).
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    if len(a) == 0 or len(b) == 0:
        raise EmptySetError("find_dual_pair needs nonempty sets")
    growth = (
        default_growth_bound(a.n) if growth_bound is None else Fraction(growth_bound)
    )
    trace = PipelineTrace()
    try:
        state = run_sequence(a, b, growth)
    except SearchFailure as exc:
        trace.failed_stage = exc.stage
        trace.failure_message = str(exc)
        return trace
    trace.state = state

    try:
        base = base_case_dual(state, seed=seed)
    except SearchFailure as exc:
        trace.failed_stage = exc.stage
        trace.failure_message = str(exc)
        return trace
    trace.bsg = base.bsg
    trace.pfr = base.pfr
    trace.small_span = base.small_span

    t = state.t
    trace.level_pairs[t] = base.pair
    pair = base.pair
    for i in range(t, 1, -1):
        try:
            pair = pull_back(state.level(i - 1).members, pair, state.level(i).members)
        except SearchFailure as exc:
            trace.failed_stage = f"{exc.stage}[{i}->{i - 1}]"
            trace.failure_message = str(exc)
            return trace
        trace.level_pairs[i - 1] = pair

    trace.final = pair
    trace.ratio_a = Fraction(len(pair.a_side), len(a))
    trace.ratio_b = Fraction(len(pair.b_side), len(b))
    trace.references = _claim_references(state)
    return trace


def _claim_references(state: SequenceState) -> dict:
    """Per-level size references with the unspecified poly factor set to 1."""
    n = state.n
    t = state.t
    eps = {rec.index: rec.epsilon for rec in state.levels}
    refs = {"levels": []}
    for i in range(t, 0, -1):
        prod = Fraction(1)
        for l in range(i, t + 1):
            prod *= eps[l + 1]
        m_factor = Fraction(1, (4 * n) ** (t - i)) * prod
        refs["levels"].append(
            {
                "level": i,
                "a_bound": m_factor * len(state.level(i).members),
                "b_bound": Fraction(1, 2 ** (t - i)) * len(state.source_b),
                "m_factor": m_factor,
            }
        )
    refs["eps_top"] = eps[t + 1]
    refs["poly_argument"] = eps[t + 1] / (n * state.growth_bound)
    refs["global_a_shape"] = Fraction(1, (4 * n) ** t) * len(state.source_a)
    return refs


# -- exact oracle and greedy ----------------------------------------------------------


def greedy_dual_pair(a: F2Set, b: F2Set) -> DualPair:
    """Cheap deterministic dual pair: best single-element seed, then grow
    the A side whenever the area does not drop."""
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    if len(a) == 0 or len(b) == 0:
        raise EmptySetError("greedy_dual_pair needs nonempty sets")
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


def exact_dual_oracle(
    a: F2Set, b: F2Set, exact_cap: int = 20, enumerate_side: str = "auto"
) -> DualPair:
    """Maximum-area dual pair by a closure search over the smaller side.

    A maximum-area dual pair is closed: each side holds every element
    compatible with the other side under its constant bit, or it could
    grow.  So the Close-by-One engine (`max_closed_rectangle`) enumerates
    the closed pairs of the enumerated side, cutting a branch only when its
    best possible area is strictly below the incumbent, which starts at the
    greedy pair's area.  The search stays exact: maximum area, ties by the
    enumerated side's canonical member order, then constant bit 0.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    if len(a) == 0 or len(b) == 0:
        raise EmptySetError("exact_dual_oracle needs nonempty sets")
    if enumerate_side == "auto":
        swap = len(b) < len(a)
    elif enumerate_side in ("a", "b"):
        swap = enumerate_side == "b"
    else:
        raise PreconditionViolation(f"bad enumerate_side {enumerate_side!r}")
    xs_set, ys_set = (b, a) if swap else (a, b)
    if len(xs_set) > exact_cap:
        raise CapExceeded(
            f"enumerated side has {len(xs_set)} elements; cap is {exact_cap}"
        )
    xs = xs_set.members
    ys = ys_set.members
    full = (1 << len(ys)) - 1
    masks = [(full ^ m1, m1) for m1 in ip_rows(xs, ys)]

    def key(xmask: int, _ymask: int, bit: int):
        return tuple(x for xi, x in enumerate(xs) if (xmask >> xi) & 1), bit

    xmask, ymask, bit = max_closed_rectangle(
        masks, len(ys), key, floor=greedy_dual_pair(a, b).area()
    )
    x_side = F2Set(a.n, key(xmask, ymask, bit)[0])
    y_side = F2Set(a.n, [y for yi, y in enumerate(ys) if (ymask >> yi) & 1])
    if swap:
        return DualPair(y_side, x_side, bit)
    return DualPair(x_side, y_side, bit)
