"""Constructive search for fully-dual subset pairs over F2^n.

Given A, B with nonzero duality measure, the pipeline builds a short tower
of sumset levels restricted to ever-smaller spectrum thresholds, extracts a
small-span core at the top via dense-subgraph (BSG) and span-shrinking (PFR)
steps, converts the core into a fully-dual pair, and pulls that pair back
down the tower one level at a time.  Every dual pair is verified
exhaustively on construction; every level records the exact inequalities it
was supposed to satisfy.  A dual pair of A, B is a monochromatic rectangle
of the inner-product matrix M[x][y] = <x, y> on A x B, so the exact oracle
and the greedy pair are matrix's two rectangle finders, max_mono_exact and
greedy_rectangle, on that matrix.  The Nisan-Wigderson bridge,
mono_via_dual, turns a biased submatrix of a boolean matrix into a
monochromatic rectangle through a dual pair; protocol.finder_for loads this
module for it only when a protocol names the via-dual strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import compress
from typing import Optional, Sequence

from .adcomb import BsgResult, PfrResult, bsg_extract, pfr_extract
from .errors import FormatError, InvariantViolation, SearchFailure
from .f2 import (
    CharSums,
    F2Set,
    echelon_basis,
    in_spectrum,
    ip_rows,
    is_dual_pair,
    mask_of,
    members,
    neighbourhoods,
    picks,
    rep_counts,
    same_dim,
)
from .matrix import (
    EXACT_CAP,
    BoolMatrix,
    SubmatrixView,
    check_exact_cap,
    dedup,
    factorize_f2,
    find_biased_submatrix,
    greedy_rectangle,
    max_mono_exact,
)


@dataclass(frozen=True)
class DualPair:
    """Subsets with a constant inner-product bit; verified on construction."""

    a_side: F2Set
    b_side: F2Set
    constant_bit: int

    def __post_init__(self):
        same_dim(self.a_side, self.b_side)
        if len(self.a_side) == 0 or len(self.b_side) == 0:
            raise InvariantViolation("dual pair sides must be nonempty")
        if is_dual_pair(self.a_side, self.b_side) != self.constant_bit:
            raise InvariantViolation(f"<x,y> is not {self.constant_bit} on all pairs")

    def area(self) -> int:
        return len(self.a_side) * len(self.b_side)


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
    chars: CharSums = field(compare=False, repr=False)  # of source_b, for base_case_dual

    def level(self, i: int) -> LevelRecord:
        return self.levels[i - 1]


def markov_restrict(a: F2Set, b: F2Set):
    """Halve the duality threshold and keep the high-bias part of A.

    Returns (A1, eps1) with eps1 = D(A,B)/2 and A1 the members of A whose
    bias against B is at least eps1 in magnitude; |A1| >= eps1 |A| always.
    """
    return _markov_restrict(a, CharSums(b))


def _markov_restrict(a: F2Set, chars: CharSums):
    size = len(chars.b)
    if len(a) == 0 or size == 0:
        raise FormatError("markov_restrict needs nonempty sets")
    d = chars.duality(a.members)
    if d == 0:
        raise SearchFailure("markov_restrict", "duality measure is zero; nothing to restrict")
    eps1 = d / 2
    kept = [
        w for w, v in zip(a.members, chars.values(a.members)) if in_spectrum(v, size, eps1)
    ]
    a1 = F2Set(a.n, kept)
    if Fraction(len(a1)) < eps1 * len(a):
        raise InvariantViolation("Markov restriction bound failed")
    return a1, eps1


def _next_level(
    a_prev: F2Set, chars: CharSums, index: int, eps_next: Fraction
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
        raise FormatError("next_set needs a nonempty previous level")
    n = a_prev.n
    size = len(chars.b)
    mass = [0] * n
    buckets: list[list[int]] = [[] for _ in range(n)]
    counts = rep_counts(a_prev)
    # in_spectrum(v, size, eps_next) with its constant factors hoisted
    den, bar = eps_next.denominator, eps_next.numerator * size
    for (x, c), v in zip(counts.items(), chars.values(list(counts))):
        if abs(v) * den < bar:
            continue
        j = min(c.bit_length() - 1, n - 1)
        mass[j] += c
        buckets[j].append(x)
    best_j = max(range(n), key=lambda j: (mass[j], -j))
    if mass[best_j] == 0:
        raise SearchFailure("next_set", f"no pair lands in the {eps_next} spectrum")
    members = F2Set(n, buckets[best_j])
    d_prev = chars.duality(a_prev.members)
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
    level = _next_level(a_prev, CharSums(b), 2, Fraction(eps_next))  # index is a label
    return level.members, level.bucket


def run_sequence(a: F2Set, b: F2Set, growth_bound) -> SequenceState:
    """Build levels until one grows by at most the growth bound K.

    Level 1 is the Markov restriction of A; level i is a bucketed sumset of
    level i-1 at threshold eps_i = eps_(i-1)^2 / 2.  Stops at the first t
    with |A_(t+1)| <= K |A_t|; the pigeonhole bound K^(t-1) < 2^n is
    asserted exactly.
    """
    same_dim(a, b)
    growth_bound = Fraction(growth_bound)
    if growth_bound <= 1:
        raise FormatError("growth bound K must exceed 1")
    n = a.n
    chars = CharSums(b)
    a1, eps1 = _markov_restrict(a, chars)
    d = chars.duality(a.members)
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
        nxt = _next_level(prev, chars, i, eps_i)
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
        chars=chars,
    )


def _larger_side(words: Sequence[int], mask: int) -> tuple[list[int], int]:
    """(words at the set bits of mask, 1) when they are more than half of
    words, else (words at its clear bits, 0); bit k is words[k]."""
    if 2 * mask.bit_count() > len(words):
        return list(compress(words, picks(mask))), 1
    return list(compress(words, picks(((1 << len(words)) - 1) ^ mask))), 0


# -- small-span dual pairs --------------------------------------------------------


def _small_span(a: F2Set, b_chars: CharSums, eps: Fraction):
    """Dual pair when A sits inside the eps-spectrum of B = b_chars.b.

    Partition B by the inner-product pattern against a basis of span(A): all
    elements of one class act identically on span(A), so any class B' plus
    the majority side of A under that action is a dual pair.  The class
    maximizing |B'| * (|A| + |charsum_A|) -- i.e. the area of the resulting
    pair -- is chosen, which guarantees |A'| >= |A|/2 and
    |B'| >= |B| / (2 |span A|) >= (eps/2) |B| / |span A|.
    """
    b = b_chars.b
    same_dim(a, b)
    if len(a) == 0 or len(b) == 0:
        raise FormatError("small_span_dual needs nonempty sets")
    eps = Fraction(eps)
    if eps <= 0:
        raise FormatError("eps must be positive")
    for w, v in zip(a.members, b_chars.values(a.members)):
        if not in_spectrum(v, len(b), eps):
            raise FormatError(
                f"element {w:#x} has bias below {eps}; A not in the spectrum"
            )
    basis = echelon_basis(a.members)
    classes: dict[int, list[int]] = {}
    for y, key in zip(b.members, ip_rows(b.members, basis)):
        classes.setdefault(key, []).append(y)

    span_size = 1 << len(basis)
    # every class acts on A as its first member does
    charsums = CharSums(a).values([ys[0] for ys in classes.values()])

    def score(item):
        ys, charsum = item
        return (-(len(ys) * (len(a) + abs(charsum))), -len(ys), ys[0])

    chosen, _ = min(zip(classes.values(), charsums), key=score)
    kept, bit = _larger_side(a.members, ip_rows([chosen[0]], a.members)[0])
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
    pair, _record = _small_span(a, CharSums(b), Fraction(eps))
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
    small-span construction against B at threshold eps_t.  A stage that
    comes up empty raises SearchFailure with stage "bsg".
    """
    t = state.t
    a_t = state.level(t).members
    a_next = state.level(t + 1).members
    eps_next = state.level(t + 1).epsilon
    eps_t = state.level(t).epsilon
    rho = eps_next / state.n
    bsg = bsg_extract(a_t, a_next, rho, seed=seed)
    pfr = pfr_extract(bsg.subset, sumset=bsg.sumset_size)
    pair, record = _small_span(pfr.subset, state.chars, eps_t)
    return BaseCaseResult(pair=pair, bsg=bsg, pfr=pfr, small_span=record)


# -- pull-back ---------------------------------------------------------------------


def pull_back(a_prev: F2Set, pair_i: DualPair, a_i: F2Set) -> DualPair:
    """Convert a dual pair one level up into one on the previous level.

    Join two previous-level elements when their sum lies in the pair's A
    side (the member-index masks of ``f2.neighbourhoods``); take the largest
    connected component, ties to the one with the smallest member; keep
    the half of the B side agreeing with the component's canonical vertex,
    its smallest member; then keep the whole component (constant bit 0) or
    its larger parity class (constant bit 1).
    """
    if not pair_i.a_side.issubset(a_i):
        raise FormatError("pair's A side must sit inside the level set")
    same_dim(a_prev, a_i)
    # 0 in the A side gives every member a self-loop (x + x = 0), so the
    # rows are all empty only when no pair of A_(i-1) sums into the A side
    rows = neighbourhoods(a_prev, pair_i.a_side)
    if not any(rows):
        raise SearchFailure("pull_back", "pair's A side is disjoint from the previous sumset")
    best, left = 0, (1 << len(rows)) - 1
    while left:
        component = new = left & -left
        while new:
            reach = 0
            for row in compress(rows, picks(new)):
                reach |= row
            new = reach & ~component
            component |= new
        left ^= component
        if component.bit_count() > best.bit_count():
            best = component
    component = list(compress(a_prev.members, picks(best)))

    b_members = pair_i.b_side.members
    b_keep, bit = _larger_side(b_members, ip_rows([component[0]], b_members)[0])
    if pair_i.constant_bit == 0:
        a_keep = component
    else:
        # each member's product against B' is constant iff every y in B'
        # splits the component alike; that split is the parity classes
        splits = set(ip_rows(b_keep, component))
        if len(splits) > 1:
            raise InvariantViolation("component element has non-constant product against B'")
        a_keep, bit = _larger_side(component, splits.pop())

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
    same_dim(a, b)
    if len(a) == 0 or len(b) == 0:
        raise FormatError("find_dual_pair needs nonempty sets")
    growth = (
        default_growth_bound(a.n) if growth_bound is None else Fraction(growth_bound)
    )
    trace = PipelineTrace()
    step = ""  # "[i->i-1]" while pull-back step i runs
    try:
        trace.state = state = run_sequence(a, b, growth)
        base = base_case_dual(state, seed=seed)
        trace.bsg, trace.pfr, trace.small_span = base.bsg, base.pfr, base.small_span
        trace.level_pairs[state.t] = pair = base.pair
        for i in range(state.t, 1, -1):
            step = f"[{i}->{i - 1}]"
            pair = pull_back(state.level(i - 1).members, pair, state.level(i).members)
            trace.level_pairs[i - 1] = pair
    except SearchFailure as exc:
        trace.failed_stage = exc.stage + step
        trace.failure_message = str(exc)
        return trace

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


def _check_sets(a: F2Set, b: F2Set, caller: str) -> None:
    same_dim(a, b)
    if len(a) == 0 or len(b) == 0:
        raise FormatError(f"{caller} needs nonempty sets")


def _dual_pair(finder, a: F2Set, b: F2Set) -> DualPair:
    """finder's rectangle of the inner-product matrix M[i][j] = <a_i, b_j>
    on A x B, read as a dual pair: a monochromatic rectangle of M is a dual
    pair of (A, B), and its value is the constant bit."""
    ip = BoolMatrix(len(a), len(b), ip_rows(a.members, b.members))
    view = finder(ip, *ip.whole())
    return DualPair(
        F2Set(a.n, compress(a.members, picks(view.rows))),
        F2Set(b.n, compress(b.members, picks(view.cols))),
        view.value(),
    )


def greedy_dual_pair(a: F2Set, b: F2Set) -> DualPair:
    """Cheap deterministic dual pair: greedy_rectangle on the inner-product
    matrix of A x B."""
    _check_sets(a, b, "greedy_dual_pair")
    return _dual_pair(greedy_rectangle, a, b)


def exact_dual_oracle(a: F2Set, b: F2Set, exact_cap: int = EXACT_CAP) -> DualPair:
    """Maximum-area dual pair: max_mono_exact on the inner-product matrix of
    A x B, enumerating the smaller set (at most exact_cap elements).

    Ties go to the smallest A indices, then B indices, then constant bit 0.
    The cap is checked before the |A| x |B| matrix is built.
    """
    _check_sets(a, b, "exact_dual_oracle")
    check_exact_cap(len(a), len(b), exact_cap)
    return _dual_pair(partial(max_mono_exact, exact_cap=exact_cap), a, b)


# -- the Nisan-Wigderson bridge ------------------------------------------------------


def mono_via_dual(
    m: BoolMatrix, rows: int, cols: int, exact_cap: int = EXACT_CAP, seed: int = 0
) -> SubmatrixView:
    """Monochromatic rectangle in the block rows x cols of m through the
    Nisan-Wigderson bridge.

    The block is gathered with take and deduplicated.  A biased submatrix
    of that dedup, searched under the block's rank (m.block_rank, the memo
    entry a protocol node reads for its own rank), factors as inner products
    of F2 words (factorize_f2; its rows and columns may repeat, and equal
    ones get equal words), and a dual pair of its two factor sets is a
    monochromatic rectangle.  The pair comes from the pipeline
    (find_dual_pair); when a pipeline stage comes up empty, from the exact
    oracle if the smaller set has at most exact_cap elements, else from
    greedy_dual_pair.  When no submatrix meets the biased-stage bounds, the
    rectangle is greedy_rectangle(m, rows, cols).  Every rectangle source is
    chosen here.  The result is a view of m inside the block, duplicates
    included, and is verified monochromatic.
    """
    core, row_map, col_map = dedup(m.take(rows, cols))
    try:
        biased = find_biased_submatrix(core, m.block_rank(rows, cols), exact_cap)
    except SearchFailure:
        return greedy_rectangle(m, rows, cols)
    fact = factorize_f2(biased.materialize())
    a, b = fact.a_set, fact.b_set
    trace = find_dual_pair(a, b, seed=seed)
    if trace.ok:
        pair = trace.final
    elif min(len(a), len(b)) <= exact_cap:
        pair = exact_dual_oracle(a, b, exact_cap=exact_cap)
    else:
        pair = greedy_dual_pair(a, b)
    kept_rows = mask_of(i for i, w in zip(members(biased.rows), fact.row_words) if w in pair.a_side)
    kept_cols = mask_of(j for j, w in zip(members(biased.cols), fact.col_words) if w in pair.b_side)
    view = SubmatrixView(
        m,
        mask_of(i for i, k in zip(members(rows), row_map) if kept_rows >> k & 1),
        mask_of(j for j, k in zip(members(cols), col_map) if kept_cols >> k & 1),
    )
    if not view.is_monochromatic():
        raise InvariantViolation("dual-pair rectangle is not monochromatic")
    return view
