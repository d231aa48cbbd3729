"""Additive-combinatorics extraction steps with verified outputs.

Two extractors and one diagnostic:

* ``bsg_extract`` -- Balog-Szemeredi-Gowers-style search: given that many
  pairs of A sum into a small set S, find a large subset of A with small
  measured doubling.  The classical theorem promises unspecified polynomial
  bounds; here every candidate's doubling is measured exactly and reported,
  never assumed.
* ``pfr_extract`` -- polynomial-Freiman-Ruzsa-style search for a subset
  whose span is no bigger than the input set.  Marton's (PFR) conjecture
  over F2^n is a theorem (Gowers-Green-Manners-Tao, arXiv:2311.05762: a set
  with |A + A| <= K|A| is covered by 2K^12 cosets of a subspace of size at
  most |A|), but its bound is not assumed here: outputs carry a verifiable
  certificate (the span size), and the exact strategy, a scan over the
  closed sets A & span(X), is the ground truth.
* ``doubling_report`` -- measured doubling constant against the classical
  reference bounds (Freiman-Ruzsa, Green-Tao, Sanders), diagnostics only.

``bsg_extract`` keeps its graph as member-index masks from
``f2.neighbourhoods``: member i's neighbourhood A & (x_i + S) is an |A|-bit
int with bit j set iff x_i + x_j is in S, so codegrees are popcounts of
mask intersections, and the pair density is the masks' popcounts over
|A|^2; no pair sum is counted.

Every sumset size here comes from ``f2.sumset_size``, which ORs 2^n-bit
translates of the set where that pays and needs no transform; f2 alone
decides between dense 2^n words or tables and direct sums.
``pfr_extract``'s greedy covers are coset sizes, not pair sums: it keeps the
span as its reduced echelon basis and counts the members' ``f2.coset_rep``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress

from .errors import FormatError, InvariantViolation, SearchFailure
# wht is unused here; it stays bound because perfbench/selfcheck.py asserts adcomb.wht is f2.wht
from .f2 import (
    F2Set,
    coset_rep,
    echelon_basis,
    mask_of,
    members,
    neighbourhoods,
    picks,
    span,
    sumset_size,
    wht,
)

BSG_PIVOTS = 12  # neighbourhoods sampled as BSG candidates
PFR_EXACT_CAP = 20  # pfr_extract's "auto" searches exactly up to this many elements


@dataclass(frozen=True)
class BsgResult:
    subset: F2Set
    ratio_in: Fraction  # |A'| / |A|
    doubling_out: Fraction  # |A' + A'| / |A|
    sumset_size: int  # |A' + A'|
    density_bound: Fraction  # the rho the caller required
    size_bound: Fraction  # |S| / |A|, the C of the invocation


@dataclass(frozen=True)
class PfrResult:
    subset: F2Set
    span_size: int
    ratio: Fraction  # |A'| / |A|
    strategy: str  # "exact" | "greedy"
    size_check_waived: bool  # True only for |A| = 1 inputs
    input_doubling: Fraction  # K of the input, for conjectural K^-r comparisons


@dataclass(frozen=True)
class DoublingReport:
    doubling: Fraction  # K = |A+A| / |A|
    span_ratio: Fraction  # |span A| / |A|
    log2_span_ratio: float
    freiman_log2_bound: float  # log2 of K^2 * 2^(K^4)
    green_tao_log2_bound: float  # log2 of 2^(2K)
    sanders_log2_bound: float  # log2 of K^(log2(K)^3)
    within_freiman: bool
    within_green_tao: bool
    within_sanders: bool


def bsg_extract(a: F2Set, s: F2Set, rho, seed: int = 0) -> BsgResult:
    """Extract a subset of ``a`` with small measured doubling.

    Requires (and exactly verifies) that at least a ``rho`` fraction of
    ordered pairs of ``a`` sum into ``s``.  Strategy: on the graph joining x
    and y when x + y is in s, sample pivot vertices, take neighborhoods,
    prune low-codegree members at a few thresholds, and keep the candidate
    with the smallest measured doubling (ties: larger subset, then canonical
    order).  The whole input set is always a candidate, so the result is
    never worse than not extracting at all.

    Neighbourhoods, pruned sets and candidates are masks over member
    index, the whole set being all ones; each candidate that meets the
    size floor is read back as an F2Set once.
    """
    rho = Fraction(rho)
    if len(a) == 0 or len(s) == 0:
        raise FormatError("bsg_extract needs nonempty sets")
    if rho <= 0:
        raise FormatError("required density must be positive")
    rows = neighbourhoods(a, s)
    # bit j of rows[i] is set iff x_i + x_j is in S, so the popcounts add
    # up to the ordered pairs of A that sum into S
    density = Fraction(sum(map(int.bit_count, rows)), len(a) * len(a))
    if density < rho:
        raise SearchFailure("bsg", f"pair density {density} < required {rho}")

    size = len(rows)
    rng = random.Random(seed)
    picked = range(size) if size <= BSG_PIVOTS else sorted(rng.sample(range(size), BSG_PIVOTS))

    candidates = {(1 << size) - 1}  # the whole set; an empty mask falls below the floor
    for base in dict.fromkeys(rows[pivot] for pivot in picked):
        candidates.add(base)
        for den in (4, 2):
            # drop every member whose codegree in the current set is below
            # 1/den of its size, until none is
            kept, held = 0, base
            while held != kept:
                kept, bar = held, held.bit_count()
                held = mask_of(
                    i for i in members(kept) if (rows[i] & kept).bit_count() * den >= bar
                )
            candidates.add(kept)

    floor = Fraction(len(a)) * rho * rho / 8
    sized = [
        F2Set(a.n, compress(a.members, picks(c))) for c in candidates if c.bit_count() >= floor
    ]
    if not sized:
        raise SearchFailure("bsg", "no candidate met the size floor")

    # score by doubling relative to the candidate itself, preferring larger
    # candidates on ties; scoring against |a| instead collapses to singletons
    sizes = {c: sumset_size(c) for c in sized}
    subset = min(sized, key=lambda c: (Fraction(sizes[c], len(c)), -len(c), c.members))
    return BsgResult(
        subset=subset,
        ratio_in=Fraction(len(subset), len(a)),
        doubling_out=Fraction(sizes[subset], len(a)),
        sumset_size=sizes[subset],
        density_bound=rho,
        size_bound=Fraction(len(s), len(a)),
    )


def pfr_extract(a: F2Set, strategy: str = "auto", sumset: int | None = None) -> PfrResult:
    """Largest-possible subset of ``a`` whose span size stays within |a|.

    exact: a maximum is closed, A & span(X) for some X of at most
    floor(log2 |A|) members, so one scan over those X returns a true
    maximum with the lexicographically smallest witness.  greedy: while the
    doubled span stays within |a|, add the element outside the span whose
    coset x + span covers the most of ``a`` (smallest word on ties), then
    absorb every member the span now holds; each round reduces every member
    to its coset rep modulo the span's reduced echelon basis, and a coset's
    cover is the number of members sharing its rep.  sumset is |a + a| when
    the caller has measured it (bsg_extract has, for its subset); else
    input_doubling measures it here.
    """
    if len(a) == 0:
        raise FormatError("pfr_extract needs a nonempty set")
    if strategy == "auto":
        strategy = "exact" if len(a) <= PFR_EXACT_CAP else "greedy"
    if strategy not in ("exact", "greedy"):
        raise FormatError(f"unknown strategy {strategy!r}")

    if len(a) == 1:
        word = a.members[0]
        return PfrResult(
            subset=a,
            span_size=1 if word == 0 else 2,
            ratio=Fraction(1),
            strategy=strategy,
            size_check_waived=True,
            input_doubling=Fraction(1),
        )

    budget = len(a)
    members = a.members

    if strategy == "exact":
        # A maximum subset S is closed: A & span(S) has S's span and holds S.
        # span(S) is spanned by at most floor(log2 |A|) members of S, so the
        # sets A & span(X) over those small X of members meet every maximum,
        # and each one is feasible.  The least (-size, members) among them is
        # the lexicographically smallest maximum.
        best = (0, ())
        for k in range(1, budget.bit_length()):
            for xs in combinations(members, k):
                words = [0]
                for x in xs:
                    words += [w ^ x for w in words]
                closed = tuple(sorted(a._lookup.intersection(words)))
                best = min(best, (-len(closed), closed))
        subset = F2Set(a.n, best[1])
    else:
        # adding an in-span element never changes the span or any candidate's
        # cover, so absorbing all of them between span-growing picks yields
        # the same subset as the one-at-a-time greedy.  The span doubles on
        # every pick, and the pick maximises the coset cover |A & (x + span)|.
        # Members share a coset iff they share a coset_rep, so one count of
        # the reps scores every candidate.  While 2 |span| <= |A|, some member
        # lies outside the span, so there is always a candidate.
        basis: list[int] = []
        while 2 << len(basis) <= budget:
            reps = {w: coset_rep(w, basis) for w in members}
            covers = Counter(reps.values())
            pick = max((w for w, r in reps.items() if r), key=lambda w: covers[reps[w]])
            basis = echelon_basis(basis + [pick])
        subset = F2Set(a.n, (w for w in members if not coset_rep(w, basis)))

    span_size = len(span(subset))
    if span_size > budget:
        raise InvariantViolation("span certificate violated")
    return PfrResult(
        subset=subset,
        span_size=span_size,
        ratio=Fraction(len(subset), len(a)),
        strategy=strategy,
        size_check_waived=False,
        input_doubling=Fraction(sumset_size(a) if sumset is None else sumset, len(a)),
    )


def doubling_report(a: F2Set) -> DoublingReport:
    """Measured doubling constant and span ratio against reference bounds.

    Bounds are evaluated in log2 space as floats (they grow like 2^(K^4));
    the measured quantities stay exact rationals.  The Sanders line bounds
    the span of an extracted subset, not of ``a`` itself, so its flag can
    legitimately be False; it is reported for orientation only.
    """
    if len(a) == 0:
        raise FormatError("doubling_report needs a nonempty set")
    k = Fraction(sumset_size(a), len(a))
    span_ratio = Fraction(len(span(a)), len(a))
    kf = float(k)  # K >= 1 always: a -> a + a0 injects A into A + A
    log2_span = math.log2(float(span_ratio))
    freiman = 2 * math.log2(kf) + kf**4
    green_tao = 2 * kf
    sanders = math.log2(kf) ** 4
    return DoublingReport(
        doubling=k,
        span_ratio=span_ratio,
        log2_span_ratio=log2_span,
        freiman_log2_bound=freiman,
        green_tao_log2_bound=green_tao,
        sanders_log2_bound=sanders,
        within_freiman=log2_span <= freiman,
        within_green_tao=log2_span <= green_tao,
        within_sanders=log2_span <= sanders,
    )
