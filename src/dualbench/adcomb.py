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
  certificate (the span size), and the exact strategy is a branch-and-bound
  ground truth.
* ``doubling_report`` -- measured doubling constant against the classical
  reference bounds (Freiman-Ruzsa, Green-Tao, Sanders), diagnostics only.

Every pair-sum count here comes from ``f2.rep_counts``, which alone decides
between a dense 2^n transform table and direct sums.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DensityTooLow,
    EmptyResult,
    EmptySetError,
    InvariantViolation,
    PreconditionViolation,
)
# wht is unused here; it stays bound because perfbench/selfcheck.py asserts adcomb.wht is f2.wht
from .f2 import F2Set, echelon_basis, rep_counts, span, wht

BSG_PIVOTS = 12  # neighbourhoods sampled as BSG candidates
PFR_EXACT_CAP = 20  # pfr_extract's "auto" searches exactly up to this many elements


@dataclass(frozen=True)
class BsgResult:
    subset: F2Set
    ratio_in: Fraction  # |A'| / |A|
    doubling_out: Fraction  # |A' + A'| / |A|
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


def _pair_density(a: F2Set, s: F2Set) -> Fraction:
    """Exact fraction of ordered pairs of a summing into s."""
    counts = rep_counts(a)
    hits = sum(counts.get(w, 0) for w in s.members)
    return Fraction(hits, len(a) * len(a))


def _prune_by_codegree(neighbors, start: tuple, codegree: dict, threshold: Fraction) -> tuple:
    """Iteratively drop members whose codegree inside the set is below
    threshold * |set|; stops at a fixed point.

    ``codegree`` maps each member to its neighbor count inside ``start`` and
    is maintained incrementally as members fall out (integer arithmetic
    only, one intersection pass amortized across thresholds by the caller).
    """
    current = set(start)
    codeg = dict(codegree)
    num, den = threshold.numerator, threshold.denominator
    while current:
        bar = num * len(current)
        bad = [x for x in current if codeg[x] * den < bar]
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


def bsg_extract(a: F2Set, s: F2Set, rho, seed: int = 0) -> BsgResult:
    """Extract a subset of ``a`` with small measured doubling.

    Requires (and exactly verifies) that at least a ``rho`` fraction of
    ordered pairs of ``a`` sum into ``s``.  Strategy: on the graph joining x
    and y when x + y is in s, sample pivot vertices, take neighborhoods,
    prune low-codegree members at a few thresholds, and keep the candidate
    with the smallest measured doubling (ties: larger subset, then canonical
    order).  The whole input set is always a candidate, so the result is
    never worse than not extracting at all.
    """
    rho = Fraction(rho)
    if len(a) == 0 or len(s) == 0:
        raise EmptySetError("bsg_extract needs nonempty sets")
    if rho <= 0:
        raise DensityTooLow("required density must be positive")
    density = _pair_density(a, s)
    if density < rho:
        raise DensityTooLow(f"pair density {density} < required {rho}")

    members = a.members
    member_set = a._lookup
    memo: dict[int, frozenset] = {}

    def neighbors(x: int) -> frozenset:
        got = memo.get(x)
        if got is None:
            got = frozenset(x ^ w for w in s.members if x ^ w in member_set)
            memo[x] = got
        return got

    rng = random.Random(seed)
    pivot_pool = list(members)
    picked = (
        pivot_pool
        if len(pivot_pool) <= BSG_PIVOTS
        else sorted(rng.sample(pivot_pool, BSG_PIVOTS))
    )

    candidates = {members}
    seen_bases = set()
    for pivot in picked:
        base = tuple(sorted(neighbors(pivot)))
        if not base or base in seen_bases:
            continue
        seen_bases.add(base)
        candidates.add(base)
        base_set = set(base)
        codegree = {x: len(neighbors(x) & base_set) for x in base}
        for threshold in (Fraction(1, 4), Fraction(1, 2)):
            pruned = _prune_by_codegree(neighbors, base, codegree, threshold)
            if pruned:
                candidates.add(pruned)

    floor = Fraction(len(a)) * rho * rho / 8
    sized = [c for c in candidates if Fraction(len(c)) >= floor]
    if not sized:
        raise EmptyResult("no candidate met the size floor")

    def sumset_size(words) -> int:
        return len(rep_counts(F2Set(a.n, words)))

    # score by doubling relative to the candidate itself, preferring larger
    # candidates on ties; scoring against |a| instead collapses to singletons
    best = min(sized, key=lambda c: (Fraction(sumset_size(c), len(c)), -len(c), c))
    subset = F2Set(a.n, best)
    return BsgResult(
        subset=subset,
        ratio_in=Fraction(len(subset), len(a)),
        doubling_out=Fraction(sumset_size(best), len(a)),
        density_bound=rho,
        size_bound=Fraction(len(s), len(a)),
    )


def pfr_extract(a: F2Set, strategy: str = "auto") -> PfrResult:
    """Largest-possible subset of ``a`` whose span size stays within |a|.

    exact: branch-and-bound over subsets in canonical order, pruning on both
    remaining-size and span growth; returns a true maximum with the
    lexicographically smallest witness.  greedy: while the doubled span
    stays within |a|, add the element outside the span whose coset x + span
    covers the most of ``a`` (smallest word on ties), then absorb every
    member the span now holds; each round's covers are the pair-sum counts
    ``rep_counts(a, span)``.
    """
    if len(a) == 0:
        raise EmptySetError("pfr_extract needs a nonempty set")
    if strategy == "auto":
        strategy = "exact" if len(a) <= PFR_EXACT_CAP else "greedy"
    if strategy not in ("exact", "greedy"):
        raise PreconditionViolation(f"unknown strategy {strategy!r}")

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
        best: list[int] = []

        def explore(idx: int, chosen: list[int], basis: list[int], size: int):
            nonlocal best
            if len(chosen) + (len(members) - idx) <= len(best):
                return
            if idx == len(members):
                return
            word = members[idx]
            new_basis = echelon_basis(basis + [word])
            grown = size << (len(new_basis) - len(basis))
            if grown <= budget:
                chosen.append(word)
                if len(chosen) > len(best):
                    best = list(chosen)
                explore(idx + 1, chosen, new_basis, grown)
                chosen.pop()
            explore(idx + 1, chosen, basis, size)

        explore(0, [], [], 1)
        subset = F2Set(a.n, best)
    else:
        # adding an in-span element never changes the span or any candidate's
        # cover, so absorbing all of them between span-growing picks yields
        # the same subset as the one-at-a-time greedy.  The span doubles on
        # every pick, and the pick maximises the coset cover |A & (x + span)|,
        # which counts the pairs of A x span summing to x: one rep_counts
        # call scores every candidate.  While 2 |span| <= |A|, some member
        # lies outside the span, so there is always a candidate.
        span_set = {0}
        while 2 * len(span_set) <= budget:
            covers = rep_counts(a, F2Set(a.n, span_set))
            pick = max((w for w in members if w not in span_set), key=covers.__getitem__)
            span_set |= {s ^ pick for s in span_set}
        subset = F2Set(a.n, (w for w in members if w in span_set))

    span_size = len(span(subset))
    if span_size > budget:
        raise InvariantViolation("span certificate violated")
    return PfrResult(
        subset=subset,
        span_size=span_size,
        ratio=Fraction(len(subset), len(a)),
        strategy=strategy,
        size_check_waived=False,
        input_doubling=Fraction(len(rep_counts(a)), len(a)),
    )


def doubling_report(a: F2Set) -> DoublingReport:
    """Measured doubling constant and span ratio against reference bounds.

    Bounds are evaluated in log2 space as floats (they grow like 2^(K^4));
    the measured quantities stay exact rationals.  The Sanders line bounds
    the span of an extracted subset, not of ``a`` itself, so its flag can
    legitimately be False; it is reported for orientation only.
    """
    if len(a) == 0:
        raise EmptySetError("doubling_report needs a nonempty set")
    k = Fraction(len(rep_counts(a)), len(a))
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
