import random
from fractions import Fraction
from itertools import combinations

import pytest

import _reference_oracles as ref
from dualbench import adcomb, f2
from dualbench.adcomb import BSG_PIVOTS, bsg_extract, doubling_report, pfr_extract
from dualbench.errors import FormatError, SearchFailure
from dualbench.f2 import F2Set, span, sumset


def subspace(n, *generators):
    return span(F2Set(n, generators))


def random_set(rng, n, max_size):
    size = rng.randint(1, max_size)
    return F2Set(n, (rng.randrange(1 << n) for _ in range(size)))


# -- bsg_extract --------------------------------------------------------------


def test_bsg_subspace_identity():
    v = subspace(4, 0b0011, 0b1100)
    res = bsg_extract(v, v, 1)
    assert res.subset == v
    assert res.doubling_out == 1
    assert res.ratio_in == 1


def test_bsg_independent_set():
    a = F2Set(8, [1 << i for i in range(8)])
    s = sumset(a, a)
    res = bsg_extract(a, s, 1)
    assert res.subset == a
    # measured: |A+A| = C(8,2) + 1 distinct sums
    assert res.doubling_out == Fraction(29, 8)


def test_bsg_prunes_outliers():
    v = subspace(4, 0b0001, 0b0010)  # {0,1,2,3}
    a = F2Set(4, list(v.members) + [4, 8, 12])
    res = bsg_extract(a, v, Fraction(1, 4), seed=3)
    assert res.subset.issubset(a)
    assert res.subset.issubset(v)
    assert res.doubling_out <= Fraction(len(v), len(a))


def test_bsg_density_precondition():
    a = F2Set(3, [1, 2, 4])
    s = F2Set(3, [7])  # unreachable sums
    with pytest.raises(SearchFailure, match="^pair density 0 < required 1/2$") as info:
        bsg_extract(a, s, Fraction(1, 2))
    assert (info.value.stage, info.value.exhaustive) == ("bsg", False)


def test_bsg_rejects_a_non_positive_density():
    # a bad argument (exit 1), not a search that found nothing (exit 2)
    for extract in (bsg_extract, ref.bsg_extract_s_side):
        for rho in (0, Fraction(-1, 2)):
            with pytest.raises(FormatError, match="^required density must be positive$"):
                extract(F2Set(3, [1, 2]), F2Set(3, [3]), rho)


def test_bsg_reads_its_density_off_the_graph(monkeypatch):
    # the pair density is the neighbourhood masks' popcounts over |A|^2,
    # exactly sum_{w in S} rep_A(w): no pair-sum count is made, on either
    # side of neighbourhoods' dense rule
    def refuse(*args):
        raise AssertionError("bsg_extract counted pair sums")

    for module in (f2, adcomb):
        monkeypatch.setattr(module, "rep_counts", refuse, raising=False)
        monkeypatch.setattr(module, "rep_table", refuse, raising=False)
    rng = random.Random("bsg-density")
    paths = set()
    for n, size in ((6, 30), (12, 40), (14, 400)):
        a = F2Set(n, rng.sample(range(1 << n), size))
        sums = sumset(a, a).members
        s = F2Set(n, rng.sample(sums, len(sums) // 3))
        paths.add(f2.dense_pays(n, f2.NEIGHBOURHOOD_COST * min(len(a), len(s))))
        hits = sum(1 for x in a for y in a if x ^ y in s)
        density = Fraction(hits, size * size)
        assert bsg_extract(a, s, density).subset.issubset(a)
        above = density + Fraction(1, size * size)
        with pytest.raises(SearchFailure, match=f"^pair density {density} < required {above}$"):
            bsg_extract(a, s, above)
    assert paths == {True, False}


def test_bsg_doubling_matches_recomputation():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 6)
        a = random_set(rng, n, 12)
        s = sumset(a, a)
        res = bsg_extract(a, s, 1, seed=rng.randrange(100))
        assert res.subset.issubset(a)
        recomputed = Fraction(
            len(sumset(res.subset, res.subset)), len(a)
        )
        assert res.doubling_out == recomputed


def test_bsg_seed_determinism():
    rng = random.Random(42)
    a = random_set(rng, 5, 14)
    s = sumset(a, a)
    r1 = bsg_extract(a, s, 1, seed=9)
    r2 = bsg_extract(a, s, 1, seed=9)
    assert r1.subset == r2.subset and r1.doubling_out == r2.doubling_out


def test_bsg_matches_s_side_reference():
    # the member-index mask graph gives the S-side walk's result, tie-breaks
    # included, on both sides of |A| < |S| and on the graph's edge cases
    rng = random.Random(43)
    cases = []
    for _ in range(40):
        n = rng.randint(3, 8)
        a = random_set(rng, n, 40)
        sums = sumset(a, a).members
        cases.append((a, F2Set(n, rng.sample(sums, rng.randint(1, len(sums))))))
    cube = subspace(10, 1, 2, 4, 8, 16, 32)
    noisy = F2Set(10, cube.members + tuple(rng.sample(range(64, 1024), 20)))
    cases.append((noisy, cube))  # |A| = 84 > |S| = 64
    wide = random_set(rng, 10, 200)
    cases.append((wide, sumset(wide, wide)))
    # S holds 0: every member is its own neighbour
    for _ in range(5):
        a = random_set(rng, 8, 60)
        picks = rng.sample(sumset(a, a).members, min(20, len(sumset(a, a))))
        cases.append((a, F2Set(8, [0] + picks)))
    # |A| <= BSG_PIVOTS: every member is a pivot, with and without 0 in S
    for size in (1, 2, 5, BSG_PIVOTS):
        a = F2Set(7, rng.sample(range(1 << 7), size))
        sums = sumset(a, a)
        cases.append((a, sums))
        if len(sums) > 1:
            cases.append((a, F2Set(7, sums.members[1:])))
    # pivots sharing a base: with S = V, every member of a coset of V has
    # that coset as its neighbourhood, and 12 of 24 pivots meet 3 cosets
    v = subspace(6, 1, 2, 4)
    cosets = F2Set(6, [x ^ shift for x in v.members for shift in (0, 8, 16)])
    assert len(cosets) > BSG_PIVOTS
    cases += [(cosets, v)] * 3
    # S = {w} with 0 not in it: a base {x + w} has no edge inside, so each
    # threshold prunes it to empty
    for _ in range(3):
        a = F2Set(6, rng.sample(range(1, 64), 20))
        cases.append((a, F2Set(6, [a.members[0] ^ a.members[1]])))
    # 2^n > NEIGHBOURHOOD_COST * min(|A|, |S|): the masks come from the direct
    # pass over A, or the walk over S
    for size_s in (30, 150):
        a = F2Set(12, rng.sample(range(1 << 12), 60))
        cases.append((a, F2Set(12, rng.sample(sumset(a, a).members, size_s))))
    sides, paths = set(), set()
    for a, s in cases:
        sides.add(len(a) < len(s))
        paths.add(f2.dense_pays(a.n, f2.NEIGHBOURHOOD_COST * min(len(a), len(s))))
        hits = sum(1 for x in a for y in a if x ^ y in s)
        rho = Fraction(hits, len(a) ** 2)
        seed = rng.randrange(100)
        try:
            expected = ref.bsg_extract_s_side(a, s, rho, seed=seed)
        except SearchFailure as exc:
            assert (exc.stage, str(exc)) == ("bsg", "no candidate met the size floor")
            with pytest.raises(SearchFailure, match="^no candidate met the size floor$") as info:
                bsg_extract(a, s, rho, seed=seed)
            assert info.value.stage == "bsg"
            continue
        assert bsg_extract(a, s, rho, seed=seed) == expected
    assert sides == paths == {True, False}


def test_bsg_pivot_count_is_pinned():
    # BSG_PIVOTS = 12 neighbourhoods sampled at seed 4 keep {12, 14}; 11 or
    # 13 pivots sample other neighbourhoods and keep another subset
    a = F2Set(6, [3, 10, 12, 14, 15, 20, 30, 35, 37, 38, 40, 46, 52, 53, 54, 55, 58, 62, 63])
    s = F2Set(6, [1, 3, 4, 6, 8, 13, 21, 24, 25, 28, 29, 35, 36, 40, 45, 50, 55, 61])
    res = bsg_extract(a, s, Fraction(96, 361), seed=4)
    assert res.subset == F2Set(6, [12, 14])
    assert res.doubling_out == Fraction(2, 19)


# -- pfr_extract --------------------------------------------------------------


def pfr_bruteforce_max(a):
    """Independent oracle: largest subset with span size within |a|."""
    best = 0
    members = a.members
    for size in range(len(members), 0, -1):
        for combo in combinations(members, size):
            if len(span(F2Set(a.n, combo))) <= len(a):
                return size
    return best


def test_pfr_subspace():
    v = subspace(4, 0b0011, 0b1100)
    res = pfr_extract(v)
    assert res.subset == v
    assert res.span_size == len(v)


def test_pfr_independent_vectors():
    a = F2Set(8, [1 << i for i in range(8)])
    res = pfr_extract(a, strategy="exact")
    assert len(res.subset) == 3  # any 3 independent vectors span 8 <= 8
    assert res.subset.members == (1, 2, 4)  # lexicographically smallest witness
    assert res.span_size == 8


def test_pfr_subspace_plus_point():
    v = subspace(3, 0b001, 0b010)
    a = F2Set(3, list(v.members) + [0b100])
    res = pfr_extract(a, strategy="exact")
    assert res.subset == v


def test_pfr_exact_dominates_greedy():
    rng = random.Random(43)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 6)
        a = random_set(rng, n, 14)
        if len(a) == 1:
            continue  # singleton inputs waive the span check (see waiver test)
        checked += 1
        exact = pfr_extract(a, strategy="exact")
        greedy = pfr_extract(a, strategy="greedy")
        assert len(exact.subset) >= len(greedy.subset)
        assert exact.span_size <= len(a) and greedy.span_size <= len(a)
        assert len(exact.subset) == pfr_bruteforce_max(a)


def coset_loop_greedy(a):
    """pfr_extract's greedy strategy written with the span as a set of words:
    each candidate's cover |A & (x + span)| is counted on its own."""
    members = a.members
    chosen, span_set = set(), {0}
    while True:
        for word in members:
            if word in span_set:
                chosen.add(word)
        if 2 * len(span_set) > len(a):
            break
        best_pick, best_cover = None, -1
        for word in members:
            if word in chosen or word in span_set:
                continue
            coset_cover = sum(1 for w in members if w ^ word in span_set)
            if coset_cover > best_cover:
                best_cover, best_pick = coset_cover, word
        if best_pick is None:
            break
        chosen.add(best_pick)
        span_set |= {s ^ best_pick for s in span_set}
    return F2Set(a.n, chosen)


def test_pfr_greedy_matches_coset_loop():
    # the covers count coset reps modulo the span's echelon basis; the cases
    # run from n = 4 to 21 and include the pipeline's regime (n = 14, |A| ~ 600)
    rng = random.Random("pfr-greedy")
    cases = []
    for n in range(4, 11):
        for size in (n, 2 * n, 1 << (n - 2), 1 << (n - 1)):
            cases.append(F2Set(n, rng.sample(range(1 << n), max(2, size))))
        noisy = list(subspace(n, *(rng.randrange(1 << n) for _ in range(n // 2))).members)
        cases.append(F2Set(n, noisy + [rng.randrange(1 << n) for _ in range(3)]))
    for _ in range(3):
        noisy = list(subspace(21, *(rng.randrange(1 << 21) for _ in range(5))).members)
        cases.append(F2Set(21, noisy + [rng.randrange(1 << 21) for _ in range(7)]))
    cases.append(F2Set(14, rng.sample(range(1 << 14), 600)))
    for a in cases:
        res = pfr_extract(a, strategy="greedy")
        assert res.subset == coset_loop_greedy(a), a
        assert res.span_size == len(span(res.subset)) <= len(a)


def test_pfr_singleton_waiver():
    res = pfr_extract(F2Set(4, [0b1010]))
    assert res.size_check_waived and res.span_size == 2
    res = pfr_extract(F2Set(4, [0]))
    assert res.size_check_waived and res.span_size == 1


def test_pfr_empty():
    with pytest.raises(FormatError, match="^pfr_extract needs a nonempty set$"):
        pfr_extract(F2Set(3, []))


# -- doubling_report ------------------------------------------------------------


def test_doubling_subspace():
    v = subspace(5, 0b00011, 0b01100)
    rep = doubling_report(v)
    assert rep.doubling == 1
    assert rep.span_ratio == 1
    assert rep.within_freiman and rep.within_green_tao


def test_doubling_independent_vectors():
    for t in (4, 6, 8):
        a = F2Set(10, [1 << i for i in range(t)])
        rep = doubling_report(a)
        assert rep.doubling == Fraction(t * t - t + 2, 2 * t)
        assert rep.span_ratio == Fraction(1 << t, t)
        assert rep.within_freiman and rep.within_green_tao


def test_doubling_random_reports_all_fields():
    rng = random.Random(44)
    a = F2Set(10, [rng.randrange(1 << 10) for _ in range(32)])
    rep = doubling_report(a)
    assert rep.doubling >= 1
    assert rep.span_ratio >= 1
    assert rep.within_freiman and rep.within_green_tao
    assert isinstance(rep.within_sanders, bool)


def test_doubling_one_iff_affine_subspace_exhaustive():
    # K = 1 <=> A is an affine subspace; for sets containing 0 that
    # degenerates to A+A = A, i.e. a linear subspace.
    n = 3
    for mask in range(1, 1 << (1 << n)):
        members = [w for w in range(1 << n) if (mask >> w) & 1]
        a = F2Set(n, members)
        k_one = doubling_report(a).doubling == 1
        shift = members[0]
        translated = F2Set(n, (w ^ shift for w in members))
        is_affine = sumset(translated, translated) == translated
        assert k_one == is_affine
        if 0 in a:
            assert k_one == (sumset(a, a) == a)
            if k_one:
                assert span(a) == a


def test_doubling_one_iff_affine_subspace_sampled_n4():
    rng = random.Random(45)
    for _ in range(400):
        a = random_set(rng, 4, 16)
        k_one = doubling_report(a).doubling == 1
        shift = a.members[0]
        translated = F2Set(4, (w ^ shift for w in a.members))
        assert k_one == (sumset(translated, translated) == translated)
