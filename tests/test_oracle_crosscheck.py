"""Seeded cross-checks of the exact oracles against the reference searches.

`exact_dual_oracle` is `max_mono_exact` on the inner-product matrix of
A x B, so they no longer check each other.  These tests hold
`max_mono_exact` to the 2^k subset DP in `_reference_oracles`, tie-breaks
included, `exact_dual_oracle` to that DP on a matrix built pair by pair
(tie-breaks included) and to the old branch-and-bound (area), and exact
`pfr_extract`'s scan over the closed sets A & span(X) to the
branch-and-bound it replaced (witness included).
"""

import random

import _reference_oracles as ref
from dualbench.adcomb import PFR_EXACT_CAP, pfr_extract
from dualbench.approxdual import exact_dual_oracle
from dualbench.f2 import F2Set
from dualbench.matrix import BoolMatrix, max_mono_exact


def test_exact_dual_oracle_matches_reference():
    rng = random.Random(3101)
    for _ in range(1000):
        n = rng.randint(1, 7)
        a = F2Set(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 18))])
        b = F2Set(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 18))])
        got = exact_dual_oracle(a, b)
        want = ref.pair_of_view(a, b, ref.max_mono_exact(ref.ip_matrix(a, b)))
        assert (got.a_side, got.b_side, got.constant_bit) == (
            want.a_side,
            want.b_side,
            want.constant_bit,
        ), (n, a.members, b.members)
        assert got.area() == ref.exact_dual_oracle(a, b).area()


def test_max_mono_exact_matches_reference():
    rng = random.Random(3102)
    duplicated = 0
    for _ in range(1000):
        k, l = rng.randint(1, 12), rng.randint(1, 12)
        rows = [rng.randrange(1 << l) for _ in range(k)]
        if k > 1 and rng.random() < 0.3:
            rows[rng.randrange(k)] = rows[rng.randrange(k)]
        m = BoolMatrix(k, l, rows)
        duplicated += len(set(rows)) < k
        got, want = max_mono_exact(m, *m.whole()), ref.max_mono_exact(m)
        assert (got.rows, got.cols) == (want.rows, want.cols), (k, l, rows)
    assert duplicated >= 100


def test_pfr_exact_matches_reference():
    # mostly small sets, which cost the reference little, and every 50th at
    # |A| = PFR_EXACT_CAP, every other one of those at n = 21; half of the
    # sets are most of a subspace of dimension <= 4 plus noise
    rng = random.Random(3103)
    for trial in range(1000):
        if trial % 50 == 0:
            size = PFR_EXACT_CAP
        else:
            size = rng.randint(2, PFR_EXACT_CAP - 1 if trial % 50 == 25 else 10)
        n = 21 if trial % 100 == 0 else rng.randint((size - 1).bit_length(), 21)
        words = set()
        if trial % 2:
            sub = {0}
            for _ in range(rng.randint(1, 4)):
                g = rng.randrange(1 << n)
                sub |= {w ^ g for w in sub}
            words |= set(rng.sample(sorted(sub), min(len(sub), size - 1)))
        while len(words) < size:
            words.add(rng.randrange(1 << n))
        a = F2Set(n, words)
        assert pfr_extract(a, strategy="exact").subset == ref.pfr_exact_subset(a), (
            n,
            a.members,
        )
