"""Seeded cross-checks of the exact oracles against the reference searches.

`exact_dual_oracle` and `max_mono_exact` run on the one Close-by-One engine,
so they no longer check each other.  These tests hold them to the old
branch-and-bound and 2^k subset DP in `_reference_oracles`, tie-breaks
included.
"""

import random

import _reference_oracles as ref
from dualbench.approxdual import exact_dual_oracle
from dualbench.f2 import F2Set
from dualbench.matrix import BoolMatrix, max_mono_exact


def test_exact_dual_oracle_matches_reference():
    rng = random.Random(3101)
    for _ in range(1000):
        n = rng.randint(1, 7)
        a = F2Set(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 18))])
        b = F2Set(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 18))])
        for side in ("auto", "a", "b"):
            got = exact_dual_oracle(a, b, enumerate_side=side)
            want = ref.exact_dual_oracle(a, b, enumerate_side=side)
            assert (got.a_side, got.b_side, got.constant_bit) == (
                want.a_side,
                want.b_side,
                want.constant_bit,
            ), (n, a.members, b.members, side)


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
        got, want = max_mono_exact(m), ref.max_mono_exact(m)
        assert (got.rows, got.cols) == (want.rows, want.cols), (k, l, rows)
    assert duplicated >= 100
