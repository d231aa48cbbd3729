import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

import _reference_oracles as ref
from _reference_oracles import parity_dot
from dualbench import matrix
from dualbench.errors import FormatError, SearchFailure
from dualbench.experiments import make_ip_matrix, make_random_f2_rank
from dualbench.f2 import F2Set, duality_measure, mask_of, members
from dualbench.matrix import (
    BoolMatrix,
    SubmatrixView,
    dedup,
    discrepancy,
    factorize_f2,
    find_biased_submatrix,
    format_matrix,
    max_mono_exact,
    parse_matrix_text,
    rank_f2,
    rank_real,
    stats,
)


def identity(n):
    return BoolMatrix(n, n, [1 << i for i in range(n)])


def all_ones(k, l):
    return BoolMatrix(k, l, [(1 << l) - 1] * k)


def random_matrix(rng, k, l):
    return BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])


# -- dedup ---------------------------------------------------------------------


def test_dedup_examples():
    m, rmap, cmap = dedup(all_ones(3, 3))
    assert (m.n_rows, m.n_cols) == (1, 1) and m.entry(0, 0) == 1
    assert rmap == (0, 0, 0) and cmap == (0, 0, 0)

    m, rmap, cmap = dedup(identity(2))
    assert m == identity(2)
    assert rmap == (0, 1) and cmap == (0, 1)

    src = BoolMatrix.from_strings(["01", "01", "10"])
    m, rmap, cmap = dedup(src)
    assert m == BoolMatrix.from_strings(["01", "10"])
    assert rmap == (0, 0, 1)


def test_dedup_preserves_entries_through_maps():
    rng = random.Random(21)
    for _ in range(50):
        src = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        m, rmap, cmap = dedup(src)
        for i in range(src.n_rows):
            for j in range(src.n_cols):
                assert src.entry(i, j) == m.entry(rmap[i], cmap[j])


# -- ranks ---------------------------------------------------------------------


def test_take_matches_entries():
    # row and column masks: one run of adjacent columns, scattered and
    # alternating columns, a single column and all of them, rows at random;
    # the submatrix keeps index order
    rng = random.Random(71)
    for _ in range(60):
        k, l = rng.randint(1, 9), rng.randint(1, 70)
        m = BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])
        rows = rng.randrange(1, 1 << k)
        start = rng.randrange(l)
        full = (1 << l) - 1
        for cols in (full ^ ((1 << start) - 1), mask_of(rng.sample(range(l), rng.randint(1, l))),
                     mask_of(range(start % 2, l, 2)) or 1, 1 << start, full):
            got = m.take(rows, cols)
            row_idx, col_idx = members(rows), members(cols)
            assert (got.n_rows, got.n_cols) == (len(row_idx), len(col_idx))
            assert got.to_lines() == ["".join(str(m.entry(i, j)) for j in col_idx) for i in row_idx]
    for rows, cols in ((1 << k, 1), (1, 1 << l), (-1, 1), (0, 1), (1, 0)):
        with pytest.raises(FormatError):
            m.take(rows, cols)


def test_rank_f2_examples():
    assert rank_f2(identity(5)) == 5
    assert rank_f2(all_ones(4, 6)) == 1
    for n in (1, 2, 3):
        assert rank_f2(make_ip_matrix(n)) == n


def test_rank_real_examples():
    assert rank_real(make_ip_matrix(2)) == 3
    assert rank_real(identity(6)) == 6
    assert rank_real(BoolMatrix.from_strings(["11", "10"])) == 2


def test_rank_real_matches_fraction_oracle():
    rng = random.Random(22)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank_real(m) == ref.rank_fraction(m)


def test_rank_real_matches_reference_with_repeated_and_zero_rows():
    rng = random.Random(2201)
    repeated = 0
    for _ in range(300):
        k, l = rng.randint(1, 12), rng.randint(1, 12)
        pool = [rng.randrange(1 << l) for _ in range(rng.randint(1, 5))] + [0]
        rows = [rng.choice(pool) if rng.random() < 0.6 else rng.randrange(1 << l)
                for _ in range(k)]
        m = BoolMatrix(k, l, rows)
        repeated += len(set(rows)) < k
        assert rank_real(m) == ref.rank_fraction(m), (k, l, rows)
    assert repeated >= 100


def test_rank_real_thin_and_zero_blocks():
    rng = random.Random(2202)
    for n in range(1, 10):
        for _ in range(5):
            row = random_matrix(rng, 1, n)
            col = random_matrix(rng, n, 1)
            assert rank_real(row) == ref.rank_fraction(row) == (1 if row.rows[0] else 0)
            assert rank_real(col) == ref.rank_fraction(col) == (1 if any(col.rows) else 0)
        assert rank_real(BoolMatrix(n, n + 1, [0] * n)) == 0


def j_minus_i(n):
    return BoolMatrix(n, n, [((1 << n) - 1) ^ (1 << i) for i in range(n)])


def test_rank_real_full_over_q_but_singular_mod_3():
    m = j_minus_i(4)  # determinant -3
    assert matrix._rank_gf3(m.rows, 4) == 3
    assert rank_real(m) == ref.rank_fraction(m) == 4


def test_rank_real_certifies_or_falls_back(monkeypatch):
    calls = []
    bareiss = matrix._rank_bareiss

    def spy(words, l):
        calls.append(words)
        return bareiss(words, l)

    monkeypatch.setattr(matrix, "_rank_bareiss", spy)
    # certified by the row count, then by the distinct nonzero columns: six
    # distinct rows over four distinct columns, two of them doubled
    base = BoolMatrix.from_strings(["1000", "0100", "0010", "0001", "1100", "0111"])
    doubled = ref.take_indices(base, range(6), [0, 1, 2, 3, 0, 3])
    for m, want in ((identity(6), 6), (make_ip_matrix(3), 7), (doubled, 4)):
        assert rank_real(m) == ref.rank_fraction(m) == want
    assert calls == []
    # GF(3) rank 3 meets neither bound, so Bareiss decides
    assert rank_real(j_minus_i(4)) == 4
    assert len(calls) == 1


def test_rank_f2_at_most_rank_real():
    rng = random.Random(23)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        assert rank_f2(m) <= rank_real(m)


# -- factorization ---------------------------------------------------------------


def test_factorize_all_ones():
    f = factorize_f2(all_ones(1, 1))
    assert f.r == 1


def test_factorize_ip():
    m = make_ip_matrix(2)
    f = factorize_f2(m)
    assert f.r == 2
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            assert parity_dot(f.row_words[i], f.col_words[j]) == m.entry(i, j)
    assert len(f.a_set) == m.n_rows and len(f.b_set) == m.n_cols


def test_factorize_roundtrip_fuzz():
    rng = random.Random(24)
    done = 0
    while done < 60:
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        m, _, _ = dedup(m)
        f = factorize_f2(m)
        assert f.r == rank_f2(m)
        for i in range(m.n_rows):
            for j in range(m.n_cols):
                assert parity_dot(f.row_words[i], f.col_words[j]) == m.entry(i, j)
        done += 1


def test_factorize_accepts_duplicates():
    # equal rows (columns) get equal words, so a matrix with duplicates has
    # the factor sets of its dedup, and its words still give every entry
    rng = random.Random(26)
    cases = [BoolMatrix.from_strings(["01", "01"])]
    for _ in range(40):
        base = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rows = [rng.randrange(base.n_rows) for _ in range(rng.randint(1, 9))]
        cols = [rng.randrange(base.n_cols) for _ in range(rng.randint(1, 9))]
        cases.append(ref.take_indices(base, rows, cols))
    planted = 0
    for m in cases:
        core, _, _ = dedup(m)
        planted += core.size() < m.size()
        f, g = factorize_f2(m), factorize_f2(core)
        assert (f.r, f.a_set, f.b_set) == (g.r, g.a_set, g.b_set)
        for i in range(m.n_rows):
            for j in range(m.n_cols):
                assert parity_dot(f.row_words[i], f.col_words[j]) == m.entry(i, j)
    assert planted > 30


# -- discrepancy ---------------------------------------------------------------


def test_discrepancy_examples():
    assert discrepancy(all_ones(2, 3)) == 1
    assert discrepancy(BoolMatrix.from_strings(["01", "10"])) == 0
    assert discrepancy(BoolMatrix.from_strings(["11", "10"])) == Fraction(1, 2)


def test_bridge_identity_exhaustive_small():
    # discrepancy of any rectangle equals the duality measure of the factor
    # subsets; exhaustive over index pairs on deduplicated matrices.
    rng = random.Random(25)
    done = 0
    while done < 25:
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        m, _, _ = dedup(m)
        f = factorize_f2(m)
        rows = range(m.n_rows)
        cols = range(m.n_cols)
        for ra in range(1, m.n_rows + 1):
            for i_set in combinations(rows, ra):
                for ca in range(1, m.n_cols + 1):
                    for j_set in combinations(cols, ca):
                        view = SubmatrixView(m, mask_of(i_set), mask_of(j_set))
                        a = F2Set(f.a_set.n, [f.row_words[i] for i in i_set])
                        b = F2Set(f.b_set.n, [f.col_words[j] for j in j_set])
                        d = duality_measure(a, b)
                        assert view.discrepancy() == d
                        assert (d == 1) == view.is_monochromatic()
        done += 1
        if m.n_rows * m.n_cols > 16:
            done += 2  # keep the exhaustive loop cheap on larger draws


# -- max mono ------------------------------------------------------------------


def brute_force_max_mono_area(m):
    """Fully independent: enumerate every (row set, col set) pair."""
    best = 0
    for ra in range(1, m.n_rows + 1):
        for rows in combinations(range(m.n_rows), ra):
            for ca in range(1, m.n_cols + 1):
                for cols in combinations(range(m.n_cols), ca):
                    vals = {m.entry(i, j) for i in rows for j in cols}
                    if len(vals) == 1:
                        best = max(best, ra * ca)
    return best


def test_max_mono_examples():
    m = all_ones(3, 4)
    view = max_mono_exact(m, *m.whole())
    assert view.area() == 12 and view.is_monochromatic()

    m = identity(2)
    assert max_mono_exact(m, *m.whole()).area() == 1
    assert brute_force_max_mono_area(identity(2)) == 1

    m = make_ip_matrix(2)
    view = max_mono_exact(m, *m.whole())
    assert view.area() == 4 and view.is_monochromatic()
    assert brute_force_max_mono_area(make_ip_matrix(2)) == 4


def test_max_mono_agrees_with_other_dimension():
    rng = random.Random(26)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        a = max_mono_exact(m, *m.whole())
        b = ref.max_mono_exact_other_dimension(m)
        assert a.area() == b.area()
        assert (a.rows, a.cols) == (b.rows, b.cols)
        assert a.area() == brute_force_max_mono_area(m)


def test_max_mono_exact_beyond_subset_table():
    # 32 rows under the smaller dimension's 31 columns: a 2^31-entry subset
    # table would not fit; the closure search returns a closed, monochromatic
    # rectangle at least as large as the planted 7 x 9 block of ones
    rng = random.Random(28)
    rows = [rng.randrange(1 << 31) for _ in range(32)]
    block_rows, block_cols = rng.sample(range(32), 7), rng.sample(range(31), 9)
    block = sum(1 << j for j in block_cols)
    for i in block_rows:
        rows[i] |= block
    m = BoolMatrix(32, 31, rows)
    view = max_mono_exact(m, *m.whole(), exact_cap=32)
    assert view.is_monochromatic() and view.area() >= 63
    color = view.value()
    rows, cols = members(view.rows), members(view.cols)
    for i in set(range(32)) - set(rows):
        assert any(m.entry(i, j) != color for j in cols)
    for j in set(range(31)) - set(cols):
        assert any(m.entry(i, j) != color for i in rows)


def test_rectangle_tie_order_is_index_tuple_order():
    # the finders break ties on masks in O(1); that must be the order of
    # the ascending index tuples, a proper prefix first
    def before(x, y):
        return tuple(members(x)) < tuple(members(y))

    for x in range(1 << 8):
        for y in range(1 << 8):
            assert matrix._precedes((x, 0, 0), (y, 0, 0)) == before(x, y), (x, y)
    rng = random.Random("tie-order")
    for _ in range(3000):
        width = rng.randint(1, 80)
        x, y, z = (rng.randrange(1 << width) for _ in range(3))
        y = rng.choice([y, x ^ (1 << rng.randrange(width)), x & y, x])
        want = (tuple(members(x)), tuple(members(z)), 1) < (tuple(members(y)), tuple(members(z)), 0)
        assert matrix._precedes((x, z, 1), (y, z, 0)) == want
        assert matrix._precedes((z, x, 0), (z, y, 0)) == before(x, y)
    assert matrix._precedes((5, 3, 0), (5, 3, 1)) and not matrix._precedes((5, 3, 1), (5, 3, 1))


def test_view_masks_are_checked():
    m = identity(3)
    for rows, cols in ((0, 1), (1, 0), (8, 1), (1, 8), (-1, 1), (1, -2)):
        with pytest.raises(FormatError):
            SubmatrixView(m, rows, cols)
    view = SubmatrixView(m, 0b110, 0b101)
    assert (view.area(), view.counts(), view.value()) == (4, (3, 1), 0)
    assert view.materialize() == BoolMatrix.from_strings(["00", "01"])


def test_max_mono_cap():
    with pytest.raises(FormatError, match="^enumerated dimension 8 exceeds exact cap 4$"):
        max_mono_exact(all_ones(8, 8), 0xFF, 0xFF, exact_cap=4)


def test_max_mono_deterministic():
    rng = random.Random(27)
    for _ in range(20):
        m = random_matrix(rng, 4, 4)
        v1 = max_mono_exact(m, *m.whole())
        v2 = max_mono_exact(m, *m.whole())
        assert (v1.rows, v1.cols) == (v2.rows, v2.cols)


# -- biased submatrix ------------------------------------------------------------


def contract_holds(m, view):
    r = max(rank_real(m), 1)
    total = m.size()
    zeros, ones = view.counts()
    area = view.area()
    return (
        area * area * r**3 >= total * total
        and (zeros - ones) ** 2 * r**3 >= area * area
    )


def exhaustive_biased_exists(m):
    r = max(rank_real(m), 1)
    total = m.size()
    for ra in range(1, m.n_rows + 1):
        for rows in combinations(range(m.n_rows), ra):
            for ca in range(1, m.n_cols + 1):
                for cols in combinations(range(m.n_cols), ca):
                    view = SubmatrixView(m, mask_of(rows), mask_of(cols))
                    if contract_holds(m, view):
                        return True
    return False


def test_biased_examples():
    m = all_ones(3, 3)
    view = find_biased_submatrix(m, rank_real(m))
    assert view.area() == 9 and view.discrepancy() == 1

    m = BoolMatrix.from_strings(["11", "10"])
    view = find_biased_submatrix(m, rank_real(m))
    assert contract_holds(m, view)
    assert exhaustive_biased_exists(m)


def test_biased_identity2_has_no_witness():
    # rank 2 forces area >= 2 and imbalance >= 0.354 * area, but every
    # rectangle of I2 with area >= 2 is perfectly balanced.
    m = identity(2)
    assert not exhaustive_biased_exists(m)
    with pytest.raises(SearchFailure, match="^exhaustive search: no submatrix meets") as info:
        find_biased_submatrix(m, rank_real(m))
    assert (info.value.stage, info.value.exhaustive) == ("search", True)


def test_biased_rank_one_unbalanced_has_no_witness():
    # rank 1 forces the whole matrix with discrepancy 1, so any
    # non-monochromatic rank-1 matrix is a certified nonexistence case.
    m = BoolMatrix.from_strings(["10110"] * 3)
    assert rank_real(m) == 1
    assert not exhaustive_biased_exists(m)
    with pytest.raises(SearchFailure, match="^exhaustive search: no submatrix meets") as info:
        find_biased_submatrix(m, rank_real(m))
    assert (info.value.stage, info.value.exhaustive) == ("search", True)


def test_biased_tall_matrices():
    # with fewer columns than rows the exhaustive pass enumerates column
    # subsets, and small tall matrices often need that pass
    rng = random.Random("tall")
    found = 0
    for _ in range(80):
        k = rng.randint(3, 7)
        m = random_matrix(rng, k, rng.randint(2, k - 1))
        try:
            view = find_biased_submatrix(m, rank_real(m))
        except SearchFailure as info:
            assert (info.stage, info.exhaustive) == ("search", True)
            assert str(info).startswith("exhaustive search: no submatrix meets")
            assert not exhaustive_biased_exists(m)
            continue
        assert contract_holds(m, view)
        found += 1
    assert found >= 30


def test_biased_random_low_rank():
    # On rank >= 2 template matrices witnesses exist generically; when the
    # exhaustive search reports nonexistence, that verdict is double-checked
    # by the fully independent rectangle enumeration.
    rng = random.Random(28)
    found = 0
    for _ in range(40):
        k = rng.randint(4, 8)
        l = rng.randint(4, 8)
        r = rng.randint(2, 3)
        templates = [rng.randrange(1 << l) for _ in range(r)]
        m = BoolMatrix(k, l, [templates[i % r] for i in range(k)])
        if rank_real(m) < 2:
            continue
        try:
            view = find_biased_submatrix(m, rank_real(m))
        except SearchFailure as info:
            assert (info.stage, info.exhaustive) == ("search", True)
            assert str(info).startswith("exhaustive search: no submatrix meets")
            assert not exhaustive_biased_exists(m)
            continue
        assert contract_holds(m, view)
        found += 1
    assert found >= 20


# -- stats, file format -----------------------------------------------------------


def test_stats_fields():
    s = stats(make_ip_matrix(2))
    assert s.rank_f2 == 2 and s.rank_real == 3
    assert s.zeros + s.ones == s.size == 16
    assert s.rank_f2 <= s.rank_real
    assert 0 <= s.discrepancy <= 1


def test_random_f2_rank_rows_are_factor_products():
    # the rows are left x right over F2 for the generator's factor draws,
    # replayed here on a twin generator with the same rejection rule
    k, l, r = 9, 11, 4
    for seed in range(4):
        m = make_random_f2_rank(k, l, r, random.Random(seed))
        twin = random.Random(seed)
        while True:
            left = [twin.randrange(1 << r) for _ in range(k)]
            right = [twin.randrange(1 << l) for _ in range(r)]
            if rank_f2(BoolMatrix(k, r, left)) != r or rank_f2(BoolMatrix(r, l, right)) != r:
                continue
            rows = []
            for x in left:
                rows.append(0)
                for s in range(r):
                    if (x >> s) & 1:
                        rows[-1] ^= right[s]
            if rank_f2(BoolMatrix(k, l, rows)) == r:
                break
        assert m.rows == tuple(rows)


def test_matrix_file_round_trip():
    rng = random.Random(30)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert parse_matrix_text(format_matrix(m)) == m


def test_matrix_text_codec_entry_by_entry():
    # character j of line i is entry (i, j), and columns() is the transpose
    rng = random.Random("codec")
    for k, l in ((1, 1), (3, 70), (70, 3), (5, 129)):
        m = random_matrix(rng, k, l)
        lines = m.to_lines()
        assert lines == ["".join(str(m.entry(i, j)) for j in range(l)) for i in range(k)]
        assert BoolMatrix.from_strings(lines) == m
        assert m.columns() == [sum(m.entry(i, j) << i for i in range(k)) for j in range(l)]
        assert m.transpose().to_lines() == ["".join(col) for col in zip(*lines)]


def test_matrix_from_strings_errors():
    for bad in ([], [""], ["01", "0"], ["0a1"], ["021"], ["0_1"], ["+1"], ["0 1"], ["01\n"]):
        with pytest.raises(FormatError):
            BoolMatrix.from_strings(bad)


def test_matrix_file_names_the_bad_row():
    for row in ("0a1", "021", "0_1", "+11", "01"):
        with pytest.raises(FormatError, match=f"bad matrix row '{re.escape(row)}'"):
            parse_matrix_text(f"2 3\n010\n{row}\n")


def test_matrix_file_comments():
    text = "# comment\n2 3\n010\n# another\n111\n"
    assert parse_matrix_text(text) == BoolMatrix.from_strings(["010", "111"])


def test_matrix_file_errors():
    for bad in ("", "2 2\n01\n", "1 2\n012\n", "x y\n0\n", "1 3\n0_1\n", "1 2\n-1\n"):
        with pytest.raises(FormatError):
            parse_matrix_text(bad)
