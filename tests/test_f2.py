import random
from fractions import Fraction

import pytest

from dualbench import f2
from dualbench.errors import DimensionMismatch, EmptySetError, FormatError
from dualbench.f2 import (
    F2Set,
    F2Vector,
    bias,
    char_sum,
    char_table,
    dense_pays,
    duality_measure,
    echelon_basis,
    format_set,
    inner_product,
    ip_rows,
    is_dual_pair,
    parse_set_text,
    rep_count,
    rep_counts,
    rep_table,
    span,
    spectrum,
    sumset,
    wht,
)


def vec(s):
    return F2Vector.from_string(s)


def words(s, *strs):
    return F2Set.from_strings(strs) if strs else F2Set(s, [])


def random_set(rng, n, max_size):
    size = rng.randint(1, max_size)
    return F2Set(n, (rng.randrange(1 << n) for _ in range(size)))


# -- inner product -----------------------------------------------------------


def test_inner_product_examples():
    assert inner_product(vec("101"), vec("110")) == 1
    assert inner_product(vec("111"), vec("111")) == 1
    for b in range(8):
        assert inner_product(F2Vector(3, 0), F2Vector(3, b)) == 0


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(vec("10"), vec("100"))


def test_ip_rows_bits_are_inner_products():
    rng = random.Random(21)
    for _ in range(50):
        xs = [rng.randrange(1 << 6) for _ in range(rng.randint(0, 7))]
        ys = [rng.randrange(1 << 6) for _ in range(rng.randint(0, 7))]
        rows = ip_rows(xs, ys)
        assert len(rows) == len(xs)
        for x, row in zip(xs, rows):
            assert row >> len(ys) == 0
            for j, y in enumerate(ys):
                assert (row >> j) & 1 == inner_product(F2Vector(6, x), F2Vector(6, y))


def test_echelon_basis_against_xor_closure():
    rng = random.Random(22)
    for _ in range(50):
        s = random_set(rng, 7, 12)
        basis = echelon_basis(s.members)
        leads = [w.bit_length() for w in basis]
        assert leads == sorted(set(leads), reverse=True)
        closure = {0}
        for w in s.members:
            closure |= {c ^ w for c in closure}
        assert set(basis) <= closure
        assert len(closure) == 1 << len(basis)


# -- sumset ------------------------------------------------------------------


def test_sumset_examples():
    singleton = F2Set.from_strings(["00"])
    assert sumset(singleton, singleton) == singleton

    v = span(F2Set.from_strings(["0110", "0011"]))
    assert sumset(v, v) == v

    a = F2Set.from_strings(["00", "01", "10"])
    # oracle: all nine ordered pair sums
    expected = sorted({x ^ y for x in a.members for y in a.members})
    assert list(sumset(a, a).members) == expected == [0, 1, 2, 3]


def test_sumset_commutative_and_monotone():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        a = random_set(rng, n, 10)
        b = random_set(rng, n, 10)
        assert sumset(a, b) == sumset(b, a)
        sub = F2Set(n, a.members[: max(1, len(a) // 2)])
        assert sumset(sub, b).issubset(sumset(a, b))


# -- span --------------------------------------------------------------------


def test_span_examples():
    assert span(F2Set.from_strings(["01", "10"])).members == (0, 1, 2, 3)
    assert span(F2Set(4, [])).members == (0,)
    got = span(F2Set.from_strings(["110", "011", "101"]))
    assert got == F2Set.from_strings(["000", "110", "011", "101"])
    assert len(got) == 4


def test_span_size_power_of_two():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 8)
        s = len(span(random_set(rng, n, 12)))
        assert s & (s - 1) == 0


# -- rep_count ---------------------------------------------------------------


def test_rep_count_examples():
    s = F2Set.from_strings(["00", "01", "10"])
    assert rep_count(s, F2Vector(2, 0)) == len(s)
    assert rep_count(s, vec("11")) == 2
    assert rep_count(F2Set.from_strings(["00", "01"]), vec("10")) == 0


def test_rep_table_matches_pair_enumeration():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        s = random_set(rng, n, 12)
        table = rep_table(s)
        brute = [0] * (1 << n)
        for u in s.members:
            for v in s.members:
                brute[u ^ v] += 1
        assert table == brute


def brute_counts(s, t=None):
    counts = {}
    for u in s.members:
        for v in (s if t is None else t).members:
            counts[u ^ v] = counts.get(u ^ v, 0) + 1
    return counts


def test_rep_counts_matches_pair_enumeration(monkeypatch):
    # both sides of the cost rule: the transform table when 2^n <= |s|^2 (and
    # n <= DENSE_CAP), the pair loop otherwise; t defaults to s
    dense_calls = []
    monkeypatch.setattr(
        f2, "rep_table", lambda s, t=None: dense_calls.append(s) or rep_table(s, t)
    )
    rng = random.Random(4)
    cases = [F2Set(n, rng.sample(range(1 << n), 12)) for n in (4, 5, 6) for _ in range(5)]
    cases += [F2Set(8, rng.sample(range(1 << 8), 10)) for _ in range(5)]
    cases.append(F2Set(21, rng.sample(range(1 << 21), 10)))
    for s in cases:
        dense_calls.clear()
        assert rep_counts(s) == brute_counts(s)
        assert dense_calls == ([s] if s.n <= 6 else []), s
    # pair sums over s x t with t != s: the transform when 2^n <= |s| |t|
    for n, s_size, t_size, dense in ((5, 8, 4, True), (6, 12, 8, True), (8, 10, 12, False),
                                     (6, 9, 7, False), (21, 10, 6, False)):
        for _ in range(4):
            s = F2Set(n, rng.sample(range(1 << n), s_size))
            t = F2Set(n, rng.sample(range(1 << n), t_size))
            dense_calls.clear()
            assert rep_counts(s, t) == brute_counts(s, t)
            assert dense_calls == ([s] if dense else []), (n, s_size, t_size)
            if n <= 8:
                table = [brute_counts(s, t).get(x, 0) for x in range(1 << n)]
                assert rep_table(s, t) == table
    with pytest.raises(DimensionMismatch):
        rep_counts(F2Set(4, [1]), F2Set(5, [1]))
    # above DENSE_CAP the pair loop runs even when 2^n <= |s|^2
    monkeypatch.setattr(f2, "DENSE_CAP", 3)
    dense_calls.clear()
    s = cases[0]
    assert rep_counts(s) == brute_counts(s)
    assert dense_calls == []


# -- wht ---------------------------------------------------------------------


def test_wht_examples():
    point = [1] + [0] * 7
    assert wht(point) == [1] * 8

    f = [1, 1, 0, 0]  # indicator of {00, 01} with n = 2
    assert wht(f) == [2, 0, 2, 0]

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(0, 6)
        f = [rng.randint(-9, 9) for _ in range(1 << n)]
        assert wht(wht(f)) == [v << n for v in f]


def test_wht_parseval_exact():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(0, 7)
        f = [rng.randint(-9, 9) for _ in range(1 << n)]
        g = wht(f)
        assert sum(v * v for v in g) == (1 << n) * sum(v * v for v in f)


def test_wht_rejects_bad_length():
    with pytest.raises(FormatError):
        wht([1, 2, 3])


# -- spectrum ----------------------------------------------------------------


def test_spectrum_examples():
    b = F2Set.from_strings(["00", "01"])
    res = spectrum(b, 1)
    assert res.members == F2Set.from_strings(["00", "10"])
    assert [res.biases[x] for x in range(4)] == [1, 0, 1, 0]

    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 5)
        s = random_set(rng, n, 8)
        assert 0 in spectrum(s, 1).members  # zero always has bias 1
        assert len(spectrum(s, 0).members) == 1 << n


def test_spectrum_dense_equals_direct():
    # the transform route against one char_sum per word
    rng = random.Random(10)
    cases = [(random_set(rng, rng.randint(1, 7), 10), Fraction(rng.randint(0, 4), 4))
             for _ in range(25)]
    # spot checks at the top of the stated range
    cases += [(random_set(rng, n, 8), Fraction(1, 2)) for n in (10, 12)]
    for s, alpha in cases:
        res = spectrum(s, alpha)
        biases = {x: Fraction(char_sum(s, x), len(s)) for x in range(1 << s.n)}
        assert res.biases == biases
        assert res.members == F2Set(s.n, (x for x, v in biases.items() if abs(v) >= alpha))


def test_spectrum_empty_set():
    with pytest.raises(EmptySetError):
        spectrum(F2Set(3, []), Fraction(1, 2))


def test_dense_pays_rule_and_char_table(monkeypatch):
    # the one rule: a 2^n table iff n <= DENSE_CAP and 2^n <= the direct work;
    # char_table builds its table whenever it fits and leaves the asking to
    # callers (the bias oracle)
    assert dense_pays(6, 64) and not dense_pays(6, 63)
    assert not dense_pays(f2.DENSE_CAP + 1, 1 << 40)
    rng = random.Random("char-table")
    for n, size in ((4, 3), (6, 8), (10, 5)):
        b = F2Set(n, rng.sample(range(1 << n), size))
        assert char_table(b) == [char_sum(b, x) for x in range(1 << n)]
    assert char_table(F2Set(f2.DENSE_CAP + 1, [1, 2])) is None
    monkeypatch.setattr(f2, "DENSE_CAP", 3)
    assert char_table(F2Set(4, range(16))) is None
    assert not dense_pays(4, 1 << 40)


# -- duality measure ---------------------------------------------------------


def test_duality_examples():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 5)
        b = random_set(rng, n, 8)
        assert duality_measure(F2Set(n, [0]), b) == 1

    full = F2Set(2, range(4))
    assert duality_measure(full, F2Set.from_strings(["01"])) == 0

    a = F2Set.from_strings(["01", "10"])
    assert duality_measure(a, F2Set.from_strings(["11"])) == 1


def test_duality_errors():
    with pytest.raises(EmptySetError):
        duality_measure(F2Set(2, []), F2Set(2, [1]))
    with pytest.raises(DimensionMismatch):
        duality_measure(F2Set(2, [1]), F2Set(3, [1]))


def test_dual_pair_detection_matches_duality_one():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_set(rng, n, 6)
        b = random_set(rng, n, 6)
        constant = is_dual_pair(a, b)
        if duality_measure(a, b) == 1:
            assert constant is not None
        else:
            assert constant is None


# -- Markov restriction and Cauchy-Schwarz amplification ----------------------


def test_markov_restriction_property():
    rng = random.Random(14)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        a = random_set(rng, n, 16)
        b = random_set(rng, n, 16)
        d = duality_measure(a, b)
        if d == 0:
            continue
        checked += 1
        half = d / 2
        kept = [
            x
            for x in a.members
            if abs(char_sum(b, x)) * half.denominator >= half.numerator * len(b)
        ]
        assert Fraction(len(kept)) >= half * len(a)
    assert checked > 100


def test_cauchy_schwarz_amplification():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(2, 8)
        a = random_set(rng, n, 12)
        b = random_set(rng, n, 12)
        d = duality_measure(a, b)
        total = sum(
            abs(char_sum(b, x ^ y)) for x in a.members for y in a.members
        )
        lhs = Fraction(total, len(a) * len(a) * len(b))
        assert lhs >= d * d


# -- bias helper ---------------------------------------------------------------


def test_bias_matches_definition():
    rng = random.Random(16)
    for _ in range(50):
        n = rng.randint(1, 6)
        b = random_set(rng, n, 10)
        x = rng.randrange(1 << n)
        signed = sum(
            -1 if (x & y).bit_count() & 1 else 1 for y in b.members
        )
        assert bias(b, x) == Fraction(signed, len(b))


# -- file format ---------------------------------------------------------------


def test_set_file_round_trip():
    s = F2Set.from_strings(["0101", "1100", "0011"])
    text = format_set(s)
    assert parse_set_text(text) == s


def test_set_file_comments_and_blanks():
    text = "# header\n\n011\n# mid\n101\n\n"
    assert parse_set_text(text) == F2Set.from_strings(["011", "101"])


def test_set_file_rejects_ragged_lines():
    with pytest.raises(FormatError):
        parse_set_text("01\n011\n")
    with pytest.raises(FormatError):
        parse_set_text("# only comments\n")


def test_vector_validation():
    with pytest.raises(FormatError):
        F2Vector(2, 4)
    with pytest.raises(FormatError):
        F2Vector(0, 0)
    with pytest.raises(FormatError):
        F2Vector.from_string("01x")
