import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

import _reference_oracles as ref
from _reference_oracles import parity_dot, rep_count
from dualbench import f2
from dualbench.approxdual import greedy_dual_pair
from dualbench.errors import FormatError
from dualbench.experiments import run_experiment
from dualbench.f2 import (
    CharSums,
    F2Set,
    bias,
    char_sum,
    char_table,
    combine,
    coset_rep,
    dense_pays,
    duality_measure,
    echelon_basis,
    format_set,
    ip_rows,
    is_dual_pair,
    parse_set_text,
    rep_counts,
    rep_table,
    span,
    spectrum,
    sumset,
    sumset_size,
    transpose,
    wht,
)
from dualbench.matrix import greedy_rectangle


def words(s, *strs):
    return F2Set.from_strings(strs) if strs else F2Set(s, [])


def random_set(rng, n, max_size):
    size = rng.randint(1, max_size)
    return F2Set(n, (rng.randrange(1 << n) for _ in range(size)))


# -- inner product -----------------------------------------------------------


def test_inner_product_examples():
    assert parity_dot(0b101, 0b110) == 1
    assert parity_dot(0b111, 0b111) == 1
    for b in range(8):
        assert parity_dot(0, b) == 0


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
                assert (row >> j) & 1 == parity_dot(x, y)


def test_ip_rows_edges():
    # bits of xs above every y meet only zero columns; no ys, no bits
    xs = [0b1111000, 0b1111011, 0b1000001]
    assert ip_rows(xs, [0b011, 0b001, 0b010]) == [0b000, 0b110, 0b011]
    assert ip_rows(xs, []) == [0, 0, 0]
    assert ip_rows(xs, [0, 0]) == [0, 0, 0]
    assert ip_rows([], [0b011]) == []
    assert ip_rows(range(4), range(4)) == [0b0000, 0b1010, 0b1100, 0b0110]


def test_transpose_entry_by_entry():
    # bit i of column j is bit j of words[i], for words below 2^width
    rng = random.Random("transpose")
    cases = [([], 5), ([], 0), ([0, 0, 0], 4), ([0, 0], 0), ([1], 1), ([0b101, 0b1], 9)]
    cases.append(([rng.randrange(1 << 7) for _ in range(70)], 7))  # over 64 rows
    cases.append(([rng.randrange(1 << 24) for _ in range(130)], 24))
    cases += [([rng.randrange(1 << 24) for _ in range(rng.randint(1, 30))], 24) for _ in range(5)]
    for words, width in cases:
        columns = transpose(words, width)
        assert len(columns) == width
        for j, column in enumerate(columns):
            assert column >> len(words) == 0
            for i, word in enumerate(words):
                assert (column >> i) & 1 == (word >> j) & 1
        assert transpose(columns, len(words)) == (list(words) if width else [0] * len(words))


def test_combine_is_the_xor_of_the_selected_rows():
    rng = random.Random("combine")
    for _ in range(200):
        rows = [rng.randrange(1 << 80) for _ in range(rng.randint(0, 12))]
        x = rng.randrange(1 << 16)  # bits at or past len(rows) are ignored
        want = 0
        for k, row in enumerate(rows):
            if (x >> k) & 1:
                want ^= row
        assert combine(x, rows) == want


def test_greedy_dual_pair_matches_pairwise_reference():
    # greedy_dual_pair is greedy_rectangle on the inner-product matrix; small
    # dimensions and sets holding 0 give many tied seeds and tied narrowings,
    # which must break the same way on a matrix built pair by pair
    rng = random.Random("greedy-ties")
    tied = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = random_set(rng, n, 20)
        b = random_set(rng, n, 20)
        if rng.random() < 0.3:
            a = F2Set(n, a.members + (0,))
        ones = [sum(parity_dot(x, y) for y in b.members) for x in a.members]
        seeds = sorted(v for k in ones for v in (len(b) - k, k) if v)
        tied += seeds.count(seeds[-1]) > 1
        ip = ref.ip_matrix(a, b)
        want = ref.pair_of_view(a, b, greedy_rectangle(ip, *ip.whole()))
        assert greedy_dual_pair(a, b) == want
    assert tied >= 50


def assert_reduced_echelon(basis):
    """Each row's pivot is its lowest set bit, no other row has that bit,
    and rows ascend by pivot."""
    pivots = [row & -row for row in basis]
    assert 0 not in pivots
    assert pivots == sorted(set(pivots))
    for i, pivot in enumerate(pivots):
        assert all(not other & pivot for j, other in enumerate(basis) if j != i)


def test_echelon_basis_against_xor_closure():
    rng = random.Random(22)
    for _ in range(50):
        s = random_set(rng, 7, 12)
        basis = echelon_basis(s.members)
        assert_reduced_echelon(basis)
        closure = {0}
        for w in s.members:
            closure |= {c ^ w for c in closure}
        assert set(basis) <= closure
        assert len(closure) == 1 << len(basis)


def test_echelon_basis_matches_reference_rref():
    # the reduced echelon basis is unique to the span, so it must equal the
    # reference eliminator's rows whatever the order, zeros and repeats of the input
    rng = random.Random("rref")
    cases = [[], [0], [0, 0], [5, 5, 3, 6], [1 << 23, (1 << 24) - 1, 0, 1 << 23]]
    for n in (1, 2, 5, 8, 13, 24):
        for _ in range(12):
            words = [rng.randrange(1 << n) for _ in range(rng.randint(0, n + 3))]
            words += [0] * rng.randint(0, 2) + rng.sample(words, min(len(words), 2))
            if len(words) >= 2:
                words.append(words[0] ^ words[1])  # a dependent word
            rng.shuffle(words)
            cases.append(words)
    for words in cases:
        basis = echelon_basis(words)
        rows, pivots = ref._rref_f2(words)
        assert basis == rows, words
        assert [(row & -row).bit_length() - 1 for row in basis] == pivots
        assert_reduced_echelon(basis)
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert echelon_basis(shuffled) == basis


def test_coset_rep_is_constant_on_cosets():
    rng = random.Random("coset-rep")
    for _ in range(40):
        n = rng.randint(1, 7)
        basis = echelon_basis(rng.randrange(1 << n) for _ in range(rng.randint(0, 4)))
        span_words = span(F2Set(n, basis)).members
        reps = {}
        for word in range(1 << n):
            rep = coset_rep(word, basis)
            assert (rep == 0) == (word in span_words)
            assert coset_rep(rep, basis) == rep
            for v in span_words:
                assert coset_rep(word ^ v, basis) == rep
            reps.setdefault(rep, set()).add(word)
        # one rep per coset: 2^n / |span| classes of |span| words each
        assert len(reps) == (1 << n) // len(span_words)
        assert all(len(words) == len(span_words) for words in reps.values())


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
    assert rep_count(s, 0) == len(s)
    assert rep_count(s, 0b11) == 2
    assert rep_count(F2Set.from_strings(["00", "01"]), 0b10) == 0


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


def brute_counts(s):
    counts = {}
    for u in s.members:
        for v in s.members:
            counts[u ^ v] = counts.get(u ^ v, 0) + 1
    return counts


def test_rep_counts_matches_pair_enumeration(monkeypatch):
    # both sides of the cost rule: the transform table when 2^n <= |s|^2 (and
    # n <= DENSE_CAP), the pair loop otherwise
    dense_calls = []
    monkeypatch.setattr(f2, "rep_table", lambda s: dense_calls.append(s) or rep_table(s))
    rng = random.Random(4)
    cases = [F2Set(n, rng.sample(range(1 << n), 12)) for n in (4, 5, 6) for _ in range(5)]
    cases += [F2Set(8, rng.sample(range(1 << 8), 10)) for _ in range(5)]
    cases.append(F2Set(21, rng.sample(range(1 << 21), 10)))
    for s in cases:
        dense_calls.clear()
        assert rep_counts(s) == brute_counts(s)
        assert dense_calls == ([s] if s.n <= 6 else []), s
    # above DENSE_CAP the pair loop runs even when 2^n <= |s|^2
    monkeypatch.setattr(f2, "DENSE_CAP", 3)
    dense_calls.clear()
    s = cases[0]
    assert rep_counts(s) == brute_counts(s)
    assert dense_calls == []


def test_sumset_size_matches_pair_enumeration(monkeypatch):
    # the popcount of the translates' union (_sumset_bits) when 2^n is at
    # most the |s|(|s| + 1)/2 unordered pair sums, the set of those sums
    # otherwise; n = 8 with 20 members and n = 10 with 40 sit between that
    # rule and rep_counts' 2^n <= |s|^2, so they take the pair loop
    dense_calls = []
    bits_of = f2._sumset_bits
    monkeypatch.setattr(f2, "_sumset_bits", lambda s: dense_calls.append(s) or bits_of(s))
    rng = random.Random("sumset-size")
    cases = [F2Set(n, rng.sample(range(1 << n), 12)) for n in (4, 5, 6) for _ in range(5)]
    cases += [F2Set(8, rng.sample(range(1 << 8), 10)) for _ in range(5)]
    cases += [F2Set(8, rng.sample(range(1 << 8), k)) for k in (20, 22)]
    cases += [F2Set(10, rng.sample(range(1 << 10), k)) for k in (40, 45)]
    cases += [F2Set(3, [5]), F2Set(4, range(16)), F2Set(21, rng.sample(range(1 << 21), 10))]
    for s in cases:
        dense_calls.clear()
        assert sumset_size(s) == len(brute_counts(s)) == len(sumset(s, s))
        dense = f2.dense_pays(s.n, len(s) * (len(s) + 1) // 2)
        assert dense_calls == ([s] if dense else []), s
        if s.n in (8, 10) and len(s) in (20, 40):
            assert f2.dense_pays(s.n, len(s) ** 2) and not dense


def brute_neighbourhoods(a, s):
    return [sum(1 << j for j, v in enumerate(a.members) if u ^ v in s) for u in a.members]


def test_neighbourhoods_match_pair_enumeration(monkeypatch):
    # bit j of mask i is set iff a_i + a_j is in s, on every path: the
    # translated indicator word when 2^n <= NEIGHBOURHOOD_COST * min(|a|, |s|),
    # else a pass over a, or a walk over s when s is the smaller set
    words_made = []
    word_of = f2._indicator_word
    monkeypatch.setattr(f2, "_indicator_word", lambda s: words_made.append(s) or word_of(s))
    rng = random.Random("neighbourhoods")
    edge = ((1 << 14) - 1) // f2.NEIGHBOURHOOD_COST  # the largest direct size at n = 14
    cases = [
        (F2Set(4, [5]), F2Set(4, [0, 3, 9])),  # |a| = 1, 0 in s
        (F2Set(12, [7]), F2Set(12, rng.sample(range(1 << 12), 50))),  # |a| = 1, direct
        (F2Set(12, [0, 7]), F2Set(12, [7])),  # the word 0 in a
    ]
    for n, size_a, size_s in ((6, 20, 30), (6, 30, 5), (12, 30, 60), (12, 60, 20),
                              (14, edge, 500), (14, edge + 1, 500), (21, 40, 30)):
        a = F2Set(n, [0] + rng.sample(range(1, 1 << n), size_a - 1))
        s = F2Set(n, rng.sample(range(1 << n), size_s - 1) + [0])
        cases += [(a, s), (a, F2Set(n, s.members[1:]))]
    paths = set()
    for a, s in cases:
        words_made.clear()
        word = dense_pays(a.n, f2.NEIGHBOURHOOD_COST * min(len(a), len(s)))
        paths.add("word" if word else "s" if len(s) < len(a) else "a")
        assert f2.neighbourhoods(a, s) == brute_neighbourhoods(a, s), (a, s)
        assert words_made == ([s] if word else [])
    assert paths == {"word", "a", "s"}
    with pytest.raises(FormatError, match=r"^sets live in different spaces, F2\^4 and F2\^5$"):
        f2.neighbourhoods(F2Set(4, [1]), F2Set(5, [1]))


def test_sumset_bits_is_the_sumset_indicator():
    # the translate kernel on both sides of its 6 tabulated low bits:
    # n <= 6 is all table, n > 6 also merges high bits down the trie
    rng = random.Random("sumset-bits")
    for n in range(1, 13):
        full = 1 << n
        cube = span(F2Set(n, rng.sample(range(full), min(n, 3))))
        assert f2._sumset_bits(F2Set(n, range(full))) == (1 << full) - 1  # all of F2^n
        cases = [
            F2Set(n, [0]),
            F2Set(n, [rng.randrange(full)]),
            cube,
            F2Set(n, cube.members + tuple(rng.sample(range(full), min(full, 5)))),
        ]
        cases += [random_set(rng, n, min(full, 40)) for _ in range(10)]
        for s in cases:
            assert f2._sumset_bits(s) == sum(1 << x for x in sumset(s, s).members), s


def test_dense_sumset_size_builds_no_transform(monkeypatch):
    # at n = DENSE_CAP with 2^n <= |s|(|s| + 1)/2 the dense rule holds, and
    # the translate kernel answers without rep_table or wht; at 1,024
    # members the pair loop answers (measured: 112 ms against 282 ms for the
    # translates)
    calls = []
    bits_of = f2._sumset_bits
    monkeypatch.setattr(f2, "rep_table", lambda s: calls.append("rep_table"))
    monkeypatch.setattr(f2, "wht", lambda values: calls.append("wht"))
    monkeypatch.setattr(f2, "_sumset_bits", lambda s: calls.append(len(s)) or bits_of(s))
    rng = random.Random("sumset-dense")
    n = f2.DENSE_CAP
    s = F2Set(n, rng.sample(range(1 << n), 1450))
    assert dense_pays(n, len(s) * (len(s) + 1) // 2)
    assert sumset_size(s) == len({u ^ v for u in s.members for v in s.members})
    assert calls == [1450]
    assert not dense_pays(n, 1024 * 1025 // 2)


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
    for values in ([], [1, 2, 3], [Fraction(1, 2)] * 3, [True] * 6, [1 << 70] * 5):
        with pytest.raises(FormatError):
            wht(values)


def lane_path(values):
    """wht(values), asserting that it took the lane-packed path."""
    assert f2._wht_lanes(values) is not None
    return wht(values)


def loop_path(values):
    """wht(values), asserting that it fell back to the element loop."""
    assert f2._wht_lanes(values) is None
    return wht(values)


def test_wht_lanes_match_loop():
    rng = random.Random(12)
    for n in range(17):
        for bound in (1, 1000, 1 << 40):
            f = [rng.randint(-bound, bound) for _ in range(1 << n)]
            assert lane_path(f) == f2._wht_loop(f), (n, bound)
    s = random_set(rng, 12, 400)
    g = lane_path(s.indicator())
    assert g == f2._wht_loop(s.indicator())
    squared = [v * v for v in g]
    assert lane_path(squared) == f2._wht_loop(squared)


def lane_width(values):
    """The lane width in bits that wht(values) packs into; None for the loop."""
    lanes = f2._wht_lanes(values)
    return None if lanes is None else 8 * lanes.itemsize


def test_wht_lane_guard_boundary():
    # sum |v| < 2^(w-2) packs into w-bit lanes, the narrowest of 16, 32 and
    # 64 bits; at 2^62 the element loop takes over
    rng = random.Random(13)
    edges = {1 << 14: (16, 32), 1 << 30: (32, 64), 1 << 62: (64, None)}
    for limit, widths in edges.items():
        for total, width in zip((limit - 1, limit), widths):
            half = limit // 2
            cases = [[total], [-total], [half, half - total, 0, 0]]
            for size in (2, 1 << 10):
                cuts = sorted(rng.sample(range(1, total), size - 1))
                parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
                mixed = [-v if i % 2 else v for i, v in enumerate(parts)]
                rng.shuffle(mixed)
                cases.append(mixed)
            for f in cases:
                assert sum(map(abs, f)) == total
                assert lane_width(f) == width, (total, len(f))
                assert wht(f) == f2._wht_loop(f)


def test_wht_non_int_inputs():
    half = Fraction(1, 2)
    assert loop_path([half, 1, 0, 3]) == [half + 4, half - 4, half - 2, half + 2]
    assert loop_path([0.5, 1.0]) == [1.5, -0.5]
    # outside int64, at its edge, and far outside
    for f in ([1 << 63, 0], [-(1 << 63), 0], [1 << 70, -1, 0, 5]):
        assert loop_path(f) == f2._wht_loop(f)
    flags = [True, False, True, True]  # bools are ints: they pack
    assert lane_path(flags) == [3, 1, -1, 1]
    assert all(type(v) is int for v in wht(flags))


def test_rep_table_lanes_match_loop(monkeypatch):
    rng = random.Random(14)
    s = F2Set(14, rng.sample(range(1 << 14), 600))
    table = rep_table(s)
    pairs = Counter(u ^ v for u in s.members for v in s.members)
    assert table == [pairs[x] for x in range(1 << 14)]
    monkeypatch.setattr(f2, "_wht_lanes", lambda values: None)
    assert rep_table(s) == table


def test_pipeline_transforms_take_the_lane_path(monkeypatch):
    # the pipeline-dense benchmark's command: every transform it makes is an
    # integer table inside the lane guard, indicators in 16-bit lanes and
    # rep_table's squared spectra in 32-bit lanes, so a guard edit that
    # widens them or sends any to the element loop shows here, not only as
    # a slower benchmark
    tables, loops, widths = [], [], {}
    rep_table_of, loop, lanes_of = f2.rep_table, f2._wht_loop, f2._wht_lanes

    def lanes(values):
        got = lanes_of(values)
        kind = "indicator" if set(values) <= {0, 1} else "squared"
        widths.setdefault(kind, set()).add(None if got is None else 8 * got.itemsize)
        return got

    monkeypatch.setattr(f2, "rep_table", lambda s: tables.append(s.n) or rep_table_of(s))
    monkeypatch.setattr(f2, "_wht_loop", lambda values: loops.append(len(values)) or loop(values))
    monkeypatch.setattr(f2, "_wht_lanes", lanes)
    config = {"family": "random", "n": 14, "size": 600}
    report, _ = run_experiment("dual-pipeline", config, seed=0)
    assert report["ok"]
    assert tables and set(tables) == {14}
    assert loops == []
    assert widths == {"indicator": {16}, "squared": {32}}


def test_pipeline_counts_each_set_once(monkeypatch):
    # the pipeline-dense benchmark's command counts the pair sums of no set
    # twice: bsg_extract reads its pair density off its graph, so the input
    # A of the BSG step is counted only by the next_set level that built the
    # one above it; and every sumset size it asks takes the translate kernel
    counted, sized, translated = [], [], []
    rep_counts_of, sumset_size_of, bits_of = f2.rep_counts, f2.sumset_size, f2._sumset_bits
    for name, log, original in (("rep_counts", counted, rep_counts_of),
                                ("sumset_size", sized, sumset_size_of)):
        def spy(s, log=log, original=original):
            log.append(s)
            return original(s)

        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("dualbench") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(f2, "_sumset_bits", lambda s: translated.append(s) or bits_of(s))
    config = {"family": "random", "n": 14, "size": 600}
    report, _ = run_experiment("dual-pipeline", config, seed=0)
    assert report["ok"]
    assert counted and len(set(counted)) == len(counted)
    assert sized and translated == sized


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
    with pytest.raises(FormatError, match="^spectrum of an empty set$"):
        spectrum(F2Set(3, []), Fraction(1, 2))


def test_dense_pays_rule_and_char_table(monkeypatch):
    # the one rule: a 2^n table iff n <= DENSE_CAP and 2^n <= the direct work;
    # char_table builds its table whenever asked and leaves the asking to
    # CharSums, which asks dense_pays first
    assert dense_pays(6, 64) and not dense_pays(6, 63)
    assert not dense_pays(f2.DENSE_CAP + 1, 1 << 40)
    rng = random.Random("char-table")
    for n, size in ((4, 3), (6, 8), (10, 5)):
        b = F2Set(n, rng.sample(range(1 << n), size))
        assert char_table(b) == [char_sum(b, x) for x in range(1 << n)]
    monkeypatch.setattr(f2, "DENSE_CAP", 3)
    assert not dense_pays(4, 1 << 40)


def test_char_sums_build_their_table_once_it_pays():
    # CharSums memoises char_sum per word until the distinct words asked
    # times |b| reach 2^n (n <= DENSE_CAP), then reads one dense table; both
    # give char_sum.  `built` is the count of distinct words at which the
    # table appears (None: never)
    rng = random.Random("bias-oracle")
    for n, size, built in ((6, 8, 8), (6, 7, 10), (8, 3, None), (21, 12, None)):
        b = F2Set(n, rng.sample(range(1 << n), size))
        chars = CharSums(b)
        words = rng.sample(range(1 << n), 40)
        for k, word in enumerate(words + words):
            assert chars.values([word]) == [char_sum(b, word)]
            asked = min(k + 1, len(words))
            assert (chars._table is not None) == (built is not None and asked >= built)
        if built is None:
            assert set(chars._memo) == set(words)


def test_char_sums_values_decide_per_batch(monkeypatch):
    # values(words) gives char_sum for each word in order, repeats included;
    # the table is built when the distinct words asked so far, this batch's
    # included, times |b| pay for it, and is then read for every later batch
    tables = []
    char_table_of = f2.char_table
    monkeypatch.setattr(f2, "char_table", lambda b: tables.append(b) or char_table_of(b))
    rng = random.Random("char-sums-values")
    b = F2Set(8, rng.sample(range(1 << 8), 8))  # a table pays from 32 distinct words
    chars = CharSums(b)
    first = rng.sample(range(1 << 8), 20)
    assert chars.values(first + first[:5]) == [char_sum(b, x) for x in first + first[:5]]
    assert tables == [] and set(chars._memo) == set(first)
    assert chars.values(first) == [char_sum(b, x) for x in first]  # all memoised
    assert tables == []
    rest = [x for x in range(1 << 8) if x not in first][:12]
    assert chars.values(rest) == [char_sum(b, x) for x in rest]
    assert tables == [b]
    assert chars.values([]) == [] and chars.values(first) == [char_sum(b, x) for x in first]
    assert tables == [b]
    big = CharSums(F2Set(21, rng.sample(range(1 << 21), 50)))
    assert big.values(list(range(300))) == [char_sum(big.b, x) for x in range(300)]
    assert big._table is None


def test_char_sums_direct_sums_above_dense_cap():
    # at n = 21 no table is ever built: every value is a popcount of one
    # combine over the transposed members
    n = 21
    assert n > f2.DENSE_CAP
    rng = random.Random("char-sums-21")
    b = F2Set(n, rng.sample(range(1 << n), 300))
    chars = CharSums(b)
    for word in [0, (1 << n) - 1, *b.members[:20], *rng.sample(range(1 << n), 200)]:
        assert chars.values([word]) == [char_sum(b, word)]
    assert chars._table is None


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


def test_duality_measure_is_the_sum_of_char_sums(monkeypatch):
    # duality_measure(a, b) = |sum_{x in a} char_sum(b, x)| / (|a| |b|) on
    # either side of the dense rule, and above DENSE_CAP, where no table is
    # built however many words are asked
    tables = []
    char_table_of = f2.char_table
    monkeypatch.setattr(f2, "char_table", lambda b: tables.append(b.n) or char_table_of(b))
    rng = random.Random("duality-kernel")
    for n, size_a, size_b, dense in ((8, 5, 6, False), (8, 60, 40, True),
                                     (f2.DENSE_CAP + 1, 50, 30, False)):
        a = F2Set(n, rng.sample(range(1 << n), size_a))
        b = F2Set(n, rng.sample(range(1 << n), size_b))
        assert dense_pays(n, size_a * size_b) == dense
        total = sum(char_sum(b, x) for x in a.members)
        tables.clear()
        assert duality_measure(a, b) == Fraction(abs(total), size_a * size_b)
        assert tables == ([n] if dense else [])


def test_duality_errors():
    with pytest.raises(FormatError, match="^duality measure needs two nonempty sets$"):
        duality_measure(F2Set(2, []), F2Set(2, [1]))
    with pytest.raises(FormatError, match=r"^sets live in different spaces, F2\^2 and F2\^3$"):
        duality_measure(F2Set(2, [1]), F2Set(3, [1]))


def test_is_dual_pair_is_the_pairwise_constant():
    rng = random.Random("dual-pair-bit")
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_set(rng, n, 6)
        b = random_set(rng, n, 6)
        if rng.random() < 0.5:  # force duality often: b inside a's annihilator coset
            shift = rng.choice([0, *b.members])
            b = F2Set(n, [y for y in range(1 << n)
                          if len({parity_dot(x, y ^ shift) for x in a.members}) == 1][:6])
            if not len(b):
                continue
        values = {parity_dot(x, y) for x in a.members for y in b.members}
        assert is_dual_pair(a, b) == (values.pop() if len(values) == 1 else None)


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
    with pytest.raises(FormatError, match="inconsistent element width: 3 != 2"):
        parse_set_text("01\n011\n")
    with pytest.raises(FormatError, match="no elements"):
        parse_set_text("# only comments\n")
    # each line is one int(line, 2) call, so what int alone would accept
    # must fail the bit check first
    for line in ("0a", "0_1", "+01", "-01", "0 1", "２1"):
        with pytest.raises(FormatError, match=re.escape(f"not a {{0,1}} string: {line!r}")):
            parse_set_text("1" * len(line) + f"\n{line}\n")
    with pytest.raises(FormatError, match="dimension must be in 1..24, got 25"):
        parse_set_text("1" * 25 + "\n")
    # the first line's bit check, then its width, then the other lines' bits
    with pytest.raises(FormatError, match="dimension must be in 1..24, got 25"):
        parse_set_text("1" * 25 + "\n" + "0a" + "1" * 23 + "\n")
    with pytest.raises(FormatError, match=re.escape("not a {0,1} string: '0a")):
        parse_set_text("0a" + "1" * 23 + "\n" + "1" * 25 + "\n")
