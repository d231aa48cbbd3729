import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from _reference_oracles import parity_dot, rep_count, sum_components
from _reference_oracles import pull_back as reference_pull_back
from dualbench.approxdual import (
    DualPair,
    base_case_dual,
    default_growth_bound,
    exact_dual_oracle,
    find_dual_pair,
    greedy_dual_pair,
    markov_restrict,
    next_set,
    pull_back,
    run_sequence,
    small_span_dual,
)
from dualbench import approxdual
from dualbench.errors import FormatError, InvariantViolation, SearchFailure
from dualbench.f2 import (
    NEIGHBOURHOOD_COST,
    F2Set,
    char_sum,
    dense_pays,
    duality_measure,
    is_dual_pair,
    neighbourhoods,
    span,
)


def subspace(n, *generators):
    return span(F2Set(n, generators))


def random_set(rng, n, max_size):
    size = rng.randint(1, max_size)
    return F2Set(n, (rng.randrange(1 << n) for _ in range(size)))


SELF_ORTH = subspace(4, 0b0011, 0b1100)  # <a,b> = 0 for all members


# -- DualPair invariant -----------------------------------------------------------


def test_dual_pair_verifies_on_construction():
    DualPair(F2Set(2, [1, 2]), F2Set(2, [3]), 1)
    with pytest.raises(InvariantViolation):
        DualPair(F2Set(2, [1, 2]), F2Set(2, [3]), 0)
    with pytest.raises(InvariantViolation):
        DualPair(F2Set(2, [0, 1]), F2Set(2, [1]), 0)


# -- markov_restrict ----------------------------------------------------------------


def test_markov_keeps_everything_at_duality_one():
    a = F2Set(3, [0, 0b101])
    b = F2Set(3, [0])
    a1, eps1 = markov_restrict(a, b)
    assert a1 == a and eps1 == Fraction(1, 2)


def test_markov_zero_duality():
    with pytest.raises(
        SearchFailure, match="^duality measure is zero; nothing to restrict$"
    ) as info:
        markov_restrict(F2Set(2, range(4)), F2Set(2, [1]))
    assert (info.value.stage, info.value.exhaustive) == ("markov_restrict", False)


def test_markov_bound_random():
    rng = random.Random(50)
    checked = 0
    while checked < 80:
        n = rng.randint(2, 8)
        a = random_set(rng, n, 16)
        b = random_set(rng, n, 16)
        if duality_measure(a, b) == 0:
            continue
        a1, eps1 = markov_restrict(a, b)
        assert Fraction(len(a1)) >= eps1 * len(a)
        assert a1.issubset(a)
        checked += 1


# -- next_set ----------------------------------------------------------------------


def test_next_set_subspace():
    b = F2Set(4, [0])  # every vector has bias 1
    nxt, j = next_set(SELF_ORTH, b, Fraction(1, 2))
    assert nxt == SELF_ORTH
    assert j == 2  # every element has rep = |V| = 4


def test_next_set_bucket_example():
    a_prev = F2Set(2, [0b00, 0b01])
    b = F2Set(2, [0])
    nxt, j = next_set(a_prev, b, Fraction(1, 2))
    assert j == 1
    assert nxt == a_prev  # sums {00, 01}, both with rep 2


def test_next_set_tie_goes_to_the_smaller_bucket():
    # B = {0} puts every sum in the spectrum; the sums of A fill buckets 1
    # and 2 with 18 ordered pairs each, and the documented tie-break picks 1
    a_prev = F2Set(4, [0, 1, 2, 3, 4, 8])
    reps = Counter(u ^ v for u in a_prev.members for v in a_prev.members)
    mass = Counter()
    for count in reps.values():
        mass[count.bit_length() - 1] += count
    assert mass == {1: 18, 2: 18}
    nxt, j = next_set(a_prev, F2Set(4, [0]), Fraction(1, 2))
    assert j == 1
    assert nxt == F2Set(4, [x for x, count in reps.items() if count.bit_length() == 2])


def test_next_set_empty_when_threshold_impossible():
    with pytest.raises(SearchFailure, match="^no pair lands in the 2 spectrum$") as info:
        next_set(F2Set(3, [1, 2]), F2Set(3, [1, 2, 4]), Fraction(2))
    assert (info.value.stage, info.value.exhaustive) == ("next_set", False)


# -- run_sequence --------------------------------------------------------------------


def test_run_sequence_subspace_stops_immediately():
    state = run_sequence(SELF_ORTH, SELF_ORTH, 2)
    assert state.t == 1
    assert state.duality == 1
    assert state.level(1).members == SELF_ORTH
    assert state.level(2).members == SELF_ORTH
    assert Fraction(2) ** (state.t - 1) < (1 << state.n)


def test_run_sequence_growing_instance():
    a = F2Set(4, [0, 1, 2, 4, 8])
    b = F2Set(4, [0])
    state = run_sequence(a, b, Fraction(3, 2))
    assert state.t >= 1
    for rec in state.levels[1:]:
        if rec.precondition_held:
            assert rec.eq_mass_holds and rec.eq_size_holds
        assert rec.pair_mass > 0
    # pigeonhole, exact form of t <= ceil(n / log2 K)
    assert state.growth_bound ** (state.t - 1) < (1 << state.n)


def test_run_sequence_lemma_instantiation_n16():
    gens = [0b11 << (2 * i) for i in range(4)]  # self-orthogonal in F2^16
    v = subspace(16, *gens)
    k = default_growth_bound(16)
    assert k == Fraction(2) ** 16
    state = run_sequence(v, v, k)
    assert state.t == 1  # t <= ceil(16/16) = 1


def test_run_sequence_rejects_bad_growth_bound():
    with pytest.raises(FormatError, match="^growth bound K must exceed 1$"):
        run_sequence(SELF_ORTH, SELF_ORTH, 1)


def test_sequence_level_structure_random():
    # every level after the first consists of sums of the previous level,
    # lies in the shrinking spectrum, and sits inside its rep-count window
    from dualbench.f2 import char_sum, sumset

    rng = random.Random(59)
    checked = 0
    while checked < 25:
        n = rng.randint(3, 8)
        a = random_set(rng, n, 14)
        b = random_set(rng, n, 14)
        if duality_measure(a, b) == 0:
            continue
        state = run_sequence(a, b, Fraction(5, 2))
        checked += 1
        assert state.level(1).members.issubset(a)
        for i in range(2, state.t + 2):
            prev = state.level(i - 1).members
            rec = state.level(i)
            sums = sumset(prev, prev)
            assert rec.members.issubset(sums)
            for x in rec.members.members:
                assert abs(char_sum(b, x)) * rec.epsilon.denominator >= (
                    rec.epsilon.numerator * len(b)
                )
                reps = rep_count(prev, x)
                assert (1 << rec.bucket) <= reps <= (1 << (rec.bucket + 1))


# -- small_span_dual ------------------------------------------------------------------


def test_small_span_zero_vector():
    b = F2Set(3, [1, 3, 5])
    pair = small_span_dual(F2Set(3, [0]), b, Fraction(1, 2))
    assert pair.a_side == F2Set(3, [0])
    assert pair.b_side == b
    assert pair.constant_bit == 0


def test_small_span_subspace():
    pair = small_span_dual(SELF_ORTH, SELF_ORTH, 1)
    assert pair.a_side == SELF_ORTH
    assert pair.b_side == SELF_ORTH
    assert pair.constant_bit == 0


def test_small_span_guarantees_random():
    rng = random.Random(51)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 8)
        b = random_set(rng, n, 20)
        eps = Fraction(1, 2)
        # choose A inside the eps-spectrum of B
        from dualbench.f2 import spectrum

        spec = spectrum(b, eps)
        if len(spec.members) == 0:
            continue
        pool = list(spec.members.members)
        rng.shuffle(pool)
        a = F2Set(n, pool[: rng.randint(1, min(8, len(pool)))])
        pair, span_a = small_span_dual(a, b, eps), span(a)
        assert 2 * len(pair.a_side) >= len(a)
        assert Fraction(len(pair.b_side)) >= (eps / 2) * Fraction(len(b), len(span_a))
        assert pair.a_side.issubset(a) and pair.b_side.issubset(b)
        assert exact_dual_oracle(a, b).area() >= pair.area()
        checked += 1


def test_small_span_precondition_enforced():
    b = F2Set(2, range(4))  # every nonzero vector has bias 0
    with pytest.raises(
        FormatError, match="^element 0x1 has bias below 1/2; A not in the spectrum$"
    ):
        small_span_dual(F2Set(2, [1]), b, Fraction(1, 2))


# -- base_case_dual -------------------------------------------------------------------


def test_base_case_subspace():
    state = run_sequence(SELF_ORTH, SELF_ORTH, 4)
    res = base_case_dual(state)
    assert res.pair.a_side == SELF_ORTH
    assert res.pair.b_side == SELF_ORTH
    assert res.bsg.subset == SELF_ORTH
    assert res.pfr.span_size <= len(res.bsg.subset)


def test_base_case_structured_instance():
    v = subspace(5, 0b00011, 0b01100)
    b = v
    a = F2Set(5, list(v.members) + [0b10000, 0b10001])
    state = run_sequence(a, b, 4)
    res = base_case_dual(state)
    assert res.pair.a_side.issubset(state.level(state.t).members)
    assert res.pair.b_side.issubset(b)


# -- pull_back -----------------------------------------------------------------------


def test_pull_back_case_zero_subspace():
    pair_up = DualPair(SELF_ORTH, SELF_ORTH, 0)
    pair = pull_back(SELF_ORTH, pair_up, SELF_ORTH)
    assert pair.a_side == SELF_ORTH
    assert len(pair.b_side) * 2 >= len(SELF_ORTH)


def test_pull_back_case_one_toy():
    # A_prev = {0, x}; upper pair ({x}, {b}) with <x,b> = 1
    x, b = 0b01, 0b01
    a_prev = F2Set(2, [0, x])
    pair_up = DualPair(F2Set(2, [x]), F2Set(2, [b]), 1)
    pair = pull_back(a_prev, pair_up, F2Set(2, [x]))
    assert len(pair.a_side) == 1
    assert pair.b_side == F2Set(2, [b])
    assert pair.a_side.members[0] in (0, x)


def test_pull_back_halving_and_validity_random():
    rng = random.Random(52)
    built = 0
    while built < 40:
        n = rng.randint(2, 6)
        a_prev = random_set(rng, n, 10)
        # fabricate a valid upper pair from the sumset
        sums = sorted({u ^ v for u in a_prev.members for v in a_prev.members})
        a_i = F2Set(n, sums)
        b_pool = random_set(rng, n, 10)
        try:
            upper = exact_dual_oracle(a_i, b_pool)
        except FormatError as exc:
            assert re.fullmatch(r"enumerated dimension \d+ exceeds exact cap 20", str(exc))
            continue
        pair = pull_back(a_prev, upper, a_i)
        built += 1
        assert 2 * len(pair.b_side) >= len(upper.b_side)
        assert pair.a_side.issubset(a_prev)
        assert pair.b_side.issubset(upper.b_side)


def test_pull_back_graph_empty():
    a_prev = F2Set(3, [0b001])
    pair_up = DualPair(F2Set(3, [0b111]), F2Set(3, [0b000]), 0)
    with pytest.raises(
        SearchFailure, match="^pair's A side is disjoint from the previous sumset$"
    ) as info:
        pull_back(a_prev, pair_up, F2Set(3, [0b111]))
    assert (info.value.stage, info.value.exhaustive) == ("pull_back", False)


def test_pull_back_zero_a_side_keeps_one_element():
    # the A side {0} joins no two elements, yet x + x = 0 for every x
    a_prev = F2Set(3, [1, 2, 4, 7])
    b = F2Set(3, [3, 5, 6])
    pair = pull_back(a_prev, DualPair(F2Set(3, [0]), b, 0), F2Set(3, [0, 3]))
    assert pair == DualPair(F2Set(3, [1]), F2Set(3, [3, 5]), 1)


def test_pull_back_rejects_a_component_split_two_ways(monkeypatch):
    # every y in a valid B' splits the component alike, so only a broken
    # ip_rows answer reaches the check: B' = {1} is answered with two rows
    # that split the component {0, 1} two ways
    a_prev = F2Set(2, [0, 1])
    pair_up = DualPair(F2Set(2, [1]), F2Set(2, [1]), 1)
    real, asked = approxdual.ip_rows, []

    def split_two_ways(xs, ys):
        rows = real(xs, ys)
        asked.append(list(ys))
        return rows + [rows[0] ^ 1] if len(asked) == 2 else rows

    monkeypatch.setattr(approxdual, "ip_rows", split_two_ways)
    with pytest.raises(
        InvariantViolation, match="^component element has non-constant product against B'$"
    ):
        pull_back(a_prev, pair_up, F2Set(2, [1]))
    assert asked == [[1], [0, 1]]  # B' against the component's first member, then the component


def _pull_back_case(rng):
    """A_(i-1), a dual pair whose A side is drawn mostly from A_(i-1)'s pair
    sums (sometimes with 0 added), and that A side as the level set."""
    n = rng.randint(1, 10)
    size = rng.choice((1, 2, 3, rng.randint(1, 12), rng.randint(1, 60)))
    a_prev = F2Set(n, rng.sample(range(1 << n), min(size, 1 << n)))
    while True:
        b = F2Set(n, rng.sample(range(1 << n), min(rng.randint(1, 6), 1 << n)))
        bit = rng.randint(0, 1)
        fits = [x for x in range(1 << n) if all(parity_dot(x, y) == bit for y in b)]
        if fits:
            break
    sums = [x for x in fits if rep_count(a_prev, x)]
    pool = sums if sums and rng.random() < 0.8 else fits
    a_side = set(rng.sample(pool, rng.randint(1, min(len(pool), rng.choice((1, 3, 8, 40))))))
    if bit == 0 and rng.random() < 0.2:
        a_side.add(0)
    pair = DualPair(F2Set(n, a_side), b, bit)
    return a_prev, pair, pair.a_side


def test_pull_back_matches_reference():
    # the sum graph's three neighbourhoods paths, 0 in the A side (every
    # member's self-loop), tied largest components, both constant bits, a
    # one-member A_(i-1) and the empty graph all agree with the reference
    rng = random.Random(25)
    seen = Counter()
    for _ in range(2400):
        a_prev, pair, a_i = _pull_back_case(rng)
        smaller = min(len(a_prev), len(pair.a_side))
        if dense_pays(a_prev.n, NEIGHBOURHOOD_COST * smaller):
            seen["dense word"] += 1
        elif len(pair.a_side) < len(a_prev):
            seen["walk over s"] += 1
        else:
            seen["pass over a"] += 1
        seen["0 in A side"] += 0 in pair.a_side
        seen[f"constant bit {pair.constant_bit}"] += 1
        seen["singleton"] += len(a_prev) == 1
        components = sum_components(a_prev, pair.a_side)
        if components is None:
            seen["empty graph"] += 1
            with pytest.raises(SearchFailure) as want:
                reference_pull_back(a_prev, pair, a_i)
            with pytest.raises(SearchFailure) as got:
                pull_back(a_prev, pair, a_i)
            assert (got.value.stage, str(got.value)) == (want.value.stage, str(want.value))
            continue
        sizes = [len(c) for c in components]
        seen["tied components"] += sizes.count(max(sizes)) > 1
        assert pull_back(a_prev, pair, a_i) == reference_pull_back(a_prev, pair, a_i)
    assert min(seen.values()) >= 40 and len(seen) == 9, seen


def test_pull_back_takes_its_graph_from_neighbourhoods(monkeypatch):
    calls = []

    def spy(a, s):
        calls.append((a, s))
        return neighbourhoods(a, s)

    monkeypatch.setattr(approxdual, "neighbourhoods", spy)
    rng = random.Random(3)
    for _ in range(50):
        a_prev, pair, a_i = _pull_back_case(rng)
        calls.clear()
        try:
            pull_back(a_prev, pair, a_i)
        except SearchFailure:
            pass
        assert calls == [(a_prev, pair.a_side)]


# -- find_dual_pair -------------------------------------------------------------------


def test_pipeline_subspace_end_to_end():
    trace = find_dual_pair(SELF_ORTH, SELF_ORTH)
    assert trace.ok
    assert 2 * len(trace.final.a_side) >= len(SELF_ORTH)
    assert trace.ratio_a >= Fraction(1, 2)
    assert trace.ratio_b > 0
    oracle = exact_dual_oracle(SELF_ORTH, SELF_ORTH)
    assert oracle.area() >= trace.final.area()


def test_pipeline_weight_two_slice_n8():
    words = [sum(1 << i for i in c) for c in combinations(range(8), 2)]
    a = F2Set(8, words)
    trace = find_dual_pair(a, a)
    oracle = exact_dual_oracle(a, a, exact_cap=28)
    assert oracle.area() == 36
    if trace.ok:
        assert oracle.area() >= trace.final.area()
    else:
        assert trace.failed_stage is not None


def test_pipeline_prunes_zero_bias_outliers():
    # outliers with zero bias against B disappear at the first restriction,
    # so the final pair must live inside the subspace core
    v = subspace(5, 0b00011, 0b01100)
    noisy = F2Set(5, list(v.members) + [0b00101, 0b00110])
    trace = find_dual_pair(noisy, v)
    assert trace.ok
    assert trace.state.level(1).members == v
    assert trace.final.a_side.issubset(v)


def test_pipeline_random_never_invalid():
    rng = random.Random(53)
    successes = 0
    for _ in range(60):
        n = rng.randint(2, 8)
        a = random_set(rng, n, 12)
        b = random_set(rng, n, 12)
        if duality_measure(a, b) == 0:
            continue
        trace = find_dual_pair(a, b, seed=rng.randrange(1000))
        if trace.ok:
            successes += 1
            # DualPair construction already verified D=1 exhaustively
            assert trace.final.a_side.issubset(a)
            assert trace.final.b_side.issubset(b)
            assert exact_dual_oracle(a, b).area() >= trace.final.area()
        else:
            assert trace.failed_stage is not None
            assert trace.failure_message
    assert successes >= 10


def test_pipeline_trace_records():
    trace = find_dual_pair(SELF_ORTH, SELF_ORTH)
    assert trace.state.t in trace.level_pairs
    assert 1 in trace.level_pairs
    for level, pair in trace.level_pairs.items():
        assert pair.a_side.issubset(trace.state.level(level).members)
        assert pair.b_side.issubset(trace.state.source_b)
    refs = trace.references
    assert refs["levels"][0]["level"] == trace.state.t
    assert refs["global_a_shape"] > 0


def test_pipeline_determinism():
    rng = random.Random(54)
    a = random_set(rng, 6, 14)
    b = random_set(rng, 6, 14)
    if duality_measure(a, b) == 0:
        a = F2Set(6, list(a.members) + [0])
    t1 = find_dual_pair(a, b, seed=5)
    t2 = find_dual_pair(a, b, seed=5)
    assert t1.ok == t2.ok
    if t1.ok:
        assert t1.final == t2.final


def test_pipeline_zero_duality_captured():
    trace = find_dual_pair(F2Set(2, range(4)), F2Set(2, [1]))
    assert not trace.ok
    assert trace.failed_stage == "markov_restrict"


# t = 3 at K = 2, so the pipeline pulls back twice
THREE_LEVELS = (F2Set(6, [1, 4, 16, 21, 25, 27, 32, 44, 48, 58]), F2Set(6, [24, 26, 55]), 2)


def test_pipeline_pull_back_failure_is_labelled(monkeypatch):
    whole = find_dual_pair(*THREE_LEVELS)
    assert whole.ok and whole.state.t == 3
    real = approxdual.pull_back
    for i in (3, 2):
        level_i = whole.state.level(i).members

        def failing(a_prev, pair_i, a_i, level_i=level_i):
            if a_i == level_i:
                raise SearchFailure("pull_back", "patched")
            return real(a_prev, pair_i, a_i)

        monkeypatch.setattr(approxdual, "pull_back", failing)
        trace = find_dual_pair(*THREE_LEVELS)
        assert trace.failed_stage == f"pull_back[{i}->{i - 1}]"
        assert trace.failure_message == "patched"
        assert trace.final is None and trace.ratio_a is None
        assert trace.bsg == whole.bsg and trace.small_span == whole.small_span
        assert trace.level_pairs == {lv: whole.level_pairs[lv] for lv in range(i, 4)}


def test_pipeline_bsg_failure_is_labelled(monkeypatch):
    def failing(*args, **kwargs):
        raise SearchFailure("bsg", "patched")

    monkeypatch.setattr(approxdual, "bsg_extract", failing)
    trace = find_dual_pair(SELF_ORTH, SELF_ORTH)
    assert trace.failed_stage == "bsg"
    assert trace.failure_message == "patched"
    assert trace.state is not None and trace.state.t == 1
    assert trace.bsg is None and trace.pfr is None and trace.level_pairs == {}


def test_sparse_paths_above_dense_cap():
    # n = 21 is above DENSE_CAP: next_set counts sums in a dict and the bias
    # oracle memoises char sums instead of building 2^n tables
    n = 21
    rng = random.Random("sparse-21")
    space = subspace(n, *(rng.randrange(1 << n) for _ in range(4))).members
    a = F2Set(n, rng.sample(space, 9))
    b = F2Set(n, rng.sample(space, 5) + [rng.randrange(1 << n) for _ in range(2)])
    eps = Fraction(1, 3)
    reps = Counter(u ^ v for u in a.members for v in a.members)
    mass = [0] * n
    buckets = [[] for _ in range(n)]
    for x, count in reps.items():
        if abs(char_sum(b, x)) * eps.denominator >= eps.numerator * len(b):
            j = min(count.bit_length() - 1, n - 1)
            mass[j] += count
            buckets[j].append(x)
    best = max(range(n), key=lambda j: (mass[j], -j))
    assert sum(map(len, buckets)) < len(reps)  # the threshold drops some sums
    assert next_set(a, b, eps) == (F2Set(n, buckets[best]), best)

    s = subspace(n, 1 << 3 | 1, 1 << 20 | 1 << 7, 1 << 12 | 1 << 5 | 1 << 2)
    trace = find_dual_pair(s, s)
    assert trace.ok
    pair = trace.final
    assert pair.a_side.issubset(s) and pair.b_side.issubset(s)
    assert is_dual_pair(pair.a_side, pair.b_side) == pair.constant_bit


# -- exact oracle and greedy ------------------------------------------------------------


def test_oracle_zero_vector():
    b = F2Set(3, [1, 2, 5, 7])
    pair = exact_dual_oracle(F2Set(3, [0]), b)
    assert pair.area() == len(b)
    assert pair.constant_bit == 0


def test_oracle_punctured_plane():
    a = F2Set(2, [1, 2, 3])
    pair = exact_dual_oracle(a, a)
    assert pair.area() == 2
    assert pair.a_side == F2Set(2, [1])
    assert pair.b_side == F2Set(2, [1, 3])
    assert pair.constant_bit == 1


def test_oracle_sides_agree():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = random_set(rng, n, 7)
        b = random_set(rng, n, 7)
        # the oracle enumerates its first set unless the second is smaller:
        # equal sizes enumerate A one way and B the other, unequal sizes
        # enumerate the smaller set on a transposed matrix
        assert exact_dual_oracle(a, b).area() == exact_dual_oracle(b, a).area()


def test_oracle_cap(monkeypatch):
    big = F2Set(6, range(40))
    # the cap is checked before the |A| x |B| inner-product matrix is built
    monkeypatch.setattr(approxdual, "ip_rows", None)
    with pytest.raises(FormatError, match="^enumerated dimension 40 exceeds exact cap 20$"):
        exact_dual_oracle(big, big, exact_cap=20)


def test_oracle_reach_weight_two_slice():
    # 55 and 66 elements on the enumerated side; the proven maximum is
    # C(n//2, 2) * C(n - n//2, 2) (acceptance criterion 6)
    from dualbench.experiments import make_weight_slice

    for n, area in ((11, 150), (12, 225)):
        a = make_weight_slice(n, 2)
        pair = exact_dual_oracle(a, a, exact_cap=66)
        assert pair.area() == area == comb(n // 2, 2) * comb(n - n // 2, 2)


def test_oracle_maximality_brute_force():
    rng = random.Random(56)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = random_set(rng, n, 5)
        b = random_set(rng, n, 6)
        pair = exact_dual_oracle(a, b)
        # independent check: every subset pair, full enumeration
        best = 0
        for ra in range(1, len(a) + 1):
            for sub_a in combinations(a.members, ra):
                for rb in range(1, len(b) + 1):
                    for sub_b in combinations(b.members, rb):
                        vals = {parity_dot(x, y) for x in sub_a for y in sub_b}
                        if len(vals) == 1:
                            best = max(best, ra * rb)
        assert pair.area() == best


def test_oracle_beats_greedy_and_pipeline():
    rng = random.Random(57)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = random_set(rng, n, 10)
        b = random_set(rng, n, 10)
        oracle = exact_dual_oracle(a, b)
        greedy = greedy_dual_pair(a, b)
        assert oracle.area() >= greedy.area()


def test_bridge_oracle_equals_max_mono():
    from dualbench.matrix import BoolMatrix, dedup, factorize_f2, max_mono_exact

    rng = random.Random(58)
    for _ in range(30):
        k, l = rng.randint(1, 10), rng.randint(1, 10)
        m = BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])
        m, _, _ = dedup(m)
        fact = factorize_f2(m)
        mono = max_mono_exact(m, *m.whole())
        pair = exact_dual_oracle(fact.a_set, fact.b_set)
        assert pair.area() == mono.area()


def test_base_case_measures_each_sumset_once(monkeypatch):
    # pfr_extract takes |A + A| of BSG's subset from bsg_extract, which has
    # just measured it, and its input_doubling is that size over |A|
    from dualbench import adcomb
    from dualbench.f2 import sumset_size

    measured = []

    def spy(s):
        measured.append(s.members)
        return sumset_size(s)

    monkeypatch.setattr(adcomb, "sumset_size", spy)
    rng = random.Random(83)
    runs = 0
    for _ in range(6):
        a = F2Set(10, rng.sample(range(1 << 10), 200))
        measured.clear()
        trace = find_dual_pair(a, a, seed=rng.randrange(100))
        if trace.pfr is None:
            continue
        runs += 1
        assert len(measured) == len(set(measured))
        subset = trace.bsg.subset
        assert trace.pfr.input_doubling == Fraction(sumset_size(subset), len(subset))
    assert runs
