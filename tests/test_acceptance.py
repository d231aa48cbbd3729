"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines as
they complete.  Every tolerance and bound is pinned here; nothing defers to
later calibration.
"""

import json
import math
import random
import time
from fractions import Fraction

from dualbench.approxdual import exact_dual_oracle, find_dual_pair
from dualbench.cli import main as cli_main
from dualbench.errors import SearchFailure
from dualbench.experiments import (
    make_block_low_rank,
    make_ip_matrix,
    make_low_real_rank,
    make_weight_slice,
    to_json,
)
from dualbench.f2 import F2Set, char_sum, duality_measure, mask_of, parse_set_text, format_set
from dualbench.matrix import (
    BoolMatrix,
    SubmatrixView,
    dedup,
    factorize_f2,
    find_biased_submatrix,
    format_matrix,
    max_mono_exact,
    parse_matrix_text,
    rank_f2,
    rank_real,
)
from dualbench.protocol import STRATEGIES, build_protocol, format_tree, parse_tree_text, verify


class criterion:
    """Times a criterion body and prints its PASS/FAIL line."""

    def __init__(self, number: int, budget: float, description: str):
        self.number = number
        self.budget = budget
        self.description = description

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        ok = exc_type is None and elapsed < self.budget
        print(
            f"ACCEPTANCE {self.number}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s / budget {self.budget:.0f}s) - {self.description}"
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_ip_anchors():
    with criterion(1, 1.0, "inner-product matrix rank anchors, n = 2..5"):
        for n in range(2, 6):
            m = make_ip_matrix(n)
            assert rank_f2(m) == n
            assert rank_real(m) == (1 << n) - 1


def test_criterion_2_bridge_equivalence():
    with criterion(2, 30.0, "mono rectangle <-> dual pair bridge, 500 instances"):
        rng = random.Random("acceptance-2")
        instances = 0
        while instances < 500:
            k = rng.randint(1, 8)
            l = rng.randint(1, 8)
            m = BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])
            m, _, _ = dedup(m)
            fact = factorize_f2(m)
            mono = max_mono_exact(m, *m.whole())
            pair = exact_dual_oracle(fact.a_set, fact.b_set)
            assert pair.area() == mono.area()
            for _ in range(100):
                i_set = tuple(
                    sorted(rng.sample(range(m.n_rows), rng.randint(1, m.n_rows)))
                )
                j_set = tuple(
                    sorted(rng.sample(range(m.n_cols), rng.randint(1, m.n_cols)))
                )
                view = SubmatrixView(m, mask_of(i_set), mask_of(j_set))
                a = F2Set(fact.a_set.n, [fact.row_words[i] for i in i_set])
                b = F2Set(fact.b_set.n, [fact.col_words[j] for j in j_set])
                assert view.discrepancy() == duality_measure(a, b)
            instances += 1


def test_criterion_3_markov_and_cauchy_schwarz():
    with criterion(3, 60.0, "Markov and Cauchy-Schwarz spectrum claims, 1000 instances"):
        rng = random.Random("acceptance-3")
        nonvacuous = 0
        for _ in range(1000):
            n = rng.randint(2, 10)
            a = F2Set(n, (rng.randrange(1 << n) for _ in range(rng.randint(1, 16))))
            b = F2Set(n, (rng.randrange(1 << n) for _ in range(rng.randint(1, 16))))
            chars = {w: char_sum(b, w) for w in a.members}
            total = sum(chars.values())
            d = Fraction(abs(total), len(a) * len(b))
            if d == 0:
                continue
            nonvacuous += 1
            half = d / 2
            kept = sum(
                1
                for w in a.members
                if abs(chars[w]) * half.denominator >= half.numerator * len(b)
            )
            assert Fraction(kept) >= half * len(a)
            pair_total = sum(
                abs(char_sum(b, u ^ v)) for u in a.members for v in a.members
            )
            lhs = Fraction(pair_total, len(a) * len(a) * len(b))
            assert lhs >= d * d
        assert nonvacuous >= 600


def test_criterion_4_pipeline_soundness():
    with criterion(4, 300.0, "dual-pair pipeline soundness, 500-instance fuzz"):
        rng = random.Random("acceptance-4")
        produced = 0
        failed_stages = 0
        for idx in range(500):
            kind = idx % 5
            if kind == 0:
                n = rng.randint(3, 10)
                d = rng.randint(1, n // 2)
                gens = [rng.randrange(1 << n) for _ in range(d)]
                from dualbench.f2 import span

                base = span(F2Set(n, gens))
                extra = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
                a = F2Set(n, list(base.members) + extra)
                b = base
            elif kind == 1:
                n = rng.choice([4, 6, 8])
                w = rng.choice([1, 2])
                a = b = make_weight_slice(n, w)
            elif kind == 2:
                n = rng.randint(2, 12)
                a = F2Set(n, (rng.randrange(1 << n) for _ in range(rng.randint(1, 24))))
                b = F2Set(n, (rng.randrange(1 << n) for _ in range(rng.randint(1, 24))))
            elif kind == 3:
                n = rng.randint(3, 10)
                from dualbench.f2 import span

                a = span(F2Set(n, [rng.randrange(1 << n) for _ in range(n // 2)]))
                b = F2Set(n, (rng.randrange(1 << n) for _ in range(rng.randint(1, 20))))
            else:
                n = rng.randint(2, 12)
                pool = [rng.randrange(1 << n) for _ in range(rng.randint(1, 20))]
                a = b = F2Set(n, pool + [0])
            # small growth bounds force deeper towers; keep them to small n
            # where level sets (and the quadratic base-case scans) stay small
            if a.n <= 8 and idx % 3 == 0:
                growth = Fraction(3, 2)
            else:
                growth = rng.choice([None, None, 4])
            trace = find_dual_pair(a, b, growth_bound=growth, seed=idx)
            if trace.state is not None:
                state = trace.state
                assert state.growth_bound ** (state.t - 1) < (1 << state.n)
                for rec in state.levels[1:]:
                    if rec.precondition_held:
                        assert rec.eq_mass_holds and rec.eq_size_holds
            if trace.ok:
                produced += 1
                pair = trace.final
                assert duality_measure(pair.a_side, pair.b_side) == 1
                assert pair.a_side.issubset(a)
                assert pair.b_side.issubset(b)
            else:
                failed_stages += 1
                assert trace.failed_stage is not None
        assert produced >= 100  # the corpus must actually exercise the pipeline
        assert produced + failed_stages == 500


def test_criterion_5_protocol_correctness():
    with criterion(5, 120.0, "protocol build/verify, 200 matrices x 3 strategies"):
        rng = random.Random("acceptance-5")
        for idx in range(200):
            kind = idx % 3
            if kind == 2:
                # dense strip: rank <= rows <= 6 with rich column structure
                k = rng.randint(2, 6)
                l = rng.randint(2, 16)
                m = BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])
            else:
                k = rng.randint(2, 16)
                l = rng.randint(2, 16)
                r = rng.randint(1, min(6, k, l))
                generator = make_block_low_rank if kind else make_low_real_rank
                m = generator(k, l, r, rng)
            assert rank_real(m) <= 6
            for strategy in STRATEGIES:
                tree = build_protocol(m, strategy, seed=5)
                cost = verify(tree, m)  # raises on any mismatch or rank violation
                assert tree.leaves >= cost.rank_real - 1


def test_criterion_6_counterexample_family():
    """The weight-2 slice is a counterexample family for approximate duality.

    Read each element of A = make_weight_slice(n, 2) as an edge of the
    complete graph on [n]; then <a,b> = |a & b| mod 2, which is 0 iff the
    edges are disjoint or equal and 1 iff they share exactly one vertex.

    D(A,A) = |1 - 8(n-2)/(n(n-1))| (count the pairs of edges meeting in one
    vertex): 1/15, 1/21, 1/7, 2/9, 13/45 for n = 6..10, strictly increasing
    from n = 7 on.

    The maximum dual-pair area is C(floor(n/2),2) * C(ceil(n/2),2) for n >= 6:
    - constant 0: the edges in both A' and B' form a matching M, and the other
      edges of A' and of B' lie on disjoint vertex sets U and W, so
      area <= (|M| + C(u,2)) * (|M| + C(w,2)) with 2|M| + u + w <= n, whose
      maximum is the closed form (M empty, U and W halving [n]);
    - constant 1: every edge of A' meets every edge of B' in one vertex.
      Splitting on whether B' holds two disjoint edges, or is a star or a
      triangle, gives area <= max(8, 2(n-2), floor((n-1)^2/4)), which is
      below the closed form for every n >= 6.
    An independent enumeration of all closed pairs agrees for n = 4..10
    (8, 8, 9, 18, 36, 60, 100); the closed form fails for n < 6.

    For n = 2m the area ratio is ((m-1)/(4m-2))^2: it rises toward 1/16 and
    never reaches it, while D(A,A) rises toward 1. That gap is what makes the
    family a counterexample.
    """
    with criterion(6, 120.0, "weight-2 slice counterexample experiment, n = 6, 8, 10"):
        rows = []
        dualities = []
        ratios = []
        for n in (6, 8, 10):
            a = make_weight_slice(n, 2)
            d = duality_measure(a, a)
            pair = exact_dual_oracle(a, a, exact_cap=64)
            ratio = Fraction(pair.area(), len(a) * len(a))
            rows.append(
                f"n={n}: |A|={len(a)} D(A,A)={d} max_area={pair.area()} "
                f"ratio={ratio} ({float(ratio):.5f})"
            )
            dualities.append(d)
            ratios.append(ratio)
            table = "; ".join(rows)
            proven_area = math.comb(n // 2, 2) * math.comb((n + 1) // 2, 2)
            assert pair.area() == proven_area, (
                f"max-pair area at n={n} is not the proven {proven_area}: {table}"
            )
            assert d == abs(1 - Fraction(8 * (n - 2), n * (n - 1))), (
                f"D(A,A) at n={n} is off its closed form: {table}"
            )
        assert all(
            dualities[i] < dualities[i + 1] for i in range(len(dualities) - 1)
        ), f"D(A,A) is not strictly increasing: {table}"
        assert all(r < Fraction(1, 16) for r in ratios), (
            f"max-pair area ratio reaches 1/16: {table}"
        )


def test_criterion_7_biased_submatrix_contract():
    with criterion(7, 120.0, "rank^(-3/2) biased-submatrix contract, 100 instances"):
        rng = random.Random("acceptance-7")
        for _ in range(100):
            k = rng.randint(6, 12)
            l = rng.randint(6, 12)
            r = rng.randint(2, 5)
            m = make_low_real_rank(k, l, r, rng)
            rank = rank_real(m)
            assert 2 <= rank <= 5
            try:
                view = find_biased_submatrix(m, rank)  # exact fallback within cap
            except SearchFailure as exc:
                raise AssertionError(
                    f"SearchFailure at exact scale on a {m.n_rows}x{m.n_cols} "
                    f"rank-{rank} instance (exhaustive={exc.exhaustive})"
                ) from exc
            zeros, ones = view.counts()
            area = view.area()
            assert area * area * rank**3 >= m.size() * m.size()
            assert (zeros - ones) ** 2 * rank**3 >= area * area


def test_criterion_8_determinism_and_round_trips(tmp_path):
    with criterion(8, 30.0, "CLI determinism and file-format round trips"):
        runs = [
            ["experiment", "--name", "counterexample", "--ns", "4,6", "--seed", "3"],
            ["experiment", "--name", "doubling", "--n", "6", "--seed", "3"],
            ["experiment", "--name", "nw-bias", "--count", "4", "--k", "8",
             "--l", "8", "--rank", "3", "--seed", "3"],
            ["experiment", "--name", "log-rank-sweep", "--ranks", "2,3",
             "--k", "6", "--l", "6", "--instances", "2", "--seed", "3"],
            ["experiment", "--name", "dual-pipeline", "--family", "subspace",
             "--n", "6", "--d", "3", "--seed", "3"],
        ]
        for i, argv in enumerate(runs):
            first = tmp_path / f"first_{i}.json"
            second = tmp_path / f"second_{i}.json"
            assert cli_main(argv + ["--out", str(first)]) == 0
            assert cli_main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            report = json.loads(first.read_text())
            assert to_json(report).encode("ascii") == first.read_bytes()

        # matrix, set and tree formats round-trip exactly
        rng = random.Random("acceptance-8")
        m = BoolMatrix(5, 7, [rng.randrange(1 << 7) for _ in range(5)])
        assert parse_matrix_text(format_matrix(m)) == m
        s = F2Set(6, (rng.randrange(64) for _ in range(12)))
        assert parse_set_text(format_set(s)) == s
        tree = build_protocol(m)
        assert format_tree(parse_tree_text(format_tree(tree))) == format_tree(tree)
