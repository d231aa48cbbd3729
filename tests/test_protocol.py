import dataclasses
import hashlib
import inspect
import json
import re
import random
import sys
import textwrap
from fractions import Fraction
from functools import partial

import pytest

import _reference_oracles as ref
from dualbench import approxdual, experiments, matrix, protocol
from dualbench import runners  # noqa: F401  (loaded now, so a rank spy reaches its binding)
from dualbench.approxdual import PipelineTrace, mono_via_dual
from dualbench.cli import main
from dualbench.errors import DualbenchError, FormatError, InvariantViolation, TreeMismatch
from dualbench.experiments import (
    make_block_low_rank,
    make_ip_matrix,
    make_random_dense,
    make_random_f2_rank,
    make_weight_slice,
    run_experiment,
    to_json,
)
from dualbench.f2 import mask_of, members
from dualbench.matrix import BoolMatrix, dedup, max_mono_exact, rank_real
from dualbench.protocol import (
    Internal,
    Leaf,
    NodeStats,
    STRATEGIES,
    build_protocol,
    format_tree,
    leaf_recurrence_audit,
    parse_tree_text,
    simulate,
    tree_from_dict,
    verify,
)


def identity(n):
    return BoolMatrix(n, n, [1 << i for i in range(n)])


def all_ones(k, l):
    return BoolMatrix(k, l, [(1 << l) - 1] * k)


def random_low_rank(rng, k, l, r):
    templates = [rng.randrange(1 << l) for _ in range(r)]
    return BoolMatrix(k, l, [templates[rng.randrange(r)] for _ in range(k)])


def assert_simulates(tree, m):
    for x in range(m.n_rows):
        for y in range(m.n_cols):
            out, bits = simulate(tree, x, y)
            assert out == m.entry(x, y)
            assert bits <= tree.depth


# -- build + simulate -----------------------------------------------------------


def test_monochromatic_single_leaf():
    tree = build_protocol(all_ones(4, 5))
    assert isinstance(tree.root, Leaf)
    assert tree.leaves == 1 and tree.depth == 0
    assert_simulates(tree, all_ones(4, 5))
    report = verify(tree, all_ones(4, 5))
    assert report.leaves == 1 and report.depth == 0


def test_identity_two():
    m = identity(2)
    tree = build_protocol(m)
    assert_simulates(tree, m)
    # I2 has no partition into fewer than 4 monochromatic rectangles
    assert tree.leaves == 4
    assert tree.depth >= 1
    report = verify(tree, m)
    assert report.rank_real == 2


def test_ip_matrix_protocol():
    m = make_ip_matrix(2)
    tree = build_protocol(m)
    assert_simulates(tree, m)
    report = verify(tree, m)
    assert report.rank_real == 3
    assert tree.depth >= 2  # rank over the rationals is 3, so 2 bits minimum


def test_ip3_protocol_correct():
    m = make_ip_matrix(3)
    tree = build_protocol(m)
    report = verify(tree, m)
    assert report.rank_real == 7
    assert tree.depth >= 3


def test_duplicates_answered_through_maps():
    rng = random.Random(60)
    base = random_low_rank(rng, 4, 5, 2)
    rows = list(base.rows) + [base.rows[0], base.rows[2]]
    m = BoolMatrix(len(rows), 5, rows)
    tree = build_protocol(m)
    assert tree.matrix.n_rows <= 4
    assert_simulates(tree, m)
    verify(tree, m)


# -- invariants over a fuzz corpus --------------------------------------------------


def test_fuzz_exact_strategy():
    rng = random.Random(61)
    for _ in range(40):
        m = random_low_rank(rng, rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 3))
        tree = build_protocol(m)
        report = verify(tree, m)
        assert report.leaves >= report.rank_real - 1
        assert report.leaves <= 2 * report.size
        assert leaf_recurrence_audit(tree) == tree.internal_nodes


def test_fuzz_greedy_strategy():
    rng = random.Random(62)
    for _ in range(40):
        m = random_low_rank(rng, rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 3))
        tree = build_protocol(m, "greedy")
        verify(tree, m)
        assert leaf_recurrence_audit(tree) == tree.internal_nodes


def test_fuzz_via_dual_strategy():
    rng = random.Random(63)
    for _ in range(15):
        m = random_low_rank(rng, rng.randint(2, 6), rng.randint(2, 6), 2)
        tree = build_protocol(m, "via-dual", seed=7)
        verify(tree, m)
        assert leaf_recurrence_audit(tree) == tree.internal_nodes


def test_identity4_audit_area_decreases():
    m = identity(4)
    tree = build_protocol(m)
    assert verify(tree, m).rank_real == 4
    # raises if any child area fails to shrink
    assert leaf_recurrence_audit(tree) == tree.internal_nodes


def test_node_stats_check_themselves():
    good = dict(area=12, rank=3, rank_r=1, rank_s=2, mono_area=4, mono_value=1)
    assert NodeStats(**good).mono_fraction == Fraction(1, 3)
    for change in (
        {"mono_value": 2},
        {"mono_value": -1},
        {"mono_area": 0},
        {"mono_area": 12},
        {"rank": 0, "rank_r": 0, "rank_s": 0},
        {"rank_r": -1},
        {"rank_s": 4},
        {"rank_r": 2, "rank_s": 3},  # block ranks 2 + 3 > rank + 1
        {"rank": 5, "rank_r": 4, "rank_s": 3},
    ):
        with pytest.raises(InvariantViolation):
            NodeStats(**{**good, **change})


def test_build_ranks_each_block_once(monkeypatch, tmp_path):
    # the finder, the build, verify and the audit share the matrix's rank
    # memo: no block is eliminated twice, and nothing else eliminates
    asked = []  # the (rows, cols) of each block_rank call in progress
    ranked = []  # per rank_real call, through any module's binding, its asked[-1]
    block_rank = BoolMatrix.block_rank

    def block_rank_spy(self, rows, cols):
        asked.append((rows, cols))
        try:
            return block_rank(self, rows, cols)
        finally:
            asked.pop()

    def rank_spy(m):
        ranked.append(asked[-1] if asked else None)
        return rank_real(m)

    monkeypatch.setattr(BoolMatrix, "block_rank", block_rank_spy)
    for name, module in list(sys.modules.items()):
        if name.startswith("dualbench") and getattr(module, "rank_real", None) is rank_real:
            monkeypatch.setattr(module, "rank_real", rank_spy)
    rng = random.Random(67)
    for strategy in STRATEGIES:
        for _ in range(10):
            ranked.clear()
            m = random_low_rank(rng, 8, 8, 3)
            tree = build_protocol(m, strategy)
            verify(tree, m)
            leaf_recurrence_audit(tree)
            assert None not in ranked and len(ranked) == len(set(ranked)), (strategy, ranked)
    for r in (4, 6, 8):  # via-dual searches blocks of rank past two
        ranked.clear()
        m = experiments.generate_matrix("random-f2-rank", {"k": 20, "l": 20, "rank": r}, 0)
        tree = build_protocol(m, "via-dual")
        verify(tree, m)
        leaf_recurrence_audit(tree)
        assert len(ranked) > 5
        assert None not in ranked and len(ranked) == len(set(ranked)), ranked
    # one protocol verb on a 64x64 matrix of F2 rank 10
    mfile = tmp_path / "m.txt"
    assert main(["gen-matrix", "--family", "random-f2-rank", "--k", "64", "--l", "64",
                 "--rank", "10", "--seed", "3", "--out", str(mfile)]) == 0
    ranked.clear()
    assert main(["protocol", "--matrix", str(mfile), "--strategy", "greedy",
                 "--out", str(tmp_path / "p.json")]) == 0
    assert len(ranked) > 40
    assert None not in ranked and len(ranked) == len(set(ranked))
    # beyond the generator's own draws, nw-bias ranks each deduplicated
    # instance once, for its report, and hands that rank to the search
    draws = []
    make = experiments.make_low_real_rank

    def counted_make(*args):
        before = len(ranked)
        m = make(*args)
        draws.append(len(ranked) - before)
        return m

    monkeypatch.setattr(experiments, "make_low_real_rank", counted_make)
    ranked.clear()
    report, rows = run_experiment("nw-bias", {"count": 6, "k": 12, "l": 12, "rank": 4}, seed=3)
    assert report["ok"] and len(rows) == len(draws) == 6
    assert len(ranked) - sum(draws) == 6


def test_block_ranks_count_one_or_two_rows(monkeypatch):
    # one or two distinct nonzero 0/1 rows are never proportional, so such a
    # block's rank is its count: rank_real sees at least three rows
    seen = []
    monkeypatch.setattr(matrix, "rank_real", lambda m: seen.append(m.n_rows) or rank_real(m))
    m = make_random_f2_rank(64, 64, 10, random.Random(2))
    tree = build_protocol(m, "greedy")
    verify(tree, m)
    assert len(seen) > 40 and min(seen) >= 3


def test_internal_checks_the_speaker_rule():
    stats = NodeStats(area=12, rank=3, rank_r=1, rank_s=2, mono_area=4, mono_value=1)
    Internal("row", (0,), Leaf(0), Leaf(1), stats)
    with pytest.raises(InvariantViolation, match="col speaks"):
        Internal("col", (0,), Leaf(0), Leaf(1), stats)
    flipped = dataclasses.replace(stats, rank_r=2, rank_s=1)
    Internal("col", (0,), Leaf(0), Leaf(1), flipped)
    with pytest.raises(InvariantViolation, match="row speaks"):
        Internal("row", (0,), Leaf(0), Leaf(1), flipped)
    # a rectangle spanning all rows leaves rank_s = 0, and the column player speaks
    spanning = dataclasses.replace(stats, rank_r=0, rank_s=0)
    Internal("col", (0,), Leaf(0), Leaf(1), spanning)
    Internal("row", (0,), Leaf(0), Leaf(1), spanning)


def test_random_dense_matrices_all_strategies():
    rng = random.Random(64)
    for _ in range(25):
        k, l = rng.randint(1, 6), rng.randint(1, 6)
        m = BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])
        for strategy in ("exact", "greedy"):
            tree = build_protocol(m, strategy)
            assert_simulates(tree, m)
            verify(tree, m)


def test_exact_leaf_count_not_larger_on_average():
    # reported-only comparison from the design notes: the exact rectangle
    # choice should rarely lose to greedy; sampled, not asserted per-instance
    rng = random.Random(65)
    wins = ties = losses = 0
    for _ in range(30):
        m = random_low_rank(rng, 6, 6, rng.randint(2, 3))
        exact_leaves = build_protocol(m).leaves
        greedy_leaves = build_protocol(m, "greedy").leaves
        if exact_leaves < greedy_leaves:
            wins += 1
        elif exact_leaves == greedy_leaves:
            ties += 1
        else:
            losses += 1
    assert wins + ties >= losses


# -- the via-dual finder ------------------------------------------------------------


def test_mono_via_dual_random_views_are_monochromatic():
    # duplicates included: mono_via_dual dedups its own input
    rng = random.Random(29)
    for _ in range(25):
        k, l = rng.randint(2, 8), rng.randint(2, 8)
        m = BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])
        view = mono_via_dual(m, *m.whole())
        assert view.parent is m
        assert view.is_monochromatic()


def test_mono_via_dual_all_ones():
    assert mono_via_dual(all_ones(1, 1), 1, 1).area() == 1


def test_mono_via_dual_ip_matrix():
    # ip 2 to ip 4 are biased enough as a whole (ip 2 has discrepancy 1/4
    # against its rank-3 floor), so the dual stage sees the full factor sets
    for n in range(1, 5):
        m = make_ip_matrix(n)
        view = mono_via_dual(m, *m.whole())
        assert view.is_monochromatic()
        assert view.area() == max_mono_exact(m, *m.whole()).area()


def test_mono_via_dual_expands_duplicates():
    # rows 0 and 2 are equal, and so are columns 1 and 3
    m = BoolMatrix.from_strings(["1010", "0111", "1010", "1101"])
    core, row_map, col_map = dedup(m)
    assert (core.n_rows, core.n_cols) == (3, 3)
    inner = mono_via_dual(core, *core.whole())
    view = mono_via_dual(m, *m.whole())
    assert view.rows == mask_of(i for i in range(4) if inner.rows >> row_map[i] & 1)
    assert view.cols == mask_of(j for j in range(4) if inner.cols >> col_map[j] & 1)
    assert view.is_monochromatic() and view.area() > inner.area()
    # rows 0 and 2 are distinct but equal on the biased submatrix's
    # columns: the pair keeps both through the submatrix's own dedup
    view = mono_via_dual(BoolMatrix.from_strings(["000", "011", "010"]), 0b111, 0b111)
    assert (view.rows, view.cols) == (0b101, 0b101)


def test_via_dual_outputs_are_pinned():
    # no benchmark workload runs the bridge, so its rectangles are pinned
    # here: 120 seeded block-low-rank and random-dense matrices, 3..16 a
    # side, exact_cap 12, and one small via-dual log-rank sweep report
    rng = random.Random(73)
    outcomes = []
    for index in range(120):
        k, l = rng.randint(3, 16), rng.randint(3, 16)
        if index % 2:
            m = make_random_dense(k, l, 0.5, rng)
        else:
            m = make_block_low_rank(k, l, rng.randint(1, min(k, l, 5)), rng)
        try:
            view = mono_via_dual(m, *m.whole(), exact_cap=12)
            outcomes.append((tuple(members(view.rows)), tuple(members(view.cols))))
        except DualbenchError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest[:16] == "8e5633dc915a440c", digest
    report, _rows = run_experiment(
        "log-rank-sweep",
        {"ranks": [3, 4], "k": 10, "l": 10, "instances": 2, "strategy": "via-dual"},
        seed=1,
    )
    digest = hashlib.sha256(to_json(report).encode()).hexdigest()
    assert digest[:16] == "e19b22af900569d7", digest


def test_nw_bias_outputs_are_pinned():
    # no benchmark workload or golden runs nw-bias, so two reports are pinned
    for config, seed, want in (
        ({"count": 20, "k": 12, "l": 12, "rank": 4}, 3, "593f57c12af55ed9"),
        ({"count": 10, "k": 16, "l": 10, "rank": 6}, 5, "f0d70ad296bb49f9"),
    ):
        report, _rows = run_experiment("nw-bias", config, seed=seed)
        digest = hashlib.sha256(to_json(report).encode()).hexdigest()
        assert digest[:16] == want, (config, digest)


def test_mono_via_dual_reaches_every_source(monkeypatch):
    sources = []
    open_calls = []  # greedy_dual_pair runs greedy_rectangle: only the outer call is a source

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            open_calls.append(name)
            try:
                got = fn(*args, **kwargs)
            finally:
                open_calls.pop()
            if not open_calls and (name != "find_dual_pair" or got.ok):
                sources.append(name)
            return got

        monkeypatch.setattr(approxdual, name, wrapped)

    for name in ("find_dual_pair", "exact_dual_oracle", "greedy_dual_pair", "greedy_rectangle"):
        spy(name, getattr(approxdual, name))
    cases = [
        (all_ones(1, 1), "find_dual_pair"),
        (BoolMatrix.from_strings(["0110", "0001", "1100"]), "exact_dual_oracle"),
        (BoolMatrix.from_strings(["0111"]), "greedy_rectangle"),  # no biased submatrix
    ]
    for m, source in cases:
        sources.clear()
        assert mono_via_dual(m, *m.whole()).is_monochromatic()
        assert sources == [source]
    # a failed pipeline: the exact oracle up to a cap of the smaller factor
    # set's size (4 words), greedy_dual_pair below it
    spy("find_dual_pair", lambda a, b, seed=0: PipelineTrace(failed_stage="stub"))
    for exact_cap, source in ((4, "exact_dual_oracle"), (3, "greedy_dual_pair")):
        sources.clear()
        m = make_ip_matrix(2)
        assert mono_via_dual(m, *m.whole(), exact_cap=exact_cap).is_monochromatic()
        assert sources == [source]


# -- simulate edge cases ---------------------------------------------------------


def test_simulate_range_check():
    tree = build_protocol(identity(2))
    with pytest.raises(FormatError):
        simulate(tree, 2, 0)
    with pytest.raises(FormatError):
        simulate(tree, 0, -1)


def test_verify_shape_check():
    tree = build_protocol(identity(2))
    with pytest.raises(FormatError):
        verify(tree, identity(3))


def _first_wrong_entry(tree, m):
    for x in range(m.n_rows):
        for y in range(m.n_cols):
            if simulate(tree, x, y)[0] != m.entry(x, y):
                return x, y
    return None


def _flip_leaf(node, target, seen):
    """node with its target-th leaf (depth first) flipped; seen counts leaves."""
    if isinstance(node, Leaf):
        seen.append(node)
        return Leaf(1 - node.output) if len(seen) - 1 == target else node
    return dataclasses.replace(
        node,
        child0=_flip_leaf(node.child0, target, seen),
        child1=_flip_leaf(node.child1, target, seen),
    )


def test_flipped_leaf_raises_the_first_wrong_entry():
    rng = random.Random(69)
    for _ in range(10):
        m = random_low_rank(rng, rng.randint(3, 9), rng.randint(3, 9), 3)
        tree = build_protocol(m, "greedy")
        if tree.leaves < 2:
            continue
        target = rng.randrange(tree.leaves)
        bad = dataclasses.replace(tree, root=_flip_leaf(tree.root, target, []))
        x, y = _first_wrong_entry(bad, m)
        got, expected = simulate(bad, x, y)[0], m.entry(x, y)
        message = f"protocol mismatch at ({x},{y}): got {got}, expected {expected}"
        with pytest.raises(TreeMismatch, match=f"^{re.escape(message)}$"):
            verify(bad, m)


def test_verify_detects_mismatch():
    m = identity(2)
    tree = build_protocol(m)
    flipped = BoolMatrix.from_strings(["10", "00"])
    with pytest.raises(
        FormatError, match="^the tree's stored matrix and index maps are not dedup of the matrix$"
    ):
        verify(tree, flipped)


# -- serialization ----------------------------------------------------------------


def test_tree_round_trip():
    rng = random.Random(66)
    for _ in range(10):
        m = random_low_rank(rng, rng.randint(2, 6), rng.randint(2, 6), 2)
        tree = build_protocol(m)
        text = format_tree(tree)
        back = parse_tree_text(text)
        assert format_tree(back) == text
        assert back.matrix == tree.matrix
        assert back.leaves == tree.leaves
        assert_simulates(back, m)


def test_tree_dict_rejects_tampering():
    tree = build_protocol(identity(2))
    data = ref.tree_to_dict(tree)
    data["stats"]["leaves"] = 99
    with pytest.raises(FormatError):
        tree_from_dict(data)


def test_format_tree_is_indented_json():
    # the writer emits each node's text itself; it must give json's bytes
    # for leaf roots, single rows and columns, both speakers, a large greedy
    # tree and every strategy
    rng = random.Random(70)
    trees = [build_protocol(make_random_f2_rank(64, 64, 10, rng), "greedy")]
    matrices = [
        all_ones(3, 4),
        BoolMatrix(2, 5, [0, 0]),
        BoolMatrix(1, 1, [1]),
        BoolMatrix(1, 7, [0b1011001]),
        BoolMatrix(6, 1, [1, 0, 1, 1, 0, 0]),
        make_ip_matrix(3),
        *(random_low_rank(rng, rng.randint(2, 9), rng.randint(2, 9), 3) for _ in range(6)),
    ]
    trees += [build_protocol(m, strategy) for m in matrices for strategy in STRATEGIES]
    assert [isinstance(tree.root, Leaf) for tree in trees[1:10]] == [True] * 9
    speakers = set()
    for tree in trees:
        assert format_tree(tree) == json.dumps(ref.tree_to_dict(tree), indent=2) + "\n"
        nodes = (node for node, *_ in protocol._walk(tree))
        speakers.update(node.speaker for node in nodes if isinstance(node, Internal))
    assert speakers == {"row", "col"}


def test_loader_tables_match_the_writer():
    # every object the writer emits holds exactly the keys of the loader's
    # table for its kind, plus the keys the loader reads itself: format,
    # version and root at the top, type on every node
    rng = random.Random(71)
    matrices = [all_ones(2, 3), make_ip_matrix(3), make_random_f2_rank(12, 12, 4, rng),
                *(random_low_rank(rng, 7, 7, 3) for _ in range(3))]
    kinds = set()
    for m in matrices:
        for strategy in STRATEGIES:
            doc = json.loads(format_tree(build_protocol(m, strategy)))
            assert doc.keys() == protocol._DOCUMENT.keys() | {"format", "version", "root"}
            assert doc["stats"].keys() == protocol._TREE_STATS.keys()
            nodes = [doc["root"]]
            while nodes:
                node = nodes.pop()
                kinds.add(node["type"])
                if node["type"] == "leaf":
                    assert node.keys() == protocol._LEAF.keys() | {"type"}
                    continue
                assert node.keys() == protocol._INTERNAL.keys() | {"type"}
                assert node["stats"].keys() == protocol._NODE_STATS.keys()
                nodes += node["children"]
    assert kinds == {"leaf", "internal"}


def test_tree_serialization_stable():
    m = make_ip_matrix(2)
    t1 = format_tree(build_protocol(m))
    t2 = format_tree(build_protocol(m))
    assert t1 == t2


# -- the rank memo's independent-rows shortcut ---------------------------------------


def _materialised_rank(m, rows, cols):
    """rank_real of the materialised block rows x cols (bit masks)."""
    return rank_real(m.take(rows, cols))


def _first_wrong_rank(block_rank, seed):
    """The first (matrix, rows, cols) whose block_rank(matrix, rows, cols),
    a fresh matrix's memo, is not the materialised block's rank, over
    seeded random matrices (duplicate and zero rows included) and random
    call orders; each block is followed,
    later in the order, by row subsets of it on its own columns and on
    other columns and by a row superset on its own columns.  Every other
    matrix draws its rows from unions of three disjoint column sets, so
    that blocks of three or more distinct rows are often dependent.  None
    when every rank agrees."""
    rng = random.Random(seed)
    for index in range(150):
        k, l = rng.randint(2, 8), rng.randint(1, 8)
        if index % 2:
            labels = [rng.randrange(4) for _ in range(l)]  # label 3: in no set
            parts = [sum(1 << j for j in range(l) if labels[j] == t) for t in range(3)]
            pool = [0] + [parts[0] * rng.randrange(2) | parts[1] * rng.randrange(2)
                          | parts[2] * rng.randrange(2) for _ in range(rng.randint(1, k))]
        else:
            pool = [0] + [rng.randrange(1 << l) for _ in range(rng.randint(1, k))]
        m = BoolMatrix(k, l, [rng.choice(pool) for _ in range(k)])
        blocks = [(rng.randrange(1, 1 << k), rng.randrange(1, 1 << l)) for _ in range(8)]
        planted = []
        for rows, cols in blocks:
            for other in (cols, cols, rng.randrange(1, 1 << l)):
                planted.append((rows & rng.randrange(1 << k) or rows, other))
            planted.append((rows | rng.randrange(1 << k), cols))
        rng.shuffle(blocks)
        rng.shuffle(planted)
        for rows, cols in blocks + planted:
            if block_rank(m, rows, cols) != _materialised_rank(m, rows, cols):
                return m, rows, cols
    return None


def _mutant(old, new):
    """BoolMatrix.block_rank with the one source line holding old changed to new."""
    source = textwrap.dedent(inspect.getsource(BoolMatrix.block_rank))
    assert source.count(old) == 1, old
    namespace = dict(vars(matrix))
    exec(source.replace(old, new), namespace)
    return namespace["block_rank"]


def test_block_ranks_shortcut_matches_materialised_ranks():
    for seed in range(3):
        assert _first_wrong_rank(BoolMatrix.block_rank, seed) is None


def test_block_ranks_property_kills_planted_mutants():
    mutants = {
        "inherits across column masks": ("setdefault(cols, [])", "setdefault(0, [])"),
        "inherits when the rank falls short": ("if got == len(words):", "if True:"),
        "inherits from overlapping, not wider, rows": ("rows | wider == wider", "rows & wider"),
        "inherits from narrower rows": ("rows | wider == wider", "rows | wider == rows"),
        "counts three rows": ("got > 2 and", "got > 3 and"),
    }
    for name, (old, new) in mutants.items():
        assert _first_wrong_rank(_mutant(old, new), 0) is not None, name


def test_block_ranks_shortcut_skips_elimination(monkeypatch):
    # a full-row-rank block is eliminated once; its row subsets on the same
    # columns are counted, and a subset on other columns is eliminated
    # unless it has at most two distinct nonzero rows
    eliminated = []
    monkeypatch.setattr(matrix, "rank_real", lambda m: eliminated.append(m) or rank_real(m))
    ranks = identity(4).block_rank
    assert ranks(0b1111, 0b1111) == 4 and len(eliminated) == 1
    assert ranks(0b1101, 0b1111) == 3 and ranks(0b0111, 0b1111) == 3
    assert len(eliminated) == 1
    assert ranks(0b0111, 0b0111) == 3 and len(eliminated) == 2
    assert ranks(0b0011, 0b0111) == 2 and ranks(0b1001, 0b1001) == 2
    assert len(eliminated) == 2


# -- exact trees hand Q to the in-child ---------------------------------------------


def test_exact_trees_reuse_the_parents_rectangle(monkeypatch):
    # handing Q to the in-child changes no byte of the tree and saves
    # searches; the tree without it is the exact finder run under the
    # greedy name, which searches once per internal node
    searched = []
    finder_for = protocol.finder_for

    def exact_counting(strategy, *args):
        finder = finder_for("exact", *args)
        return lambda *block: searched.append(block) or finder(*block)

    rng = random.Random(71)
    totals = [0, 0]
    for _ in range(15):
        m = random_low_rank(rng, rng.randint(2, 9), rng.randint(2, 9), rng.randint(2, 4))
        exact = format_tree(build_protocol(m))
        trees, calls = [], []
        for strategy in ("greedy", "exact"):
            searched.clear()
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "finder_for", exact_counting)
                tree = build_protocol(m, strategy)
            verify(tree, m)
            trees.append(format_tree(tree))
            calls.append(len(searched))
        assert trees[0] == trees[1] == exact
        assert calls[0] == tree.internal_nodes
        assert calls[1] <= calls[0]
        totals = [t + c for t, c in zip(totals, calls)]
    assert totals[1] < totals[0], totals


# -- finders search a block in place ----------------------------------------------


def _exact_on_copy(sub):
    # the subset DP while the enumerated side is small, the whole-matrix
    # Close-by-One search (held to that DP in test_oracle_crosscheck) past it
    if min(sub.n_rows, sub.n_cols) <= 10:
        return ref.max_mono_exact(sub)
    return max_mono_exact(sub, *sub.whole(), exact_cap=24)


def test_finders_answer_on_a_block_as_on_its_copy():
    # a finder's answer on a block is its answer on the block copied out by
    # take, spread back onto the matrix's indices, tie-breaks included;
    # every third matrix repeats rows and columns
    copies = {
        "exact": (24, _exact_on_copy),
        "greedy": (24, ref.greedy_rectangle),
        "via-dual": (12, lambda sub: mono_via_dual(sub, *sub.whole(), exact_cap=12)),
    }
    rng = random.Random(74)
    duplicated = 0
    blocks = []
    for index in range(1000):
        k, l = rng.randint(3, 24), rng.randint(3, 24)
        if index % 3:
            m = BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)])
        else:
            m = random_low_rank(rng, k, l, rng.randint(2, 5))  # repeats rows
            a, b = rng.sample(range(l), 2)  # column b becomes a copy of column a
            m = BoolMatrix(k, l, [w & ~(1 << b) | (w >> a & 1) << b for w in m.rows])
            duplicated += len(set(m.rows)) < k and len(set(m.columns())) < l
        blocks.append((m, rng.randrange(1, 1 << k), rng.randrange(1, 1 << l)))
    # then blocks of one to three rows or columns spread over a side 20-40
    # wide, which uniform masks rarely make: their positions are far from
    # their indices on whichever side the exact search does not enumerate
    rng = random.Random(77)
    for index in range(300):
        wide, other = rng.randint(20, 40), rng.randint(3, 24)
        narrow = mask_of(rng.sample(range(wide), rng.randint(1, 3)))
        if index % 2:
            m = BoolMatrix(other, wide, [rng.randrange(1 << wide) for _ in range(other)])
            blocks.append((m, rng.randrange(1, 1 << other), narrow))
        else:
            m = BoolMatrix(wide, other, [rng.randrange(1 << other) for _ in range(wide)])
            blocks.append((m, narrow, rng.randrange(1, 1 << other)))
    for m, rows, cols in blocks:
        for strategy, (exact_cap, on_copy) in copies.items():
            outcomes = []
            for search in (partial(protocol.finder_for(strategy, exact_cap), m, rows, cols),
                           partial(ref.found_on_copy, on_copy, m, rows, cols)):
                try:
                    view = search()
                    outcomes.append((view.parent is m, view.rows, view.cols, view.value()))
                except DualbenchError as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert outcomes[0] == outcomes[1], (strategy, k, l, m.rows, rows, cols)
    assert duplicated >= 300


def test_build_protocol_copies_no_block(monkeypatch):
    # past its one dedup, a greedy or exact build reads every block in
    # place; the via-dual bridge still copies its block out, which shows
    # the spy sees take calls
    real_take = BoolMatrix.take
    takes = []
    rng = random.Random(75)
    for strategy in STRATEGIES:
        takes.clear()
        for _ in range(8):
            m = random_low_rank(rng, rng.randint(2, 12), rng.randint(2, 12), rng.randint(2, 4))
            want = format_tree(build_protocol(m, strategy))
            deduped = dedup(m)
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "dedup", lambda _m: deduped)
                patch.setattr(BoolMatrix, "take",
                              lambda self, *block: takes.append(block) or real_take(self, *block))
                tree = build_protocol(m, strategy)
            assert format_tree(tree) == want
        assert (takes == []) == (strategy != "via-dual"), strategy


def test_exact_search_transposes_once_at_block_width(monkeypatch):
    # max_mono_exact numbers both sides of its block by position: a search
    # makes at most two transposes, none wider than the block's larger side,
    # even where the block's last column lies far past that width
    real_transpose = matrix.transpose
    widths = []
    searches = []  # (the block's larger side, its last column + 1, transpose widths)

    def spy_transpose(words, width):
        widths.append(width)
        return real_transpose(words, width)

    def spy_search(m, rows, cols, exact_cap=matrix.EXACT_CAP):
        widths.clear()
        view = max_mono_exact(m, rows, cols, exact_cap)
        searches.append((max(rows.bit_count(), cols.bit_count()), cols.bit_length(), list(widths)))
        return view

    monkeypatch.setattr(matrix, "transpose", spy_transpose)
    monkeypatch.setattr(protocol, "max_mono_exact", spy_search)
    monkeypatch.setattr(approxdual, "max_mono_exact", spy_search)
    rng = random.Random(76)
    for _ in range(12):
        k, l = rng.randint(4, 12), rng.randint(20, 40)
        build_protocol(BoolMatrix(k, l, [rng.randrange(1 << l) for _ in range(k)]), "exact")
    built = len(searches)
    assert sum(side < last for side, last, _ in searches) >= built // 2
    weight_two = make_weight_slice(9, 2)
    approxdual.exact_dual_oracle(weight_two, weight_two, exact_cap=36)
    assert len(searches) == built + 1
    for side, last, made in searches:
        assert len(made) <= 2 and all(width <= side for width in made), (side, last, made)


def test_unknown_strategy_fails_before_any_work(monkeypatch):
    message = "unknown strategy 'bogus'; choose from ('exact', 'greedy', 'via-dual')"
    monkeypatch.setattr(protocol, "dedup", None)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        build_protocol(identity(3), "bogus")
    # the sweep names it before it makes an instance
    monkeypatch.setattr(experiments, "make_random_f2_rank", None)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        run_experiment("log-rank-sweep", {"strategy": "bogus"})
