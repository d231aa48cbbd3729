import argparse
import json
import random
from functools import cache

import pytest

from dualbench import cli
from dualbench import experiments as xp
from dualbench.cli import main
from dualbench.errors import FormatError, InvariantViolation, SearchFailure, TreeMismatch
from dualbench.experiments import instance_rng, make_ip_matrix, make_random_f2_rank
from dualbench.f2 import F2Set, parse_set_text, span
from dualbench.matrix import format_matrix, parse_matrix_text, read_matrix_file
from dualbench.protocol import STRATEGIES, build_protocol, read_tree_file, verify


def run(*argv) -> int:
    return main(list(argv))


def test_gen_sets_weight_slice(tmp_path):
    out = tmp_path / "a.txt"
    assert run("gen-sets", "--family", "weight-slice", "--n", "8", "--w", "2",
               "--out", str(out)) == 0
    s = parse_set_text(out.read_text())
    assert len(s) == 28
    assert all(f"{w:08b}".count("1") == 2 for w in s.members)


def test_gen_sets_weight_one_self_duality(tmp_path):
    # the weight-1 slice at n=8 has self-duality (n-2)/n = 3/4 exactly
    from fractions import Fraction

    from dualbench.f2 import duality_measure

    out = tmp_path / "w1.txt"
    assert run("gen-sets", "--family", "weight-slice", "--n", "8", "--w", "1",
               "--out", str(out)) == 0
    s = parse_set_text(out.read_text())
    assert duality_measure(s, s) == Fraction(3, 4)


def test_gen_sets_subspace_closed(tmp_path):
    out = tmp_path / "v.txt"
    assert run("gen-sets", "--family", "subspace", "--n", "8", "--d", "3",
               "--seed", "5", "--out", str(out)) == 0
    s = parse_set_text(out.read_text())
    assert len(s) == 8
    members = set(s.members)
    assert all(u ^ v in members for u in members for v in members)


def test_gen_sets_outlier_count_is_taken_as_given(tmp_path, capsys):
    # --outliers 0 means no outliers (3 is only the default when the flag is
    # absent), and a negative count is a usage error
    out = tmp_path / "v.txt"
    base = ("gen-sets", "--family", "subspace-plus-noise", "--n", "4", "--d", "2",
            "--seed", "1", "--out", str(out))
    assert run(*base, "--outliers", "0") == 0
    assert len(parse_set_text(out.read_text())) == 1 << 2
    assert run(*base) == 0
    assert len(parse_set_text(out.read_text())) == (1 << 2) + 3
    capsys.readouterr()
    out.unlink()
    assert run(*base, "--outliers", "-2") == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert not out.exists()


def test_gen_matrix_families(tmp_path):
    ip = tmp_path / "ip.txt"
    assert run("gen-matrix", "--family", "ip", "--n", "2", "--out", str(ip)) == 0
    m = read_matrix_file(ip)
    assert (m.n_rows, m.n_cols) == (4, 4)

    rk = tmp_path / "rk.txt"
    assert run("gen-matrix", "--family", "random-f2-rank", "--k", "8", "--l", "8",
               "--rank", "3", "--seed", "7", "--out", str(rk)) == 0
    from dualbench.matrix import rank_f2

    assert rank_f2(read_matrix_file(rk)) == 3


def test_gen_matrix_from_sets(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("01\n10\n")
    b.write_text("11\n")
    out = tmp_path / "m.txt"
    assert run("gen-matrix", "--family", "from-sets", "--set-a", str(a),
               "--set-b", str(b), "--out", str(out)) == 0
    m = read_matrix_file(out)
    assert m.to_lines() == ["1", "1"]


def test_gen_matrix_impossible_rank():
    assert run("gen-matrix", "--family", "random-f2-rank", "--k", "2", "--l", "2",
               "--rank", "5") == 1


def test_gen_missing_parameters_are_usage_errors():
    assert run("gen-matrix", "--family", "ip") == 1
    assert run("gen-matrix", "--family", "random-f2-rank", "--k", "4") == 1
    assert run("gen-sets", "--family", "random", "--n", "5") == 1


def test_gen_matrix_ip_dimension_is_checked(tmp_path, capsys):
    # each value is rejected before any 2^n x 2^n table is built
    for n in (-1, 0, 13):
        with pytest.raises(FormatError):
            make_ip_matrix(n)
        assert run("gen-matrix", "--family", "ip", "--n", str(n),
                   "--out", str(tmp_path / "ip.txt")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ip matrix dimension") and len(err.splitlines()) == 1
    assert not (tmp_path / "ip.txt").exists()


class NoDraws(random.Random):
    """A generator that fails on a draw, so a size check must come first."""

    def randrange(self, *args):
        raise AssertionError("a set was drawn before its size was checked")

    sample = randrange


def test_generated_sets_are_capped_before_any_draw(monkeypatch):
    for make, args, message in (
        (xp.make_subspace, (24, 24), "subspace has 16777216 elements; too large"),
        (xp.make_subspace, (24, 21), "subspace has 2097152 elements; too large"),
        (xp.make_subspace_plus_noise, (24, 20, 1),
         "subspace plus noise has 1048577 elements; too large"),
        (xp.make_random_set, (24, (1 << 20) + 1), "random set has 1048577 elements; too large"),
    ):
        with pytest.raises(FormatError, match=f"^{message}$"):
            make(*args, NoDraws())
    # at the cap each family still draws what it drew before
    wants = [
        xp.make_subspace(6, 3, random.Random(1)),
        xp.make_subspace_plus_noise(6, 2, 4, random.Random(1)),
        xp.make_random_set(6, 8, random.Random(1)),
        xp.make_weight_slice(8, 1),
    ]
    monkeypatch.setattr(xp, "SET_SIZE_CAP", 8)
    assert [
        xp.make_subspace(6, 3, random.Random(1)),
        xp.make_subspace_plus_noise(6, 2, 4, random.Random(1)),
        xp.make_random_set(6, 8, random.Random(1)),
        xp.make_weight_slice(8, 1),
    ] == wants
    for make, args, message in (
        (xp.make_subspace, (6, 4, NoDraws()), "subspace has 16 elements; too large"),
        (xp.make_subspace_plus_noise, (6, 2, 5, NoDraws()),
         "subspace plus noise has 9 elements; too large"),
        (xp.make_subspace_plus_noise, (6, 3, 1, NoDraws()),
         "subspace plus noise has 9 elements; too large"),
        (xp.make_random_set, (6, 9, NoDraws()), "random set has 9 elements; too large"),
        (xp.make_weight_slice, (9, 1), "weight slice has 9 elements; too large"),
    ):
        with pytest.raises(FormatError, match=f"^{message}$"):
            make(*args)
    # a dimension outside 0..n is still named as such
    with pytest.raises(FormatError, match=r"^dimension 30 outside 0\.\.6$"):
        xp.make_subspace_plus_noise(6, 30, 1, NoDraws())


def test_set_size_cap_is_one_line_for_gen_sets_and_dual_pipeline(tmp_path, capsys, monkeypatch):
    out = tmp_path / "a.txt"
    monkeypatch.setattr(xp.random, "Random", NoDraws)
    for argv, message in (
        (("gen-sets", "--family", "subspace", "--n", "24", "--d", "24", "--out", str(out)),
         "subspace has 16777216 elements; too large"),
        (("experiment", "--name", "dual-pipeline", "--family", "subspace", "--n", "24",
          "--d", "21", "--out", str(out)), "subspace has 2097152 elements; too large"),
        (("experiment", "--name", "dual-pipeline", "--family", "random", "--n", "22",
          "--size", "1048577", "--out", str(out)), "random set has 1048577 elements; too large"),
    ):
        assert run(*argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(xp, "SET_SIZE_CAP", 8)
    for argv, message in (
        (("gen-sets", "--family", "subspace", "--n", "6", "--d", "4"),
         "subspace has 16 elements; too large"),
        (("gen-sets", "--family", "subspace-plus-noise", "--n", "6", "--d", "3"),
         "subspace plus noise has 11 elements; too large"),
        (("gen-sets", "--family", "random", "--n", "6", "--size", "9"),
         "random set has 9 elements; too large"),
        (("gen-sets", "--family", "weight-slice", "--n", "9", "--w", "1"),
         "weight slice has 9 elements; too large"),
        (("experiment", "--name", "dual-pipeline", "--family", "subspace", "--n", "6",
          "--d", "4"), "subspace has 16 elements; too large"),
    ):
        assert run(*argv, "--out", str(out)) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()
    assert run("gen-sets", "--family", "subspace", "--n", "6", "--d", "3", "--out", str(out)) == 0
    assert len(parse_set_text(out.read_text())) == 8


def spanned_subspace(n, d, rng, spans=None):
    """make_subspace's earlier rule: span every draw of d generators and keep
    the first span of 2^d words; spans collects every span built."""
    while True:
        candidate = span(F2Set(n, (rng.randrange(1 << n) for _ in range(d))))
        if spans is not None:
            spans.append(candidate)
        if len(candidate) == 1 << d:
            return candidate


def listed_subspace_plus_noise(n, d, outliers, rng):
    """make_subspace_plus_noise's earlier rule, the outliers kept in a list."""
    base = spanned_subspace(n, d, rng)
    extra = []
    while len(extra) < outliers:
        w = rng.randrange(1 << n)
        if w not in base and w not in extra:
            extra.append(w)
    return F2Set(n, list(base.members) + extra)


def test_make_subspace_spans_only_the_subspace_it_returns(monkeypatch):
    # a dependent draw is rejected by its echelon rank before any span is
    # built, so span runs once per subspace; the draws are the earlier rule's
    cases = [(n, d, seed) for n, d in ((2, 2), (3, 3), (5, 4), (6, 6), (9, 3))
             for seed in range(12)]
    wants, spanned = [], []
    for n, d, seed in cases:
        rng = random.Random(seed)
        wants.append((spanned_subspace(n, d, rng, spanned), rng.random()))
    spans = []
    monkeypatch.setattr(xp, "span", lambda s: spans.append(span(s)) or spans[-1])
    gots = []
    for n, d, seed in cases:
        rng = random.Random(seed)
        gots.append((xp.make_subspace(n, d, rng), rng.random()))
    assert gots == wants
    assert spans == [got for got, _ in gots]
    # the earlier rule spanned every dependent draw too
    assert len(spanned) > 2 * len(cases)


def test_subspace_plus_noise_draws_as_the_list_rule_did():
    # the outliers are checked for repeats in a set, not a list, and each
    # draw is taken or skipped exactly as before
    for n, d, outliers in ((4, 2, 12), (5, 1, 30), (6, 3, 9), (10, 3, 600)):
        for seed in range(6):
            want, got = random.Random(seed), random.Random(seed)
            assert (xp.make_subspace_plus_noise(n, d, outliers, got), got.random()) == (
                listed_subspace_plus_noise(n, d, outliers, want), want.random())


def test_analyze_json_round_trip(tmp_path):
    mfile = tmp_path / "m.txt"
    assert run("gen-matrix", "--family", "ip", "--n", "2", "--out", str(mfile)) == 0
    out = tmp_path / "report.json"
    assert run("analyze", "--matrix", str(mfile), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["results"]["rank_f2"] == 2
    assert report["results"]["rank_real"] == 3


def test_factor_writes_set_files(tmp_path):
    mfile = tmp_path / "m.txt"
    run("gen-matrix", "--family", "ip", "--n", "2", "--out", str(mfile))
    out_a = tmp_path / "fa.txt"
    out_b = tmp_path / "fb.txt"
    assert run("factor", "--matrix", str(mfile), "--out-a", str(out_a),
               "--out-b", str(out_b), "--out", str(tmp_path / "r.json")) == 0
    a = parse_set_text(out_a.read_text())
    b = parse_set_text(out_b.read_text())
    assert len(a) == 4 and len(b) == 4 and a.n == 2


def test_dual_pipeline_subspace(tmp_path):
    v = tmp_path / "v.txt"
    v.write_text("0000\n0011\n1100\n1111\n")
    out = tmp_path / "dual.json"
    assert run("dual", "--set-a", str(v), "--set-b", str(v), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["results"]["ok"] is True
    assert report["results"]["final"]["area"] >= 8


def test_dual_zero_duality_exit_code(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("00\n01\n10\n11\n")
    b.write_text("01\n")
    out = tmp_path / "dual.json"
    assert run("dual", "--set-a", str(a), "--set-b", str(b), "--out", str(out)) == 2
    report = json.loads(out.read_text())
    assert report["results"]["failed_stage"] == "markov_restrict"


def test_dual_exact_strategy(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("01\n10\n11\n")
    out = tmp_path / "dual.json"
    assert run("dual", "--set-a", str(a), "--set-b", str(a),
               "--strategy", "exact", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["results"]["area"] == 2


def test_mono_strategies_agree_on_area(tmp_path):
    mfile = tmp_path / "m.txt"
    run("gen-matrix", "--family", "random-f2-rank", "--k", "6", "--l", "6",
        "--rank", "2", "--seed", "3", "--out", str(mfile))
    areas = {}
    for strategy in ("exact", "greedy", "via-dual"):
        out = tmp_path / f"{strategy}.json"
        assert run("mono", "--matrix", str(mfile), "--strategy", strategy,
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["results"]["monochromatic"] is True
        areas[strategy] = report["results"]["area"]
    assert areas["exact"] >= areas["greedy"]
    assert areas["exact"] >= areas["via-dual"]


def test_protocol_build_verify_round_trip(tmp_path):
    mfile = tmp_path / "m.txt"
    run("gen-matrix", "--family", "random-f2-rank", "--k", "8", "--l", "8",
        "--rank", "3", "--seed", "11", "--out", str(mfile))
    tree_file = tmp_path / "tree.json"
    out = tmp_path / "protocol.json"
    assert run("protocol", "--matrix", str(mfile), "--tree-out", str(tree_file),
               "--out", str(out)) == 0
    tree = read_tree_file(tree_file)
    assert tree.leaves >= 1
    # the audit checks every split, and the report counts them
    results = json.loads(out.read_text())["results"]
    assert results["audited_nodes"] == results["internal_nodes"] == tree.internal_nodes > 0
    assert run("verify", "--matrix", str(mfile), "--tree", str(tree_file),
               "--out", str(tmp_path / "v.json")) == 0
    assert json.loads((tmp_path / "v.json").read_text())["results"]["audited_nodes"] == (
        tree.internal_nodes)


def test_verify_mismatch_of_a_loaded_tree_is_a_format_error(tmp_path, capsys):
    # a loaded tree that disagrees with the matrix is bad input, not a bug:
    # a tree of another matrix of the same shape, or a tree with one leaf
    # output flipped, exits 1 with one error line naming the tree file
    m1 = tmp_path / "m1.txt"
    m2 = tmp_path / "m2.txt"
    m1.write_text("2 2\n10\n01\n")
    m2.write_text("2 2\n10\n00\n")
    tree_file = tmp_path / "tree.json"
    assert run("protocol", "--matrix", str(m1), "--tree-out", str(tree_file),
               "--out", str(tmp_path / "p.json")) == 0
    capsys.readouterr()
    assert run("verify", "--matrix", str(m2), "--tree", str(tree_file)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err

    mfile = tmp_path / "m.txt"
    run("gen-matrix", "--family", "random-f2-rank", "--k", "8", "--l", "8",
        "--rank", "3", "--seed", "7", "--out", str(mfile))
    assert run("protocol", "--matrix", str(mfile), "--strategy", "greedy",
               "--tree-out", str(tree_file), "--out", str(tmp_path / "p.json")) == 0
    doc = json.loads(tree_file.read_text())
    leaf = next(c[k] for c, k in _tree_slots(doc) if isinstance(c[k], dict) and c[k].get("type") == "leaf")
    leaf["output"] ^= 1
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--matrix", str(mfile), "--tree", str(bad_file)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_file}: protocol mismatch") and len(err.splitlines()) == 1, err


def test_verify_rejects_a_tree_of_another_matrix(tmp_path, capsys):
    # the tree still computes the matrix, but its stored matrix is not dedup(matrix)
    mfile = tmp_path / "m.txt"
    tree_file = tmp_path / "tree.json"
    run("gen-matrix", "--family", "random-f2-rank", "--k", "8", "--l", "8",
        "--rank", "3", "--seed", "5", "--out", str(mfile))
    assert run("protocol", "--matrix", str(mfile), "--strategy", "greedy",
               "--tree-out", str(tree_file), "--out", str(tmp_path / "p.json")) == 0
    valid = json.loads(tree_file.read_text())
    bad_file = tmp_path / "bad.json"
    for i, line in enumerate(valid["matrix"]):
        for j, bit in enumerate(line):
            doc = json.loads(tree_file.read_text())
            doc["matrix"][i] = line[:j] + "10"[int(bit)] + line[j + 1:]
            bad_file.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("verify", "--matrix", str(mfile), "--tree", str(bad_file)) == 1, (i, j)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (i, j, err)


def _tree_slots(node):
    """Every (container, key) of a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _tree_slots(value)


def _mutate(doc, rng):
    """Break one field of a tree document: delete a key, or give a value a
    wrong type, an index out of range, or an unknown name."""
    container, key = rng.choice(list(_tree_slots(doc)))
    value = container[key]
    if isinstance(container, dict) and rng.random() < 0.3:
        del container[key]
    elif type(value) is int:
        wrong = [None, "1", 1.5, True, [], {}]
        if isinstance(container, list) or key == "output":
            wrong.append(-1)  # an index or a leaf output out of range
        container[key] = rng.choice(wrong)
    elif isinstance(value, str):
        container[key] = rng.choice([None, 5, [], "bogus", "1/0"])
    else:
        container[key] = rng.choice([None, "x", 5, 1.5, [] if isinstance(value, dict) else {}])


def test_malformed_tree_files_are_format_errors(tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    tree_file = tmp_path / "tree.json"
    run("gen-matrix", "--family", "random-f2-rank", "--k", "8", "--l", "8",
        "--rank", "3", "--seed", "5", "--out", str(mfile))
    assert run("protocol", "--matrix", str(mfile), "--strategy", "greedy",
               "--tree-out", str(tree_file), "--out", str(tmp_path / "p.json")) == 0
    valid = json.loads(tree_file.read_text())
    bad_file = tmp_path / "bad.json"

    def check(doc, label):
        if isinstance(doc, bytes):
            bad_file.write_bytes(doc)
        else:
            bad_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", "--matrix", str(mfile), "--tree", str(bad_file)) == 1, label
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (label, err)
        return err

    doc = json.loads(tree_file.read_text())
    del doc["root"]["stats"]
    check(doc, "node without stats")
    doc = json.loads(tree_file.read_text())
    doc["row_map"][0] = 99
    check(doc, "row_map out of range")
    doc = json.loads(tree_file.read_text())
    doc["root"]["speaker"] = "bogus"
    check(doc, "unknown speaker")
    doc = json.loads(tree_file.read_text())
    doc["root"]["split"].append(8)
    check(doc, "split out of range")
    check([valid], "not an object")
    # the stored matrix is exactly rows strings of cols bits: no blank,
    # comment or padded entries
    for extra in ("", "# hi", "   "):
        doc = json.loads(tree_file.read_text())
        doc["matrix"].append(extra)
        assert "tree field 'matrix'" in check(doc, f"extra matrix entry {extra!r}")
    doc = json.loads(tree_file.read_text())
    doc["matrix"][0] = f" {doc['matrix'][0]} "
    assert "tree field 'matrix'" in check(doc, "padded matrix row")
    doc = json.loads(tree_file.read_text())
    doc["matrix"].append(doc["matrix"][0])
    assert "tree field 'matrix'" in check(doc, "one row too many")
    doc = json.loads(tree_file.read_text())
    doc["matrix"][0] = "0a" + doc["matrix"][0][2:]
    assert "tree field 'matrix'" in check(doc, "non-bit matrix entry")
    # stored node stats must fit the node's block
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"]["mono_value"] = 2
    check(doc, "mono_value 2")
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"]["mono_fraction"] = "1/3"
    check(doc, "mono_fraction edited")
    # equal to mono_area / area, but not the text the writer gives
    assert valid["root"]["stats"]["mono_fraction"] == "4/25"
    for text in ("8/50", " 4/25 ", "0.16"):
        doc = json.loads(tree_file.read_text())
        doc["root"]["stats"]["mono_fraction"] = text
        assert "node root: mono_fraction" in check(doc, f"mono_fraction {text!r}")
    doc = json.loads(tree_file.read_text())
    nodes = [doc["root"]]
    while nodes:
        node = nodes.pop()
        if node["type"] == "internal":
            node["stats"].update(rank=0, rank_r=0, rank_s=0)
            nodes += node["children"]
    check(doc, "zeroed ranks")
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"]["area"] += 1
    check(doc, "area plus one")
    # ranks in range that no build makes: the block-rank bound, then the audit
    doc = json.loads(tree_file.read_text())
    stats = doc["root"]["stats"]
    stats.update(rank_r=stats["rank"], rank_s=stats["rank"])
    assert "node root: block ranks" in check(doc, "block ranks exceed rank + 1")
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"].update(rank_r=0, rank_s=0)
    err = check(doc, "root rank_r and rank_s zeroed")
    assert str(bad_file) in err and "in-child rank" in err
    # verify re-derives each node's rank, and the loader checks the speaker
    assert valid["root"]["speaker"] == "row"
    assert [valid["root"]["stats"][k] for k in ("rank", "rank_r", "rank_s")] == [5, 2, 2]
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"]["rank"] = 4
    err = check(doc, "root rank 5 -> 4")
    assert str(bad_file) in err and "at node root: stored rank 4 != block rank 5" in err
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"]["rank_s"] = 0
    assert "node root: row speaks although rank_r 2 > rank_s 0" in check(doc, "root rank_s 2 -> 0")
    # the loader's shape checks, each with its own message
    doc = json.loads(tree_file.read_text())
    doc["root"]["children"].append(doc["root"]["children"][0])
    assert check(doc, "three children") == (
        "error: an internal node needs exactly two children\n")
    doc = json.loads(tree_file.read_text())
    doc["version"] = 2
    assert check(doc, "version 2") == "error: unsupported protocol-tree version 2\n"
    doc = json.loads(tree_file.read_text())
    doc["row_map"].pop()
    assert check(doc, "row_map one short") == (
        "error: index maps disagree with the source shape\n")
    doc = json.loads(tree_file.read_text())
    assert (valid["rows"], valid["cols"]) == (5, 5)
    doc["root"]["stats"]["rank"] = 6
    assert check(doc, "root rank 6 in a 5 x 5 block") == (
        "error: node root: rank 6 exceeds min(rows, cols)\n")
    doc = json.loads(tree_file.read_text())
    stats = doc["root"]["stats"]
    assert (stats["area"], stats["mono_area"], len(doc["root"]["split"])) == (25, 4, 2)
    # mono_fraction is checked first, so it is rewritten to match
    stats.update(mono_area=5, mono_fraction="1/5")
    assert check(doc, "mono_area 5, split size 2") == (
        "error: node root: mono_area 5 is not a multiple of the split size 2\n")
    text = tree_file.read_bytes()
    assert check(text[:-20], "truncated JSON").startswith("error: bad tree JSON: ")
    text = tree_file.read_bytes()
    check(text[:40] + b"\xe9" + text[40:], "non-ASCII byte")
    # nesting past the recursion limit; the text is built flat, so making
    # it does not recurse
    for depth in (700, 1200):
        deep = b'{"type": "internal", "children": [' * depth + b"0" + b"]}" * depth
        err = check(b'{"format": "protocol-tree", "root": ' + deep + b"}", f"{depth} deep")
        assert err == "error: tree JSON is nested too deeply to load\n"

    rng = random.Random("tree-mutations")
    for i in range(300):
        doc = json.loads(tree_file.read_text())
        _mutate(doc, rng)
        check(doc, f"mutation {i}")
    assert json.loads(tree_file.read_text()) == valid


def test_tree_split_entries_outside_the_block_are_format_errors(tmp_path, capsys):
    # the loader turns each split into a bit mask of the speaker's side
    mfile = tmp_path / "m.txt"
    tree_file = tmp_path / "tree.json"
    run("gen-matrix", "--family", "random-f2-rank", "--k", "8", "--l", "8",
        "--rank", "3", "--seed", "5", "--out", str(mfile))
    assert run("protocol", "--matrix", str(mfile), "--strategy", "greedy",
               "--tree-out", str(tree_file), "--out", str(tmp_path / "p.json")) == 0
    valid = json.loads(tree_file.read_text())
    # a node below the root whose side is a proper subset of the matrix's
    n = {"row": valid["rows"], "col": valid["cols"]}
    stack = [(valid["root"], set(range(n["row"])), set(range(n["col"])), "")]
    while stack:
        node, rows, cols, path = stack.pop()
        if node["type"] != "internal":
            continue
        side = rows if node["speaker"] == "row" else cols
        if len(side) < n[node["speaker"]]:
            break
        split = set(node["split"])
        out0, in1 = side - split, side & split
        child0, child1 = node["children"]
        if node["speaker"] == "row":
            stack += [(child0, out0, cols, path + "0"), (child1, in1, cols, path + "1")]
        else:
            stack += [(child0, rows, out0, path + "0"), (child1, rows, in1, path + "1")]
    assert path and len(side) < n[node["speaker"]]
    outside = min(set(range(n[node["speaker"]])) - side)
    bad_file = tmp_path / "bad.json"
    for label, split in (
        ("negative", [-1]),
        ("huge", [2**70]),
        ("duplicate", [min(side)] * 2),
        ("outside the side", [outside]),
        ("whole side", sorted(side)),
    ):
        doc = json.loads(tree_file.read_text())
        target = doc["root"]
        for step in path:
            target = target["children"][int(step)]
        target["split"] = split
        bad_file.write_text(json.dumps(doc))
        assert run("verify", "--matrix", str(mfile), "--tree", str(bad_file)) == 1, label
        err = capsys.readouterr().err
        assert err == (f"error: node {path}: split is not a proper nonempty subset "
                       f"of the block's {node['speaker']}s\n"), (label, err)


def test_exact_cap_is_bounded(tmp_path, capsys):
    # the exact searches enumerate up to 2^cap subsets, so the cap is at
    # most its default; only small matrices are searched here
    v = tmp_path / "v.txt"
    v.write_text("0000\n0011\n1100\n1111\n")
    m = tmp_path / "m.txt"
    m.write_text("3 3\n011\n101\n110\n")
    verbs = (
        ("dual", "--set-a", str(v), "--set-b", str(v), "--strategy", "exact"),
        ("mono", "--matrix", str(m), "--strategy", "exact"),
        ("mono", "--matrix", str(m), "--strategy", "via-dual"),
        ("protocol", "--matrix", str(m), "--strategy", "exact"),
        ("protocol", "--matrix", str(m), "--strategy", "via-dual"),
    )
    for verb in verbs:
        for cap in (-1, cli.EXACT_CAP + 1, 2**70):
            assert run(*verb, "--exact-cap", str(cap)) == 1, (verb, cap)
            captured = capsys.readouterr()
            assert captured.err == f"error: --exact-cap must be within 0..20, got {cap}\n"
            assert captured.out == ""
        for cap in (4, cli.EXACT_CAP):
            assert run(*verb, "--exact-cap", str(cap), "--out", str(tmp_path / "o.json")) == 0


def _byte_mutation(data: bytes, rng) -> bytes:
    """Insert a non-ASCII byte, or delete or duplicate a byte, so that the
    file no longer parses: every line of a set file, and every row of a
    matrix file, has the same width, and a matrix header counts the rows."""
    kind = rng.choice(["insert", "delete", "duplicate"])
    if kind == "insert":
        at = rng.randrange(len(data) + 1)
        return data[:at] + bytes([rng.randrange(0x80, 0x100)]) + data[at:]
    if kind == "delete":
        at = rng.randrange(len(data) - 1)  # not the final newline
    else:
        at = rng.choice([i for i, c in enumerate(data) if not chr(c).isspace()])
    return data[:at] + data[at:at + 1] * (2 if kind == "duplicate" else 0) + data[at + 1:]


def test_malformed_set_and_matrix_bytes_are_format_errors(tmp_path, capsys):
    sets = tmp_path / "a.txt"
    matrix = tmp_path / "m.txt"
    run("gen-sets", "--family", "random", "--n", "6", "--size", "5", "--seed", "2",
        "--out", str(sets))
    run("gen-matrix", "--family", "random-f2-rank", "--k", "12", "--l", "7",
        "--rank", "3", "--seed", "2", "--out", str(matrix))
    bad = tmp_path / "bad.txt"
    rng = random.Random("byte-mutations")
    for source, argv in (
        (sets, ("dual", "--set-a", str(bad), "--set-b", str(bad), "--strategy", "greedy")),
        (matrix, ("analyze", "--matrix", str(bad))),
    ):
        data = source.read_bytes()
        for i in range(150):
            bad.write_bytes(_byte_mutation(data, rng))
            capsys.readouterr()
            assert run(*argv) == 1, (source.name, i, bad.read_bytes())
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (source.name, i, err)


def test_exit_codes_map_each_error_class(monkeypatch, capsys):
    # exit 1 for bad input, 2 when a search finds nothing, 3 for a bug; each
    # prints one line to stderr
    for exc, code, err in (
        (FormatError("bad input"), 1, "error: bad input\n"),
        (SearchFailure("bsg", "no candidate met the size floor"), 2,
         "not found (bsg): no candidate met the size floor\n"),
        (InvariantViolation("broken"), 3, "invariant violation: broken\n"),
        (TreeMismatch("protocol mismatch at (0,1): got 1, expected 0"), 3,
         "invariant violation: protocol mismatch at (0,1): got 1, expected 0\n"),
        (OSError(2, "No such file or directory", "m.txt"), 1,
         "error: [Errno 2] No such file or directory: 'm.txt'\n"),
    ):
        def failing(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_analyze", failing)
        assert run("analyze", "--matrix", "m.txt") == code, exc
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)


def test_parser_is_built_once_per_process(monkeypatch, tmp_path):
    # main parses with one cached parser and looks each verb's cmd_ function
    # up per call, so a replaced cmd_ function is still the one that runs
    builds = []
    monkeypatch.setattr(cli, "_parser", cache(lambda: builds.append(1) or cli.build_parser()))
    missing = str(tmp_path / "missing.txt")
    assert [run("analyze", "--matrix", missing) for _ in range(3)] == [1, 1, 1]
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: 0)
    assert run("analyze", "--matrix", missing) == 0
    assert run("analyze") == 1
    assert builds == [1]


def test_usage_errors(tmp_path):
    assert run("analyze", "--matrix", str(tmp_path / "missing.txt")) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    assert run("analyze", "--matrix", str(bad)) == 1
    assert run("nonsense-verb") == 1


def test_bad_flag_values_are_usage_errors(tmp_path, capsys):
    v = tmp_path / "v.txt"
    v.write_text("0000\n0011\n1100\n1111\n")
    m = tmp_path / "m.txt"
    m.write_text("2 2\n01\n10\n")
    dual = ("dual", "--set-a", str(v), "--set-b", str(v))
    for argv in (
        ("experiment", "--name", "log-rank-sweep", "--strategy", "bogus"),
        (*dual, "--K", "abc"),
        (*dual, "--K", "1/0"),
        (*dual, "--K", "0"),
        (*dual, "--K", "-3/2"),
        ("experiment", "--name", "dual-pipeline", "--K", "abc"),
        ("experiment", "--name", "counterexample", "--ns", "6,x"),
        ("experiment", "--name", "log-rank-sweep", "--ranks", "2,,3"),
        ("analyze", "--dense-cap", "3"),
        ("analyze", "--matrix", str(v), "--exact-cap", "3"),
        ("verify", "--matrix", str(v)),
        ("nonsense-verb",),
        # --format only where a command has a CSV form
        ("factor", "--matrix", str(m), "--format", "csv"),
        ("factor", "--matrix", str(m), "--format", "json"),
        # a flag the chosen strategy does not read
        (*dual, "--strategy", "greedy", "--K", "5", "--exact-cap", "1"),
        (*dual, "--strategy", "exact", "--K", "5"),
        (*dual, "--exact-cap", "3"),
        (*dual, "--strategy", "greedy", "--exact-cap", "3"),
        ("mono", "--matrix", str(m), "--strategy", "greedy", "--exact-cap", "3"),
        ("protocol", "--matrix", str(m), "--strategy", "greedy", "--exact-cap", "3"),
        # a flag the chosen generator family does not read
        ("gen-matrix", "--family", "ip", "--n", "2", "--rank", "5", "--k", "9"),
        ("gen-matrix", "--family", "ip", "--n", "2", "--p", "0.5"),
        ("gen-matrix", "--family", "random-f2-rank", "--k", "4", "--l", "4", "--rank", "2",
         "--p", "0.3"),
        ("gen-matrix", "--family", "random-dense", "--k", "4", "--l", "4", "--set-a", str(v)),
        # a chance of a 1 outside [0, 1]
        *(("gen-matrix", "--family", "random-dense", "--k", "4", "--l", "4", "--p", p)
          for p in ("2", "-1", "nan", "inf", "-inf", "1.0001")),
        ("gen-sets", "--family", "subspace", "--n", "4", "--d", "2", "--size", "9", "--w", "3"),
        ("gen-sets", "--family", "random", "--n", "4", "--size", "3", "--outliers", "1"),
        # counts and dimensions an experiment cannot run with
        ("experiment", "--name", "doubling", "--n", "0"),
        ("experiment", "--name", "doubling", "--n", "-2"),
        ("experiment", "--name", "log-rank-sweep", "--ranks", "2", "--k", "4", "--l", "4",
         "--instances", "0"),
        ("experiment", "--name", "log-rank-sweep", "--ranks", "2", "--k", "4", "--l", "4",
         "--instances", "-1"),
        ("experiment", "--name", "nw-bias", "--k", "4", "--l", "4", "--rank", "1",
         "--count", "-1"),
    ):
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and "error:" in err, err

    # --seed is read or echoed by every strategy
    for argv in (
        (*dual, "--strategy", "exact", "--exact-cap", "4", "--seed", "3"),
        ("mono", "--matrix", str(m), "--strategy", "greedy", "--seed", "3"),
        ("protocol", "--matrix", str(m), "--strategy", "via-dual", "--exact-cap", "4"),
    ):
        assert run(*argv) == 0, argv
    capsys.readouterr()

    # a valid --K is echoed exactly as typed
    out = tmp_path / "k.json"
    assert run("experiment", "--name", "dual-pipeline", "--n", "4", "--K", "32/2",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["K"] == "32/2"


def test_experiment_dimension_and_oracle_cap_name_their_flag(capsys, monkeypatch):
    # each flag is checked before any set or matrix is made
    for maker in ("generate_sets", "make_weight_slice", "make_random_f2_rank",
                  "make_low_real_rank"):
        monkeypatch.setattr(cli.xp, maker, None)
    for argv, message in (
        (("dual-pipeline", "--n", "0"), "--n must be at least 1, got 0"),
        (("dual-pipeline", "--n", "4", "--oracle-cap", "-1"),
         "--oracle-cap must be at least 0, got -1"),
        (("counterexample", "--ns", "6", "--oracle-cap", "-1"),
         "--oracle-cap must be at least 0, got -1"),
        # the oracle's matrix is at most 128 x 128 bits; no set is generated
        (("dual-pipeline", "--n", "4", "--oracle-cap", "129"),
         "--oracle-cap must be at most 128, got 129"),
        (("counterexample", "--ns", "4", "--w", "2", "--oracle-cap", "200000"),
         "--oracle-cap must be at most 128, got 200000"),
        (("counterexample", "--ns", "0"), "--ns entries must be at least 2, got 0"),
        (("counterexample", "--ns", "6,1"), "--ns entries must be at least 2, got 1"),
        (("counterexample", "--ns", "6,3", "--w", "4"),
         "--ns entries must be at least 4, got 3"),
        (("counterexample", "--ns", "0", "--w", "0"),
         "--ns entries must be at least 1, got 0"),
        (("log-rank-sweep", "--ranks", "2", "--k", "0", "--l", "4"),
         "--k must be at least 1, got 0"),
        (("log-rank-sweep", "--ranks", "2", "--k", "4", "--l", "0"),
         "--l must be at least 1, got 0"),
        (("nw-bias", "--k", "0"), "--k must be at least 1, got 0"),
        (("nw-bias", "--l", "-1"), "--l must be at least 1, got -1"),
        (("doubling", "--n", "2"), "--n must be at least 3, got 2"),
    ):
        assert run("experiment", "--name", *argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
    monkeypatch.undo()
    assert run("experiment", "--name", "doubling", "--n", "3") == 0


def test_experiment_rejects_flags_it_does_not_read(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run("experiment", "--name", "counterexample", "--ns", "6", "--strategy",
               "greedy", "--k", "3", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: experiment counterexample does not read --k, --strategy\n"
    assert not out.exists()
    for argv in (
        ("--name", "doubling", "--n", "6", "--oracle-cap", "9"),
        ("--name", "nw-bias", "--K", "4"),
        ("--name", "log-rank-sweep", "--family", "random"),
        ("--name", "dual-pipeline", "--ns", "6"),
    ):
        assert run("experiment", *argv) == 1, argv
        assert "does not read" in capsys.readouterr().err


# verb -> (its choice flag, choice -> the keys it reads, the error's name
# for a choice, the verb's other argv, its dests that are not parameter flags)
VERBS = {
    "gen-matrix": ("--family", cli.xp.MATRIX_FAMILIES, "family", (), {"family"}),
    "gen-sets": ("--family", cli.xp.SET_FAMILIES, "family", (), {"family"}),
    "experiment": ("--name", {name: read for name, (_, read) in cli.xp.EXPERIMENTS.items()},
                   "experiment", (), {"name", "timings", "format"}),
    "dual": ("--strategy", cli.DUAL_STRATEGIES, "--strategy",
             ("--set-a", "a.txt", "--set-b", "b.txt"), {"strategy", "set_a", "set_b"}),
    "mono": ("--strategy", cli.FINDER_STRATEGIES, "--strategy", ("--matrix", "m.txt"),
             {"strategy", "matrix"}),
    "protocol": ("--strategy", cli.FINDER_STRATEGIES, "--strategy", ("--matrix", "m.txt"),
                 {"strategy", "matrix", "tree_out", "format"}),
}


def test_each_verb_declares_exactly_the_flags_its_tables_read():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    for verb, (_, reads, _, _, others) in VERBS.items():
        dests = {a.dest for a in sub.choices[verb]._actions} - {"help", "seed", "out"}
        assert dests - others == set().union(*reads.values()), verb
    # one list of finder names
    assert tuple(cli.FINDER_STRATEGIES) == STRATEGIES


def test_every_unread_flag_is_rejected_before_any_input_is_made(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("read_set_file", "read_matrix_file"):
        monkeypatch.setattr(cli, name, None)
    for name in ("generate_matrix", "generate_sets", "run_experiment"):
        monkeypatch.setattr(cli.xp, name, None)
    samples = {int: "3", float: "0.5", str: "x", cli._int_list: "4", cli._growth_bound: "4"}
    rejected = 0
    for verb, (choice, reads, what, argv, _) in VERBS.items():
        listed = set().union(*reads.values())
        for name, read in reads.items():
            for key in sorted(listed - set(read)):
                flag = "--" + key.replace("_", "-")
                kind = cli.PARAMS[key][0]
                value = kind[0] if isinstance(kind, tuple) else samples[kind]
                assert run(verb, choice, name, *argv, flag, value, "--out", "made.txt") == 1
                err = capsys.readouterr().err
                assert err == f"error: {what} {name} does not read {flag}\n", (verb, name)
                rejected += 1
    assert rejected > 80
    assert not (tmp_path / "made.txt").exists()


def test_sets_of_two_spaces_are_named_in_one_line(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("00\n11\n")
    b.write_text("1\n")
    for argv in (
        *(("dual", "--strategy", strategy) for strategy in cli.DUAL_STRATEGIES),
        ("gen-matrix", "--family", "from-sets"),
    ):
        assert run(*argv, "--set-a", str(a), "--set-b", str(b)) == 1, argv
        err = capsys.readouterr().err
        assert err == "error: sets live in different spaces, F2^2 and F2^1\n", argv


def test_experiment_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["experiment", "--name", "nw-bias", "--count", "4", "--k", "8",
            "--l", "8", "--rank", "3", "--seed", "9"]
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_stage_failure_exit_code(tmp_path):
    # pinned seed whose random self-pair has zero duality: the report is
    # still written in full and the exit code flags the legitimate failure
    out = tmp_path / "fail.json"
    code = run("experiment", "--name", "dual-pipeline", "--family", "random",
               "--n", "6", "--size", "10", "--seed", "4", "--out", str(out))
    assert code == 2
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["search_failures"]
    assert report["results"]["pipeline"]["failed_stage"] == "markov_restrict"


def test_experiment_timings_add_only_the_wall_time(tmp_path):
    # --timings adds one key, timings.wall_seconds, and changes neither the
    # rest of the report nor the exit code, on a clean run and a failed one
    for argv, code in (
        (("--name", "doubling", "--n", "6", "--seed", "2"), 0),
        (("--name", "dual-pipeline", "--family", "random", "--n", "6", "--size", "10",
          "--seed", "4"), 2),
    ):
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        assert run("experiment", *argv, "--out", str(plain)) == code
        assert run("experiment", *argv, "--timings", "--out", str(timed)) == code
        report = json.loads(timed.read_text())
        timings = report.pop("timings")
        assert list(timings) == ["wall_seconds"] and timings["wall_seconds"] >= 0
        assert report == json.loads(plain.read_text())


def test_nw_bias_rows_without_a_biased_submatrix(tmp_path, monkeypatch):
    # the second instance's search fails, as an exhaustive proof of
    # nonexistence or as spent heuristics; its row keeps the instance's
    # shape and rank, leaves the measurements blank, and the run exits 2
    from dualbench import runners

    config = {"count": 3, "k": 8, "l": 8, "rank": 3}
    argv = ["experiment", "--name", "nw-bias", "--count", "3", "--k", "8", "--l", "8",
            "--rank", "3", "--seed", "9"]
    _report, whole = xp.run_experiment("nw-bias", config, seed=9)
    assert all(row["found"] for row in whole)
    real = runners.find_biased_submatrix
    for exhaustive in (True, False):
        calls = []

        def failing(m, rank, *args, exhaustive=exhaustive):
            calls.append(m)
            if len(calls) == 2:
                raise SearchFailure("search", "patched", exhaustive=exhaustive)
            return real(m, rank, *args)

        monkeypatch.setattr(runners, "find_biased_submatrix", failing)
        report, rows = xp.run_experiment("nw-bias", config, seed=9)
        assert rows[0] == whole[0] and rows[2] == whole[2]
        assert rows[1] == {**whole[1], "found": False, "exhaustive_nonexistence": exhaustive,
                           "area_ratio": "", "discrepancy": ""}
        assert report["results"]["not_found"] == 1
        assert report["search_failures"] == ["instance 1: patched"]
        assert report["ok"] is True and report["assertion_failures"] == []
        out = tmp_path / f"nw-{exhaustive}.json"
        calls.clear()
        assert run(*argv, "--out", str(out)) == 2
        assert out.read_text() == xp.to_json(report)


def test_experiment_csv_and_json_forms(tmp_path):
    json_out = tmp_path / "d.json"
    csv_out = tmp_path / "d.csv"
    base = ["experiment", "--name", "doubling", "--n", "6", "--seed", "2"]
    assert run(*base, "--out", str(json_out)) == 0
    assert run(*base, "--format", "csv", "--out", str(csv_out)) == 0
    report = json.loads(json_out.read_text())
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 1 + len(report["results"]["rows"])


def test_experiment_counterexample_small(tmp_path):
    out = tmp_path / "c.json"
    assert run("experiment", "--name", "counterexample", "--ns", "4,6",
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    rows = report["results"]["rows"]
    assert [row["n"] for row in rows] == [4, 6]
    assert rows[1]["max_pair_area"] == 9


def test_experiment_log_rank_sweep_small(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("experiment", "--name", "log-rank-sweep", "--ranks", "2,3",
               "--k", "8", "--l", "8", "--instances", "3",
               "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("rank,instances,mean_leaves")
    assert len(lines) == 3


def test_only_exact_strategies_reuse_the_rectangle(tmp_path, monkeypatch):
    # the greedy and via-dual finders may answer differently in a child, so
    # only the exact strategy hands Q down, in protocol and in the sweep; a
    # tree that never does searches once per internal node
    from dualbench import protocol

    searched = []
    finder_for = protocol.finder_for

    def counting(*args):
        finder = finder_for(*args)
        return lambda *block: searched.append(block) or finder(*block)

    monkeypatch.setattr(protocol, "finder_for", counting)
    m = tmp_path / "m.txt"
    m.write_text("3 3\n011\n101\n110\n")
    out = tmp_path / "out.json"
    for strategy in protocol.STRATEGIES:
        searched.clear()
        assert run("protocol", "--matrix", str(m), "--strategy", strategy,
                   "--out", str(out)) == 0
        internal = json.loads(out.read_text())["results"]["internal_nodes"]
        skipped = [internal - len(searched)]
        searched.clear()
        assert run("experiment", "--name", "log-rank-sweep", "--ranks", "2", "--k", "4",
                   "--l", "4", "--instances", "1", "--strategy", strategy,
                   "--out", str(out)) == 0
        (row,) = json.loads(out.read_text())["results"]["detail"]
        skipped.append(row["leaves"] - 1 - len(searched))
        if strategy == "exact":
            assert min(skipped) > 0, skipped
        else:
            assert skipped == [0, 0], strategy


def test_via_dual_log_rank_sweep_reads_the_seed(tmp_path):
    # the via-dual bridge's BSG step draws from --seed: at seed 3 the fifth
    # 20x20 F2-rank-6 instance gets a shallower tree than at seed 0
    out = tmp_path / "sweep.json"
    assert run("experiment", "--name", "log-rank-sweep", "--strategy", "via-dual",
               "--ranks", "6", "--k", "20", "--l", "20", "--instances", "6",
               "--seed", "3", "--out", str(out)) == 0
    detail = json.loads(out.read_text())["results"]["detail"]
    for row in detail:
        m = make_random_f2_rank(20, 20, 6, instance_rng(3, row["instance"]))
        tree = build_protocol(m, "via-dual", seed=3)
        verify(tree, m)
        assert (row["leaves"], row["depth"]) == (tree.leaves, tree.depth), row
    assert detail[4]["depth"] == 15


def test_matrix_set_formats_round_trip_through_cli(tmp_path):
    mfile = tmp_path / "m.txt"
    run("gen-matrix", "--family", "random-dense", "--k", "5", "--l", "7",
        "--seed", "3", "--out", str(mfile))
    m = read_matrix_file(mfile)
    assert format_matrix(parse_matrix_text(format_matrix(m))) == format_matrix(m)
