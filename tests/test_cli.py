import json
import random

import pytest

from dualbench.cli import main
from dualbench.errors import FormatError
from dualbench.experiments import make_ip_matrix
from dualbench.f2 import parse_set_text
from dualbench.matrix import format_matrix, parse_matrix_text, read_matrix_file
from dualbench.protocol import read_tree_file


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
    assert run("verify", "--matrix", str(mfile), "--tree", str(tree_file),
               "--out", str(tmp_path / "v.json")) == 0


def test_verify_mismatch_is_invariant_exit(tmp_path):
    m1 = tmp_path / "m1.txt"
    m2 = tmp_path / "m2.txt"
    m1.write_text("2 2\n10\n01\n")
    m2.write_text("2 2\n10\n00\n")
    tree_file = tmp_path / "tree.json"
    assert run("protocol", "--matrix", str(m1), "--tree-out", str(tree_file),
               "--out", str(tmp_path / "p.json")) == 0
    assert run("verify", "--matrix", str(m2), "--tree", str(tree_file)) == 3


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
    # stored node stats must fit the node's block
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"]["mono_value"] = 2
    check(doc, "mono_value 2")
    doc = json.loads(tree_file.read_text())
    doc["root"]["stats"]["mono_fraction"] = "1/3"
    check(doc, "mono_fraction edited")
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
    text = tree_file.read_bytes()
    check(text[:40] + b"\xe9" + text[40:], "non-ASCII byte")

    rng = random.Random("tree-mutations")
    for i in range(300):
        doc = json.loads(tree_file.read_text())
        _mutate(doc, rng)
        check(doc, f"mutation {i}")
    assert json.loads(tree_file.read_text()) == valid


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
        # a flag the chosen strategy does not read
        (*dual, "--strategy", "greedy", "--K", "5", "--exact-cap", "1"),
        (*dual, "--strategy", "exact", "--K", "5"),
        (*dual, "--exact-cap", "3"),
        (*dual, "--strategy", "greedy", "--exact-cap", "3"),
        ("mono", "--matrix", str(m), "--strategy", "greedy", "--exact-cap", "3"),
        ("protocol", "--matrix", str(m), "--strategy", "greedy", "--exact-cap", "3"),
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


def test_matrix_set_formats_round_trip_through_cli(tmp_path):
    mfile = tmp_path / "m.txt"
    run("gen-matrix", "--family", "random-dense", "--k", "5", "--l", "7",
        "--seed", "3", "--out", str(mfile))
    m = read_matrix_file(mfile)
    assert format_matrix(parse_matrix_text(format_matrix(m))) == format_matrix(m)
