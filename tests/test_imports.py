"""Each process loads only the modules its verb runs, and the package's
lazy re-exports keep every public name."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import dualbench
from dualbench.cli import main
from dualbench.experiments import EXPERIMENT_MODULES, EXPERIMENTS

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs one CLI call in this fresh interpreter, then prints its exit code and
# the dualbench modules it loaded.
PROBE = """
import sys
from dualbench.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("dualbench")))
"""

# every process loads the parser's modules: cli, the light experiments
# module and what that module reads
HEAD = {"dualbench", "dualbench.cli", "dualbench.errors", "dualbench.experiments",
        "dualbench.f2", "dualbench.matrix"}
PIPELINE = {"dualbench.approxdual", "dualbench.adcomb"}


def fresh(code: str, *argv, cwd=None) -> str:
    """The standard output of code run in a fresh interpreter with argv."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True).stdout


def loaded_by(argv, cwd) -> set:
    code, *modules = fresh(PROBE, *argv, cwd=cwd).split()
    assert code == "0", argv
    return set(modules)


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    assert main(["gen-matrix", "--family", "random-f2-rank", "--k", "12", "--l", "12",
                 "--rank", "4", "--seed", "2", "--out", str(tmp_path / "m.txt")]) == 0
    assert main(["protocol", "--matrix", str(tmp_path / "m.txt"), "--strategy", "greedy",
                 "--tree-out", str(tmp_path / "t.json"), "--out", str(tmp_path / "p.json")]) == 0
    assert main(["gen-sets", "--family", "subspace", "--n", "4", "--d", "2",
                 "--out", str(tmp_path / "s.txt")]) == 0
    protocol = HEAD | {"dualbench.protocol"}
    # verb argv -> the modules its process loads
    cases = [
        (["gen-matrix", "--family", "ip", "--n", "3"], HEAD),
        (["gen-matrix", "--family", "random-f2-rank", "--k", "8", "--l", "8", "--rank", "3"],
         HEAD),
        (["gen-sets", "--family", "subspace-plus-noise", "--n", "5", "--d", "2"], HEAD),
        (["analyze", "--matrix", "m.txt"], HEAD),
        (["factor", "--matrix", "m.txt"], HEAD),
        (["protocol", "--matrix", "m.txt", "--strategy", "greedy"], protocol),
        (["protocol", "--matrix", "m.txt", "--strategy", "exact"], protocol),
        (["verify", "--matrix", "m.txt", "--tree", "t.json"], protocol),
        (["mono", "--matrix", "m.txt", "--strategy", "greedy"], protocol),
        (["mono", "--matrix", "m.txt", "--strategy", "via-dual"], protocol | PIPELINE),
        (["dual", "--set-a", "s.txt", "--set-b", "s.txt"], HEAD | PIPELINE),
        # an experiment loads the runners and the modules its runner runs
        (["experiment", "--name", "doubling", "--n", "4"],
         HEAD | {"dualbench.adcomb", "dualbench.runners"}),
        (["experiment", "--name", "log-rank-sweep", "--strategy", "exact", "--ranks", "2",
          "--k", "4", "--l", "4", "--instances", "1"], protocol | {"dualbench.runners"}),
        (["experiment", "--name", "counterexample", "--ns", "6"],
         HEAD | PIPELINE | {"dualbench.runners"}),
    ]
    for argv, modules in cases:
        assert loaded_by([*argv, "--out", "out.txt"], tmp_path) == modules, argv
    assert EXPERIMENT_MODULES.keys() == EXPERIMENTS.keys()


def test_via_dual_protocol_loads_the_pipeline_and_answers_as_in_process(tmp_path):
    matrix = tmp_path / "m.txt"
    assert main(["gen-matrix", "--family", "random-f2-rank", "--k", "16", "--l", "16",
                 "--rank", "5", "--seed", "4", "--out", str(matrix)]) == 0
    argv = ["protocol", "--matrix", str(matrix), "--strategy", "via-dual", "--seed", "3",
            "--tree-out"]
    assert main([*argv, str(tmp_path / "t1.json"), "--out", str(tmp_path / "p1.json")]) == 0
    modules = loaded_by([*argv, "t2.json", "--out", "p2.json"], tmp_path)
    assert modules == HEAD | PIPELINE | {"dualbench.protocol"}
    for name in ("t", "p"):
        assert (tmp_path / f"{name}1.json").read_text() == (tmp_path / f"{name}2.json").read_text()
    assert json.loads((tmp_path / "p2.json").read_text())["results"]["strategy"] == "via-dual"


# the names dualbench/__init__ bound before its re-exports were lazy, by the
# module that defines each
PUBLIC = {
    "adcomb": ("BsgResult", "DoublingReport", "PfrResult", "bsg_extract", "doubling_report",
               "pfr_extract"),
    "approxdual": ("DualPair", "PipelineTrace", "SequenceState", "base_case_dual",
                   "exact_dual_oracle", "find_dual_pair", "greedy_dual_pair",
                   "markov_restrict", "mono_via_dual", "next_set", "pull_back",
                   "run_sequence", "small_span_dual"),
    "f2": ("F2Set", "SpectrumResult", "duality_measure", "span", "spectrum", "sumset", "wht"),
    "matrix": ("BoolMatrix", "Factorization", "MatrixStats", "SubmatrixView", "dedup",
               "discrepancy", "factorize_f2", "find_biased_submatrix", "max_mono_exact",
               "rank_f2", "rank_real", "stats"),
    "protocol": ("CostReport", "ProtocolTree", "build_protocol", "leaf_recurrence_audit",
                 "simulate", "verify"),
}


def test_every_public_name_resolves_and_is_listed():
    listed = dir(dualbench)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"dualbench.{module}")
        for name in names:
            assert getattr(dualbench, name) is getattr(defining, name), name
            assert name in listed and name in dualbench.__all__, name
            # resolved per lookup, never bound in the package
            assert name not in vars(dualbench), name
    assert sorted(dualbench.__all__) == sorted(n for names in PUBLIC.values() for n in names)


def test_a_miss_loads_nothing():
    # `from . import runners` asks the package's __getattr__ first: a name
    # that is not a re-export raises and loads no module
    probe = """
import sys
import dualbench
assert not hasattr(dualbench, "runners") and not hasattr(dualbench, "bogus")
print(*sorted(m for m in sys.modules if m.startswith("dualbench")))
from dualbench import runners, wht
print(*sorted(m for m in sys.modules if m.startswith("dualbench")))
"""
    first, second = fresh(probe).splitlines()
    assert first == "dualbench"
    assert "dualbench.runners" in second.split()
