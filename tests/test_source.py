"""Source-level checks on the package."""

import ast
import builtins
import importlib
import sys
from pathlib import Path

import dualbench
from dualbench import errors

SOURCES = sorted(Path(dualbench.__file__).parent.glob("*.py"))


def test_checks_survive_optimised_mode():
    # `python -O` strips assert statements, and a bare ValueError falls
    # outside the error taxonomy the CLI maps to exit codes; certificate and
    # argument checks raise DualbenchError subclasses instead
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}: raise ValueError")
    assert found == []


def test_only_f2_chooses_dense_tables():
    # f2 alone decides between a dense 2^n transform table and direct sums,
    # so only f2 names DENSE_CAP, dense_pays or char_table, or calls wht;
    # lane packing stays in f2's one kernel, so only f2 imports array or
    # names _wht_lanes
    found = []
    for path in SOURCES:
        if path.name == "f2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.alias):
                names.append(node.name)
            for name in ("DENSE_CAP", "dense_pays", "char_table", "_wht_lanes"):
                if name in names:
                    found.append(f"{path.name}:{node.lineno}: {name}")
            if isinstance(node, ast.Import) and any(a.name == "array" for a in node.names):
                found.append(f"{path.name}:{node.lineno}: import array")
            if isinstance(node, ast.ImportFrom) and node.module == "array":
                found.append(f"{path.name}:{node.lineno}: from array import")
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "wht" or getattr(func, "attr", None) == "wht":
                    found.append(f"{path.name}:{node.lineno}: wht call")
    assert found == []


def test_only_f2_computes_parities():
    # inner-product parities come from f2's bit-matrix kernel (transpose,
    # combine, ip_rows, CharSums), never one pair at a time: no module names
    # parity_dot, the per-pair reference in tests/_reference_oracles.py, and
    # only f2 takes a popcount's low bit
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if "parity_dot" in names:
                found.append(f"{path.name}:{node.lineno}: parity_dot")
            if (
                path.name != "f2.py"
                and isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.BitAnd)
                and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "attr", None) == "bit_count"
                and isinstance(node.right, ast.Constant)
                and node.right.value == 1
            ):
                found.append(f"{path.name}:{node.lineno}: popcount parity")
    assert found == []


def test_only_matrix_finds_rectangles():
    # one exact and one greedy rectangle finder, for matrices and for set
    # pairs alike: only matrix defines max_mono_exact or greedy_rectangle; a
    # dual-pair search runs them on the inner-product matrix
    found = []
    for path in SOURCES:
        if path.name == "matrix.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in (
                "max_mono_exact",
                "greedy_rectangle",
            ):
                found.append(f"{path.name}:{node.lineno}: def {node.name}")
    assert found == []


def test_protocol_copies_no_block():
    # the finders search a block of the tree's matrix in place: protocol
    # hands them masks and never copies a block out with take
    path = next(path for path in SOURCES if path.name == "protocol.py")
    found = [
        f"{path.name}:{node.lineno}: take call"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "take"
    ]
    assert found == []


def _calls_a_ranker(node) -> bool:
    """Whether node calls rank_real or block_rank anywhere inside it."""
    return any(
        isinstance(inner, ast.Call)
        and {getattr(inner.func, "id", None), getattr(inner.func, "attr", None)}
        & {"rank_real", "block_rank"}
        for inner in ast.walk(node)
    )


def test_blocks_are_ranked_only_by_their_matrix():
    # a block's rank comes from BoolMatrix.block_rank, the one memo over a
    # matrix's blocks, which every holder of the matrix shares: protocol and
    # approxdual never name rank_real, and no module but matrix keeps a rank
    # memo, that is names BlockRanks, or ranks in a class body or a cached
    # function, or stores a rank into a mapping
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if path.name in ("protocol.py", "approxdual.py") and (
                (isinstance(node, ast.alias) and node.name == "rank_real")
                or (
                    isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                    and "rank_real" in (getattr(node, "id", None), getattr(node, "attr", None))
                )
            ):
                found.append(f"{path.name}:{node.lineno}: rank_real")
            if path.name == "matrix.py":
                continue
            if "BlockRanks" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
                found.append(f"{path.name}:{node.lineno}: BlockRanks")
            memo = (
                isinstance(node, ast.ClassDef)
                or (
                    isinstance(node, ast.FunctionDef)
                    and any("cache" in ast.unparse(d) for d in node.decorator_list)
                )
                or (
                    isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Subscript) for t in node.targets)
                )
                or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault")
            )
            if memo and _calls_a_ranker(node):
                found.append(f"{path.name}:{node.lineno}: rank memo")
    assert found == []


def test_only_f2_reads_masks_as_digits():
    # an index set is a mask, and f2.picks is the one place a mask is read
    # as binary digits: no other module calls bin()
    found = []
    for path in SOURCES:
        if path.name == "f2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bin":
                found.append(f"{path.name}:{node.lineno}: bin call")
    assert found == []


def test_only_f2_builds_masks_from_indices():
    # f2.mask_of is the one mask builder, as f2.picks is the one mask
    # reader: no other module sums 1 << i over a generator of indices
    found = []
    for path in SOURCES:
        if path.name == "f2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "sum"
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and isinstance(node.args[0].elt, ast.BinOp)
                and isinstance(node.args[0].elt.op, ast.LShift)
                and isinstance(node.args[0].elt.left, ast.Constant)
                and node.args[0].elt.left.value == 1
            ):
                found.append(f"{path.name}:{node.lineno}: sum of 1 << x")
    assert found == []


def test_no_function_level_imports():
    # every import statement sits at the head of its module, so the module
    # graph is read there; the few modules loaded later are named in tables
    # (see test_modules_load_late_only_from_tables)
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{inner.lineno}: import in {node.name}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_modules_load_late_only_from_tables():
    # a module a verb may not need is loaded by importlib.import_module, and
    # only in these functions: the package's lazy re-exports, cli.main for
    # the chosen verb's modules (VERB_MODULES), run_experiment for the
    # runners, and finder_for for the via-dual bridge
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "import_module" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                found.append((path.name, owner.get(id(node), "<module>")))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "__import__":
                found.append((path.name, "__import__"))
    assert sorted(found) == [
        ("__init__.py", "__getattr__"),
        ("cli.py", "main"),
        ("experiments.py", "run_experiment"),
        ("protocol.py", "finder_for"),
    ]


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer looks each traced function up by name, so a
    # rename or move must keep every one of its targets importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracer import TARGETS
    finally:
        sys.path.pop(0)
    for name, module, path in TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def _base_class(module, expr):
    """The object a class statement's base expression names in module."""
    if isinstance(expr, ast.Name):
        return getattr(module, expr.id, getattr(builtins, expr.id, None))
    if isinstance(expr, ast.Attribute):
        return getattr(_base_class(module, expr.value), expr.attr, None)
    return None


def test_only_errors_defines_exceptions():
    # the CLI maps errors to exit codes by class, so every class lives in
    # errors.py, where that map can be read whole
    found = []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        classes = [
            node
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ClassDef)
        ]
        if not classes:  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"dualbench.{path.stem}")
        for node in classes:
            for base in node.bases:
                owner = _base_class(module, base)
                if isinstance(owner, type) and issubclass(owner, BaseException):
                    found.append(f"{path.name}:{node.lineno}: class {node.name}")
    assert found == []


def test_one_error_class_per_exit_code():
    # exit 1 bad input, 2 a search found nothing, 3 a bug: one class each
    # under DualbenchError, plus TreeMismatch, the one bug trap that cli
    # verify reads as bad input in a loaded tree; each is raised or caught
    # somewhere in the package
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == errors.__name__
    }
    assert defined == {
        "DualbenchError", "FormatError", "SearchFailure", "InvariantViolation", "TreeMismatch"
    }
    used = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(getattr(exc, "id", None))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                used.update(getattr(t, "id", None) for t in types)
    assert sorted(defined - used) == []
