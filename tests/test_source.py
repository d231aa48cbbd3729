"""Source-level checks on the package."""

import ast
from pathlib import Path

import dualbench

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
    # so only f2 names DENSE_CAP or calls wht
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
            if "DENSE_CAP" in names:
                found.append(f"{path.name}:{node.lineno}: DENSE_CAP")
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "wht" or getattr(func, "attr", None) == "wht":
                    found.append(f"{path.name}:{node.lineno}: wht call")
    assert found == []
