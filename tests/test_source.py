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
