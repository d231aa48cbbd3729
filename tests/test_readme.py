"""The README's CLI examples run as documented, and its module table names
only what exists."""

import builtins
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import dualbench
from dualbench.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_runs() -> list[list[str]]:
    """Each `dualbench` line of the README's CLI block, in order, as argv
    lists; an `a|b|c` argument expands into one run per choice."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    runs = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        assert words[0] == "dualbench", line
        choices = [i for i, w in enumerate(words) if "|" in w]
        assert len(choices) <= 1, line
        if not choices:
            runs.append(words[1:])
            continue
        i = choices[0]
        for choice in words[i].split("|"):
            runs.append(words[1:i] + [choice] + words[i + 1:])
    return runs


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    runs = readme_cli_runs()
    assert len(runs) == 18
    monkeypatch.chdir(tmp_path)
    for argv in runs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


MODULES = {"dualbench"} | {m.name for m in pkgutil.iter_modules(dualbench.__path__)}


def readme_table_names() -> list[tuple[str, str]]:
    """(module, name) for each backticked identifier or call in the README's
    module table; a call `f(x).g(y)` gives the name `f.g`.  Formulas
    (holding `=`, `[`, `^` or `<`), builtins and module names are skipped."""
    text = README.read_text(encoding="utf-8")
    names = []
    for module, contents in re.findall(r"^\| `(dualbench\.\w+)` \| (.*) \|$", text, re.M):
        for span in re.findall(r"`([^`]+)`", contents):
            if re.search(r"[=\[^<]", span):
                continue
            stripped = 1
            while stripped:  # innermost argument lists first
                span, stripped = re.subn(r"\([^()]*\)", "", span)
            if span in MODULES or hasattr(builtins, span):
                continue
            names.append((module, span))
    return names


def resolve(module_name: str, name: str):
    """`f2.X` in dualbench.f2, else in the row's module; a first name the
    module lacks is looked up as a method of the module's classes."""
    first, *rest = name.split(".")
    if first in MODULES and rest:
        module_name, (first, *rest) = f"dualbench.{first}", rest
    module = importlib.import_module(module_name)
    if hasattr(module, first):
        obj = getattr(module, first)
    else:
        obj = next(getattr(c, first) for c in vars(module).values()
                   if isinstance(c, type) and hasattr(c, first))
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_readme_module_table_names_exist():
    names = readme_table_names()
    assert len({module for module, _ in names}) == 8
    missing = []
    for module, name in names:
        try:
            resolve(module, name)
        except (AttributeError, StopIteration):
            missing.append(f"{module}: {name}")
    assert not missing, missing
