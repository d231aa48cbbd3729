"""The README's CLI examples run as documented."""

import re
import shlex
from pathlib import Path

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
