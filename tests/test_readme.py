"""README examples run as written, so a renamed or deleted name cannot leave them stale."""

import re
import shlex
from pathlib import Path

from tspn.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# Quick-tour commands that read images or score tables the tour does not make.
NEEDS_INPUTS = ("--image", "--scores")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _quick_tour_commands() -> list[list[str]]:
    text = _block("CLI quick tour", "bash").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    return [argv for argv in commands if argv]


def test_library_example_runs(capsys):
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
    length, holds = capsys.readouterr().out.splitlines()[0].split()
    assert float(length) > 0 and holds == "True"


def test_cli_quick_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in _quick_tour_commands():
        assert argv[0] == "tspn", argv
        if any(flag in argv for flag in NEEDS_INPUTS):
            continue
        assert main(argv[1:]) == 0, argv
        for flag in ("--out", "--outcomes", "--aggregate-out"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).stat().st_size > 0, argv
        ran.append(argv[1])
    assert ran == ["gen-scene", "plan", "validate", "baseline", "online", "mis", "detour",
                   "region", "compare"]
