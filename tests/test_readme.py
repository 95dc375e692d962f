"""The README's example transcript, run through ``cli.main``."""

import shlex
from pathlib import Path

from fatpoints.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _transcript() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) of each ``$ fatpoints`` line of the README's
    indented blocks: the indented lines after it, up to the next command
    or the end of the block."""
    steps, shown = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("    $ fatpoints "):
            shown = []
            steps.append((shlex.split(line)[2:], shown))
        elif line.startswith("    ") and shown is not None:
            shown.append(line[4:])
        else:
            shown = None
    return steps


def test_readme_example_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    steps = _transcript()
    assert any(shown for _, shown in steps)  # the transcript was found
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == shown
