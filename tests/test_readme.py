"""The README's command line transcripts and its Library block, run.

Every ``$ lambdah ...`` line of a ``text`` block runs through
``cli.main`` from the root of the repository, and the lines up to the
next command or the end of the block are its expected stdout.  A line
``...`` stands for any number of lines, a line ending in ``...``
matches by prefix, and a trailing ``  # ...`` note is not output.

The ``python`` block runs statement by statement, and the ``repr`` of
each bare expression must be the first word of its ``#`` comment, less
a trailing comma or colon.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from lambdah.cli import main

ROOT = Path(__file__).resolve().parent.parent
NOTE = re.compile(r"\s{2,}# .*$")


def transcripts() -> list[tuple[str, list[str]]]:
    found: list[tuple[str, list[str]]] = []
    in_text = False
    expected = None  # the output lines of the command being read
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        line = NOTE.sub("", line)
        if line.startswith("```"):
            in_text, expected = line == "```text", None
        elif in_text and line.startswith("$ lambdah "):
            expected = []
            found.append((line.removeprefix("$ lambdah "), expected))
        elif expected is not None:
            expected.append(line)
    for _, expected in found:
        while expected and not expected[-1]:
            expected.pop()
    return found


def matches(expected: list[str], actual: list[str]) -> bool:
    if not expected:
        return not actual
    first, rest = expected[0], expected[1:]
    if first == "...":
        return any(matches(rest, actual[k:]) for k in range(len(actual) + 1))
    if not actual:
        return False
    if first.endswith("..."):
        ok = actual[0].startswith(first.removesuffix("..."))
    else:
        ok = actual[0] == first
    return ok and matches(rest, actual[1:])


def test_the_readme_has_transcripts():
    assert len(transcripts()) >= 6


@pytest.mark.parametrize(
    "command, expected", [pytest.param(*t, id=t[0]) for t in transcripts()]
)
def test_readme_transcript(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    main(shlex.split(command))
    actual = capsys.readouterr().out.splitlines()
    assert matches(expected, actual), "\n".join(actual)


def test_readme_library_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (source,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            value = eval(code, namespace)
            comment = lines[stmt.end_lineno - 1].split("  # ", 1)[1]
            assert repr(value) == comment.split()[0].rstrip(",:"), comment
            shown.append(repr(value))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown == ["'y'", "True", "True", "'both-hnf'"]
