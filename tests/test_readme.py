"""The README's examples, run and compared with what they really print.

A shown output must match exactly; where the README elides lines with
a `...` line, the lines before the first `...` must open the real output and
the lines after the last one must close it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from unaryperfect.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
PROMPT = "$ unaryperfect "

# every command example, keyed by its command line
COMMANDS = {
    body.splitlines()[0][len(PROMPT) :]: body.splitlines()[1:]
    for _, body in BLOCKS
    if body.startswith(PROMPT)
}


def _assert_shown(shown, actual):
    cuts = [i for i, line in enumerate(shown) if line.strip() == "..."]
    if not cuts:
        assert actual == shown
        return
    head, tail = shown[: cuts[0]], shown[cuts[-1] + 1 :]
    assert actual[: len(head)] == head
    assert actual[len(actual) - len(tail) :] == tail


def test_every_command_example_is_checked():
    assert sorted(COMMANDS) == [
        "analyze 1007",
        "analyze 33",
        "oracle 7 1/2 5/28",
        "scan 2 30",
        "verify-family --m-max 5 --k-max 4 --d-cap 20000",
    ]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_example(command, capsys):
    assert main(shlex.split(command)) == 0
    _assert_shown(COMMANDS[command], capsys.readouterr().out.splitlines())


def test_library_example():
    # output follows a print on its line, or stands alone on a comment line
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    shown = re.findall(r"^(?:print\(.*\)\s+)?# (.*)$", code, re.M)
    assert shown[:2] == ["224 + 15*sqrt(223)", "2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == shown
