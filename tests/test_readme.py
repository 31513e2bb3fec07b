"""README's examples run as written.

The "Library use" block is executed, and every "Command line" example
whose comment states a value is run through cli.run on the corpus that
`lescop examples --write examples/` writes; each printed value must equal
its comment.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from lescop.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text of README's "## title" section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced(text, lang):
    """The first ```lang block of text."""
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


COMMANDS = [
    (shlex.split(line.split("#", 1)[0]), line.split("#", 1)[1].strip())
    for line in fenced(section("Command line"), "sh").splitlines()
    if line.startswith("lescop ")
]

# the line a subcommand prints its value on, by subcommand
VALUE_KEYS = {
    "alexander": "alexander",
    "lescop": "lescop",
    "sato-levine": "sato_levine",
    "mu2": "mu_squared",
}


def printed_value(argv, out):
    """The value an example prints, in the form its comment states it."""
    if "--json" in argv:
        return json.loads(out)
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    if argv[1] == "chi":
        values = {v for k, v in fields.items() if k.startswith("chi[")}
        assert len(values) == 1 and "routes agree" in out.splitlines(), out
        return f"{values.pop()} by both routes"
    return fields[VALUE_KEYS[argv[1]]]


def expected_value(comment):
    return json.loads(comment) if comment.startswith("{") else comment


VALUE_EXAMPLES = [
    (argv, comment)
    for argv, comment in COMMANDS
    if argv[1] in VALUE_KEYS or argv[1] == "chi" or "--json" in argv
]


def test_library_use_block_runs():
    exec(compile(fenced(section("Library use"), "python"), "README.md", "exec"), {})


def test_every_value_example_is_found():
    """The examples whose comment is a value; the others describe what a command does."""
    assert [(argv[1], comment) for argv, comment in VALUE_EXAMPLES] == [
        ("alexander", "t - 1 + t^-1"),
        ("lescop", "-1/12"),
        ("chi", "-2 by both routes"),
        ("sato-levine", "2"),
        ("mu2", "4"),
        ("lens", '{"central": 1, "spheres": 2, "factor": 5}'),
    ]


@pytest.mark.parametrize(
    "argv, comment", VALUE_EXAMPLES, ids=[argv[1] for argv, _ in VALUE_EXAMPLES]
)
def test_command_line_example(argv, comment, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LESCOP_NORMALIZATION", raising=False)
    (write,) = [a for a, _ in COMMANDS if "--write" in a]
    assert run(write[1:]) == 0
    capsys.readouterr()
    assert run(argv[1:]) == 0
    assert printed_value(argv, capsys.readouterr().out) == expected_value(comment)
