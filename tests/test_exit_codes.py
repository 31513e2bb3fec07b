"""The exit-code table: how a run of lescop ends, in new processes.

Each row of ROWS is a stream condition, a command line and the exit
code, stdout and stderr that a new `python -m lescop` process gives for
them.  Every row runs through conftest.cold, in a directory that holds
the built-in examples, as `lescop examples --write` names them, and the
files of FILES; an argument with "*" is expanded there, sorted, as a
shell would.  CONDITIONS names the state of stdout and stderr in each
condition: open (a pipe), on a pipe whose reader has closed, or closed
at start, as `>&-` leaves it.  A row with a reader-closed stream runs
twice: with the streams buffered, and unbuffered, as "| unbuffered" in
its id says.  An expected stream of None is one that is not open, so
nothing is read from it.  A LastLine pins only the last line of what
argparse writes, because its usage text varies across Python versions;
every other expected stderr is exact.

The rows pin the rule that README's "Command line" section states:
every run ends in exit 0, 1 or 2, and one that ends in 2 writes one
line.  A result or help that cannot be written exits 2 with one line.  A
diagnostic that cannot be written is dropped, and the exit code stays
what it would have been.  Every command runs under a bound of TIMEOUT
seconds, so a row whose work grew too fast with its input, such as a
huge lens order, fails by the timeout.
"""

import pytest

from lescop.corpus import corpus
from lescop.documents import serialize

from conftest import cold

TIMEOUT = 10  # seconds for each command

# the (stdout, stderr) of each stream condition
CONDITIONS = {
    "open": ("open", "open"),
    "stdout reader closed": ("reader closed", "open"),
    "stderr reader closed": ("open", "reader closed"),
    "stdout closed": ("closed", "open"),
    "stderr closed": ("open", "closed"),
    "both closed": ("closed", "closed"),
}

FILES = {
    "not-utf8": b"\xff\xfe",
    "surrogate-name": b'{"format_version": 1, "base_order": 1, "components": '
                      b'[{"name": "\\ud800", "seifert": [], "linking": {}}]}',
    "repeated-key": b'{"format_version": 1, "base_order": 1, "base_order": 3, "components": '
                    b'[{"name": "l1", "seifert": [["-1", "1"], ["0", "-1"]], "linking": {}}]}',
    "taken": b"",
}


class LastLine(str):
    """An expected stderr of which only the last line is pinned."""


CLOSED = "error: cannot write the result: standard output is closed\n"
P = 10**21

ROWS = [
    # condition, argv, exit code, stdout, stderr
    ("open", ["examples", "--write", "written"], 0,
     "".join(f"written/{name}.json\n" for name in corpus()), ""),
    ("open", ["verify", "not-utf8"], 2, "",
     "error: cannot read not-utf8: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte\n"),
    ("open", ["alexander", "surrogate-name"], 2, "", "error: components[0].name: not valid text\n"),
    ("open", ["verify", "surrogate-name"], 2, "", "error: components[0].name: not valid text\n"),
    ("open", ["verify", "repeated-key"], 2, "", "error: duplicate field 'base_order'\n"),
    ("open", ["examples", "--write", "taken"], 2, "",
     "error: cannot write taken: [Errno 17] File exists: 'taken'\n"),
    ("open", ["examples", "trefoil-0", "--write", "both"], 2, "",
     "error: examples takes a NAME or --write DIR, not both\n"),
    ("open", ["lens", "--p", "3", "extra"], 2, "",
     LastLine("lescop: error: unrecognized arguments: extra")),
    ("open", ["lens", "--p", str(P), "--json"], 0,
     f'{{"central": 2, "spheres": {P // 2 - 1}, "factor": {P}}}\n', ""),
    ("stdout reader closed", ["verify", "*.json"], 2, None, CLOSED),
    ("stdout reader closed", ["--help"], 2, None, CLOSED),
    ("stdout reader closed", ["chi", "--help"], 2, None, CLOSED),
    ("stderr reader closed", ["verify", "missing.json"], 2, "", None),
    ("stderr reader closed", ["lens", "--p", "3", "extra"], 2, "", None),
    ("stderr reader closed", ["sato-levine", "ribbon-s1-h3.json"], 0,
     "sato_levine = 1\nmode = derived\n", None),
    ("stdout closed", ["lens", "--p", "5"], 2, None, CLOSED),
    ("stdout closed", ["verify", "*.json"], 2, None, CLOSED),
    ("stdout closed", ["examples", "trefoil-0"], 2, None, CLOSED),
    ("stdout closed", ["--help"], 2, None, CLOSED),
    ("stderr closed", ["lens", "--p", "5"], 0, "p = 5\ncentral = 1\nspheres = 2\nfactor = 5\n", None),
    ("both closed", ["lens", "--p", "5"], 2, None, None),
]

RUNS = [
    pytest.param(row, buffered,
                 id=f"{' '.join(row[1])} | {row[0]}" + ("" if buffered else " | unbuffered"))
    for row in ROWS
    for buffered in ((True, False) if "reader" in row[0] else (True,))
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with the built-in examples and the files of FILES."""
    d = tmp_path_factory.mktemp("exit-codes")
    for name, doc in corpus().items():
        (d / f"{name}.json").write_text(serialize(doc), encoding="utf-8")
    for name, data in FILES.items():
        (d / name).write_bytes(data)
    return d


def test_rows_cover_every_condition():
    assert {row[0] for row in ROWS} == set(CONDITIONS)


@pytest.mark.parametrize("row, buffered", RUNS)
def test_row(row, buffered, workdir):
    condition, argv, *expected = row
    argv = [a for arg in argv
            for a in (sorted(p.name for p in workdir.glob(arg)) if "*" in arg else [arg])]
    stdout, stderr = CONDITIONS[condition]
    code, out, err = cold(argv, stdout, stderr, buffered, TIMEOUT, workdir)
    if isinstance(expected[2], LastLine):
        err = err.splitlines()[-1]
    assert [code, out, err] == expected
