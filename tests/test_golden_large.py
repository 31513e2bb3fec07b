"""Golden output of every pinned CLI command, each also run under conftest.cold's bounds.

Each case is one call of the tests/conftest.py generator
(`python tests/conftest.py ARGS`) and the commands run on the document it
writes.  The cases are the 19 built-in documents ("corpus NAME"), nine
seeded documents with torsion order 2, 3 or 4 and rational Seifert and
linking entries ("fractional H I"), each run through `verify`, `chi`,
`lescop` and `alexander`, plus `sato-levine` on two components and `mu2`
on three, with and without --json; and the large documents, each with
the commands that bound its work.  golden_large.json holds, per case,
the sha256 of the document text and, per command, its exit code, stderr
and stdout; a stdout longer than STDOUT_LIMIT characters is kept as its
sha256.  The file path that `verify` prints is replaced by "<file>".
These are regression pins, not oracles: they hold the output of the
commit that recorded them.

The tier-1 tests run each case's commands in process, except those in
CI_ONLY: the corpus and fractional cases (SMALL) in
tests/test_golden_cli.py, the others here; and, in tests/test_cli.py,
case "24"'s commands cold.  Every command of every case is checked by

    PYTHONPATH=src python tests/test_golden_large.py DIR

CI's one step for the pinned outputs.  It writes each document into
DIR, named by its arguments joined by "-", checks its sha256, and runs
each command by conftest.cold: a new `python -m lescop` process, killed
after conftest.TIMEOUT seconds, whose address space is limited to
conftest.ADDRESS_SPACE bytes, so a command over that ends in
MemoryError and differs from its golden output.  It prints each
command's time, then each timeout and each difference, and exits 1 if
there was any.  After an intended change of output, record all cases
again, in process, with

    PYTHONPATH=src python tests/test_golden_large.py
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

from lescop.cli import run
from lescop.corpus import corpus

import conftest
from conftest import cold, fractional_documents, generated_document

GOLDEN = Path(__file__).with_name("golden_large.json")
STDOUT_LIMIT = 4096


def _commands(doc):
    """The commands run on a corpus or fractional document, each with and
    without --json."""
    names = ["verify", "chi", "lescop", "alexander"]
    names += {2: ["sato-levine"], 3: ["mu2"]}.get(len(doc.presentation.components), [])
    return [name + option for name in names for option in ("", " --json")]


# generator arguments -> the commands run on the document
CASES = {
    **{f"corpus {name}": _commands(doc) for name, doc in corpus().items()},
    **{args: _commands(doc) for args, doc in fractional_documents().items()},
    "24": ["alexander", "verify"],
    "linked 2 24": ["verify"],
    "40": ["alexander", "verify"],
    "200": ["lescop", "chi --route closed", "chi --route both"],
    "400": ["chi --route both", "lescop"],
    "sheared 40": ["chi --route both", "lescop"],
    "20 1": ["chi --route triangle"],
    "24 1": ["chi --route triangle"],
    "40 0": ["verify"],
    "linked 24 1": ["chi --route triangle"],
    "300 1": ["chi --route closed", "lescop"],
    "linked 300 1": ["chi --route closed", "lescop"],
    "hostile 8": ["chi --route both"],
    "hostile 12": ["chi --route both", "verify"],
    "hostile 16": ["chi --route triangle"],
}
# the corpus and fractional cases, run in process by tests/test_golden_cli.py
SMALL = [args for args in CASES if args.startswith(("corpus ", "fractional "))]
CI_ONLY = {
    "200": ["chi --route closed"],
    "400": ["chi --route both", "lescop"],
    "linked 24 1": ["chi --route triangle"],
    "hostile 12": ["chi --route both", "verify"],
    "hostile 16": ["chi --route triangle"],
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def in_process(argv):
    """(exit code, stdout, stderr) of cli.run on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def outcome(path, command, execute):
    """The exit code, stderr and stdout (or its sha256) of command on the
    file at path, run by execute."""
    command_name, *options = command.split()
    code, stdout, stderr = execute([command_name, str(path), *options])
    # verify names the file it read: the only output that varies
    stdout = stdout.replace(str(path), "<file>")
    shown = {"stdout_sha256": sha256(stdout)} if len(stdout) > STDOUT_LIMIT else {"stdout": stdout}
    return {"code": code, "stderr": stderr, **shown}


def written(args, directory):
    """The path of the case's document, written into directory, and its sha256."""
    text = generated_document(args.split())
    path = Path(directory) / f"{args.replace(' ', '-')}.json"
    path.write_text(text, encoding="utf-8")
    return path, sha256(text)


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def unpinned(pinned):
    """One line for each case whose CASES commands are not the commands of
    its golden runs, a case missing from either side included."""
    lines = []
    for args in sorted(CASES.keys() | pinned.keys()):
        listed = sorted(CASES.get(args, ()))
        recorded = sorted(pinned.get(args, {}).get("runs", ()))
        if listed != recorded:
            lines.append(f"{args}: CASES runs {listed}, golden_large.json pins {recorded}")
    return lines


def check(directory, cases=CASES, execute=cold):
    """Write each case's document into directory and run its commands by
    execute; print each command's time, each timeout and each difference
    from golden_large.json, the table's own included, and return how many
    timeouts and differences there were."""
    pinned = golden()
    found = unpinned(pinned)
    for args, commands in cases.items():
        if args not in pinned:  # unpinned reported it
            continue
        path, document = written(args, directory)
        if document != pinned[args]["document"]:
            found.append(f"{args}: the document's sha256 differs")
        for command in commands:
            expected = pinned[args]["runs"].get(command)
            if expected is None:  # unpinned reported it
                continue
            start = time.perf_counter()
            try:
                got = outcome(path, command, execute)
            except subprocess.TimeoutExpired as expired:
                found.append(f"{args}: {command}: no exit within {expired.timeout} s")
                continue
            if got != expected:
                found.append(f"{args}: {command}: expected {expected}, got {got}")
            print(f"{time.perf_counter() - start:6.2f} s  {args}: {command}")
    for line in found:
        print(line, file=sys.stderr)
    return len(found)


def test_fast_commands_are_unchanged(tmp_path):
    fast = {args: [c for c in commands if c not in CI_ONLY.get(args, ())]
            for args, commands in CASES.items() if args not in SMALL}
    assert check(tmp_path, {args: c for args, c in fast.items() if c}, in_process) == 0


def test_check_runs_a_cheap_case_cold(tmp_path):
    assert check(tmp_path, {"20 1": CASES["20 1"]}) == 0


def test_check_reports_changed_golden_entries(tmp_path, monkeypatch, capsys):
    changed = golden()
    changed["20 1"]["document"] = sha256("")
    changed["20 1"]["runs"]["chi --route triangle"]["stdout"] += "\n"
    monkeypatch.setitem(globals(), "golden", lambda: changed)
    assert check(tmp_path, {"20 1": CASES["20 1"]}) == 2
    first, second = capsys.readouterr().err.splitlines()
    assert first == "20 1: the document's sha256 differs"
    assert second.startswith("20 1: chi --route triangle: expected ")


def test_check_reports_a_stale_golden_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(CASES, "corpus trefoil-0", CASES["corpus trefoil-0"][1:])
    assert check(tmp_path, {}) == 1
    assert capsys.readouterr().err == (
        "corpus trefoil-0: CASES runs ['alexander', 'alexander --json', 'chi', 'chi --json', "
        "'lescop', 'lescop --json', 'verify --json'], golden_large.json pins ['alexander', "
        "'alexander --json', 'chi', 'chi --json', 'lescop', 'lescop --json', 'verify', "
        "'verify --json']\n")


def test_check_reports_a_command_over_the_time_bound(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(conftest, "TIMEOUT", 0.001)
    assert check(tmp_path, {"20 1": CASES["20 1"]}) == 1
    assert capsys.readouterr().err == "20 1: chi --route triangle: no exit within 0.001 s\n"


def test_cold_bounds_the_command_not_the_test_process():
    held = bytearray(200 * 2**20)
    assert len(held) > conftest.ADDRESS_SPACE
    assert cold(["lens", "--p", "5"]) == (0, "p = 5\ncentral = 1\nspheres = 2\nfactor = 5\n", "")


def test_check_reports_a_command_over_the_memory_bound(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(conftest, "ADDRESS_SPACE", 8 * 2**20)
    assert check(tmp_path, {"corpus unknot-0": ["chi"]}) == 1
    assert capsys.readouterr().err.startswith("corpus unknot-0: chi: expected ")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(check(sys.argv[1]) > 0)
    import tempfile

    data = {}
    with tempfile.TemporaryDirectory() as d:
        for args, commands in CASES.items():
            path, document = written(args, d)
            runs = {c: outcome(path, c, in_process) for c in commands}
            data[args] = {"document": document, "runs": runs}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
