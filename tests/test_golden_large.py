"""Golden output and bounded work on the large documents.

Each case is one call of the tests/conftest.py generator
(`python tests/conftest.py ARGS`) and the commands run on the document it
writes.  golden_large.json holds, per case, the sha256 of the document
text and, per command, its exit code, stderr and stdout; a stdout longer
than STDOUT_LIMIT characters is kept as its sha256.  These are
regression pins, not oracles: they hold the output of the commit that
recorded them.

The tier-1 tests run each case's commands in process, except those in
CI_ONLY, about 2 s of work in all, and, in tests/test_cli.py, case
"24"'s commands cold, under the time bound.  Every command of every case, with that bound, is
checked by

    PYTHONPATH=src python tests/test_golden_large.py DIR

CI's one step for the large documents.  It writes each document into
DIR, named by its arguments joined by "-", checks its sha256, and runs
each command as a new `python -m lescop` process, killed after TIMEOUT
seconds.  It prints each command's time, then each timeout and each
difference, and exits 1 if there was any.  After an intended change of
output, record all cases again, in process, with

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

from conftest import cold, generated_document

GOLDEN = Path(__file__).with_name("golden_large.json")
STDOUT_LIMIT = 4096
TIMEOUT = 10  # seconds for each cold command

# generator arguments -> the commands run on the document
CASES = {
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
CI_ONLY = {
    "24": ["verify"],
    "linked 2 24": ["verify"],
    "40": ["alexander", "verify"],
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


def bounded(argv):
    """conftest.cold on argv, killed after TIMEOUT seconds."""
    return cold(argv, timeout=TIMEOUT)


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


def check(directory, cases=CASES, execute=bounded):
    """Write each case's document into directory and run its commands by
    execute; print each command's time, each timeout and each difference
    from golden_large.json, and return how many timeouts and differences
    there were."""
    found = []
    pinned = golden()
    for args, commands in cases.items():
        path, document = written(args, directory)
        if document != pinned[args]["document"]:
            found.append(f"{args}: the document's sha256 differs")
        for command in commands:
            start = time.perf_counter()
            try:
                got = outcome(path, command, execute)
            except subprocess.TimeoutExpired:
                found.append(f"{args}: {command}: no exit within {TIMEOUT} s")
                continue
            print(f"{time.perf_counter() - start:6.2f} s  {args}: {command}")
            if got != pinned[args]["runs"][command]:
                found.append(f"{args}: {command}: expected {pinned[args]['runs'][command]}, got {got}")
    for line in found:
        print(line, file=sys.stderr)
    return len(found)


def test_fast_commands_are_unchanged(tmp_path):
    assert sorted(golden()) == sorted(CASES)
    fast = {args: [c for c in commands if c not in CI_ONLY.get(args, ())]
            for args, commands in CASES.items()}
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


def test_check_reports_a_command_over_the_time_bound(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(globals(), "TIMEOUT", 0.001)
    assert check(tmp_path, {"20 1": CASES["20 1"]}) == 1
    assert capsys.readouterr().err == "20 1: chi --route triangle: no exit within 0.001 s\n"


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
