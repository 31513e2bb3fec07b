"""Golden CLI output on the large documents that CI generates.

Each case is one call of the tests/conftest.py generator that CI makes
(`python tests/conftest.py ARGS`), the file name CI writes it to, and the
commands CI runs on that file.  golden_large.json holds, per case, the
sha256 of the document text and, per command, its exit code, stderr and
stdout; a stdout longer than STDOUT_LIMIT characters is kept as its
sha256.  These are regression pins, not oracles: they hold the output of
the commit that recorded them.

The tier-1 test generates each document and replays its commands
except those in CI_ONLY, about 2 s of work in all.  CI replays the
CI_ONLY commands, after the bounded-work steps have written their files,
by

    PYTHONPATH=src python tests/test_golden_large.py DIR

which runs them on DIR/<file name> and exits 1 on a difference.  After
an intended change of output, record all cases again with

    PYTHONPATH=src python tests/test_golden_large.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from lescop.cli import run

from conftest import generated_document

GOLDEN = Path(__file__).with_name("golden_large.json")
STDOUT_LIMIT = 4096

# generator arguments -> (the file CI writes, the commands CI runs on it)
CASES = {
    "24": ("g24.json", ["alexander", "verify"]),
    "linked 2 24": ("linked2-24.json", ["verify"]),
    "40": ("g40.json", ["alexander", "verify"]),
    "200": ("g200.json", ["lescop", "chi --route closed", "chi --route both"]),
    "400": ("g400.json", ["chi --route both", "lescop"]),
    "sheared 40": ("sheared40.json", ["chi --route both", "lescop"]),
    "20 1": ("split20.json", ["chi --route triangle"]),
    "24 1": ("split24.json", ["chi --route triangle"]),
    "40 0": ("split40.json", ["verify"]),
    "linked 24 1": ("linked24.json", ["chi --route triangle"]),
    "300 1": ("split300.json", ["chi --route closed", "lescop"]),
    "linked 300 1": ("linked300.json", ["chi --route closed", "lescop"]),
    "hostile 8": ("hostile8.json", ["chi --route both"]),
    "hostile 12": ("hostile12.json", ["chi --route both", "verify"]),
    "hostile 16": ("hostile16.json", ["chi --route triangle"]),
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


def outputs(path, commands):
    """{document, runs}: the sha256 of the file at path, and each
    command's exit code, stderr and stdout (or its sha256) on it."""
    text = Path(path).read_text(encoding="utf-8")
    runs = {}
    for command in commands:
        command_name, *options = command.split()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command_name, str(path), *options])
        # verify names the file it read: the only output that varies
        stdout = out.getvalue().replace(str(path), "<file>")
        shown = {"stdout_sha256": sha256(stdout)} if len(stdout) > STDOUT_LIMIT else {"stdout": stdout}
        runs[command] = {"code": code, "stderr": err.getvalue(), **shown}
    return {"document": sha256(text), "runs": runs}


def written(args, directory):
    path = Path(directory) / CASES[args][0]
    path.write_text(generated_document(args.split()), encoding="utf-8")
    return path


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def expected(args, commands):
    case = golden()[args]
    return {"document": case["document"], "runs": {c: case["runs"][c] for c in commands}}


def test_fast_commands_are_unchanged(tmp_path):
    assert sorted(golden()) == sorted(CASES)
    for args, (_, commands) in CASES.items():
        fast = [c for c in commands if c not in CI_ONLY.get(args, ())]
        if fast:
            assert outputs(written(args, tmp_path), fast) == expected(args, fast), args


def replay(directory):
    """Replay the CI_ONLY commands on the files in directory; the number
    of cases whose document or output differs."""
    differ = 0
    for args, commands in CI_ONLY.items():
        got = outputs(Path(directory) / CASES[args][0], commands)
        if got != expected(args, commands):
            differ += 1
            print(f"{args}: expected {expected(args, commands)}, got {got}", file=sys.stderr)
    return differ


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(replay(sys.argv[1]) > 0)
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        data = {args: outputs(written(args, d), commands)
                for args, (_, commands) in CASES.items()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
