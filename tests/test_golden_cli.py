"""Golden CLI output on the built-in corpus.

Every built-in document is run through `verify`, `chi`, `lescop` and
`alexander`, plus `sato-levine` on the two-component documents and `mu2`
on the three-component ones, each with and without --json.  Stdout, stderr
and the exit code of each run must match golden_cli.json exactly, except
that the file path `verify` prints is replaced by a placeholder.  After an
intended change of output, regenerate the data with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from lescop.cli import run
from lescop.corpus import corpus
from lescop.documents import serialize

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _commands(n_components):
    yield "verify"
    yield "chi"
    yield "lescop"
    yield "alexander"
    if n_components == 2:
        yield "sato-levine"
    if n_components == 3:
        yield "mu2"


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_outputs(directory):
    """name -> command -> {code, stdout, stderr} for the whole corpus."""
    outputs = {}
    for name, doc in corpus().items():
        path = Path(directory) / f"{name}.json"
        path.write_text(serialize(doc), encoding="utf-8")
        runs = {}
        for command in _commands(len(doc.presentation.components)):
            for argv in ([command, str(path)], [command, str(path), "--json"]):
                code, out, err = _invoke(argv)
                # verify names the file it read: the only output that varies
                out = out.replace(str(path), "<file>")
                key = " ".join([command] + argv[2:])
                runs[key] = {"code": code, "stdout": out, "stderr": err}
        outputs[name] = runs
    return outputs


def test_corpus_cli_output_is_unchanged(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert cli_outputs(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        text = json.dumps(cli_outputs(d), indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
