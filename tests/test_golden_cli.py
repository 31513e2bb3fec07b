"""Golden CLI output on the built-in corpus and on seeded fractional documents.

Every built-in document, and nine seeded documents with torsion order
2, 3 or 4 and rational Seifert and linking entries, is run through
`verify`, `chi`, `lescop` and `alexander`, plus `sato-levine` on the
two-component documents and `mu2` on the three-component ones, each with
and without --json.  Stdout, stderr and the exit code of each run must
match golden_cli.json exactly, except that the file path `verify` prints
is replaced by a placeholder.  After an intended change of output,
regenerate the data with

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
from lescop.documents import PresentationDocument, serialize

from conftest import fractional_presentation, seeded

GOLDEN = Path(__file__).with_name("golden_cli.json")


def fractional_documents(seed=91, per_order=3):
    """name -> document: the first per_order seeded fractional presentations
    of each torsion order 2, 3 and 4 whose first component has genus > 0."""
    rng = seeded(seed)
    found = {2: [], 3: [], 4: []}
    while any(len(ps) < per_order for ps in found.values()):
        p = fractional_presentation(rng)
        ps = found.get(p.base_order)
        if ps is not None and len(ps) < per_order and p.components[0].size:
            ps.append(p)
    return {
        f"fractional-h{h}-{i}": PresentationDocument(p)
        for h, ps in found.items()
        for i, p in enumerate(ps)
    }


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
    """name -> command -> {code, stdout, stderr} for every document."""
    outputs = {}
    for name, doc in {**corpus(), **fractional_documents()}.items():
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
