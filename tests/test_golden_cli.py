"""Golden CLI output on the built-in corpus and on seeded fractional documents.

These are the "corpus NAME" and "fractional H I" cases of CASES in
tests/test_golden_large.py: every built-in document, and nine seeded
documents with torsion order 2, 3 or 4 and rational Seifert and linking
entries, run through `verify`, `chi`, `lescop` and `alexander`, plus
`sato-levine` on two components and `mu2` on three, with and without
--json.  They run in process and are checked against golden_large.json
by that module's check, which also reports every case whose CASES
commands differ from its golden runs.  Record them with the rest, as
that module's docstring says.
"""

from test_golden_large import CASES, SMALL, check, in_process


def test_corpus_cli_output_is_unchanged(tmp_path):
    assert check(tmp_path, {args: CASES[args] for args in SMALL}, in_process) == 0
