"""Mutants of named helpers that `verify` must catch on the built-in corpus.

Each test breaks one helper by monkeypatching, runs `verify --json` on
every built-in document and asserts that the run exits 1 with the named
check among the failures.  A mutant that `verify` misses is a check that
cannot fail: it stays here as a strict xfail until a check catches it.
"""

import json
import sys
from pathlib import Path

import pytest

from lescop import floer, invariants, presentation
from lescop.cli import run
from lescop.corpus import corpus


def failures(corpus_dir, capsys):
    """The exit code of `verify --json` on the corpus, and the (document,
    check) pairs that failed, each check without its [component] suffix."""
    files = sorted(str(f) for f in corpus_dir.glob("*.json"))
    code = run(["verify", "--json", *files])
    results = json.loads(capsys.readouterr().out)["results"]
    return code, {
        (Path(r["file"]).stem, c["name"].split("[")[0])
        for r in results
        for c in r["checks"]
        if c["status"] == "fail"
    }


def failed_checks(corpus_dir, capsys):
    """The exit code of `verify --json` on the corpus, and the names of the
    checks that failed, without their [component] suffix."""
    code, failed = failures(corpus_dir, capsys)
    return code, {name for _, name in failed}


def test_alexander_coefficient(corpus_dir, capsys, monkeypatch):
    """+1 on the free t^0 coefficient of every Alexander polynomial."""
    alexander = invariants._alexander
    monkeypatch.setattr(invariants, "_alexander", lambda *args: alexander(*args) + 1)
    code, failed = failed_checks(corpus_dir, capsys)
    assert code == 1 and "alexander-at-one" in failed


def test_packed_last_pivot(corpus_dir, capsys, monkeypatch):
    """+1 on the last pivot of the packed determinant P(2^K), which every
    corpus polynomial takes: its digits are read, not mirrored, so the
    polynomial is no longer symmetric, and its value and second
    derivative at 1 move too."""
    bareiss = invariants._bareiss
    packed = []

    def mutant(rows, n, jordan):
        sign, last = bareiss(rows, n, jordan)
        # the caller's caller: _packed calls _value_at, which calls this
        if sys._getframe(2).f_code is invariants._packed.__code__:
            packed.append(n)
            last += 1
        return sign, last

    monkeypatch.setattr(invariants, "_bareiss", mutant)
    code, failed = failed_checks(corpus_dir, capsys)
    assert packed
    assert (code, failed) == (
        1, {"alexander-symmetry", "alexander-at-one", "delta2-agreement", "z3-structure"}
    )


def test_node_last_pivot(corpus_dir, capsys, monkeypatch):
    """Every polynomial forced onto the node path, past both cutoffs, and +1
    on the last pivot of each node determinant that the interpolation
    reads.  The node path imposes the symmetry, so alexander-symmetry
    fails by the determinant at the spare node, which the mutant leaves
    alone."""
    bareiss = invariants._bareiss
    nodes = []

    def mutant(rows, n, jordan):
        sign, last = bareiss(rows, n, jordan)
        # the caller's caller: _nodes calls _value_at, which calls this
        if not jordan and sys._getframe(2).f_code is invariants._nodes.__code__:
            nodes.append(n)
            last += 1
        return sign, last

    monkeypatch.setattr(invariants, "_PACKED_BITS", -1)
    monkeypatch.setattr(invariants, "_MODULAR_BITS_PER_ROW", -1)
    monkeypatch.setattr(invariants, "_bareiss", mutant)
    code, failed = failed_checks(corpus_dir, capsys)
    assert nodes
    assert (code, failed) == (
        1, {"alexander-symmetry", "alexander-at-one", "delta2-agreement", "z3-structure"}
    )


def test_modular_coefficient(corpus_dir, capsys, monkeypatch):
    """Every polynomial of genus >= 1 forced onto the modular path, which
    each corpus form, in a symplectic basis, can take, and +1 on its t^0
    coefficient mod p.  Nothing on that path imposes the symmetry, so
    alexander-symmetry fails by the mirror, and the value and second
    derivative at 1 move too."""
    modular = invariants._modular
    sizes = []

    def mutant(a, rows, p):
        residues = modular(a, rows, p)
        sizes.append(len(rows))
        residues[0] = (residues[0] + 1) % p
        return residues

    monkeypatch.setattr(invariants, "_PACKED_BITS", -1)
    monkeypatch.setattr(invariants, "_MODULAR_BITS_PER_ROW", 10**9)
    monkeypatch.setattr(invariants, "_modular", mutant)
    code, failed = failed_checks(corpus_dir, capsys)
    assert sizes and min(sizes) == 2
    assert (code, failed) == (
        1, {"alexander-symmetry", "alexander-at-one", "delta2-agreement", "z3-structure"}
    )


def test_leaf_traces(corpus_dir, capsys, monkeypatch):
    """Every triangle leaf after the first shifted by 4, in the blocks
    that the walk yields."""
    leaf_blocks = floer._leaf_blocks

    def shifted(*args):
        blocks = leaf_blocks(*args)
        first = next(blocks)
        yield [first[0], *(trace + 4 for trace in first[1:])]
        for block in blocks:
            yield [trace + 4 for trace in block]

    monkeypatch.setattr(floer, "_leaf_blocks", shifted)
    code, failed = failed_checks(corpus_dir, capsys)
    assert (code, failed) == (1, {"route-agreement"})


def test_blown_down_alexander(corpus_dir, capsys, monkeypatch):
    """t^(n/2) z^2 = t^(n/2 - 1) (t - 1)^2 added to the blown-down
    coefficients P': the polynomial's value at 1 is unchanged, but its
    Delta''(1) jump no longer matches the Sato-Levine number."""
    blown_down = invariants._blown_down_coefficients

    def mutant(*args):
        coeffs = list(blown_down(*args))
        m = len(coeffs) // 2 - 1
        assert m >= 0
        for i, x in enumerate((1, -2, 1), m):
            coeffs[i] += x
        return tuple(coeffs)

    monkeypatch.setattr(invariants, "_blown_down_coefficients", mutant)
    code, failed = failed_checks(corpus_dir, capsys)
    assert (code, failed) == (1, {"z3-structure"})


def test_bilinear_form(corpus_dir, capsys, monkeypatch):
    """+1 on every bilinear form u^T M v, as the closed form's s and mu and
    each triangle leaf read it."""
    form = invariants._form

    def mutant(*args):
        return form(*args) + 1

    monkeypatch.setattr(invariants, "_form", mutant)
    monkeypatch.setattr(floer, "_form", mutant)
    code, failed = failed_checks(corpus_dir, capsys)
    assert (code, failed) == (1, {"route-agreement", "z3-structure"})


def test_case_quantity(corpus_dir, capsys, monkeypatch):
    """+1 on the x that the b1 case formulas read: Delta''(1), s or mu^2."""
    case = invariants._case

    def mutant(p):
        b1, x = case(p)
        return b1, x + 1

    monkeypatch.setattr(invariants, "_case", mutant)
    monkeypatch.setattr(floer, "_case", mutant)
    code, failed = failed_checks(corpus_dir, capsys)
    assert (code, failed) == (1, {"route-agreement", "z3-structure"})


def jet_trace_plus_eight(monkeypatch):
    """+8 on the jet trace, as each component keeps it for both chi routes
    and invariants.delta2, and as casson takes it for each chain step."""
    jet_trace = presentation._jet_trace

    def mutant(*args):
        return jet_trace(*args) + 8

    monkeypatch.setattr(presentation, "_jet_trace", mutant)
    monkeypatch.setattr(invariants, "_jet_trace", mutant)


def test_jet_trace_against_the_polynomial(corpus_dir, capsys, monkeypatch):
    """The jet's Delta''(1) no longer matches the interpolated polynomial's."""
    jet_trace_plus_eight(monkeypatch)
    code, failed = failed_checks(corpus_dir, capsys)
    assert (code, failed) == (1, {"delta2-agreement"})


def test_row_product(corpus_dir, capsys, monkeypatch):
    """One nonzero term of the first row of S^-1 dropped from S^-1 dB in the
    jet trace.  Every document with a component of genus >= 1 fails
    delta2-agreement; on the two knots with b1 = 1, trefoil-0 and
    figure8-0, chi reads the changed trace, is no longer an integer and
    fails route-agreement too."""
    row_product = presentation._row_product

    def mutant(s_inv, db):
        x = row_product(s_inv, db)
        if x:
            j = next(j for j, s in enumerate(s_inv[0]) if s)
            x[0] = [a - s_inv[0][j] * b for a, b in zip(x[0], db[j])]
        return x

    monkeypatch.setattr(presentation, "_row_product", mutant)
    code, failed = failures(corpus_dir, capsys)
    with_genus = {
        name
        for name, doc in corpus().items()
        if any(c.size for c in doc.presentation.components)
    }
    assert len(with_genus) == 17
    assert (code, failed) == (
        1,
        {(name, "delta2-agreement") for name in with_genus}
        | {("trefoil-0", "route-agreement"), ("figure8-0", "route-agreement")},
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: both chi routes and theorem1-consistency read the one "
    "jet trace, so no check compares it with a route that does not",
)
def test_jet_trace(corpus_dir, capsys, monkeypatch):
    """+8 on the jet trace, as both the closed form and the triangle read it."""
    jet_trace_plus_eight(monkeypatch)
    code, failed = failed_checks(corpus_dir, capsys)
    assert code == 1 and "route-agreement" in failed
