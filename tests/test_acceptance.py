"""Acceptance gate.

Each test implements one numbered criterion and prints a single pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them all).
Every comparison is exact; there are no tolerances anywhere.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from lescop.cli import run as cli_run
from lescop.corpus import corpus
from lescop.documents import (
    DocumentSchemaError,
    DocumentSyntaxError,
    DocumentValueError,
    parse,
    serialize,
)
from lescop.floer import (
    BundleSpec,
    chi_closed_form,
    chi_to_lescop,
    chi_via_triangle,
    lescop_to_chi,
    reduced_knot_chi,
)
from lescop.invariants import alexander, knot_alexander, lescop, sato_levine
from lescop.lens import rep_classes
from lescop.presentation import (
    RibbonPairSpec,
    blow_down,
    build_ribbon_pair,
    build_triple,
    validate,
)
from lescop.ring import ONE, Z, HalfLaurent, divides_z_power

from conftest import (
    knot_surgery,
    random_presentation,
    random_ribbon_spec,
    random_seifert,
    seeded,
    with_extra_unknots,
)

TREFOIL_POLY = HalfLaurent({2: 1, 0: -1, -2: 1})  # t - 1 + t^-1
FIG8_POLY = HalfLaurent({2: -1, 0: 3, -2: -1})  # -t + 3 - t^-1


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {desc}")
        raise
    print(f"criterion {num:02d}: PASS  {desc}")


def test_criterion_01_alexander_exactness():
    with criterion(1, "golden Alexander polynomials and second derivatives"):
        trefoil = knot_surgery([[-1, 1], [0, -1]])
        fig8 = knot_surgery([[1, 1], [0, -1]])
        assert alexander(trefoil, "l1") == TREFOIL_POLY
        assert alexander(fig8, "l1") == FIG8_POLY
        assert alexander(trefoil, "l1").second_derivative_at_one() == 2
        assert alexander(fig8, "l1").second_derivative_at_one() == -2


def test_criterion_02_symmetry_normalization_500():
    with criterion(2, "500 random presentations: Delta symmetry and Delta(1) = h"):
        rng = seeded(102)
        for _ in range(500):
            h = rng.choice((1, 2, 3, 5))
            p = random_presentation(rng, rng.randint(1, 3), h=h, gmax=3, bound=3)
            assert validate(p) == []
            for c in p.components:
                poly = knot_alexander(c.seifert, h)
                assert poly.involution() == poly
                assert poly.eval_at_one() == h


def test_criterion_03_hoste_z3_structure_200():
    with criterion(3, "200 random ribbon pairs: z^3 divisibility of the expansion"):
        rng = seeded(103)
        for _ in range(200):
            h = rng.choice((1, 2, 3, 5))
            spec = random_ribbon_spec(rng, gmax=3, h=h)
            p = build_ribbon_pair(spec)
            before = knot_alexander(p.components[0].seifert, h)
            after = knot_alexander(blow_down(p, "l2", -1).components[0].seifert, h)
            residue = after - (ONE + spec.s * Z * Z) * before
            assert divides_z_power(residue, 3)


def test_criterion_04_sato_levine_round_trip():
    with criterion(4, "sato_levine(build_ribbon_pair(s)) = s, 100 specs per s in [-5, 5]"):
        rng = seeded(104)
        for s in range(-5, 6):
            for _ in range(100):
                spec = random_ribbon_spec(rng, s=s, gmax=3, h=1)
                assert sato_levine(build_ribbon_pair(spec)) == s


def test_criterion_05_triangle_vs_closed_form():
    with criterion(5, "route agreement on n = 1..5 (>= 200 cases, < 10 s), 0 for n >= 4"):
        rng = seeded(105)
        start = time.monotonic()
        cases = []
        for _ in range(60):
            cases.append(knot_surgery(random_seifert(rng, rng.randint(0, 3))))
        for _ in range(60):
            cases.append(build_ribbon_pair(random_ribbon_spec(rng, gmax=2)))
        for _ in range(50):
            mu = rng.randint(-3, 3)
            cases.append(build_triple(mu, random_ribbon_spec(rng, gmax=2)))
        for _ in range(10):
            cases.append(random_presentation(rng, 3, gmax=1))
        for _ in range(20):
            base = build_triple(rng.randint(-2, 2), random_ribbon_spec(rng, gmax=1))
            cases.append(with_extra_unknots(base, 1))
        for _ in range(10):
            cases.append(random_presentation(rng, 4, gmax=1))
        for _ in range(10):
            base = build_triple(rng.randint(-2, 2), random_ribbon_spec(rng, gmax=1))
            cases.append(with_extra_unknots(base, 2))
        for _ in range(5):
            cases.append(random_presentation(rng, 5, gmax=1))
        assert len(cases) >= 200
        for p in cases:
            closed = chi_closed_form(p).chi
            triangle = chi_via_triangle(p).chi
            assert closed == triangle
            if len(p.components) >= 4:
                assert triangle == 0
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"route-agreement suite took {elapsed:.1f}s"


def test_criterion_06_paper_point_values():
    with criterion(6, "knot # Borromean chi = -2 (reduced -1), ribbon lescop = -h s, unknot surgery -1/12"):
        entries = corpus()
        for name in ("km-unknot", "km-trefoil", "km-figure8"):
            chi = chi_closed_form(entries[name].presentation).chi
            assert chi == -2
            assert reduced_knot_chi(chi) == -1
        for h in (1, 2, 3):
            for s in range(-5, 6):
                p = build_ribbon_pair(RibbonPairSpec(s=s, base_order=h))
                assert lescop(p) == -h * s
        assert lescop(knot_surgery(())) == Fraction(-1, 12)


def test_criterion_07_theorem_conversions():
    with criterion(7, "lescop_to_chi matches closed form on the corpus; conversion round trips"):
        for name, doc in corpus().items():
            p = doc.presentation
            if p.base_order != 1:
                continue
            predicted = lescop_to_chi(lescop(p), len(p.components), 1)
            assert predicted == chi_closed_form(p).chi, name
        rng = seeded(107)
        for _ in range(100):
            b1 = rng.randint(1, 6)
            h = rng.randint(1, 10)
            lam = chi_to_lescop(rng.randint(-60, 60), b1, h)
            assert chi_to_lescop(lescop_to_chi(lam, b1, h), b1, h) == lam


def test_criterion_08_lens_factor():
    with criterion(8, "rep_classes(p) breakdowns and euler factor p for 1 <= p <= 256"):
        for p in range(1, 257):
            b = rep_classes(p)
            assert b.euler_factor == p
            if p % 2 == 1:
                assert (b.central_classes, b.sphere_classes) == (1, (p - 1) // 2)
            else:
                assert (b.central_classes, b.sphere_classes) == (2, (p - 2) // 2)


def test_criterion_09_bundle_independence():
    with criterion(9, "chi identical across all admissible w2 vectors on corpus entries"):
        for name, doc in corpus().items():
            p = doc.presentation
            n = len(p.components)
            if n > 3:
                continue
            chis = {
                chi_closed_form(
                    p, BundleSpec(tuple((mask >> i) & 1 for i in range(n)))
                ).chi
                for mask in range(1, 2**n)
            }
            assert len(chis) == 1, name


MALFORMED_FIXTURES = [
    ("empty input", "", DocumentSyntaxError),
    ("truncated json", "{", DocumentSyntaxError),
    ("unbalanced bracket", '{"format_version": 1]', DocumentSyntaxError),
    ("top-level list", "[]", DocumentSchemaError),
    ("missing fields", '{"format_version": 1}', DocumentSchemaError),
    (
        "unknown top-level field",
        '{"format_version": 1, "base_order": 1, "components": [], "extra": 0}',
        DocumentSchemaError,
    ),
    (
        "unsupported version",
        '{"format_version": 2, "base_order": 1, "components": []}',
        DocumentSchemaError,
    ),
    (
        "string version",
        '{"format_version": "1", "base_order": 1, "components": []}',
        DocumentSchemaError,
    ),
    (
        "zero base order",
        '{"format_version": 1, "base_order": 0, "components": []}',
        DocumentSchemaError,
    ),
    (
        "float base order",
        '{"format_version": 1, "base_order": 1.0, "components": []}',
        DocumentValueError,
    ),
    (
        "components not a list",
        '{"format_version": 1, "base_order": 1, "components": {}}',
        DocumentSchemaError,
    ),
    (
        "component missing name",
        '{"format_version": 1, "base_order": 1, "components": [{"seifert": [], "linking": {}}]}',
        DocumentSchemaError,
    ),
    (
        "component unknown field",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [], "linking": {}, "framing": 0}]}',
        DocumentSchemaError,
    ),
    (
        "odd seifert matrix",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [["0","0","0"],["1","0","0"],["0","0","0"]], "linking": {}}]}',
        DocumentSchemaError,
    ),
    (
        "non-square seifert matrix",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [["0","1"]], "linking": {}}]}',
        DocumentSchemaError,
    ),
    (
        "numeric seifert entry",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [[-1, 1], [0, -1]], "linking": {}}]}',
        DocumentSchemaError,
    ),
    (
        "zero denominator",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [["1/0","0"],["0","0"]], "linking": {}}]}',
        DocumentValueError,
    ),
    (
        "decimal rational string",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [["0.5","0"],["0","0"]], "linking": {}}]}',
        DocumentValueError,
    ),
    (
        "bundle_w2 wrong length",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [], "linking": {}}], "bundle_w2": [1, 1]}',
        DocumentSchemaError,
    ),
    (
        "unknown normalization",
        '{"format_version": 1, "base_order": 1, "components": '
        '[{"name": "l1", "seifert": [], "linking": {}}], "normalization": "fast"}',
        DocumentSchemaError,
    ),
]


def test_criterion_10_parser(tmp_path, capsys):
    with criterion(10, "corpus byte-stable; 20 malformed fixtures rejected with exit 2"):
        for name, doc in corpus().items():
            text = serialize(doc)
            assert serialize(parse(text)) == text, name
        assert len(MALFORMED_FIXTURES) == 20
        for i, (label, text, exc) in enumerate(MALFORMED_FIXTURES):
            with pytest.raises(exc):
                parse(text)
            target = tmp_path / f"malformed_{i}.json"
            target.write_text(text, encoding="utf-8")
            code = cli_run(["verify", str(target)])
            assert code == 2, label
        capsys.readouterr()  # swallow CLI diagnostics
