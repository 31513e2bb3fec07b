"""Seeded inputs for the benchmark workloads, and the check of every output.

A workload is a list of rounds. Every round has the same mix of operations
(the same subcommands on inputs of the same size classes, in a seeded
order); the seed draws the entries, and the invariants h, s and mu that
the stress documents are built with. The runner runs whole rounds, so each
run measures the workload's stated mix exactly.

An operation is one call of ``lescop.cli.run(argv)``. Its check compares
the output with a value known by construction, or, where no construction
value exists, with the golden output in ``golden.json``, recorded from the
program when the benchmark was added (see ``record_golden.py``):

- Delta''(1) of a knot, which gives chi = -Delta''(1) of a one-component
  presentation, ``delta2_at_1`` of ``alexander`` and the Casson ledger, is
  computed here by the jet formula h (2g - tr((S^-1 B)^2)) / 4, where
  S = V - V^T and B = V + V^T; no Laurent polynomial is involved;
- a ribbon pair with Sato-Levine number s has chi = -2 h s, a triple with
  triple linking number mu has chi = -2 h mu^2, and more than three
  components give chi = 0;
- for a random two- or three-component presentation, s = x^T V x and
  mu = E3^T x with x = S^-1 E2 (the same jet expansion, applied to the
  blow-down jump);
- ``lens --p P`` has factor P.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Distinct rounds per workload. The runner cycles through them and takes
# the median of each operation's passes, so a pass over all rounds must be
# short enough to repeat about ten times in a run, while the rounds together hold
# at least 100 operations, so that the 90th latency percentile has ten
# samples beyond it. One pass takes about 1 s (corpus-verify), 2 s
# (genus-sweep) and 1.5 s (triangle-wide) on a 2-core x86_64 host.
CORPUS_ROUNDS = 4
GENUS_ROUNDS = 2
TRIANGLE_ROUNDS = 6

# Knots per genus in a genus-sweep round. Counts fall with genus because
# the determinant cost grows about as g^5. Up to genus 6 each knot is run
# by both `chi` and `alexander`; above it, by one of them, alternating
# between rounds; genera 7 to 10 still take about half of the time.
GENUS_COUNTS = {1: 12, 2: 6, 3: 4, 4: 3, 5: 2, 6: 3, 7: 1, 8: 1, 9: 1, 10: 1}
BOTH_UP_TO_GENUS = 6
CASSON_CHAINS = 2
CASSON_STEPS = 3
TRIANGLE_COMPONENTS = range(4, 10)
STRESS_PER_KIND = 3  # one random presentation each with 1, 2 and 3 components
LENS_PER_ROUND = 3
BASE_ORDERS = (1, 3, 4)

# chi of the built-in corpus, by construction (README and corpus.py).
CORPUS_CHI = {
    "unknot-0": 0,
    "s1xs2": 0,
    "trefoil-0": -2,
    "figure8-0": 2,
    **{f"ribbon-s{s}": -2 * s for s in range(-2, 3)},
    "boundary-link": 0,
    **{f"triple-mu{mu}": -2 * mu * mu for mu in range(3)},
    "km-unknot": -2,
    "km-trefoil": -2,
    "km-figure8": -2,
    "hs-lk2": -4,
    "ribbon-s1-h3": -6,
    "ribbon-s1-h4": -8,
}

GOLDEN_PATH = Path(__file__).with_name("golden.json")
CLOSED_FORM, TRIANGLE = "closed_form", "triangle"  # route names in the CLI output
_VALUE = re.compile(r"(\w+) = (-?\d+)")


@dataclass
class Op:
    """One CLI call, its input size for warm-up ordering, and its check."""

    argv: list
    size: int
    check: object  # callable stdout -> failure message or None
    outputs: dict = field(default_factory=dict)  # stdout -> verdict, memoized


def check_op(op, code, out):
    """Failure message for one execution of op, or None when it is correct."""
    if code != 0:
        return f"{op.argv}: exit code {code}"
    if out not in op.outputs:
        try:
            op.outputs[out] = op.check(out)
        except (ValueError, KeyError, TypeError) as e:
            op.outputs[out] = f"unreadable output ({type(e).__name__}: {e})"
    verdict = op.outputs[out]
    return None if verdict is None else f"{op.argv}: {verdict}"


# -- exact linear algebra for the jet oracle --------------------------------


def _inverse(m):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    n = len(m)
    a = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if a[i][k])
        a[k], a[pivot] = a[pivot], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def _matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def jet_delta2(v, h=1):
    """Delta''(1) = h (2g - tr((S^-1 B)^2)) / 4 for a Seifert matrix v."""
    n = len(v)
    if n == 0:
        return Fraction(0)
    s_inv = _inverse([[v[i][j] - v[j][i] for j in range(n)] for i in range(n)])
    b = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
    a = [[_dot(s_inv[i], [b[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]
    trace = sum(a[i][k] * a[k][i] for i in range(n) for k in range(n))
    return Fraction(h) * (n - trace) / 4


def jet_chi(p):
    """chi of a presentation with one to three components, by the jet formulas."""
    comps = p.components
    h = p.base_order
    v = comps[0].seifert
    if len(comps) == 1:
        return -jet_delta2(v, h)
    if not v:
        return Fraction(0)
    n = len(v)
    x = _matvec(_inverse([[v[i][j] - v[j][i] for j in range(n)] for i in range(n)]),
                comps[0].linking[comps[1].name])
    if len(comps) == 2:
        return -2 * h * _dot(x, _matvec(v, x))
    mu = _dot(comps[0].linking[comps[2].name], x)
    return -2 * h * mu * mu


# -- generators (the constructions of tests/conftest.py, at fixed genus) -----
#
# The cost of an operation depends on the genera of its components, so the
# genera are fixed and a seed draws only the entries; otherwise the latency
# percentiles would move with the seed.
GENUS = 1  # of every random component and ribbon surface
BOUND = 3  # largest absolute value of a random matrix or vector entry


def random_seifert(rng, g):
    """Random integer 2g x 2g matrix with V - V^T the standard symplectic form."""
    n = 2 * g
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = rng.randint(-BOUND, BOUND)
        for k in range(i + 1, n):
            skew = 1 if (i % 2 == 0 and k == i + 1) else 0
            x = rng.randint(-BOUND + skew, BOUND)
            v[i][k] = x
            v[k][i] = x - skew
    return tuple(tuple(Fraction(x) for x in row) for row in v)


def _random_vector(rng, length):
    return tuple(Fraction(rng.randint(-BOUND, BOUND)) for _ in range(length))


def random_presentation(rng, n_components, h):
    """Random valid presentation whose components all have genus GENUS."""
    from lescop.presentation import Component, SurgeryPresentation

    names = [f"l{i + 1}" for i in range(n_components)]
    comps = [
        Component(name=name, seifert=random_seifert(rng, GENUS),
                  linking={o: _random_vector(rng, 2 * GENUS) for o in names if o != name})
        for name in names
    ]
    return SurgeryPresentation(base_order=h, components=tuple(comps))


def random_ribbon_spec(rng, s, h):
    """Ribbon pair with Sato-Levine number s over a random genus-GENUS surface."""
    from lescop.presentation import RibbonPairSpec

    return RibbonPairSpec(s=s, a=_random_vector(rng, 2 * GENUS), w=random_seifert(rng, GENUS),
                          epsilon=rng.choice((1, -1)), base_order=h)


def with_extra_unknots(p, count):
    """Append 0-framed unknotted components that link nothing."""
    from lescop.presentation import Component, SurgeryPresentation

    extra = [f"x{i}" for i in range(count)]
    comps = [Component(c.name, c.seifert,
                       {**c.linking, **{e: (Fraction(0),) * c.size for e in extra}})
             for c in p.components]
    names = [c.name for c in comps] + extra
    comps += [Component(e, (), {o: () for o in names if o != e}) for e in extra]
    return SurgeryPresentation(p.base_order, tuple(comps))


def knot(seifert):
    from lescop.presentation import Component, SurgeryPresentation

    return SurgeryPresentation(1, (Component("l1", seifert, {}),))


class Writer:
    """Writes documents under one directory with sequential names."""

    def __init__(self, directory):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def text(self, text, stem=None):
        if stem is None:
            stem = f"d{self.count:05d}"
            self.count += 1
        path = self.dir / f"{stem}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def doc(self, p, w2=None):
        from lescop.documents import PresentationDocument, serialize

        return self.text(serialize(PresentationDocument(presentation=p, bundle_w2=w2)))


# -- checks ------------------------------------------------------------------


def _chi_check(expected):
    """Check of `chi --route both --json`: both routes give expected().

    Expected values are functions, so that the oracle runs when an output is
    first checked, after the timed operation, and not during set-up.
    """

    def check(out):
        data = json.loads(out)
        routes = data["routes"]
        want = int(expected())
        if (not {CLOSED_FORM, TRIANGLE} <= set(routes) or set(routes.values()) != {want}
                or data["agree"] is not True):
            return f"chi routes {routes}, expected {want} on each"
        return None

    return check


def verify_failure(result, expected_chi, golden=None):
    """Failure message for one file's `verify --json` result, or None.

    Every check passes or is skipped; route agreement reports the expected
    chi for the closed-form and triangle routes, and for any further route;
    and, for a corpus document, every (name, status) of the golden output
    is present.
    """
    checks = [[c["name"], c["status"]] for c in result["checks"]]
    if any(status not in ("pass", "skip") for _, status in checks):
        return f"verify failed: {checks}"
    missing = [c for c in golden or () if c not in checks]
    if missing:
        return f"checks {missing} of the golden output are missing"
    details = [c["detail"] for c in result["checks"] if c["name"] == "route-agreement"]
    routes = dict(_VALUE.findall(details[0])) if len(details) == 1 else {}
    if not {CLOSED_FORM, TRIANGLE} <= set(routes) or any(
        int(v) != expected_chi for v in routes.values()
    ):
        return f"route agreement {details}, expected chi = {expected_chi}"
    return None


def _verify_check(expected_chi, golden=None):
    """Check of `verify --json` on one document."""

    def check(out):
        data = json.loads(out)
        (result,) = data["results"]
        if data["ok"] is not True:
            return "verify reports ok = false"
        return verify_failure(result, int(expected_chi()), golden)

    return check


def _lens_check(p):
    central = 1 if p % 2 else 2

    def check(out):
        got = json.loads(out)
        want = {"central": central, "spheres": (p - central) // 2, "factor": p}
        return None if got == want else f"lens {got}, expected {want}"

    return check


def _alexander_check(v):
    """Check of `alexander --json` on a knot in S^3 (h = 1)."""

    def check(out):
        data = json.loads(out)
        terms = {Fraction(k): Fraction(c) for k, c in data["alexander"].items()}
        if any(terms.get(-k) != c for k, c in terms.items()):
            return "alexander polynomial is not symmetric"
        if sum(terms.values()) != 1:
            return f"alexander at 1 is {sum(terms.values())}, expected 1"
        want = jet_delta2(v)
        if Fraction(data["delta2_at_1"]) != want:
            return f"delta2_at_1 = {data['delta2_at_1']}, expected {want}"
        return None

    return check


def _casson_check(steps):
    def check(out):
        data = json.loads(out)
        casson = sum(sign * jet_delta2(v) / 2 for v, sign in steps)
        got = (Fraction(data["casson"]), Fraction(data["taubes_chi"]))
        return None if got == (casson, 2 * casson) else f"casson {got}, expected {casson}"

    return check


# -- workloads ---------------------------------------------------------------


def load_golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def write_corpus(writer):
    """The 19 built-in documents, written as <name>.json; returns name -> path."""
    from lescop.corpus import corpus
    from lescop.documents import serialize

    return {name: writer.text(serialize(doc), stem=name) for name, doc in corpus().items()}


def corpus_verify(rng, writer):
    golden = load_golden()["verify"]
    corpus_paths = write_corpus(writer)
    from lescop.presentation import build_ribbon_pair, build_triple

    rounds = []
    for _ in range(CORPUS_ROUNDS):
        ops = [Op(["verify", "--json", path], 0,
                  _verify_check(lambda n=name: CORPUS_CHI[n], golden[name]))
               for name, path in corpus_paths.items()]
        for n in range(1, STRESS_PER_KIND + 1):
            h = rng.choice(BASE_ORDERS)
            s = rng.randint(-3, 3)
            path = writer.doc(build_ribbon_pair(random_ribbon_spec(rng, s, h)), (1, 1))
            ops.append(Op(["verify", "--json", path], 2,
                          _verify_check(lambda v=-2 * h * s: v)))
            h = rng.choice(BASE_ORDERS)
            mu = rng.randint(-3, 3)
            path = writer.doc(build_triple(mu, random_ribbon_spec(rng, 0, h)), (1, 1, 1))
            ops.append(Op(["verify", "--json", path], 3,
                          _verify_check(lambda v=-2 * h * mu * mu: v)))
            p = random_presentation(rng, n, rng.choice(BASE_ORDERS))
            ops.append(Op(["verify", "--json", writer.doc(p)], len(p.components),
                          _verify_check(lambda p=p: jet_chi(p))))
        for p in [rng.randint(2, 255) for _ in range(LENS_PER_ROUND - 1)] + [256]:
            ops.append(Op(["lens", "--p", str(p), "--json"], 0, _lens_check(p)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def genus_sweep(rng, writer):
    from lescop.documents import serialize_chain
    from lescop.invariants import SurgeryChain

    rounds = []
    for r in range(GENUS_ROUNDS):
        ops = []
        for g, count in GENUS_COUNTS.items():
            for _ in range(count):
                if g <= BOTH_UP_TO_GENUS or (g + r) % 2 == 0:
                    v = random_seifert(rng, g)
                    ops.append(Op(["chi", writer.doc(knot(v)), "--route", "both", "--json"],
                                  g, _chi_check(lambda v=v: -jet_delta2(v))))
                if g <= BOTH_UP_TO_GENUS or (g + r) % 2 == 1:
                    v = random_seifert(rng, g)
                    ops.append(Op(["alexander", writer.doc(knot(v)), "--json"], g,
                                  _alexander_check(v)))
        for _ in range(CASSON_CHAINS):
            steps = tuple((random_seifert(rng, rng.randint(1, 4)), rng.choice((-1, 1)))
                          for _ in range(CASSON_STEPS))
            path = writer.text(serialize_chain(SurgeryChain(steps)))
            ops.append(Op(["casson", path, "--json"], 4, _casson_check(steps)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def triangle_wide(rng, writer):
    from lescop.presentation import RibbonPairSpec, build_triple

    rounds = []
    for _ in range(TRIANGLE_ROUNDS):
        ops = []
        for n in TRIANGLE_COMPONENTS:
            cases = [random_presentation(rng, n, rng.choice(BASE_ORDERS)) for _ in range(2)]
            triple = build_triple(rng.randint(-3, 3),
                                  RibbonPairSpec(s=rng.randint(-3, 3),
                                                 base_order=rng.choice(BASE_ORDERS)))
            cases.append(with_extra_unknots(triple, n - 3))
            for p in cases:
                ops.append(Op(["chi", writer.doc(p), "--route", "both", "--json"], n,
                              _chi_check(lambda: 0)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


WORKLOADS = {
    "corpus-verify": corpus_verify,
    "genus-sweep": genus_sweep,
    "triangle-wide": triangle_wide,
}


def build(name, seed, directory):
    """Generate and write the inputs of workload `name`; returns its rounds."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), Writer(directory))
