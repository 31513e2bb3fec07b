"""Work the program must not repeat, counted on the built-in corpus.

Each counter wraps one function and rebinds every name in the lescop
modules that refers to it, so calls made through `from ... import` names
are counted too; given modules, it rebinds the names in those alone.
"""

import sys

from lescop import cli, floer, invariants, presentation, ring
from lescop.cli import run
from lescop.corpus import corpus
from lescop.documents import PresentationDocument, parse, parse_chain, serialize, serialize_chain
from lescop.invariants import SurgeryChain
from lescop.presentation import FIGURE_EIGHT, TREFOIL

from conftest import (bareiss_calls, random_presentation, random_seifert, rational_presentation,
                      seeded, sheared_knot_document)


class Counter:
    def __init__(self, monkeypatch, fn, modules=None):
        self.calls = 0
        self.args = []
        self.callers = []

        def counted(*args, **kwargs):
            self.calls += 1
            self.args.append(args)
            caller = sys._getframe(1)
            self.callers.append(f"{caller.f_globals['__name__']}.{caller.f_code.co_name}")
            return fn(*args, **kwargs)

        self.counted = counted
        if modules is None:
            modules = [module for name, module in list(sys.modules.items())
                       if name == "lescop" or name.startswith("lescop.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def skew_eliminations(monkeypatch):
    """Counts the eliminations of S = V - V^T: the package's calls of
    ring._scaled_inverse, all of which presentation.skew_form makes."""
    return Counter(monkeypatch, ring._scaled_inverse)


def symplectic(v):
    """Whether each row of S = V - V^T holds exactly one nonzero, +-1: the
    forms whose S^-1 skew_form reads off S without an elimination."""
    return all(sorted((abs(a - b) for a, b in zip(row, col)), reverse=True)[:2] in ([1], [1, 0])
               for row, col in zip(v, zip(*v)))


def sheared(tmp_path, g=3):
    """A file of the sheared genus-g knot of conftest, and its Seifert
    matrix, whose S has rows of several nonzeros."""
    path = tmp_path / f"sheared-{g}.json"
    path.write_text(sheared_knot_document(g))
    v = parse(path.read_text()).presentation.components[0].seifert
    assert not symplectic(v)
    return path, v


def interpolation(calls):
    """The eliminations of the Alexander polynomial that bareiss_calls
    recorded, split into the determinants (rows, n), packed or at the
    nodes, and the Gauss-Jordan solves of the node path (rows, n)."""
    nodes = [(rows, n) for rows, n, jordan in calls if not jordan]
    solves = [(rows, n) for rows, n, jordan in calls if jordan]
    return nodes, solves


def test_verify_validates_each_document_once(corpus_dir, tmp_path, monkeypatch, capsys):
    components = [c for doc in corpus().values() for c in doc.presentation.components]
    assert len(components) == 40
    assert all(symplectic(c.seifert) for c in components)
    validate = Counter(monkeypatch, presentation.validate)
    coefficients = Counter(monkeypatch, invariants._coefficients)
    bareiss = bareiss_calls(monkeypatch)
    inverse = skew_eliminations(monkeypatch)
    files = sorted(str(f) for f in corpus_dir.glob("*.json"))
    assert len(files) == 19
    assert run(["verify", *files]) == 0
    capsys.readouterr()
    assert validate.calls == len(files)
    # one polynomial per component and one blown-down polynomial for
    # each of the 9 two-component documents
    assert coefficients.calls == 49
    # every corpus matrix is below the packing threshold: one packed
    # elimination of n x n int rows for each Alexander polynomial of a
    # size-n matrix, never of HalfLaurent entries, and no solve; every
    # corpus S is symplectic, so S^-1 is read off it with no elimination
    sizes = [len(dv) for (dv,) in coefficients.args]
    nodes, solves = interpolation(bareiss)
    assert [n for _, n in nodes] == sizes
    assert all(len(rows) == n and len(row) == n and type(x) is int
               for rows, n in nodes for row in rows for x in row)
    assert solves == []
    assert inverse.calls == 0
    # a sheared knot's S is eliminated once, and the routes reuse S^-1
    assert run(["verify", str(sheared(tmp_path)[0])]) == 0
    capsys.readouterr()
    assert (validate.calls, inverse.calls) == (len(files) + 1, 1)


def test_only_skew_form_inverts(corpus_dir, tmp_path, monkeypatch, capsys):
    """ring._scaled_inverse has one caller, presentation.skew_form; the
    Alexander interpolation solves its own system."""
    bound = {name for name, module in sys.modules.items()
             if name.startswith("lescop") and ring._scaled_inverse in vars(module).values()}
    assert bound == {"lescop.ring", "lescop.presentation"}
    inverse = skew_eliminations(monkeypatch)
    knot, v = sheared(tmp_path)
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_chain(SurgeryChain(((TREFOIL, -1), (v, 1), (FIGURE_EIGHT, 1)))))
    files = sorted(str(f) for f in corpus_dir.glob("*.json"))
    # one elimination for each sheared knot or chain step a command reads
    for argv, eliminations in ((["verify", *files, str(knot)], 1), (["alexander", str(knot)], 1),
                               (["casson", str(chain)], 1), (["chi", "--route", "both", str(knot)], 1)):
        before = inverse.calls
        assert run(argv) == 0, argv
        assert inverse.calls - before == eliminations, argv
    capsys.readouterr()
    invariants.knot_alexander(v)
    presentation.blow_down(corpus()["km-trefoil"].presentation, "l3")
    assert inverse.calls == 4
    assert set(inverse.callers) == {"lescop.presentation.skew_form"}


def test_one_elimination_per_component(corpus_dir, tmp_path, monkeypatch, capsys):
    """S = V - V^T is eliminated at most once per component or chain step,
    by skew_form alone: validation and every route share that one result,
    and a valid form takes no determinant.  A symplectic S, as in every
    corpus component, takes no elimination; a sheared one takes one."""
    determinant = Counter(monkeypatch, ring.determinant)
    inverse = skew_eliminations(monkeypatch)
    knot, v = sheared(tmp_path)
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_chain(SurgeryChain(((TREFOIL, -1),) * 3)))
    sheared_chain = tmp_path / "sheared-chain.json"
    sheared_chain.write_text(serialize_chain(SurgeryChain(((v, -1), (TREFOIL, -1), (v, 1)))))
    runs = [
        (["chi", str(corpus_dir / "km-trefoil.json")], 0),
        (["chi", str(corpus_dir / "trefoil-0.json")], 0),
        (["casson", str(chain)], 0),
        (["sato-levine", str(corpus_dir / "ribbon-s1.json")], 0),
        (["lescop", str(corpus_dir / "km-trefoil.json")], 0),
        (["mu2", str(corpus_dir / "km-trefoil.json")], 0),
        (["chi", "--route", "both", str(knot)], 1),
        (["lescop", str(knot)], 1),
        (["casson", str(sheared_chain)], 2),
    ]
    for argv, eliminations in runs:
        before = determinant.calls, inverse.calls
        assert run(argv) == 0, argv
        assert (determinant.calls - before[0], inverse.calls - before[1]) == (0, eliminations), argv
    capsys.readouterr()


def test_an_invalid_form_takes_one_elimination(monkeypatch):
    """det S for the message comes from the elimination that would give
    S^-1: each invalid form takes one, a symplectic one none."""
    determinant = Counter(monkeypatch, ring.determinant)
    inverse = skew_eliminations(monkeypatch)
    invalid = {
        ((0, 0), (0, 0)): "det(V - V^T) = 0, expected 1",
        ((0, 2), (0, 0)): "det(V - V^T) = 4, expected 1",
        ((0, 1, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)): "det(V - V^T) = 0, expected 1",
        ((0, 1, 1, 0), (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0)): "det(V - V^T) = 4, expected 1",
    }
    for k, (dv, msg) in enumerate(invalid.items(), 1):
        assert presentation.skew_form(1, dv) == (None, msg)
        assert (determinant.calls, inverse.calls) == (0, k), dv
    assert presentation.skew_form(1, ((0, 1), (0, 0))) == (((0, -1), (1, 0)), None)
    assert (determinant.calls, inverse.calls) == (0, len(invalid))


def test_each_component_or_step_is_scaled_once(corpus_dir, tmp_path, monkeypatch, capsys):
    """Rational Seifert and linking data become ints in
    presentation.integral_form alone: once per component of a document
    with a Fraction entry, which keeps the result, and once per chain
    step.  documents.parse keeps the form (1, V, E) of every component of
    a document whose entries are all ints, so no built-in document, none
    of which has a Fraction entry, calls it.  A component's polynomial
    comes from its kept form, and so does the blown-down polynomial of
    z3-structure, which adds (cE)(cE)^T to it: verify scales no bare
    matrix."""
    scale = Counter(monkeypatch, presentation.integral_form)
    coefficients = Counter(monkeypatch, invariants._coefficients)
    bare = Counter(monkeypatch, invariants.knot_alexander)
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_chain(SurgeryChain(((TREFOIL, -1),) * 3)))
    rational = tmp_path / "rational.json"
    p = rational_presentation(seeded(66), 3)
    assert sorted(c.integral_form[0] for c in p.components) == [1, 441, 1764]
    rational.write_text(serialize(PresentationDocument(p)))
    for argv, calls in ((["chi", str(corpus_dir / "km-trefoil.json")], 0),
                        (["casson", str(chain)], 3), (["chi", str(rational)], 3)):
        before = scale.calls
        assert run(argv) == 0, argv
        assert scale.calls - before == calls, argv
    files = sorted(str(f) for f in corpus_dir.glob("*.json"))
    before = scale.calls
    assert run(["verify", *files, str(rational)]) == 0
    capsys.readouterr()
    assert scale.calls - before == 3
    assert bare.calls == 0
    assert coefficients.calls == 52


def test_examples_list_builds_the_corpus_once(monkeypatch, capsys):
    """The list reads names and descriptions off one pass over the built-in
    entries, each of which builds its presentation."""
    corpus_module = sys.modules["lescop.corpus"]
    entries = Counter(monkeypatch, corpus_module._entries, modules=[corpus_module])
    for argv in (["examples"], ["examples", "--json"]):
        before = entries.calls
        assert run(argv) == 0, argv
        assert entries.calls - before == 1, argv
    capsys.readouterr()


def test_chi_validates_once(corpus_dir, monkeypatch, capsys):
    validate = Counter(monkeypatch, presentation.validate)
    assert run(["chi", str(corpus_dir / "km-trefoil.json")]) == 0
    capsys.readouterr()
    assert validate.calls == 1


def test_casson_computes_the_ledger_once(tmp_path, monkeypatch, capsys):
    jet = Counter(monkeypatch, invariants._delta2_jet)
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_chain(SurgeryChain(((TREFOIL, -1),) * 3)))
    assert run(["casson", str(chain)]) == 0
    assert capsys.readouterr().out == "casson = -3\ntaubes_chi = -6\n"
    assert jet.calls == 3


def test_a_parsed_chain_is_checked_once(monkeypatch):
    """parse_chain checks each entry as it reads it and stores the steps
    as SurgeryChain(steps) would, without SurgeryChain's second pass of
    ring.exact over them."""
    rng = seeded(3303)
    for _ in range(20):
        steps = [(random_seifert(rng, rng.randint(0, 3)), rng.choice((-1, 1)))
                 for _ in range(rng.randint(1, 4))]
        public = SurgeryChain(steps)
        text = serialize_chain(public)
        with monkeypatch.context() as m:
            exact_matrix = Counter(m, presentation.exact_matrix, modules=[invariants])
            exact = Counter(m, ring.exact, modules=[invariants])
            parsed = parse_chain(text)
        assert (exact_matrix.calls, exact.calls) == (0, 0)
        assert (parsed, hash(parsed), repr(parsed)) == (public, hash(public), repr(public))
        assert invariants.casson(parsed) == invariants.casson(public)


def test_two_component_verify_computes_each_value_once(corpus_dir, monkeypatch):
    """On a two-component document verify computes the case quantity
    once, for z3-structure, route-agreement and theorem1-consistency
    alike, one coefficient tuple per component and one blown-down one,
    and calls no knot_alexander; z3-structure builds no HalfLaurent."""
    case = Counter(monkeypatch, invariants._case.func, modules=[])
    monkeypatch.setattr(invariants._case, "func", case.counted)
    coefficients = Counter(monkeypatch, invariants._coefficients)
    blown_down = Counter(monkeypatch, invariants._blown_down_coefficients)
    bare = Counter(monkeypatch, invariants.knot_alexander)
    polynomials = 0
    init = ring.HalfLaurent.__init__

    def counted(self, terms=None):
        nonlocal polynomials
        polynomials += 1
        init(self, terms)

    monkeypatch.setattr(ring.HalfLaurent, "__init__", counted)
    names = [name for name, doc in corpus().items() if len(doc.presentation.components) == 2]
    assert len(names) == 9
    for name in names:
        doc = parse((corpus_dir / f"{name}.json").read_text())
        before = case.calls, coefficients.calls, blown_down.calls
        built = {}
        for check, status, _ in floer.cross_checks(doc.presentation, cli._bundle(doc)):
            built[check] = polynomials
            polynomials = 0
            assert status != "fail", (name, check)
        assert built["z3-structure"] == 0, name
        assert "route-agreement" in built, name
        counts = (case.calls - before[0], coefficients.calls - before[1],
                  blown_down.calls - before[2])
        assert counts == (1, 3, 1), name
    assert bare.calls == 0


def test_only_alexander_and_verify_compute_the_polynomial(
    corpus_dir, tmp_path, monkeypatch, capsys
):
    """chi, casson, lescop, sato-levine and mu2 read Delta''(1) off the jet."""
    coefficients = Counter(monkeypatch, invariants._coefficients)
    bareiss = bareiss_calls(monkeypatch)
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_chain(SurgeryChain(((TREFOIL, -1), (FIGURE_EIGHT, 1)))))
    assert run(["casson", str(chain)]) == 0
    commands = {1: ["chi", "lescop"], 2: ["chi", "lescop", "sato-levine"],
                3: ["chi", "lescop", "mu2"]}
    ran = set()
    for name, doc in corpus().items():
        for command in commands[len(doc.presentation.components)]:
            assert run([command, str(corpus_dir / f"{name}.json")]) == 0, (command, name)
            ran.add(command)
    capsys.readouterr()
    assert ran == {"chi", "lescop", "sato-levine", "mu2"}
    nodes, solves = interpolation(bareiss)
    assert coefficients.calls == len(nodes) == len(solves) == 0
    assert run(["verify", str(corpus_dir / "trefoil-0.json")]) == 0
    assert run(["alexander", str(corpus_dir / "trefoil-0.json")]) == 0
    # the trefoil's 2 x 2 form takes one packed determinant per polynomial
    nodes, solves = interpolation(bareiss)
    assert (coefficients.calls, len(nodes), len(solves)) == (2, 2, 0)


def test_each_component_takes_one_jet_trace(corpus_dir, monkeypatch, capsys):
    """tr((S^-1 dB)^2) is taken at most once per component whose jet a
    command reads, and the component keeps it: verify reads every
    component's for delta2-agreement and the first one's again for both
    chi routes and lescop, and chi --route both the first one's for both
    routes."""
    trace = Counter(monkeypatch, presentation._jet_trace)
    runs = [
        (["verify", "trefoil-0"], 1),
        (["verify", "ribbon-s1"], 2),
        (["verify", "triple-mu1"], 3),
        (["chi", "--route", "both", "trefoil-0"], 1),
        (["lescop", "trefoil-0"], 1),
        (["chi", "--route", "both", "km-trefoil"], 1),
        (["alexander", "trefoil-0"], 0),
    ]
    for (command, *flags, name), traces in runs:
        before = trace.calls
        assert run([command, *flags, str(corpus_dir / f"{name}.json")]) == 0, (command, name)
        assert trace.calls - before == traces, (command, name)
    capsys.readouterr()
    assert set(trace.callers) == {"lescop.presentation.jet_trace"}


def test_mu_squared_validates_once(monkeypatch):
    validate = Counter(monkeypatch, presentation.validate)
    assert invariants.milnor_mu_squared(corpus()["km-trefoil"].presentation) == 1
    assert validate.calls == 1


def test_public_functions_share_one_validation(monkeypatch):
    """Each public function checks its presentation, which keeps the result."""
    validate = Counter(monkeypatch, presentation.validate)
    p = corpus()["km-trefoil"].presentation
    invariants.alexander(p, p.components[0].name)
    invariants.lescop(p)
    invariants.milnor_mu_squared(p)
    floer.chi_closed_form(p)
    floer.chi_via_triangle(p)
    assert validate.calls == 1


def test_triangle_builds_no_presentations(monkeypatch):
    """2^k leaves for k = n - 1, from one jet trace and k bilinear forms
    taken before the walk: after them a block of leaves costs int additions
    only, and no leaf builds a presentation.  When one of the k vectors is
    zero, its leaves cancel in pairs and there is no walk at all: no leaf,
    form or trace."""
    blow_down = Counter(monkeypatch, presentation.blow_down)
    drop = Counter(monkeypatch, presentation.drop_component)
    cubic = Counter(monkeypatch, presentation._jet_trace)
    form = Counter(monkeypatch, invariants._form, modules=[floer])
    walk = floer._leaf_blocks
    leaves = 0

    def counted(*args):
        nonlocal leaves
        for block in walk(*args):
            leaves += len(block)
            yield block

    monkeypatch.setattr(floer, "_leaf_blocks", counted)
    cases = {name: doc.presentation for name, doc in corpus().items()}
    cases["random-6"] = random_presentation(seeded(50), 6, gmax=2)
    walked = set()
    for name, p in cases.items():
        first, *others = p.components
        k = len(others)
        nonzero = all(any(first.linking[c.name]) for c in others)
        before = leaves, form.calls, cubic.calls
        floer.chi_via_triangle(p)
        counts = leaves - before[0], form.calls - before[1], cubic.calls - before[2]
        assert counts == ((2 ** k, k, 1) if nonzero else (0, 0, 0)), name
        walked.add(nonzero)
    assert walked == {True, False}
    assert blow_down.calls == drop.calls == 0
