import math
import pickle
from fractions import Fraction
from itertools import chain
from operator import mul
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lescop import presentation
from lescop.documents import PresentationDocument, parse, serialize
from lescop.invariants import knot_alexander
from lescop.presentation import (
    FIGURE_EIGHT,
    TREFOIL,
    Component,
    InvalidSpecError,
    RibbonPairSpec,
    SurgeryPresentation,
    UnknownComponentError,
    _jet_trace,
    blow_down,
    build_ribbon_pair,
    build_triple,
    connected_sum_knot,
    drop_component,
    exact_matrix,
    integral_form,
    skew_form,
    validate,
)
from lescop.ring import _scaled_inverse

from conftest import (
    conjugated,
    random_presentation,
    random_seifert,
    rational_presentation,
    seeded,
    unimodular,
    with_fractional_symmetric_part,
)
from test_invariance import presentations


def trefoil_presentation():
    return SurgeryPresentation(
        base_order=1, components=(Component("l1", TREFOIL, {}),)
    )


class TestValidate:
    def test_trefoil_valid(self):
        assert validate(trefoil_presentation()) == []

    def test_odd_size_seifert(self):
        p = SurgeryPresentation(
            base_order=1,
            components=(Component("l1", [[0, 0, 0], [1, 0, 0], [0, 0, 0]], {}),),
        )
        msgs = validate(p)
        assert any("odd size" in m for m in msgs)

    def test_wrong_length_linking(self):
        c1 = Component("l1", TREFOIL, {"l2": (0,)})
        c2 = Component("l2", (), {"l1": ()})
        msgs = validate(SurgeryPresentation(1, (c1, c2)))
        assert any("length" in m and "'l1'" in m for m in msgs)

    def test_missing_pair_vector(self):
        c1 = Component("l1", TREFOIL, {})
        c2 = Component("l2", (), {"l1": ()})
        msgs = validate(SurgeryPresentation(1, (c1, c2)))
        assert any("missing linking vector" in m for m in msgs)

    def test_unknown_pair_vector(self):
        c1 = Component("l1", TREFOIL, {"ghost": (0, 0)})
        msgs = validate(SurgeryPresentation(1, (c1,)))
        assert any("unknown component" in m for m in msgs)

    def test_duplicate_names(self):
        c = Component("l1", TREFOIL, {})
        msgs = validate(SurgeryPresentation(1, (c, c)))
        assert any("duplicate" in m for m in msgs)

    @pytest.mark.parametrize("name, defect", [(1, "expected a non-empty string"),
                                              ("", "expected a non-empty string"),
                                              ("\ud800", "not valid text")],
                             ids=["int", "empty", "lone-surrogate"])
    def test_component_name_rule(self, name, defect):
        """A name is a non-empty str that encodes as UTF-8, the rule that
        documents.parse applies, so serialize can write it and parse can
        read it back."""
        p = SurgeryPresentation(1, (Component(name, TREFOIL, {}),))
        assert validate(p) == [f"component name {name!r}: {defect}"]

    def test_skew_determinant(self):
        for v, det in (([[0, 0], [0, 0]], 0), ([[0, 2], [0, 0]], 4)):
            msgs = validate(SurgeryPresentation(1, (Component("l1", v, {}),)))
            assert msgs == [f"component 'l1': det(V - V^T) = {det}, expected 1"]

    def test_non_integer_skew(self):
        v = [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]
        msgs = validate(SurgeryPresentation(1, (Component("l1", v, {}),)))
        assert any("non-integer" in m for m in msgs)

    def test_rational_entries_need_torsion(self):
        v = [[Fraction(1, 3), 1], [0, Fraction(1, 3)]]
        p1 = SurgeryPresentation(1, (Component("l1", v, {}),))
        assert any("base_order" in m for m in validate(p1))
        p3 = SurgeryPresentation(3, (Component("l1", v, {}),))
        assert validate(p3) == []

    def test_bad_base_order(self):
        msgs = validate(SurgeryPresentation(0, (Component("l1", TREFOIL, {}),)))
        assert any("base_order" in m for m in msgs)

    def test_fractional_linking_alone_needs_torsion(self):
        """The common denominator counts the linking vectors too, even
        when the Seifert matrix is integral."""
        c1 = Component("l1", TREFOIL, {"l2": (Fraction(1, 2), 0)})
        c2 = Component("l2", (), {"l1": ()})
        assert validate(SurgeryPresentation(1, (c1, c2))) == [
            "component 'l1': non-integer entries require base_order > 1"
        ]
        assert validate(SurgeryPresentation(2, (c1, c2))) == []

    def test_matches_the_reference_loop(self):
        """validate reports what a plain loop over every vector reports, in
        the same order, on presentations with every kind of defect."""
        defects = ["base_order must", "duplicate", "det(V", "odd size", "has non-integer",
                   "require base_order", "missing", "has length", "unknown component"]
        seen = set()
        for seed in range(400):
            p = defective_presentation(seeded(seed))
            expected = reference_validate(p)
            assert validate(p) == expected, seed
            seen.update(d for d in defects for m in expected if d in m)
            seen.update("self-named" for c in p.components
                        for m in expected if m.endswith(f"unknown component {c.name!r}")
                        and m.startswith(f"component {c.name!r}"))
        assert seen == {*defects, "self-named"}


def reference_validate(p):
    """validate as a loop over every name and every vector, for comparison."""
    out = []
    if type(p.base_order) is not int or p.base_order < 1:
        out.append(f"base_order must be a positive integer, got {p.base_order!r}")
    names = p.names()
    seen = set()
    for n in names:
        if n in seen:
            out.append(f"duplicate component name {n!r}")
        seen.add(n)
    for c in p.components:
        msg = c.skew_form[1]
        if msg is not None:
            out.append(f"component {c.name!r}: {msg}")
        expected = set(names) - {c.name}
        missing = expected - set(c.linking)
        unknown = set(c.linking) - expected
        for other in sorted(missing):
            out.append(f"component {c.name!r}: missing linking vector against {other!r}")
        for other in sorted(unknown):
            out.append(f"component {c.name!r}: linking vector against unknown component {other!r}")
        for other, vec in c.linking.items():
            if other in expected and len(vec) != c.size:
                out.append(
                    f"component {c.name!r}: linking vector against {other!r} "
                    f"has length {len(vec)}, expected {c.size}"
                )
        if p.base_order == 1 and c.integral_form[0] != 1:
            out.append(f"component {c.name!r}: non-integer entries require base_order > 1")
    return out


def defective_presentation(rng):
    """A random presentation with, now and then, each defect validate names:
    a bad base order, a repeated name, a singular, odd-sized or
    non-integral skew form, fractional entries, and linking vectors that
    are missing, of the wrong length, against an unknown component or
    against the component itself."""
    names = [f"l{rng.randint(1, 6)}" for _ in range(rng.randint(1, 5))]
    comps = []
    for name in names:
        g = rng.randint(0, 2)
        v = [list(row) for row in random_seifert(rng, g)]
        defect = rng.randrange(8)
        if defect == 0 and g:
            v = [[0] * (2 * g) for _ in range(2 * g)]  # singular
        elif defect == 1:
            v = [row + [0] for row in v] + [[0] * (2 * g + 1)]  # odd size
        elif defect == 2 and g:
            v[0][1] += Fraction(1, 2)  # V - V^T not integral
        elif defect == 3 and g:
            v[0][0] += Fraction(1, 3)  # fractional, V - V^T still integral
        linking = {}
        others = [*dict.fromkeys(names), *(["ghost"] if rng.random() < 0.2 else [])]
        for other in rng.sample(others, k=len(others)):
            if (other == name and rng.random() < 0.8) or rng.random() < 0.1:
                continue
            length = 2 * g + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
            linking[other] = [rng.choice((0, 1, -2, Fraction(1, 2))) for _ in range(max(length, 0))]
        comps.append(Component(name, v, linking))
    return SurgeryPresentation(rng.choice((1, 1, 1, 2, 0)), comps)


def defined_form(c):
    """(d, dV, {name: cE}) from the definition, in Fraction arithmetic:
    c the lcm of every entry's denominator and d = c^2."""
    entries = [*(x for row in c.seifert for x in row),
               *(x for vec in c.linking.values() for x in vec)]
    lcm = math.lcm(*(Fraction(x).denominator for x in entries))
    d = lcm * lcm
    return (
        d,
        tuple(tuple(d * Fraction(x) for x in row) for row in c.seifert),
        {k: tuple(lcm * Fraction(x) for x in vec) for k, vec in c.linking.items()},
    )


class TestIntegralForm:
    def check(self, p):
        for c in p.components:
            d, dv, ce = c.integral_form
            assert (d, dv, dict(ce)) == defined_form(c), c.name
            assert type(ce) is MappingProxyType
            entries = [d, *(x for row in dv for x in row), *(x for vec in ce.values() for x in vec)]
            assert all(type(x) is int for x in entries), c.name

    def test_seeded_presentations(self):
        for p in presentations(seeded()):
            self.check(p)

    def test_rational_documents(self):
        rng = seeded(21)
        for k in range(40):
            p = parse(serialize(PresentationDocument(rational_presentation(rng, k % 4 + 1))))
            self.check(p.presentation)

    def test_integral_data_is_the_form(self):
        """For c = 1 the exact entries are returned as they are, with the
        linking vectors behind a read-only mapping."""
        linking = {"k": (2, 0)}
        d, dv, ce = integral_form(TREFOIL, linking)
        assert d == 1 and dv is TREFOIL and ce == linking
        with pytest.raises(TypeError):
            ce["k"] = (0, 0)


def shear(n, pairs):
    """I plus a 1 at each (i, j) of pairs, i < j: a unimodular basis change."""
    return [[int(i == j or (i, j) in pairs) for j in range(n)] for i in range(n)]


def nonzeros(v):
    """The number of nonzeros in each row of S^-1 for the form v."""
    return [len(list(filter(None, row))) for row in Component("k", v, {}).skew_form[0]]


class TestJetTrace:
    """_jet_trace against a Fraction triple loop, on S^-1 of one nonzero
    per row and on S^-1 whose rows have several."""

    def check(self, v):
        """_jet_trace on the form v is d^2 tr((S^-1 B)^2), B = V + V^T."""
        c = Component("k", v, {})
        d, dv, _ = c.integral_form
        s_inv, msg = c.skew_form
        assert msg is None
        n = len(v)
        b = [[Fraction(v[i][j]) + v[j][i] for j in range(n)] for i in range(n)]
        m = [[sum(map(mul, row, col)) for col in zip(*b)] for row in s_inv]
        expected = d * d * sum(m[i][j] * m[j][i] for i in range(n) for j in range(n))
        assert _jet_trace(s_inv, dv) == expected

    # random_seifert forms of genus 0 to 12: V - V^T is the standard
    # symplectic form, so S^-1 has one nonzero per row
    FORMS = [random_seifert(seeded(g), g) for g in range(13)]

    def test_symplectic_basis(self):
        for v in self.FORMS:
            assert set(nonzeros(v)) <= {1}
            self.check(v)

    def test_dense_inverse(self):
        """The same forms in a random basis: from genus 2 on, S^-1 has rows
        of several nonzeros."""
        for g, v in enumerate(self.FORMS[1:], 1):
            w = conjugated(v, unimodular(seeded(g), 2 * g, 6 * g))
            assert g < 2 or max(nonzeros(w)) > 2
            self.check(w)

    def test_fractional_forms(self):
        """The same forms plus a fractional symmetric part: d > 1, and S^-1
        as before."""
        for g, v in enumerate(self.FORMS[1:], 1):
            v = with_fractional_symmetric_part(seeded(g), v)
            assert Component("k", v, {}).integral_form[0] > 1
            self.check(v)

    def test_sheared_basis(self):
        """n = 8 forms whose S^-1 mixes rows of one, two and three
        nonzeros, some of them 2."""
        v = random_seifert(seeded(1), 4)
        entries = set()
        for pairs in ({(0, 2), (1, 3), (2, 4)}, {(0, 1), (1, 2), (2, 4)}):
            w = conjugated(v, shear(8, pairs))
            entries.update(map(abs, chain.from_iterable(Component("k", w, {}).skew_form[0])))
            assert {1, 2, 3} <= set(nonzeros(w))
            self.check(w)
        assert 2 in entries


def signed_permutation(rng, n):
    """A random n x n matrix with one entry +-1 in each row and column."""
    columns = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) if j == columns[i] else 0 for j in range(n)] for i in range(n)]


def skew_rows(v):
    """S = V - V^T as int rows, for a V with integral V - V^T."""
    return [[int(a - b) for a, b in zip(row, col)] for row, col in zip(v, zip(*v))]


def inverts(s, s_inv):
    """Whether S S^-1 = I."""
    n = len(s)
    return [[sum(map(mul, row, col)) for col in zip(*s_inv)] for row in s] == [
        [int(i == j) for j in range(n)] for i in range(n)]


def eliminations(monkeypatch):
    """The list of the rows skew_form passes to ring._scaled_inverse, one
    entry per call from now on."""
    calls = []
    monkeypatch.setattr(presentation, "_scaled_inverse",
                        lambda a: calls.append(a) or _scaled_inverse(a))
    return calls


class TestSkewForm:
    """skew_form's S^-1: read off S when each row of S holds one +-1, and
    eliminated otherwise."""

    def check(self, v, count, monkeypatch):
        """skew_form on v gives S^-1 with S S^-1 = I, equal entry by entry
        to D times D S^-1 from ring._scaled_inverse, after count
        eliminations."""
        calls = eliminations(monkeypatch)
        d, dv, _ = integral_form(exact_matrix(v))
        s_inv, msg = skew_form(d, dv)
        assert msg is None and len(calls) == count
        s = skew_rows(v)
        assert inverts(s, s_inv)
        det, scaled = _scaled_inverse(s)
        assert s_inv == tuple(tuple(det * x for x in row) for row in scaled)
        assert all(type(x) is int for row in s_inv for x in row)

    FORMS = [random_seifert(seeded(g), g) for g in range(13)]

    def test_symplectic_forms_are_transposed(self, monkeypatch):
        for v in self.FORMS:
            self.check(v, 0, monkeypatch)

    def test_signed_permutations_of_them(self, monkeypatch):
        """P^T V P for a signed permutation P: S is P^T S P, still one
        +-1 per row but no longer the standard form."""
        standard = 0
        for g, v in enumerate(self.FORMS):
            for k in range(3):
                w = conjugated(v, signed_permutation(seeded(100 * g + k), 2 * g))
                standard += skew_rows(w) == skew_rows(v)
                self.check(w, 0, monkeypatch)
        assert standard < 5

    def test_fractional_forms(self, monkeypatch):
        """d > 1: S is read after dV - dV^T is divided by d."""
        for g, v in enumerate(self.FORMS[1:], 1):
            v = with_fractional_symmetric_part(seeded(g), v)
            assert integral_form(exact_matrix(v))[0] > 1
            self.check(v, 0, monkeypatch)

    def test_sheared_forms_are_eliminated(self, monkeypatch):
        """S in a random unimodular basis has rows of several nonzeros and
        takes one elimination, whose last pivot is 1 on some forms and -1
        on others."""
        pivots = set()
        for g, v in enumerate(self.FORMS[2:], 2):
            for k in range(3):
                w = conjugated(v, unimodular(seeded(10 * g + k), 2 * g, 6 * g))
                pivots.add(_scaled_inverse(skew_rows(w))[0])
                self.check(w, 1, monkeypatch)
        assert pivots == {1, -1}

    def test_other_forms_keep_their_messages(self, monkeypatch):
        """A row of S with one +-2, no nonzero or two nonzeros takes the
        elimination, and its det goes into the message."""
        calls = eliminations(monkeypatch)
        forms = {
            ((0, 2), (0, 0)): 4,
            ((0, -2), (0, 0)): 4,
            ((0, 0), (0, 0)): 0,
            ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)): 0,
            ((0, 1, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)): 0,
            ((0, 1, 1, 0), (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0)): 4,
            ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 3), (0, 0, 0, 0)): 9,
        }
        for k, (dv, det) in enumerate(forms.items(), 1):
            assert skew_form(1, dv) == (None, f"det(V - V^T) = {det}, expected 1")
            assert len(calls) == k
        # two nonzeros in a row, det 1: eliminated, and inverted
        dv = ((0, 1, 1, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
        s_inv, msg = skew_form(1, dv)
        assert msg is None and len(calls) == len(forms) + 1
        assert inverts(skew_rows(dv), s_inv)
        # odd size and non-integer S are rejected before any elimination
        assert skew_form(1, ((0,),)) == (None, "seifert matrix has odd size 1")
        assert skew_form(4, ((0, 2), (0, 0))) == (None, "V - V^T has non-integer entries")
        assert len(calls) == len(forms) + 1


class TestImmutability:
    def test_linking_is_read_only(self):
        c = build_ribbon_pair(RibbonPairSpec(s=0)).components[0]
        with pytest.raises(TypeError):
            c.linking["l2"] = (0, 0)
        assert c.linking == {"l2": (1, 0)}

    def test_pickle_round_trip(self):
        p = build_triple(2, RibbonPairSpec(s=1))
        assert p.violations == ()
        assert pickle.loads(pickle.dumps(p)) == p

    def test_violations_are_kept(self):
        p = SurgeryPresentation(base_order=0, components=trefoil_presentation().components)
        assert p.violations == tuple(validate(p)) != ()
        assert p.violations is p.violations


class TestBlowDown:
    def test_ribbon_pair_block_update(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        assert p.components[0].seifert == ((0, 0), (1, 1))
        q = blow_down(p, "l2", -1)
        assert q.components[0].seifert == ((1, 0), (1, 1))

    def test_zero_linking_leaves_seifert(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0)})
        c2 = Component("l2", (), {"l1": ()})
        p = SurgeryPresentation(1, (c1, c2))
        q = blow_down(p, "l2", -1)
        assert q.components[0].seifert == TREFOIL

    def test_boundary_link_alexander_unchanged(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0)})
        c2 = Component("l2", (), {"l1": ()})
        p = SurgeryPresentation(1, (c1, c2))
        q = blow_down(p, "l2", -1)
        assert knot_alexander(q.components[0].seifert) == knot_alexander(TREFOIL)

    def test_rank_one_update_is_outer_product(self):
        rng = seeded(21)
        for _ in range(20):
            p = random_presentation(rng, 2)
            e = p.components[0].linking["l2"]
            before = p.components[0].seifert
            after = blow_down(p, "l2", -1).components[0].seifert
            n = len(e)
            for i in range(n):
                for j in range(n):
                    assert after[i][j] - before[i][j] == e[i] * e[j]

    def test_positive_sign_subtracts(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        q = blow_down(p, "l2", 1)
        assert q.components[0].seifert == ((-1, 0), (1, 1))

    def test_order_independent(self):
        rng = seeded(22)
        for _ in range(15):
            p = random_presentation(rng, 3)
            ab = blow_down(blow_down(p, "l2", -1), "l3", -1)
            ba = blow_down(blow_down(p, "l3", -1), "l2", -1)
            assert ab == ba

    def test_unknown_target(self):
        with pytest.raises(UnknownComponentError):
            blow_down(trefoil_presentation(), "nope", -1)

    def test_bad_sign(self):
        p = build_ribbon_pair(RibbonPairSpec(s=0))
        with pytest.raises(InvalidSpecError):
            blow_down(p, "l2", 2)


class TestRibbonPair:
    def test_genus_zero_block(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1, epsilon=1, base_order=1))
        c1, c2 = p.components
        assert c1.seifert == ((0, 0), (1, 1))
        assert c1.linking == {"l2": (1, 0)}
        assert c2.seifert == ()
        assert c2.linking == {"l1": ()}

    def test_negative_epsilon(self):
        p = build_ribbon_pair(RibbonPairSpec(s=-3, epsilon=-1))
        c1 = p.components[0]
        assert c1.seifert == ((0, 0), (-1, -3))
        assert c1.linking["l2"] == (-1, 0)

    def test_genus_one_block_layout(self):
        spec = RibbonPairSpec(s=2, a=(5, 7), w=TREFOIL, epsilon=1)
        c1 = build_ribbon_pair(spec).components[0]
        assert c1.seifert == (
            (0, 0, 0, 0),
            (1, 2, 5, 7),
            (0, 5, -1, 1),
            (0, 7, 0, -1),
        )
        assert c1.linking["l2"] == (1, 0, 0, 0)

    def test_genus_one_negative_spec_validates(self):
        spec = RibbonPairSpec(s=-3, a=(0, 0), w=TREFOIL, epsilon=-1, base_order=1)
        assert validate(build_ribbon_pair(spec)) == []

    def test_random_specs_validate(self):
        rng = seeded(23)
        for _ in range(50):
            g = rng.randint(0, 3)
            spec = RibbonPairSpec(
                s=rng.randint(-5, 5),
                a=tuple(rng.randint(-3, 3) for _ in range(2 * g)),
                w=random_seifert(rng, g),
                epsilon=rng.choice((1, -1)),
            )
            assert validate(build_ribbon_pair(spec)) == []

    @given(
        st.integers(-5, 5),
        st.integers(0, 2),
        st.integers(-3, 3),
        st.sampled_from((1, -1)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_validate_property(self, s, g, fill, eps, rng):
        spec = RibbonPairSpec(
            s=s,
            a=(fill,) * (2 * g),
            w=random_seifert(rng, g),
            epsilon=eps,
        )
        assert validate(build_ribbon_pair(spec)) == []

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidSpecError):
            build_ribbon_pair(RibbonPairSpec(s=0, epsilon=2))

    def test_mismatched_a(self):
        with pytest.raises(InvalidSpecError):
            build_ribbon_pair(RibbonPairSpec(s=0, a=(1,), w=()))

    def test_bad_w(self):
        with pytest.raises(InvalidSpecError):
            build_ribbon_pair(RibbonPairSpec(s=0, a=(0, 0), w=((0, 0), (0, 0))))


class TestTriple:
    def test_c_slot_carries_mu(self):
        p = build_triple(5, RibbonPairSpec(s=0))
        c1, c2, c3 = p.components
        assert c1.linking["l3"] == (0, 5)
        assert c1.linking["l2"] == (1, 0)
        assert c2.linking == {"l1": (), "l3": ()}
        assert c3.linking == {"l1": (), "l2": ()}
        assert validate(p) == []

    def test_non_integer_mu_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_triple("1", RibbonPairSpec(s=0))


class TestConnectedSum:
    def test_empty_summand_is_identity(self):
        p = build_triple(1, RibbonPairSpec(s=0))
        assert connected_sum_knot(p, "l1", ()) == p

    def test_alexander_multiplies(self):
        p = build_triple(1, RibbonPairSpec(s=0))
        q = connected_sum_knot(p, "l1", TREFOIL)
        assert knot_alexander(q.components[0].seifert) == knot_alexander(
            TREFOIL
        ) * knot_alexander(p.components[0].seifert)

    def test_figure_eight_on_unknot(self):
        p = SurgeryPresentation(1, (Component("l1", (), {}),))
        q = connected_sum_knot(p, "l1", FIGURE_EIGHT)
        assert knot_alexander(q.components[0].seifert) == knot_alexander(FIGURE_EIGHT)

    def test_linking_padded_with_zeros(self):
        p = build_triple(1, RibbonPairSpec(s=0))
        q = connected_sum_knot(p, "l1", TREFOIL)
        assert q.components[0].linking["l2"] == (0, 0, 1, 0)
        assert q.components[0].linking["l3"] == (0, 0, 0, 1)
        assert validate(q) == []

    def test_bad_summand(self):
        p = trefoil_presentation()
        with pytest.raises(InvalidSpecError):
            connected_sum_knot(p, "l1", ((1,),))

    def test_unknown_component(self):
        with pytest.raises(UnknownComponentError):
            connected_sum_knot(trefoil_presentation(), "l9", TREFOIL)


class TestDrop:
    def test_drop_keeps_seifert(self):
        p = build_ribbon_pair(RibbonPairSpec(s=2))
        q = drop_component(p, "l2")
        assert q.names() == ["l1"]
        assert q.components[0].seifert == p.components[0].seifert
        assert q.components[0].linking == {}

    def test_drop_then_blow_down_commute_when_unlinked(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0), "l3": (1, 2)})
        c2 = Component("l2", (), {"l1": (), "l3": ()})
        c3 = Component("l3", (), {"l1": (), "l2": ()})
        p = SurgeryPresentation(1, (c1, c2, c3))
        assert blow_down(drop_component(p, "l3"), "l2", -1) == drop_component(
            blow_down(p, "l2", -1), "l3"
        )

    def test_drop_all(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        q = drop_component(drop_component(p, "l2"), "l1")
        assert q.components == ()
        assert q.base_order == 1

    def test_unknown(self):
        with pytest.raises(UnknownComponentError):
            drop_component(trefoil_presentation(), "zz")
