import contextlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lescop import documents
from lescop.cli import run
from lescop.corpus import corpus
from lescop.documents import (
    DocumentError,
    DocumentSchemaError,
    DocumentSyntaxError,
    DocumentValueError,
    PresentationDocument,
    parse,
    parse_chain,
    serialize,
    serialize_chain,
)
from lescop.invariants import NORMALIZATION_MODES, SurgeryChain
from lescop.presentation import TREFOIL, Component, SurgeryPresentation, validate

from conftest import (dense_knot_document, random_presentation, random_seifert,
                      rational_presentation, seeded)
from test_golden_cli import fractional_documents

MINIMAL = """
{
  "format_version": 1,
  "base_order": 1,
  "components": [
    {"name": "l1", "seifert": [], "linking": {}}
  ]
}
"""

HUGE = "1" + "0" * 3000

TREFOIL_DOC = json.dumps(
    {
        "format_version": 1,
        "base_order": 1,
        "components": [
            {
                "name": "l1",
                "seifert": [["-1", "1"], ["0", "-1"]],
                "linking": {},
            }
        ],
    }
)


class TestParse:
    def test_minimal(self):
        doc = parse(MINIMAL)
        assert doc.presentation.base_order == 1
        assert doc.presentation.components[0].seifert == ()
        assert doc.bundle_w2 is None
        assert doc.normalization is None

    def test_trefoil_matches_builder(self):
        doc = parse(TREFOIL_DOC)
        assert doc.presentation.components[0].seifert == TREFOIL

    def test_trefoil_matches_corpus_byte_for_byte(self):
        assert serialize(parse(TREFOIL_DOC)) == serialize(corpus()["trefoil-0"])

    def test_rationals_exact(self):
        text = MINIMAL.replace('"seifert": []', '"seifert": [["-3/7", "1"], ["0", "2"]]')
        doc = parse(text)
        assert doc.presentation.components[0].seifert[0][0] == Fraction(-3, 7)

    def test_parsed_types(self):
        """An integral entry parses to an int, however written; only a
        non-integral one is a Fraction."""
        text = MINIMAL.replace('"seifert": []', '"seifert": [["3", "-0"], ["2/2", "0/5"]]')
        text = text.replace('"linking": {}', '"linking": {"l2": ["-6/4", "12/8"]}')
        c = parse(text).presentation.components[0]
        got = [*c.seifert[0], *c.seifert[1], *c.linking["l2"]]
        assert [(type(x), x) for x in got] == [
            (int, 3), (int, 0), (int, 1), (int, 0),
            (Fraction, Fraction(-3, 2)), (Fraction, Fraction(3, 2)),
        ]

    def test_fractional_documents_round_trip(self):
        for name, doc in fractional_documents().items():
            text = serialize(doc)
            parsed = parse(text)
            assert serialize(parsed) == text, name
            for c in parsed.presentation.components:
                for x in [*(x for row in c.seifert for x in row),
                          *(x for vec in c.linking.values() for x in vec)]:
                    assert type(x) is int or (type(x) is Fraction and x.denominator != 1), name

    def test_optional_fields(self):
        obj = json.loads(TREFOIL_DOC)
        obj["bundle_w2"] = [1]
        obj["normalization"] = "paper-literal"
        doc = parse(json.dumps(obj))
        assert doc.bundle_w2 == (1,)
        assert doc.normalization == "paper-literal"

    def test_round_trip_equality(self):
        doc = parse(TREFOIL_DOC)
        assert parse(serialize(doc)) == doc

    def test_serialize_is_byte_stable(self):
        text = serialize(parse(TREFOIL_DOC))
        assert serialize(parse(text)) == text

    def test_corpus_round_trips(self):
        for name, doc in corpus().items():
            text = serialize(doc)
            assert parse(text) == doc, name
            assert serialize(parse(text)) == text, name
            assert validate(doc.presentation) == [], name

    def test_no_floats_in_serialized_corpus(self):
        for name, doc in corpus().items():
            for token in serialize(doc).replace(",", " ").split():
                assert "." not in token, (name, token)


def indented_dumps(obj):
    """The canonical text by json's pure-Python indenting encoder, the
    construction serialize and serialize_chain must match byte for byte."""
    return json.dumps(obj, indent=2) + "\n"


def as_strings(rows):
    return [[str(x) for x in row] for row in rows]


def dumped_document(doc):
    p = doc.presentation
    obj = {
        "format_version": 1,
        "base_order": p.base_order,
        "components": [
            {"name": c.name, "seifert": as_strings(c.seifert),
             "linking": {other: [str(x) for x in vec] for other, vec in sorted(c.linking.items())}}
            for c in p.components
        ],
    }
    if doc.bundle_w2 is not None:
        obj["bundle_w2"] = list(doc.bundle_w2)
    if doc.normalization is not None:
        obj["normalization"] = doc.normalization
    return indented_dumps(obj)


def dumped_chain(chain):
    return indented_dumps([{"seifert": as_strings(v), "sign": sign} for v, sign in chain.steps])


# quotes, backslashes, control, non-ASCII, astral and lone-surrogate characters
texts = st.text(st.sampled_from('"\\\x00\x1f\x7f/aé€\u2028\U0001f600\ud800\udfff') | st.characters(),
                min_size=1, max_size=6)
exact_numbers = st.integers(-10**40, 10**40) | st.builds(
    Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30))
vectors = st.lists(exact_numbers, max_size=2)
matrices = st.integers(0, 1).flatmap(
    lambda g: st.lists(st.lists(exact_numbers, min_size=2 * g, max_size=2 * g),
                       min_size=2 * g, max_size=2 * g))
components = st.builds(Component, texts, matrices, st.dictionaries(texts, vectors, max_size=2))
documents_ = st.builds(
    PresentationDocument,
    st.builds(SurgeryPresentation, st.integers(1, 10**20), st.lists(components, max_size=2)),
    st.none() | st.lists(st.sampled_from([0, 1]) | st.booleans(), max_size=3).map(tuple),
    st.none() | st.sampled_from(NORMALIZATION_MODES) | texts,
)
chains = st.builds(SurgeryChain, st.lists(st.tuples(matrices, st.sampled_from([-1, 1])), max_size=3))


class TestCanonicalText:
    """serialize and serialize_chain write the bytes of json.dumps(...,
    indent=2) plus a newline, for every document the public constructors
    build."""

    @given(documents_)
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_serialize_is_the_indented_dumps(self, doc):
        assert serialize(doc) == dumped_document(doc)

    @given(chains)
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    def test_serialize_chain_is_the_indented_dumps(self, chain):
        assert serialize_chain(chain) == dumped_chain(chain)

    def test_empty_and_boolean_edges(self):
        empty = Component("\ud800\U0001f600\"\\", (), {})
        unlinked = Component("l2", TREFOIL, {"l1": ()})
        for doc in (PresentationDocument(SurgeryPresentation(1, ())),
                    PresentationDocument(SurgeryPresentation(2, (empty, unlinked)), (True, False),
                                         "paper-literal")):
            assert serialize(doc) == dumped_document(doc)
        assert '"bundle_w2": [\n    true,\n    false\n  ]' in serialize(doc)
        for chain in (SurgeryChain(()), SurgeryChain((((), 1), (TREFOIL, -1)))):
            assert serialize_chain(chain) == dumped_chain(chain)
        assert serialize_chain(SurgeryChain(())) == "[]\n"


@st.composite
def mostly_valid_documents(draw):
    """A document by the public constructors whose presentation often
    validates: distinct names, some of them an int, "" or a lone
    surrogate; each Seifert matrix V with V - V^T the standard symplectic
    form, as conftest.random_seifert builds it; a linking vector of length
    2g against every other name; Fractions only over a base order above
    1; and a valid bundle_w2 and normalization."""
    names = draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True))
    if names and draw(st.integers(0, 3)) == 0:  # about one list in four
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from([1, "", "\ud800"]))
    h = draw(st.integers(1, 3))
    numbers = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9 if h > 1 else 1))
    comps = []
    for name in names:
        n = 2 * draw(st.integers(0, 1))
        v = [[draw(numbers) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(i):
                v[i][k] = v[k][i] - (k % 2 == 0 and i == k + 1)
        linking = {other: draw(st.lists(numbers, min_size=n, max_size=n))
                   for other in names if other != name}
        comps.append(Component(name, v, linking))
    bits = st.lists(st.sampled_from([0, 1]), min_size=len(names), max_size=len(names))
    return PresentationDocument(SurgeryPresentation(h, comps), draw(st.none() | bits.map(tuple)),
                                draw(st.none() | st.sampled_from(NORMALIZATION_MODES)))


class TestRoundTrip:
    @given(mostly_valid_documents())
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    def test_a_valid_presentation_reads_back_as_written(self, doc):
        """parse(serialize(doc)) == doc for every document whose
        presentation validates."""
        assume(validate(doc.presentation) == [])
        assert parse(serialize(doc)) == doc


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(DocumentSyntaxError) as e:
            parse("{")
        assert "line" in str(e.value)

    def test_top_level_not_object(self):
        with pytest.raises(DocumentSchemaError):
            parse("[]")

    def test_unknown_field(self):
        obj = json.loads(TREFOIL_DOC)
        obj["framing"] = 0
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert "framing" in str(e.value)

    def test_missing_field(self):
        with pytest.raises(DocumentSchemaError) as e:
            parse('{"format_version": 1}')
        assert "missing" in str(e.value)

    def test_bad_version(self):
        with pytest.raises(DocumentSchemaError):
            parse(MINIMAL.replace('"format_version": 1', '"format_version": 2'))

    def test_odd_seifert_names_component(self):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["0"] * 3 for _ in range(3)]
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert "l1" in str(e.value) and "odd" in str(e.value)

    def test_non_square_seifert(self):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["0", "1"]]
        with pytest.raises(DocumentSchemaError):
            parse(json.dumps(obj))
        # an even number of rows, so the size check passes and the shape fails
        obj["components"][0]["seifert"] = [["0", "1"], ["0"]]
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].seifert: component 'l1' matrix is not square"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seifert", "0", "components[0].seifert: expected a list of rows"),
            ("name", "", "components[0].name: expected a non-empty string"),
            ("linking", [], "components[0].linking: expected an object"),
            ("linking", {"l2": "0"}, "components[0].linking['l2']: expected a list"),
        ],
        ids=["seifert", "name", "linking", "linking-vector"],
    )
    def test_component_field_types(self, field, value, message):
        obj = json.loads(MINIMAL)
        obj["components"][0][field] = value
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == message

    def test_float_literal_rejected(self):
        with pytest.raises(DocumentValueError):
            parse(MINIMAL.replace('"base_order": 1', '"base_order": 1.0'))

    def test_numeric_matrix_entry_rejected(self):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [[-1, 1], [0, -1]]
        with pytest.raises(DocumentSchemaError):
            parse(json.dumps(obj))

    def test_zero_denominator(self):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["1/0", "0"], ["0", "0"]]
        with pytest.raises(DocumentValueError) as e:
            parse(json.dumps(obj))
        assert "seifert[0][0]" in str(e.value)

    def test_entry_locations(self):
        """The location of a bad entry, in the exact message of the error."""
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["-1", "1"], ["0", "1/0"]]
        with pytest.raises(DocumentValueError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].seifert[1][1]: zero denominator in '1/0'"
        obj["components"][0]["seifert"] = [["-1", "1"], ["0", "-1"]]
        obj["components"][0]["linking"] = {"l2": ["0", 7]}
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == (
            "components[0].linking['l2'][1]: "
            'rationals must be strings like "a" or "a/b", got 7'
        )

    def test_decimal_string_rejected(self):
        obj = json.loads(TREFOIL_DOC)
        obj["components"][0]["seifert"][0][0] = "0.5"
        with pytest.raises(DocumentValueError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].seifert[0][0]: malformed rational '0.5'"

    def test_bundle_w2_length(self):
        obj = json.loads(TREFOIL_DOC)
        obj["bundle_w2"] = [1, 1]
        with pytest.raises(DocumentSchemaError):
            parse(json.dumps(obj))

    def test_bundle_w2_bits(self):
        obj = json.loads(TREFOIL_DOC)
        obj["bundle_w2"] = [2]
        with pytest.raises(DocumentSchemaError):
            parse(json.dumps(obj))

    def test_bad_normalization(self):
        obj = json.loads(TREFOIL_DOC)
        obj["normalization"] = "fast"
        with pytest.raises(DocumentSchemaError):
            parse(json.dumps(obj))

    @pytest.mark.parametrize(
        "text, parsing",
        [
            (MINIMAL.replace('"base_order": 1', '"base_order": ' + "9" * 5000),
             pytest.raises(DocumentValueError)),
            (MINIMAL.replace('"seifert": []',
                             '"seifert": [["1/' + "9" * 5000 + '", "1"], ["0", "0"]]'),
             pytest.raises(DocumentValueError)),
            ("[" * 100000 + "]" * 100000, pytest.raises(DocumentSyntaxError)),
            # valid, but the Alexander polynomial has 6001-digit coefficients
            pytest.param(
                MINIMAL.replace('"seifert": []',
                                f'"seifert": [["{HUGE}", "1"], ["0", "{HUGE}"]]'),
                contextlib.nullcontext(),
                marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                         reason="no int-to-str digit limit"),
            ),
            # the trefoil in Arabic-Indic and in fullwidth digits
            (MINIMAL.replace('"seifert": []', '"seifert": [["-\u0661", "\u0661"], ["0", "-1"]]'),
             pytest.raises(DocumentValueError)),
            (MINIMAL.replace('"seifert": []', '"seifert": [["-1", "\uff11"], ["0", "-1"]]'),
             pytest.raises(DocumentValueError)),
            # a lone surrogate, which no output can encode, written as ASCII escape text
            (MINIMAL.replace('"l1"', '"\\ud800"'),
             pytest.raises(DocumentSchemaError, match=r"^components\[0\]\.name: not valid text$")),
            # the trefoil, whose repeated base_order would make h = 3
            (MINIMAL.replace('"base_order": 1', '"base_order": 1, "base_order": 3')
                    .replace('"seifert": []', '"seifert": [["-1", "1"], ["0", "-1"]]'),
             pytest.raises(DocumentSchemaError, match=r"^duplicate field 'base_order'$")),
            # two unknots, whose repeated linking vector would drop the first one
            (MINIMAL.replace('"linking": {}}', '"linking": {"l2": [], "l2": []}},\n'
                             '    {"name": "l2", "seifert": [], "linking": {"l1": []}}'),
             pytest.raises(DocumentSchemaError, match=r"^duplicate field 'l2'$")),
        ],
        ids=["huge-base-order", "huge-rational", "deep-nesting", "huge-result",
             "arabic-indic-digits", "fullwidth-digits", "surrogate-name",
             "repeated-base-order", "repeated-linking"],
    )
    def test_hostile_input_exits_2(self, text, parsing, tmp_path, capsys):
        """Inputs that crashed the parser or the output end in exit 2 and one error line."""
        with parsing:
            parse(text)
        f = tmp_path / "hostile.json"
        f.write_text(text, encoding="utf-8")
        for command in ("verify", "alexander", "chi", "lescop"):
            assert run([command, str(f)]) == 2, command
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, command
            assert "Traceback" not in err

    def test_huge_integer_names_its_field(self):
        with pytest.raises(DocumentValueError) as e:
            parse(MINIMAL.replace('"format_version": 1', '"format_version": ' + "9" * 5000))
        assert str(e.value).startswith("format_version:")

    def test_error_hierarchy(self):
        for exc in (DocumentSyntaxError, DocumentSchemaError, DocumentValueError):
            assert issubclass(exc, DocumentError)
        assert issubclass(DocumentValueError, ValueError)


def genus_one_document(components=9, seed=20):
    """Text of a seeded presentation of genus-1 components, every linking
    vector drawn from -3..3."""
    rng = seeded(seed)
    names = [f"l{i + 1}" for i in range(components)]
    comps = [Component(name, random_seifert(rng, 1),
                       {other: (rng.randint(-3, 3), rng.randint(-3, 3))
                        for other in names if other != name})
             for name in names]
    return serialize(PresentationDocument(SurgeryPresentation(1, tuple(comps))))


def entry_strings(text):
    """Every Seifert and linking entry string of a document, in order."""
    out = []
    for c in json.loads(text)["components"]:
        out += [x for row in c["seifert"] for x in row]
        out += [x for vec in c["linking"].values() for x in vec]
    return out


class TestEntryMemo:
    """parse converts each distinct entry string once per document, and
    keeps nothing between calls."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []
        rational = documents._rational

        def counted(s):
            calls.append(s)
            return rational(s)

        monkeypatch.setattr(documents, "_rational", counted)
        return calls

    @pytest.mark.parametrize("text", [genus_one_document(), dense_knot_document(10)],
                             ids=["9-components", "genus-10-knot"])
    def test_one_conversion_per_distinct_string(self, text, conversions):
        entries = entry_strings(text)
        distinct = set(entries)
        assert len(entries) > 2 * len(distinct)
        first = parse(text)
        assert sorted(conversions) == sorted(distinct)
        # a second parse of the same text converts every string again
        conversions.clear()
        assert parse(text) == first
        assert sorted(conversions) == sorted(distinct)

    def test_chain_converts_each_string_once(self, conversions):
        text = serialize_chain(SurgeryChain(((TREFOIL, -1),) * 3))
        parse_chain(text)
        assert sorted(conversions) == ["-1", "0", "1"]

    @pytest.mark.parametrize("bad, error, message", [
        ("1/0", DocumentValueError, "zero denominator in '1/0'"),
        ("0.5", DocumentValueError, "malformed rational '0.5'"),
        ("\u0663", DocumentValueError, "malformed rational '\u0663'"),
    ], ids=["zero-denominator", "decimal", "arabic-indic"])
    def test_repeated_bad_string_fails_at_its_first_location(self, bad, error, message):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["-1", "1"], ["0", bad]]
        obj["components"][0]["linking"] = {"l2": [bad, "1"]}
        with pytest.raises(error) as e:
            parse(json.dumps(obj))
        assert str(e.value) == f"components[0].seifert[1][1]: {message}"

    @pytest.mark.parametrize("entry, shown", [(3, "3"), (True, "True"), (["3"], "['3']")],
                             ids=["number", "true", "list"])
    def test_non_string_after_a_known_string_fails_at_its_location(self, entry, shown):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["3", "3"], ["3", "3"]]
        obj["components"][0]["linking"] = {"l2": ["3", entry]}
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == (
            "components[0].linking['l2'][1]: "
            f'rationals must be strings like "a" or "a/b", got {shown}'
        )


class TestMapPath:
    """parse reads each row and vector in one map over the document's memo;
    what that map would accept or misplace still fails at its location."""

    def test_string_vector_is_not_read_as_its_characters(self):
        obj = json.loads(MINIMAL)
        obj["components"][0]["linking"] = {"l2": "12"}
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].linking['l2']: expected a list"

    def test_string_row_is_not_read_as_its_characters(self):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = ["12", "34"]
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].seifert: component 'l1' matrix is not square"

    @pytest.mark.parametrize("entry, shown", [([], "[]"), ({}, "{}"), ([["1"]], "[['1']]")],
                             ids=["list", "object", "nested"])
    @pytest.mark.parametrize("field", ["seifert", "linking"])
    def test_unhashable_entry_fails_at_its_location(self, field, entry, shown):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["1", "1"], ["0", "1"]]
        if field == "seifert":
            obj["components"][0]["seifert"][1][0] = entry
            where = "seifert[1][0]"
        else:
            obj["components"][0]["linking"] = {"l2": ["1", "0"], "l3": [entry, "1"]}
            where = "linking['l3'][0]"
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == (
            f"components[0].{where}: "
            f'rationals must be strings like "a" or "a/b", got {shown}'
        )

    @pytest.mark.parametrize("entry, shown", [(3, "3"), (True, "True"), (["3"], "['3']")],
                             ids=["number", "true", "list"])
    def test_non_string_in_a_row_after_a_known_string_fails_at_its_location(self, entry, shown):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["3", "3"], ["3", entry]]
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == (
            "components[0].seifert[1][1]: "
            f'rationals must be strings like "a" or "a/b", got {shown}'
        )

    def test_first_failing_vector_is_named(self):
        """A bad entry in an earlier vector is reported before a later
        vector that is not a list, as a loop over the vectors finds them."""
        obj = json.loads(MINIMAL)
        obj["components"][0]["linking"] = {"l2": ["1", "x"], "l3": "12"}
        with pytest.raises(DocumentValueError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].linking['l2'][1]: malformed rational 'x'"
        obj["components"][0]["linking"] = {"l2": "12", "l3": ["1", "x"]}
        with pytest.raises(DocumentSchemaError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].linking['l2']: expected a list"
        obj["components"][0]["seifert"] = [["1", "x"], ["0"]]
        with pytest.raises(DocumentValueError) as e:
            parse(json.dumps(obj))
        assert str(e.value) == "components[0].seifert[0][1]: malformed rational 'x'"


# entry -> (exception type, message) that an entry of this kind gives
BAD_ENTRIES = [
    *((x, DocumentSchemaError, f'rationals must be strings like "a" or "a/b", got {x!r}')
      for x in (3, -1, True, None, [], {}, ["1"])),
    *((x, DocumentValueError, f"malformed rational {x!r}")
      for x in ("0.5", "x", "", "1/", "+1", " 1", "1/-2", "\u0663")),
    *((x, DocumentValueError, f"zero denominator in {x!r}") for x in ("1/0", "-3/0", "0/0")),
    *((x, DocumentValueError, f"rational of {len(x)} characters is too long")
      for x in ("9" * 5000, "-" + "1" * 4400)),
]


class TestFirstDefect:
    """One or two defects planted in seeded documents and chain files
    fail as the first in document order: components, then within each
    its Seifert rows, then its linking vectors, and a row's or vector's
    shape before its entries."""

    @staticmethod
    def sites(items, chain):
        """(order key, where, kind, parent, index, shape message) of each row
        and linking vector, parent[index], of the components or steps of a
        loaded document or chain, in document order."""
        out = []
        for i, item in enumerate(items):
            where, owner = (f"steps[{i}].seifert", f"step {i}") if chain else (
                f"components[{i}].seifert", f"component {item['name']!r}")
            for r in range(len(item["seifert"])):
                out.append(((i, 0, r), f"{where}[{r}]", "row", item["seifert"], r,
                            f"{where}: {owner} matrix is not square"))
            for v, other in enumerate({} if chain else item["linking"]):
                where = f"components[{i}].linking[{other!r}]"
                out.append(((i, 1, v), where, "vector", item["linking"], other,
                            f"{where}: expected a list"))
        return out

    def plant(self, rng, items, chain):
        """Plant one or two defects in items, the second often in the same
        matrix or set of vectors as the first; the (type, message) of the
        first in document order."""
        defects = {}
        key = None
        for _ in range(rng.choice((1, 2))):
            sites = [s for s in self.sites(items, chain) if type(s[3][s[4]]) is list]
            if key is not None and rng.random() < 0.5:
                sites = [s for s in sites if s[0][:2] == key[:2]] or sites
            key, where, kind, parent, index, shape_message = rng.choice(sites)
            values = parent[index]
            shape = rng.random() < 0.3 or not values
            if shape and kind == "row" and rng.random() < 0.5:
                values.pop()  # a short row
            elif shape:
                parent[index] = rng.choice(("12", 3, None, {}))
            if shape:
                defects[(*key, 0, 0)] = (DocumentSchemaError, shape_message)
            else:
                k = rng.randrange(len(values))
                values[k], error, message = rng.choice(BAD_ENTRIES)
                defects[(*key, 1, k)] = (error, f"{where}[{k}]: {message}")
        return defects[min(defects)]

    def test_seeded_documents_fail_at_their_first_defect(self):
        rng = seeded(3301)
        texts = [(serialize(doc), False) for doc in corpus().values()]
        texts += [(serialize(PresentationDocument(random_presentation(rng, n, h=h))), False)
                  for n in range(1, 5) for h in (1, 2) for _ in range(3)]
        texts += [(serialize_chain(SurgeryChain(
            [(random_seifert(rng, rng.randint(1, 2)), rng.choice((-1, 1)))
             for _ in range(rng.randint(1, 3))])), True) for _ in range(8)]
        planted = 0
        for _ in range(400):
            text, chain = rng.choice(texts)
            obj = json.loads(text)
            items = obj if chain else obj["components"]
            if not any(item["seifert"] or item.get("linking") for item in items):
                continue  # nothing to plant in
            error, message = self.plant(rng, items, chain)
            with pytest.raises(DocumentError) as e:
                (parse_chain if chain else parse)(json.dumps(obj))
            assert (type(e.value), str(e.value)) == (error, message)
            planted += 1
        assert planted >= 300


def public_components(text):
    """The components of a document built by the public, checking
    Component constructor from Fraction(s) of its entry strings."""
    return tuple(
        Component(c["name"], [[Fraction(x) for x in row] for row in c["seifert"]],
                  {other: [Fraction(x) for x in vec] for other, vec in c["linking"].items()})
        for c in json.loads(text)["components"]
    )


class TestOneExactnessPass:
    """parse stores its entries unchecked, and they are what the public,
    checking Component would store: equal values of equal types."""

    def assert_as_public(self, text):
        parsed = parse(text).presentation.components
        public = public_components(text)
        assert parsed == public
        assert repr(parsed) == repr(public)

    def test_corpus(self):
        for doc in corpus().values():
            self.assert_as_public(serialize(doc))

    def test_seeded_rational_documents(self):
        rng = seeded(23)
        for n in range(1, 6):
            for _ in range(4):
                self.assert_as_public(serialize(PresentationDocument(rational_presentation(rng, n))))

    def test_integral_and_reduced_entries(self):
        obj = json.loads(MINIMAL)
        obj["components"][0]["seifert"] = [["2/2", "4/6"], ["-0", "-3/1"]]
        obj["components"][0]["linking"] = {"l2": ["-3/1", "2/2"]}
        text = json.dumps(obj)
        self.assert_as_public(text)
        c = parse(text).presentation.components[0]
        assert [(type(x), x) for row in c.seifert for x in row] == [
            (int, 1), (Fraction, Fraction(2, 3)), (int, 0), (int, -3)]
        assert [(type(x), x) for x in c.linking["l2"]] == [(int, -3), (int, 1)]

    def test_public_component_still_checks(self):
        with pytest.raises(TypeError, match="got float"):
            Component("l1", [[0.5, 1], [0, -1]], {})
        with pytest.raises(TypeError, match="got float"):
            Component("l1", TREFOIL, {"l2": (1.0, 0)})


class TestChains:
    def test_round_trip(self):
        text = json.dumps(
            [
                {"seifert": [["-1", "1"], ["0", "-1"]], "sign": -1},
                {"seifert": [["1", "1"], ["0", "-1"]], "sign": 1},
            ]
        )
        chain = parse_chain(text)
        assert isinstance(chain, SurgeryChain)
        assert chain.steps[0][1] == -1
        assert parse_chain(serialize_chain(chain)) == chain

    def test_top_level_must_be_list(self):
        with pytest.raises(DocumentSchemaError):
            parse_chain("{}")

    def test_bad_sign(self):
        with pytest.raises(DocumentSchemaError):
            parse_chain('[{"seifert": [], "sign": 0}]')

    def test_repeated_field(self, tmp_path, capsys):
        text = '[{"seifert": [], "sign": 1, "sign": -1}]'
        with pytest.raises(DocumentSchemaError, match=r"^duplicate field 'sign'$"):
            parse_chain(text)
        f = tmp_path / "repeated.json"
        f.write_text(text)
        assert run(["casson", str(f)]) == 2
        assert capsys.readouterr().err == "error: duplicate field 'sign'\n"

    def test_non_square(self):
        with pytest.raises(DocumentSchemaError):
            parse_chain('[{"seifert": [["1", "0"]], "sign": 1}]')

    def test_odd_size(self, tmp_path, capsys):
        text = '[{"seifert": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]], "sign": 1}]'
        with pytest.raises(DocumentSchemaError) as e:
            parse_chain(text)
        assert "step 0 has odd size 3" in str(e.value)
        f = tmp_path / "odd.json"
        f.write_text(text)
        assert run(["casson", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: steps[0].seifert: step 0 has odd size 3")

    def test_unknown_step_field(self):
        with pytest.raises(DocumentSchemaError):
            parse_chain('[{"seifert": [], "sign": 1, "frame": 0}]')
