"""Presentation file format: strict JSON with exact rational strings.

Presentations encode exact mathematical objects, so the schema is strict:
unknown or repeated fields are errors, every rational number is a string
"a" or "a/b" with b > 0, and floating-point literals are rejected anywhere
in the document.  An entry parses by the rule of ring.exact: an integral
one ("3", "-0", "2/2") to an int, any other ("4/6") to a reduced
Fraction.  Each distinct entry string is converted once per document:
parse and parse_chain keep one _Memo, string -> value, for the call, so
the 0, +-1 and small entries that fill a document are read once each,
and nothing is kept between calls.  Each reader walks its rows, and its
linking vectors, once, in document order: it checks that a row is a
list of the matrix's size, or a vector a list, then reads it in C as
tuple(map(memo.__getitem__, row)); only when that raises does _locate go
over that one list again to name the failing entry.  So the first defect
in document order is the one reported, a list's shape before its
entries.  Between text and validate an entry thus passes one check, the
pattern match of its first occurrence, and one conversion; a repeat is
one dict lookup.  parse builds each component, and parse_chain its
chain, by ring._Record._trusted, which stores the values it is given by
field name as they are; the public Component(...) and SurgeryChain(...)
check every value they are given by ring.exact.  When the memo holds no
Fraction, so that every entry of the document is an int, parse keeps
each component's integral form (1, V, E) by presentation._keep_int_form,
and validate and the invariants read it with no scan of the entries'
types.  The text is decoded by one json.JSONDecoder per process, and the
strings that locate an error are built only when one is raised.
serialize() writes the canonical text: the bytes of json.dumps(obj,
indent=2) plus a newline, for obj with the fields in the order shown
below, the optional ones only when set, each component's "linking"
sorted by name, names escaped as under ensure_ascii, and each entry the
str of its exact number ("-3", "1/2").  It builds that text by C-level
joins, not by json's pure-Python indenting encoder.  serialize_chain
does the same for a chain, so serialize(parse(text)) is byte-stable
under further round trips.  serialize checks bundle_w2 and
normalization by parse's own check, _options, so it writes no document
that parse rejects on those fields.

Document shape::

    {
      "format_version": 1,
      "base_order": 1,
      "components": [
        {"name": "l1",
         "seifert": [["-1", "1"], ["0", "-1"]],
         "linking": {"l2": ["0", "0"]}}
      ],
      "bundle_w2": [1, 1],            // optional
      "normalization": "derived"      // optional
    }

Chain files are a JSON list of {"seifert": [[...]], "sign": -1 | 1}.
"""

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .invariants import NORMALIZATION_MODES, SurgeryChain
from .presentation import Component, SurgeryPresentation, _keep_int_form, _name_defect
from .ring import _Record

FORMAT_VERSION = 1


class DocumentError(Exception):
    """Base of all input-document failures (exit code 2 in the CLI)."""


class DocumentSyntaxError(DocumentError):
    """The text is not well-formed JSON."""


class DocumentSchemaError(DocumentError):
    """Unknown, repeated, missing, or ill-typed fields."""


class DocumentValueError(DocumentError, ValueError):
    """A rational string is malformed, e.g. "1/0" or "0.5"."""


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)


def _rational(s):
    """The number a string "a" or "a/b" denotes, by the rule of ring.exact:
    an int when it is integral ("-0", "2/2"), else a Fraction; errors
    name no location."""
    if not isinstance(s, str):
        raise DocumentSchemaError(f"rationals must be strings like \"a\" or \"a/b\", got {s!r}")
    match = _RATIONAL_RE.fullmatch(s)
    if not match:
        raise DocumentValueError(f"malformed rational {s!r}")
    num, den = match.groups()
    try:
        if den is None:
            return int(num)
        value = Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise DocumentValueError(f"zero denominator in {s!r}") from None
    except ValueError:  # more digits than int() converts
        raise DocumentValueError(f"rational of {len(s)} characters is too long") from None
    return value.numerator if value.denominator == 1 else value  # ring.exact's rule


class _Memo(dict):
    """Entry string -> value, for one document: memo[s] converts and keeps
    a string it lacks by _rational, where anything else fails too."""

    def __missing__(self, s):
        value = self[s] = _rational(s)
        return value


def _locate(values, where, memo):
    """Raise, as at where[k], the error of the first entry k of values that
    does not convert; a non-string never reaches memo, so fails at its own."""
    for k, x in enumerate(values):
        try:
            memo[x] if type(x) is str else _rational(x)
        except DocumentError as e:
            raise type(e)(f"{where}[{k}]: {e}") from None


class _LongInteger:
    """An integer literal with more digits than int() converts; the schema
    rejects it where it reads an integer, naming the field."""

    def __repr__(self):
        return "<integer literal with more digits than int() converts>"


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        return _LongInteger()


def _no_float(text):
    raise DocumentValueError(
        f"floating-point literal {text!r}; write rationals as strings"
    )


def _fields(pairs):
    """A JSON object as a dict; a repeated field is an error, where
    json.loads would keep the last value silently."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        names = [name for name, _ in pairs]
        repeated = next(name for k, name in enumerate(names) if name in names[:k])
        raise DocumentSchemaError(f"duplicate field {repeated!r}")
    return fields


# One decoder for the process: json.loads with hook arguments builds a new
# one on every call.
_DECODER = json.JSONDecoder(parse_int=_parse_int, parse_float=_no_float,
                            parse_constant=_no_float, object_pairs_hook=_fields)


def _loads(text):
    """The JSON value of text, by _DECODER; a leading BOM fails as under
    json.loads, which checks for it before decoding."""
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DocumentSyntaxError("arrays or objects are nested too deeply") from None


def _require_keys(obj, required, optional, where):
    """Raise unless obj is an object with every field of the set required,
    no other but those of optional; where() names obj in the error, so
    the name is built only on failure."""
    if isinstance(obj, dict) and obj.keys() == required:  # every required field and no other
        return
    if not isinstance(obj, dict):
        raise DocumentSchemaError(f"{where()}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - required - set(optional))
    if unknown:
        raise DocumentSchemaError(f"{where()}: unknown fields {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise DocumentSchemaError(f"{where()}: missing fields {missing}")


def _strict_int(x, where):
    if isinstance(x, _LongInteger):
        raise DocumentValueError(f"{where}: {x!r}")
    if type(x) is not int:
        raise DocumentSchemaError(f"{where}: expected an integer, got {x!r}")
    return x


class PresentationDocument(_Record):
    __match_args__ = ("presentation", "bundle_w2", "normalization")

    def __init__(self, presentation, bundle_w2=None, normalization=None):
        vars(self).update(
            presentation=presentation, bundle_w2=bundle_w2, normalization=normalization
        )


def _parse_seifert(seifert, memo, where):
    """Rows of an even-sized square Seifert matrix, from memo, the
    document's _Memo; where() gives the (location, owner) that name it in
    an error, built only then."""
    if not isinstance(seifert, list):
        raise DocumentSchemaError(f"{where()[0]}: expected a list of rows")
    n = len(seifert)
    if n % 2 != 0:
        at, owner = where()
        raise DocumentSchemaError(f"{at}: {owner} has odd size {n}; Seifert matrices have even size")
    rows = []
    for r, row in enumerate(seifert):
        if type(row) is not list or len(row) != n:
            at, owner = where()
            raise DocumentSchemaError(f"{at}: {owner} matrix is not square")
        try:
            rows.append(tuple(map(memo.__getitem__, row)))
        except (DocumentError, TypeError):
            _locate(row, f"{where()[0]}[{r}]", memo)
    return tuple(rows)


_COMPONENT_FIELDS = {"name", "seifert", "linking"}


def _parse_component(obj, i, memo):
    """The i-th component; its location strings are built only for an error."""
    _require_keys(obj, _COMPONENT_FIELDS, (), lambda: f"components[{i}]")
    name = obj["name"]
    defect = _name_defect(name)
    if defect is not None:
        raise DocumentSchemaError(f"components[{i}].name: {defect}")
    rows = _parse_seifert(obj["seifert"], memo,
                          lambda: (f"components[{i}].seifert", f"component {name!r}"))
    linking_obj = obj["linking"]
    if not isinstance(linking_obj, dict):
        raise DocumentSchemaError(f"components[{i}].linking: expected an object")
    linking = {}
    for other, vec in linking_obj.items():
        if type(vec) is not list:
            raise DocumentSchemaError(f"components[{i}].linking[{other!r}]: expected a list")
        try:
            linking[other] = tuple(map(memo.__getitem__, vec))
        except (DocumentError, TypeError):
            _locate(vec, f"components[{i}].linking[{other!r}]", memo)
    return Component._trusted(name=name, seifert=rows, linking=MappingProxyType(linking))


def _options(fields, count):
    """(bundle_w2, normalization) from the optional fields that the mapping
    fields sets, each None when it is absent: bundle_w2 as a tuple of
    count 0/1 ints, one per component, and normalization one of
    NORMALIZATION_MODES.  Any other value raises DocumentSchemaError.
    parse checks a document's fields by it, and serialize a document's
    values, so serialize writes no text that parse rejects."""
    bundle_w2 = normalization = None
    if "bundle_w2" in fields:
        raw = fields["bundle_w2"]
        if not isinstance(raw, (list, tuple)) or any(
            type(b) is not int or b not in (0, 1) for b in raw
        ):
            raise DocumentSchemaError("bundle_w2: expected a list of 0/1 bits")
        if len(raw) != count:
            raise DocumentSchemaError(f"bundle_w2: has {len(raw)} bits for {count} components")
        bundle_w2 = tuple(raw)
    if "normalization" in fields:
        normalization = fields["normalization"]
        if normalization not in NORMALIZATION_MODES:
            raise DocumentSchemaError(
                f"normalization: expected one of {list(NORMALIZATION_MODES)}, "
                f"got {normalization!r}"
            )
    return bundle_w2, normalization


_DOCUMENT_FIELDS = {"format_version", "base_order", "components"}


def parse(text):
    """Parse a presentation document; errors carry line/field context."""
    data = _loads(text)
    _require_keys(data, _DOCUMENT_FIELDS, ("bundle_w2", "normalization"), lambda: "document")
    version = _strict_int(data["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise DocumentSchemaError(
            f"format_version: unsupported version {version}, expected {FORMAT_VERSION}"
        )
    base_order = _strict_int(data["base_order"], "base_order")
    if base_order < 1:
        raise DocumentSchemaError(f"base_order: must be positive, got {base_order}")
    if not isinstance(data["components"], list):
        raise DocumentSchemaError("components: expected a list")
    memo = _Memo()
    components = tuple(
        _parse_component(obj, i, memo) for i, obj in enumerate(data["components"])
    )
    if Fraction not in map(type, memo.values()):  # every entry is an int
        for c in components:
            _keep_int_form(c)
    bundle_w2, normalization = _options(data, len(components))
    return PresentationDocument(
        presentation=SurgeryPresentation(base_order=base_order, components=components),
        bundle_w2=bundle_w2,
        normalization=normalization,
    )


_PADS = tuple("\n" + "  " * depth for depth in range(5))  # a document nests 4 deep


def _indented(items, depth, brackets="[]", quote=""):
    """The text json.dumps(..., indent=2) writes, at nesting depth, for a
    list, or with brackets "{}" an object, of items encoded already; with
    quote '"' each item is the str of an exact number, which needs no
    escape, quoted in the one C-level join."""
    pad = _PADS[depth]
    body = f"{quote},{pad}  {quote}".join(items)
    return f"{brackets[0]}{pad}  {quote}{body}{quote}{pad}{brackets[1]}" if body else brackets


def _matrix(rows, depth):
    return _indented([_indented(map(str, row), depth + 1, "[]", '"') for row in rows], depth)


def serialize(doc):
    """The canonical text of a document: the bytes of json.dumps(obj,
    indent=2) + "\n" for obj with the fields in the module docstring's
    order, the optional ones only when set, "linking" sorted by name and
    each entry the str of its exact number.  Names are escaped by json's
    ensure_ascii function, encode_basestring_ascii (in C), and every other
    scalar by json.dumps without indent; no pure-Python encoder runs.
    A bundle_w2 or normalization that parse would reject, such as a bool
    bit, raises DocumentSchemaError with parse's message (_options)."""
    p = doc.presentation
    optional = {name: value for name in ("bundle_w2", "normalization")
                if (value := getattr(doc, name)) is not None}
    bundle_w2, normalization = _options(optional, len(p.components))
    components = []
    for c in p.components:
        linking = [encode_basestring_ascii(other) + ": " + _indented(map(str, vec), 4, "[]", '"')
                   for other, vec in sorted(c.linking.items())]
        components.append(_indented(['"name": ' + encode_basestring_ascii(c.name),
                                     '"seifert": ' + _matrix(c.seifert, 3),
                                     '"linking": ' + _indented(linking, 3, "{}")], 2, "{}"))
    fields = [f'"format_version": {FORMAT_VERSION}', '"base_order": ' + json.dumps(p.base_order),
              '"components": ' + _indented(components, 1)]
    if bundle_w2 is not None:
        fields.append('"bundle_w2": ' + _indented(map(str, bundle_w2), 1))
    if normalization is not None:
        fields.append('"normalization": ' + json.dumps(normalization))
    return _indented(fields, 0, "{}") + "\n"


_STEP_FIELDS = {"seifert", "sign"}


def parse_chain(text):
    """Parse a surgery-chain file: a JSON list of {seifert, sign} steps."""
    data = _loads(text)
    if not isinstance(data, list):
        raise DocumentSchemaError("chain: expected a top-level list of steps")
    steps = []
    memo = _Memo()
    for i, obj in enumerate(data):
        _require_keys(obj, _STEP_FIELDS, (), lambda: f"steps[{i}]")
        sign = obj["sign"]
        if type(sign) is not int or sign not in (-1, 1):
            raise DocumentSchemaError(f"steps[{i}].sign: expected -1 or 1, got {sign!r}")
        steps.append((_parse_seifert(obj["seifert"], memo,
                                     lambda: (f"steps[{i}].seifert", f"step {i}")), sign))
    return SurgeryChain._trusted(steps=tuple(steps))


def serialize_chain(chain):
    """The canonical text of a chain, by serialize's rule: json.dumps(...,
    indent=2) of its list of {"seifert", "sign"} steps, plus a newline."""
    steps = [_indented(['"seifert": ' + _matrix(v, 2), '"sign": ' + json.dumps(sign)], 1, "{}")
             for v, sign in chain.steps]
    return _indented(steps, 0) + "\n"
