"""Command-line interface.

Exit codes: 0 on success, 1 when a mathematical invariant or cross-route
agreement fails, 2 on input errors (malformed documents, unknown
components, bad arguments) and when the reader of standard output has
closed (see main).  Diagnostics go to standard error.  The table of
tests/test_exit_codes.py checks each exit code and stream condition in a
new process.

Each subcommand states its result once, as a JSON payload in which all
exact rationals are strings ("a/b") and all integers are JSON integers,
and hands it to _emit, the one function that writes a result to
standard output, at most once per run.  Under --json _emit prints the
payload; otherwise it prints the human form, by default one
"key = value" line per payload field.  A subcommand whose human form
differs (alexander, sato-levine, lens, chi, verify and examples)
passes its lines beside the payload.  Only `examples NAME` writes
something else: a document, which is not a payload.  verify keeps only
the loop over its files and the formatting: each file's checks are the
records of floer.cross_checks.

The parser is built once per process, and with it a table of the
Actions that each subcommand's add_argument calls returned.  run builds
the Namespace of a plain argv itself, from that table: every option an
exact option string of the subcommand, given once; a value-taking one
followed by one value that does not start with "-" and passes the
option's own type and choices; every required option present; and the
positionals one contiguous run, taken by a positional of one string or
of one or more.  Any other argv (help, --opt=value, abbreviations, "--",
"-", negative numbers, repeats, the optional NAME of examples, a value
that fails) goes to the top-level parser's parse_args.  So argparse
alone writes help, usage and errors, and both ways give the Namespace
of the two-level parse.  Each subcommand is dispatched by name to the
module's cmd_* function at call time, so rebinding one (as a tracer or a
test does) takes effect on the next run.

sato-levine and mu2 print the derived value the library returns, read
in the normalization mode of invariants.normalized that _resolve_mode
picks: "derived" by default; the environment variable
LESCOP_NORMALIZATION may change the default, and a document's
"normalization" field overrides both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from . import documents, floer, invariants, lens, presentation, ring
from .corpus import corpus as builtin_corpus
from .corpus import descriptions as corpus_descriptions

ENV_NORMALIZATION = "LESCOP_NORMALIZATION"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2


class CliInputError(Exception):
    """Bad command usage that is not a document error (exit code 2)."""


def _err(msg, label="error"):
    """Print the diagnostic line "label: msg" on standard error.  A line
    that cannot be written, as to a closed reader, is dropped, and main's
    last flush drops what is left of it."""
    try:
        print(f"{label}: {msg}", file=sys.stderr)
    except OSError:
        pass


def _emit(args, payload, lines=None):
    """Print a subcommand's result: the payload under --json, else the
    human lines, by default one "key = value" line per payload field."""
    if args.json:
        print(json.dumps(payload))
        return
    if lines is None:
        lines = [f"{key} = {value}" for key, value in payload.items()]
    for line in lines:
        print(line)


def _read(path):
    """The text of the file that Path(path).read_text reads, by open.
    Path names the file by its normalised name ("x/" and "x/." name x,
    "" names "."), so when the name as given fails to open, the
    normalised one is opened, and its error is the one reported."""
    try:
        try:
            f = open(path, encoding="utf-8")
        except OSError:
            f = open(Path(path), encoding="utf-8")
        with f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {path}: {e}") from None


def _resolve_mode(doc):
    mode = os.environ.get(ENV_NORMALIZATION)
    if mode is not None and mode not in invariants.NORMALIZATION_MODES:
        raise CliInputError(
            f"{ENV_NORMALIZATION} must be one of {list(invariants.NORMALIZATION_MODES)}, "
            f"got {mode!r}"
        )
    if doc.normalization is not None:
        mode = doc.normalization
    return mode or invariants.DERIVED


def _bundle(doc):
    if doc.bundle_w2 is None:
        return None
    return floer.BundleSpec(w2=doc.bundle_w2)


def cmd_alexander(args):
    doc = documents.parse(_read(args.file))
    p = doc.presentation
    if args.component is None and not p.components:
        raise invariants.WrongComponentCountError("document has no components")
    comp = p.components[0].name if args.component is None else args.component
    poly = invariants.alexander(p, comp)
    display = str(poly)
    d2 = str(poly.second_derivative_at_one())
    _emit(
        args,
        {
            "component": comp,
            "alexander": {ring.exponent_str(k): str(c) for k, c in poly.terms.items()},
            "display": display,
            "delta2_at_1": d2,
        },
        # a generator, so that --json formats no line
        (f"{key} = {value}"
         for key, value in (("component", comp), ("alexander", display), ("delta2_at_1", d2))),
    )
    return EXIT_OK


_LESCOP_ROUTES = {
    1: "Delta''(1)/2 - h/12",
    2: "-h * sato_levine",
    3: "h * mu_squared",
}


def cmd_lescop(args):
    doc = documents.parse(_read(args.file))
    p = doc.presentation
    n = len(p.components)
    value = invariants.lescop(p)
    route = _LESCOP_ROUTES.get(n, "vanishes for b1 >= 4")
    _emit(
        args,
        {
            "lescop": str(value),
            "b1": n,
            "torsion_order": p.base_order,
            "route": route,
        },
    )
    return EXIT_OK


def cmd_sato_levine(args):
    doc = documents.parse(_read(args.file))
    p = doc.presentation
    mode = _resolve_mode(doc)
    both = invariants.normalized(invariants.sato_levine(p), p.base_order)
    value = both[mode]
    disagree = len(set(both.values())) > 1
    payload = {"sato_levine": str(value), "mode": mode, "mode_mismatch": disagree}
    lines = [f"sato_levine = {value}", f"mode = {mode}"]
    if disagree:
        payload["modes"] = {m: str(v) for m, v in both.items()}
        _err("normalization modes disagree: " + ", ".join(f"{m}={v}" for m, v in both.items()),
             "warning")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_mu2(args):
    doc = documents.parse(_read(args.file))
    p = doc.presentation
    mode = _resolve_mode(doc)
    value = invariants.normalized(invariants.milnor_mu_squared(p), p.base_order)[mode]
    _emit(args, {"mu_squared": str(value), "mode": mode})
    return EXIT_OK


def cmd_chi(args):
    doc = documents.parse(_read(args.file))
    p = doc.presentation
    bundle = _bundle(doc)
    reports = {}
    if args.route in ("closed", "both"):
        reports[floer.CLOSED_FORM] = floer.chi_closed_form(p, bundle)
    if args.route in ("triangle", "both"):
        reports[floer.TRIANGLE] = floer.chi_via_triangle(p, bundle)
    any_report = next(iter(reports.values()))
    payload = {
        "routes": {route: r.chi for route, r in reports.items()},
        "ambiguity": any_report.ambiguity,
        "bundle_w2": list(any_report.bundle.w2),
    }
    code = EXIT_OK
    if len(reports) == 2:
        payload["agree"] = len({r.chi for r in reports.values()}) == 1
        if not payload["agree"]:
            _err(f"routes disagree: {payload['routes']}")
            code = EXIT_INVARIANT

    def lines():  # a generator, so that --json formats no line
        for route, r in reports.items():
            yield f"chi[{route}] = {r.chi}"
        yield f"ambiguity = {any_report.ambiguity}"
        if payload.get("agree"):
            yield "routes agree"

    _emit(args, payload, lines())
    return code


def cmd_casson(args):
    chain = documents.parse_chain(_read(args.chainfile))
    value = invariants.casson(chain)
    chi = 2 * value  # floer.taubes_chi, without computing the ledger again
    _emit(args, {"casson": str(value), "taubes_chi": str(chi)})
    return EXIT_OK


def cmd_lens(args):
    breakdown = lens.rep_classes(args.p)
    payload = {
        "central": breakdown.central_classes,
        "spheres": breakdown.sphere_classes,
        "factor": breakdown.euler_factor,
    }
    _emit(args, payload, (f"{k} = {v}" for k, v in {"p": breakdown.p, **payload}.items()))
    return EXIT_OK


def cmd_verify(args):
    results = []
    for path in args.files:
        doc = documents.parse(_read(path))
        checks = floer.cross_checks(doc.presentation, _bundle(doc))
        results.append({"file": str(path), "checks": [
            {"name": n, "status": s, "detail": d} for n, s, d in checks]})
    ok = all(c["status"] != "fail" for res in results for c in res["checks"])

    def lines():  # a generator, so that --json formats no line
        for res in results:
            yield f"{res['file']}:"
            for c in res["checks"]:
                yield f"  {c['name']}: {c['status'].upper()} ({c['detail']})"

    _emit(args, {"ok": ok, "results": results}, lines())
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_examples(args):
    if args.name is not None and args.write is not None:
        raise CliInputError("examples takes a NAME or --write DIR, not both")
    if args.name is None and args.write is None:
        desc = corpus_descriptions()
        width = max(map(len, desc))
        _emit(
            args,
            [{"name": name, "description": text} for name, text in desc.items()],
            [f"{name:<{width}}  {text}" for name, text in desc.items()],
        )
        return EXIT_OK
    entries = builtin_corpus()
    if args.name is not None:
        if args.name not in entries:
            raise CliInputError(f"unknown example {args.name!r}")
        sys.stdout.write(documents.serialize(entries[args.name]))
        return EXIT_OK
    out_dir = Path(args.write)
    targets = [out_dir / f"{name}.json" for name in entries]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for target, doc in zip(targets, entries.values()):
            target.write_text(documents.serialize(doc), encoding="utf-8")
    except OSError as e:
        raise CliInputError(f"cannot write {out_dir}: {e}") from None
    _emit(args, sorted(map(str, targets)), targets)
    return EXIT_OK


def _integer(text):
    """An int argument, by the rule of documents: ASCII digits after an
    optional minus, so no other script's digits, underscores, plus sign or
    surrounding space."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help is written by print with a
    flush, so that help into a closed reader raises BrokenPipeError for
    main to report.  argparse's own print_help drops the OSError: the
    process would exit 0 with the help lost, or 120 at the interpreter's
    last flush.  add_subparsers builds each subcommand's parser by this
    class too."""

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file, flush=True)


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="lescop",
        description="Exact invariants of 3-manifolds from surgery presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    declared = {}  # name -> the Actions that add_argument returned

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        actions = declared[name] = [
            sp.add_argument("--json", action="store_true", help="machine-readable output")]
        return lambda *names, **kwargs: actions.append(sp.add_argument(*names, **kwargs))

    arg = add("alexander", "Alexander polynomial of a component")
    arg("file")
    arg("--component", help="component name (default: first)")

    arg = add("lescop", "Lescop invariant of the presented manifold")
    arg("file")

    arg = add("chi", "Euler characteristic of instanton Floer homology")
    arg("file")
    arg(
        "--route",
        choices=("closed", "triangle", "both"),
        default="both",
        help="computation route (default: both, which cross-checks)",
    )

    arg = add("sato-levine", "Sato-Levine invariant (2 components)")
    arg("file")

    arg = add("mu2", "squared triple linking number (3 components)")
    arg("file")

    arg = add("casson", "Casson invariant of a +-1-surgery chain")
    arg("chainfile")

    arg = add("lens", "SU(2)-representation counting for Z/p")
    arg("--p", type=_integer, required=True)

    arg = add("verify", "run every applicable cross-check on files")
    arg("files", nargs="+")

    arg = add("examples", "list or export built-in presentations")
    arg("name", nargs="?", help="print this example document")
    arg("--write", metavar="DIR", help="write all examples into DIR")

    # name -> (option string -> Action, positional, required, defaults) for
    # each command whose Actions _matched can match: options that take one
    # value or none, and a positional that takes one or more
    parser.plain = {
        name: (
            {s: a for a in actions for s in a.option_strings},
            next((a for a in actions if not a.option_strings), None),
            {a for a in actions if a.required},
            {a.dest: a.default for a in actions},  # no str default has a type to apply
        )
        for name, actions in declared.items()
        if all(a.nargs in ((None, 0) if a.option_strings else (None, "+")) for a in actions)
    }
    return parser


def _value(action, text):
    """text by the action's own type and choices, as argparse converts it;
    where argparse reports an error, this raises one of the errors that
    _matched catches."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return value


def _matched(argv, options, positional, required, defaults):
    """The Namespace of the two-level parse of argv when argv has a plain
    shape (see run), else None.

    An option stores its const when it takes no value (store_true), else
    its value.  A second positional would be required and never seen, so
    it matches no argv."""
    args = argparse.Namespace(command=argv[0], **defaults)
    seen, strings, closed = set(), [], False
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            action = options.get(token)
            if action is None and token[:1] != "-" and not closed:
                strings.append(token)  # a positional, in the one run of them
                continue
            if action is None or action in seen:
                return None
            seen.add(action)
            closed = bool(strings)
            if action.nargs == 0:
                value = action.const
            elif (value := next(tokens, "-"))[:1] == "-":
                return None
            else:
                value = _value(action, value)
            setattr(args, action.dest, value)
        if strings:
            if positional is None or positional.nargs is None and len(strings) > 1:
                return None
            values = [_value(positional, s) for s in strings]
            setattr(args, positional.dest, values if positional.nargs else values[0])
            seen.add(positional)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args if required <= seen else None


def run(argv):
    """Run the command that argv names and return its exit code.

    A plain argv (see the module docstring) is matched against the
    subcommand's declared Actions by _matched, with no argparse parse;
    any other is parsed by argparse, which prints help, usage and errors
    and exits with code 0 or 2."""
    parser = _build_parser()
    plain = parser.plain.get(argv[0]) if argv else None
    args = plain and _matched(argv, *plain) or parser.parse_args(argv)
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except (
        documents.DocumentError,
        CliInputError,
        lens.InvalidPError,
        presentation.UnknownComponentError,
        invariants.WrongComponentCountError,
        floer.InadmissibleBundleError,
    ) as e:
        _err(str(e))
        return EXIT_INPUT
    except (
        invariants.InvalidPresentationError,
        presentation.InvalidSpecError,
        floer.NonIntegralChiError,
    ) as e:
        _err(str(e))
        return EXIT_INVARIANT
    except ValueError as e:
        # Python refuses to convert an int of more than
        # sys.get_int_max_str_digits() digits to text; documents.parse already
        # rejects such input, so here it is a result.
        if "integer string conversion" not in str(e):
            raise
        _err("a result is too large to print")
        return EXIT_INPUT


def main():
    """Exit with the code of run on the command line's arguments.  When the
    reader of standard output has closed, before a result or argparse's
    help (see _Parser) is written, exit with code 2 and one error line
    instead.  A stream whose reader has closed is pointed at os.devnull,
    so that the interpreter's last flush of it writes nothing and leaves
    the exit code (see the note on SIGPIPE in the documentation of the
    signal module).  Standard error is pointed there when any write to it
    fails, so a diagnostic that cannot be written, _err's or argparse's,
    is dropped, and the exit code is the one it would have had.  When fd 1
    is closed at start, Python leaves sys.stdout None; it becomes a pipe
    whose reader has closed, so a result or help meets the same path.
    Like a standard stream, that pipe is left open for the process's exit."""
    if sys.stdout is None:
        read, write = os.pipe()
        os.close(read)
        sys.stdout = open(write, "w", closefd=False)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a buffered result meets a closed reader here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _err("cannot write the result: standard output is closed")
        code = EXIT_INPUT
    finally:
        try:  # what a failed write left buffered; stderr is None if fd 2 was closed at start
            sys.stderr.flush()
        except (OSError, AttributeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
    sys.exit(code)


if __name__ == "__main__":
    main()
