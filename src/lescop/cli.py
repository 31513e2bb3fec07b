"""Command-line interface.

Exit codes: 0 on success, 1 when a mathematical invariant or cross-route
agreement fails, 2 on input errors (malformed documents, unknown
components, bad arguments).  Diagnostics go to standard error.

Each subcommand states its result once, as a JSON payload in which all
exact rationals are strings ("a/b") and all integers are JSON integers,
and hands it to _emit, the one function that writes a result to
standard output, at most once per run.  Under --json _emit prints the
payload; otherwise it prints the human form, by default one
"key = value" line per payload field.  A subcommand whose human form
differs (alexander, sato-levine, lens, chi, verify and examples)
passes its lines beside the payload.  Only `examples NAME` writes
something else: a document, which is not a payload.

The parser is built once per process, and each subcommand is dispatched
by name to the module's cmd_* function at call time, so rebinding one
(as a tracer or a test does) takes effect on the next run.

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


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _poly_json(p):
    return {ring.exponent_str(k): str(c) for k, c in p.terms.items()}


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
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {path}: {e}") from None


def _load_document(path):
    return documents.parse(_read(path))


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
    doc = _load_document(args.file)
    p = doc.presentation
    if args.component is None and not p.components:
        raise invariants.WrongComponentCountError("document has no components")
    comp = p.components[0].name if args.component is None else args.component
    poly = invariants.alexander(p, comp)
    d2 = poly.second_derivative_at_one()
    _emit(
        args,
        {
            "component": comp,
            "alexander": _poly_json(poly),
            "display": str(poly),
            "delta2_at_1": str(d2),
        },
        [
            f"component = {comp}",
            f"alexander = {poly}",
            f"delta2_at_1 = {d2}",
        ],
    )
    return EXIT_OK


_LESCOP_ROUTES = {
    1: "Delta''(1)/2 - h/12",
    2: "-h * sato_levine",
    3: "h * mu_squared",
}


def cmd_lescop(args):
    doc = _load_document(args.file)
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
    doc = _load_document(args.file)
    p = doc.presentation
    mode = _resolve_mode(doc)
    both = invariants.normalized(invariants.sato_levine(p), p.base_order)
    value = both[mode]
    disagree = len(set(both.values())) > 1
    payload = {"sato_levine": str(value), "mode": mode, "mode_mismatch": disagree}
    lines = [f"sato_levine = {value}", f"mode = {mode}"]
    if disagree:
        payload["modes"] = {m: str(v) for m, v in both.items()}
        print(
            "warning: normalization modes disagree: "
            + ", ".join(f"{m}={v}" for m, v in both.items()),
            file=sys.stderr,
        )
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_mu2(args):
    doc = _load_document(args.file)
    p = doc.presentation
    mode = _resolve_mode(doc)
    value = invariants.normalized(invariants.milnor_mu_squared(p), p.base_order)[mode]
    _emit(args, {"mu_squared": str(value), "mode": mode})
    return EXIT_OK


def cmd_chi(args):
    doc = _load_document(args.file)
    p = doc.presentation
    bundle = _bundle(doc)
    reports = {}
    if args.route in ("closed", "both"):
        reports[floer.CLOSED_FORM] = floer.chi_closed_form(p, bundle)
    if args.route in ("triangle", "both"):
        reports[floer.TRIANGLE] = floer.chi_via_triangle(p, bundle)
    any_report = next(iter(reports.values()))
    lines = [f"chi[{route}] = {r.chi}" for route, r in reports.items()]
    lines.append(f"ambiguity = {any_report.ambiguity}")
    payload = {
        "routes": {route: r.chi for route, r in reports.items()},
        "ambiguity": any_report.ambiguity,
        "bundle_w2": list(any_report.bundle.w2),
    }
    code = EXIT_OK
    if len(reports) == 2:
        agree = len({r.chi for r in reports.values()}) == 1
        payload["agree"] = agree
        if agree:
            lines.append("routes agree")
        else:
            _err(f"routes disagree: {payload['routes']}")
            code = EXIT_INVARIANT
    _emit(args, payload, lines)
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


def _verify_checks(doc):
    """Run every applicable cross-check; yields (name, status, detail).

    Validation comes first, and the presentation keeps its result, so the
    public functions the checks after it call do not validate again.  A
    non-integral chi fails route-agreement and ends this document's checks.
    """
    p = doc.presentation
    n = len(p.components)
    h = p.base_order

    if p.violations:
        yield "validate", "fail", "; ".join(p.violations)
        return
    yield "validate", "pass", f"{n} components, base order {h}"

    polys = [invariants.alexander(p, c.name) for c in p.components]
    for c, poly in zip(p.components, polys):
        sym = poly.involution() == poly
        yield (
            f"alexander-symmetry[{c.name}]",
            "pass" if sym else "fail",
            str(poly),
        )
        at_one = poly.eval_at_one()
        yield (
            f"alexander-at-one[{c.name}]",
            "pass" if at_one == h else "fail",
            f"{at_one} (expected {h})",
        )

    if n == 2:
        c1, c2 = p.components
        blown_down = presentation.rank_one_update(c1.seifert, c1.linking[c2.name], -1)
        after = invariants.knot_alexander(blown_down, h)
        s = invariants.sato_levine(p)
        residue = after - (ring.ONE + s * ring.Z * ring.Z) * polys[0]
        ok = ring.divides_z_power(residue, 3)
        yield "z3-structure", "pass" if ok else "fail", f"s = {s}"

    if n >= 1:
        bundle = _bundle(doc)
        try:
            closed = floer.chi_closed_form(p, bundle)
            triangle = floer.chi_via_triangle(p, bundle)
        except floer.NonIntegralChiError as e:
            yield "route-agreement", "fail", str(e)
            return
        agree = closed.chi == triangle.chi
        yield (
            "route-agreement",
            "pass" if agree else "fail",
            f"closed_form = {closed.chi}, triangle = {triangle.chi}",
        )

        if h == 1 or n not in (2, 3):
            lam = invariants.lescop(p)
            predicted = floer.lescop_to_chi(lam, n, h)
            ok = predicted == closed.chi
            yield (
                "theorem1-consistency",
                "pass" if ok else "fail",
                f"lescop = {lam} predicts chi = {predicted}, closed form = {closed.chi}",
            )
        else:
            yield (
                "theorem1-consistency",
                "skip",
                "normalization of the case formulas is ambiguous for "
                f"b1 = {n} with torsion order {h} > 1",
            )

        if n <= 6:
            # chi never reads w2, so the closed-form value above holds for
            # every admissible bundle, each a nonzero 0/1 vector of length n.
            yield (
                "bundle-independence",
                "pass",
                f"{2**n - 1} admissible bundles, chi values {[closed.chi]}",
            )


def cmd_verify(args):
    results = []
    for path in args.files:
        doc = _load_document(path)
        checks = [{"name": n, "status": s, "detail": d} for n, s, d in _verify_checks(doc)]
        results.append({"file": str(path), "checks": checks})
    ok = all(c["status"] != "fail" for res in results for c in res["checks"])
    # a generator, so that --json formats no line
    lines = (
        line
        for res in results
        for line in (
            f"{res['file']}:",
            *(f"  {c['name']}: {c['status'].upper()} ({c['detail']})" for c in res["checks"]),
        )
    )
    _emit(args, {"ok": ok, "results": results}, lines)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_examples(args):
    entries = builtin_corpus()
    if args.name is not None:
        if args.name not in entries:
            raise CliInputError(f"unknown example {args.name!r}")
        sys.stdout.write(documents.serialize(entries[args.name]))
        return EXIT_OK
    if args.write is not None:
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
    desc = corpus_descriptions()
    width = max(len(n) for n in entries)
    _emit(
        args,
        [{"name": n, "description": desc[n]} for n in entries],
        [f"{name:<{width}}  {desc[name]}" for name in entries],
    )
    return EXIT_OK


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lescop",
        description="Exact invariants of 3-manifolds from surgery presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("alexander", "Alexander polynomial of a component")
    sp.add_argument("file")
    sp.add_argument("--component", help="component name (default: first)")

    sp = add("lescop", "Lescop invariant of the presented manifold")
    sp.add_argument("file")

    sp = add("chi", "Euler characteristic of instanton Floer homology")
    sp.add_argument("file")
    sp.add_argument(
        "--route",
        choices=("closed", "triangle", "both"),
        default="both",
        help="computation route (default: both, which cross-checks)",
    )

    sp = add("sato-levine", "Sato-Levine invariant (2 components)")
    sp.add_argument("file")

    sp = add("mu2", "squared triple linking number (3 components)")
    sp.add_argument("file")

    sp = add("casson", "Casson invariant of a +-1-surgery chain")
    sp.add_argument("chainfile")

    sp = add("lens", "SU(2)-representation counting for Z/p")
    sp.add_argument("--p", type=int, required=True)

    sp = add("verify", "run every applicable cross-check on files")
    sp.add_argument("files", nargs="+")

    sp = add("examples", "list or export built-in presentations")
    sp.add_argument("name", nargs="?", help="print this example document")
    sp.add_argument("--write", metavar="DIR", help="write all examples into DIR")

    return parser


def run(argv):
    args = _build_parser().parse_args(argv)
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
