import argparse
import ast
import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lescop import cli, floer
from lescop.cli import run
from lescop.corpus import corpus
from lescop.documents import PresentationDocument, parse, serialize

from conftest import (
    cold,
    dense_knot_document,
    random_presentation,
    rational_presentation,
    seeded,
    split_link_document,
)
from test_golden_large import CASES as GOLDEN_CASES, check as check_golden
from test_readme import COMMANDS as README_COMMANDS

FLOAT_LITERAL = re.compile(r"\d\.\d|[eE][+-]\d")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExamples:
    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "examples")
        assert code == 0
        for name in ("unknot-0", "ribbon-s1", "km-trefoil", "hs-lk2", "triple-mu2"):
            assert name in out

    def test_list_json(self, capsys):
        code, out, _ = invoke(capsys, "examples", "--json")
        names = {e["name"] for e in json.loads(out)}
        assert code == 0 and "boundary-link" in names

    def test_print_single(self, capsys):
        code, out, _ = invoke(capsys, "examples", "trefoil-0")
        assert code == 0
        assert parse(out).presentation.components[0].seifert == ((-1, 1), (0, -1))

    def test_unknown_name(self, capsys):
        code, _, err = invoke(capsys, "examples", "not-a-thing")
        assert code == 2 and "unknown example" in err

    def test_write(self, tmp_path, capsys):
        code, out, _ = invoke(capsys, "examples", "--write", str(tmp_path))
        assert code == 0
        assert (tmp_path / "s1xs2.json").exists()
        assert len(list(tmp_path.glob("*.json"))) == len(corpus())

    def test_name_with_write_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = invoke(capsys, "examples", "trefoil-0", "--write", str(out_dir))
        assert code == 2 and out == ""
        assert err == "error: examples takes a NAME or --write DIR, not both\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_write_onto_a_file_exits_2(self, target, tmp_path, capsys):
        (tmp_path / "file").write_text("taken")
        path = tmp_path / target
        code, _, err = invoke(capsys, "examples", "--write", str(path))
        assert code == 2 and err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestInvariantCommands:
    def test_alexander_human(self, corpus_dir, capsys):
        code, out, _ = invoke(capsys, "alexander", str(corpus_dir / "trefoil-0.json"))
        assert code == 0
        assert "alexander = t - 1 + t^-1" in out
        assert "delta2_at_1 = 2" in out

    def test_alexander_json(self, corpus_dir, capsys):
        code, out, _ = invoke(
            capsys, "alexander", str(corpus_dir / "figure8-0.json"), "--json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["alexander"] == {"1": "-1", "0": "3", "-1": "-1"}
        assert data["delta2_at_1"] == "-2"

    def test_alexander_unknown_component(self, corpus_dir, tmp_path, capsys):
        code, _, err = invoke(
            capsys,
            "alexander",
            str(corpus_dir / "trefoil-0.json"),
            "--component",
            "l7",
        )
        assert code == 2
        assert err == "error: unknown component 'l7'\n"
        empty = tmp_path / "empty.json"
        empty.write_text('{"format_version": 1, "base_order": 1, "components": []}')
        code, _, err = invoke(capsys, "alexander", str(empty))
        assert (code, err) == (2, "error: document has no components\n")

    def test_alexander_empty_component_name(self, corpus_dir, capsys):
        """An empty --component is a name like any other, not the default."""
        code, out, err = invoke(
            capsys, "alexander", str(corpus_dir / "trefoil-0.json"), "--component", ""
        )
        assert (code, out, err) == (2, "", "error: unknown component ''\n")

    def test_lescop(self, corpus_dir, capsys):
        code, out, _ = invoke(capsys, "lescop", str(corpus_dir / "s1xs2.json"))
        assert code == 0 and "lescop = -1/12" in out

    def test_lescop_json_rationals_are_strings(self, corpus_dir, capsys):
        code, out, _ = invoke(
            capsys, "lescop", str(corpus_dir / "trefoil-0.json"), "--json"
        )
        data = json.loads(out)
        assert code == 0 and data["lescop"] == "11/12" and data["b1"] == 1

    def test_sato_levine(self, corpus_dir, capsys):
        code, out, err = invoke(capsys, "sato-levine", str(corpus_dir / "ribbon-s2.json"))
        assert code == 0 and "sato_levine = 2" in out and err == ""

    def test_sato_levine_mode_mismatch_warning(self, corpus_dir, capsys):
        code, out, err = invoke(
            capsys, "sato-levine", str(corpus_dir / "ribbon-s1-h3.json"), "--json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["sato_levine"] == "1" and data["mode_mismatch"] is True
        assert "disagree" in err

    def test_normalization_env_default(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("LESCOP_NORMALIZATION", "paper-literal")
        code, out, _ = invoke(
            capsys, "sato-levine", str(corpus_dir / "ribbon-s1-h3.json"), "--json"
        )
        assert code == 0 and json.loads(out)["sato_levine"] == "3"

    def test_document_field_overrides_env(self, tmp_path, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("LESCOP_NORMALIZATION", "paper-literal")
        doc = json.loads((corpus_dir / "ribbon-s1-h3.json").read_text())
        doc["normalization"] = "derived"
        target = tmp_path / "forced.json"
        target.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "sato-levine", str(target), "--json")
        assert code == 0 and json.loads(out)["sato_levine"] == "1"

    def test_bad_env_value(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("LESCOP_NORMALIZATION", "sloppy")
        code, _, err = invoke(capsys, "sato-levine", str(corpus_dir / "ribbon-s1.json"))
        assert code == 2 and "LESCOP_NORMALIZATION" in err

    def test_sato_levine_wrong_count(self, corpus_dir, capsys):
        code, _, err = invoke(capsys, "sato-levine", str(corpus_dir / "trefoil-0.json"))
        assert code == 2 and "2 components" in err

    def test_mu2(self, corpus_dir, capsys):
        code, out, _ = invoke(capsys, "mu2", str(corpus_dir / "triple-mu2.json"))
        assert code == 0 and "mu_squared = 4" in out

    def test_casson_chain(self, tmp_path, capsys):
        chain = [
            {"seifert": [["-1", "1"], ["0", "-1"]], "sign": -1},
            {"seifert": [["1", "1"], ["0", "-1"]], "sign": 1},
        ]
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(chain))
        code, out, _ = invoke(capsys, "casson", str(f), "--json")
        data = json.loads(out)
        assert code == 0 and data["casson"] == "-2" and data["taubes_chi"] == "-4"

    def test_casson_invalid_matrix(self, tmp_path, capsys):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps([{"seifert": [["0", "0"], ["0", "0"]], "sign": -1}]))
        code, _, err = invoke(capsys, "casson", str(f))
        assert code == 1

    def test_casson_fractional_matrix(self, tmp_path, capsys):
        """A chain starts from S^3, so a fractional matrix is invalid, not chi = -1/2."""
        f = tmp_path / "chain.json"
        f.write_text(json.dumps([{"seifert": [["1/2", "1"], ["0", "1/2"]], "sign": -1}]))
        code, out, err = invoke(capsys, "casson", str(f))
        assert (code, out) == (1, "")
        assert err == "error: step 0: non-integer entries require base_order > 1, " \
                      "and a chain starts from S^3\n"

    def test_genus_24_returns_at_once(self, tmp_path):
        """Genus 24's alexander and verify in new processes under
        conftest.cold's bounds, so that work growing too fast with the
        genus fails by its timeout or its address-space limit; their
        output is checked against golden_large.json."""
        assert check_golden(tmp_path, {"24": GOLDEN_CASES["24"]}) == 0


class TestChi:
    def test_both_routes_agree(self, corpus_dir, capsys):
        code, out, _ = invoke(capsys, "chi", str(corpus_dir / "ribbon-s1.json"), "--route", "both")
        assert code == 0
        assert "chi[closed_form] = -2" in out
        assert "chi[triangle] = -2" in out
        assert "routes agree" in out

    def test_json_payload(self, corpus_dir, capsys):
        code, out, _ = invoke(
            capsys, "chi", str(corpus_dir / "km-figure8.json"), "--json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["routes"] == {"closed_form": -2, "triangle": -2}
        assert data["agree"] is True
        assert data["ambiguity"] == "unique"

    def test_single_route(self, corpus_dir, capsys):
        code, out, _ = invoke(
            capsys, "chi", str(corpus_dir / "trefoil-0.json"), "--route", "triangle"
        )
        assert code == 0 and "chi[triangle] = -2" in out and "closed_form" not in out

    def test_non_integral_chi_fails(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "base_order": 3,
            "components": [
                {
                    "name": "l1",
                    "seifert": [["1/3", "1"], ["0", "1/3"]],
                    "linking": {},
                }
            ],
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "chi", str(f))
        assert code == 1 and "non-integral" in err


class TestLensCommand:
    def test_json_shape(self, capsys):
        code, out, _ = invoke(capsys, "lens", "--p", "5", "--json")
        assert code == 0
        assert json.loads(out) == {"central": 1, "spheres": 2, "factor": 5}

    def test_human(self, capsys):
        code, out, _ = invoke(capsys, "lens", "--p", "4")
        assert code == 0 and "factor = 4" in out

    def test_invalid_p(self, capsys):
        code, _, err = invoke(capsys, "lens", "--p", "0")
        assert code == 2

    @pytest.mark.parametrize("p", ["\u0665", "1_0", " 7 "])
    def test_p_is_an_ascii_integer(self, p, capsys):
        """--p follows the integer rule of documents: no Arabic-Indic digit
        five, no underscore, no surrounding space."""
        with pytest.raises(SystemExit) as exc:
            run(["lens", "--p", p])
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert (exc.value.code, captured.out) == (2, "")
        assert errors == [f"lescop lens: error: argument --p: invalid int value: {p!r}"]


class TestVerify:
    def test_cold_process_imports_neither_dataclasses_nor_inspect(self, tmp_path, capsys,
                                                                    monkeypatch):
        """A cold verify loads no module that it does not compute with:
        dataclasses alone would bring inspect, dis, ast and tokenize."""
        assert run(["examples", "--write", str(tmp_path)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")  # as -X importtime
        code, out, err = cold(["verify", "--json", *sorted(str(f) for f in tmp_path.glob("*.json"))])
        assert code == 0 and json.loads(out)["ok"], err
        imported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                    if line.startswith("import time:")}
        assert "lescop.cli" in imported
        assert not imported & {"dataclasses", "inspect"}

    def test_whole_corpus_passes(self, corpus_dir, capsys):
        files = sorted(str(f) for f in corpus_dir.glob("*.json"))
        code, out, _ = invoke(capsys, "verify", *files)
        assert code == 0
        assert "FAIL" not in out

    def test_json_output(self, corpus_dir, capsys):
        code, out, _ = invoke(capsys, "verify", str(corpus_dir / "triple-mu1.json"), "--json")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        names = {c["name"] for c in data["results"][0]["checks"]}
        assert "route-agreement" in names and "bundle-independence" in names

    def test_library_checks_are_the_printed_checks(self, tmp_path, capsys):
        """floer.cross_checks(p) yields the checks that `verify --json`
        prints for the serialized document, record for record: on
        integral presentations of b1 = 1 to 5 over h = 1, 2 and 3, where
        none fails, and on rational ones over h = 2.  Random rational data
        need not present a manifold, so there the one failure allowed is
        a route-agreement that found a non-integral chi."""
        rng = seeded(3232)
        cases = [(random_presentation(rng, b1, h=h), False)
                 for b1 in range(1, 6) for h in (1, 2, 3) for _ in range(2)]
        cases += [(rational_presentation(rng, b1), True) for b1 in range(1, 6) for _ in range(2)]
        for i, (p, rational) in enumerate(cases):
            path = tmp_path / f"{i}.json"
            path.write_text(serialize(PresentationDocument(p)))
            code, out, _ = invoke(capsys, "verify", "--json", str(path))
            records = [{"name": n, "status": s, "detail": d} for n, s, d in floer.cross_checks(p)]
            failed = [r for r in records if r["status"] == "fail"]
            assert json.loads(out)["results"][0]["checks"] == records, p
            assert code == (1 if failed else 0), p
            assert failed == [] or rational and [r["name"] for r in failed] == ["route-agreement"]
            assert all("non-integral chi" in r["detail"] for r in failed), p

    def test_invalid_presentation_fails(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "base_order": 1,
            "components": [
                {"name": "l1", "seifert": [["0", "0"], ["0", "0"]], "linking": {}}
            ],
        }
        f = tmp_path / "invalid.json"
        f.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verify", str(f))
        assert code == 1 and "FAIL" in out
        # V - V^T is not integral, so skew_form rejects it before eliminating
        doc["base_order"] = 2
        doc["components"][0]["seifert"] = [["0", "1/2"], ["0", "0"]]
        f.write_text(json.dumps(doc))
        violation = "component 'l1': V - V^T has non-integer entries"
        code, out, _ = invoke(capsys, "verify", str(f))
        assert (code, out) == (1, f"{f}:\n  validate: FAIL ({violation})\n")
        code, out, err = invoke(capsys, "chi", str(f))
        assert (code, out, err) == (1, "", f"error: {violation}\n")

    def test_torsion_skip_is_reported(self, corpus_dir, capsys):
        code, out, _ = invoke(capsys, "verify", str(corpus_dir / "ribbon-s1-h3.json"))
        assert code == 0 and "SKIP" in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_non_integral_chi_reports_every_file(self, tmp_path, corpus_dir, capsys, json_flag):
        doc = {
            "format_version": 1,
            "base_order": 3,
            "components": [
                {"name": "l1", "seifert": [["1/3", "1"], ["0", "1/3"]], "linking": {}}
            ],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        good = str(corpus_dir / "trefoil-0.json")
        code, out, err = invoke(capsys, "verify", good, str(bad), *json_flag)
        assert code == 1 and err == ""
        detail = "closed_form produced non-integral chi = -2/3"
        if json_flag:
            good_report, bad_report = json.loads(out)["results"]
            assert all(c["status"] == "pass" for c in good_report["checks"])
            assert bad_report["checks"][-1] == {
                "name": "route-agreement", "status": "fail", "detail": detail,
            }
        else:
            assert out.startswith(f"{good}:\n") and f"\n{bad}:\n" in out
            assert out.count("FAIL") == 1
            assert out.endswith(f"  route-agreement: FAIL ({detail})\n")


class TestPublicApi:
    def test_cli_reads_no_private_name_of_another_module(self):
        """cli calls only the public API of the other lescop modules."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if node.module is None
        }
        assert {"floer", "invariants", "presentation"} <= modules
        private = [
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ]
        private += [
            f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []


class TestOutputPath:
    def test_only_emit_writes_a_result(self):
        """Every other print goes to stderr; the one other stdout write is
        the document that `examples NAME` prints."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        writers = {
            (fn.name, ast.unparse(node.func))
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("print", "sys.stdout.write")
            and not any(k.arg == "file" for k in node.keywords)
        }
        assert writers == {("_emit", "print"), ("cmd_examples", "sys.stdout.write")}

    def test_each_run_emits_once(self, corpus_dir, tmp_path, monkeypatch):
        emit = cli._emit
        calls = []
        monkeypatch.setattr(cli, "_emit", lambda *args: calls.append(args) or emit(*args))
        trefoil, ribbon = str(corpus_dir / "trefoil-0.json"), str(corpus_dir / "ribbon-s1.json")
        chain = tmp_path / "chain.json"
        chain.write_text('[{"seifert": [["-1", "1"], ["0", "-1"]], "sign": -1}]')
        commands = [
            ["alexander", trefoil], ["lescop", ribbon], ["chi", ribbon],
            ["sato-levine", ribbon], ["mu2", str(corpus_dir / "triple-mu2.json")],
            ["casson", str(chain)], ["verify", trefoil, ribbon], ["lens", "--p", "5"],
            ["examples"], ["examples", "--write", str(tmp_path / "out")],
        ]
        for argv in commands:
            for flag in ([], ["--json"]):
                calls.clear()
                assert run(argv + flag) == 0 and len(calls) == 1, argv + flag
        leaf_blocks = floer._leaf_blocks

        def shifted(*args):
            blocks = leaf_blocks(*args)
            first = next(blocks)
            yield [first[0] + 4, *first[1:]]
            yield from blocks

        monkeypatch.setattr(floer, "_leaf_blocks", shifted)
        calls.clear()
        assert run(["chi", ribbon]) == 1 and len(calls) == 1  # the routes disagree
        calls.clear()
        assert run(["examples", "trefoil-0"]) == 0 and calls == []


class TestJsonExactness:
    def test_no_float_literals_anywhere(self, corpus_dir, capsys):
        """Every --json output carries rationals as strings or plain ints."""
        commands = [
            ["alexander", str(corpus_dir / "trefoil-0.json")],
            ["lescop", str(corpus_dir / "s1xs2.json")],
            ["sato-levine", str(corpus_dir / "ribbon-s-2.json")],
            ["mu2", str(corpus_dir / "triple-mu1.json")],
            ["chi", str(corpus_dir / "km-trefoil.json")],
            ["lens", "--p", "7"],
            ["verify", str(corpus_dir / "ribbon-s1-h4.json")],
            ["examples"],
        ]
        for argv in commands:
            code, out, _ = invoke(capsys, *argv, "--json")
            assert code == 0, argv
            assert not FLOAT_LITERAL.search(out), (argv, out)
            json.loads(out)


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "lescop", "/no/such/file.json")
        assert code == 2 and "cannot read" in err

    def test_malformed_document(self, tmp_path, capsys):
        f = tmp_path / "broken.json"
        f.write_text("{nope")
        code, _, err = invoke(capsys, "lescop", str(f))
        assert code == 2 and "line" in err

    @pytest.mark.parametrize("argv", [["verify"], ["casson"]])
    def test_document_not_utf8(self, argv, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_bytes(b"\xff\xfe")
        code, out, err = invoke(capsys, *argv, str(f))
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read {f}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_read_errors_are_pinned(self, tmp_path, monkeypatch, capsys):
        """The file read, the exit code and the stderr line are those of
        Path(path).read_text: "x/" and "x/." read the file x, "" names the
        directory ".", and a document with CRLF or CR line ends reads with
        universal newlines, which the JSON error's line number counts."""
        monkeypatch.chdir(tmp_path)
        Path("x").write_text(dense_knot_document(1), encoding="utf-8")
        Path("dir").mkdir()
        Path("bad.json").write_bytes(b"\xff\xfe")
        for name, end in (("crlf.json", b"\r\n"), ("cr.json", b"\r")):
            Path(name).write_bytes(end.join(
                [b'{"format_version": 1,', b' "base_order": 1,', b' "components": [}', b""]))
        code, knot, err = invoke(capsys, "chi", "x")
        assert (code, err) == (0, "")
        cases = {
            "": (2, "", "error: cannot read : [Errno 21] Is a directory: '.'\n"),
            "x/": (0, knot, ""),
            "x/.": (0, knot, ""),
            "dir": (2, "", "error: cannot read dir: [Errno 21] Is a directory: 'dir'\n"),
            "dir/": (2, "", "error: cannot read dir/: [Errno 21] Is a directory: 'dir'\n"),
            "missing.json": (2, "", "error: cannot read missing.json: "
                             "[Errno 2] No such file or directory: 'missing.json'\n"),
            "bad.json": (2, "", "error: cannot read bad.json: 'utf-8' codec can't decode "
                         "byte 0xff in position 0: invalid start byte\n"),
            "crlf.json": (2, "", "error: line 3, column 17: Expecting value\n"),
            "cr.json": (2, "", "error: line 3, column 17: Expecting value\n"),
        }
        for path, expected in cases.items():
            assert invoke(capsys, "chi", path) == expected, path

    def test_line_ends_read_as_in_text_mode(self, tmp_path, capsys):
        """A document with CRLF, lone-CR or mixed line ends reads as the
        text Path(path).read_text gives, by universal newlines: the same
        document as with LF, or, with a comma dropped from one of its
        lines, the same syntax-error line and column.  A leading BOM fails
        as json.loads fails on it."""
        lines = serialize(corpus()["km-trefoil"]).encode().split(b"\n")
        rng = seeded(52)
        variants = [lines] + [[line.removesuffix(b",") if k == i else line
                               for k, line in enumerate(lines)]
                              for i in rng.sample([k for k, x in enumerate(lines)
                                                   if x.endswith(b",")], 4)]
        f = tmp_path / "doc.json"
        for variant in variants:
            f.write_bytes(b"\n".join(variant))
            expected = invoke(capsys, "chi", str(f))
            assert expected[0] == (0 if variant is lines else 2), expected
            for ends in ([b"\r\n"], [b"\r"], [b"\r\n", b"\r", b"\n"]):
                f.write_bytes(b"".join(line + ends[k % len(ends)]
                                       for k, line in enumerate(variant)))
                assert cli._read(str(f)) == f.read_text(encoding="utf-8")
                assert invoke(capsys, "chi", str(f)) == expected, ends
        f.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join(lines))
        assert invoke(capsys, "chi", str(f)) == (
            2, "", "error: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n")

    def test_schema_error(self, tmp_path, capsys):
        f = tmp_path / "extra.json"
        f.write_text('{"format_version": 1, "base_order": 1, "components": [], "x": 1}')
        code, _, err = invoke(capsys, "lescop", str(f))
        assert code == 2 and "unknown fields" in err


COMMAND_NAMES = [name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")]

VALUE_TOKENS = ["closed", "triangle", "both", "5", "x", "doc.json", "a.json", "trefoil-0"]
# every option string, the forms that only argparse parses, choice values,
# int values and file names
ARGV_TOKENS = ["--json", "--component", "--route", "--p", "--write", "-h", "--help", "--jso",
               "--rou", "--route=both", "--p=3", "--", "-", "-3", "", *VALUE_TOKENS]
OWN_OPTIONS = {"alexander": ["--component"], "chi": ["--route"], "lens": ["--p"],
               "examples": ["--write"]}


@st.composite
def argvs(draw):
    """A command name and 0-5 tokens: up to two values, some of the
    command's options put in among them, each but --json with a value,
    and up to two tokens of ARGV_TOKENS put in or swapped in, so that
    argv often has a plain shape or is one token away from one."""
    name = draw(st.sampled_from(COMMAND_NAMES))
    value = st.sampled_from(VALUE_TOKENS)
    tokens = draw(st.lists(value, max_size=2))
    for option in ["--json", *OWN_OPTIONS.get(name, [])]:
        if draw(st.booleans()):
            i = draw(st.integers(0, len(tokens)))
            tokens[i:i] = [option] if option == "--json" else [option, draw(value)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        tokens[i:i + draw(st.integers(0, 1))] = [draw(st.sampled_from(ARGV_TOKENS))]
    return [name, *tokens[:5]]


def dispatch_and_two_level_parse(argv):
    """The outcomes of run(argv), with every command replaced by one that
    returns the Namespace it is handed, and of the top-level parser's
    parse_args(argv): each a Namespace or ("exit", code), with the text
    written to stdout and stderr."""
    def outcome(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = parse(list(argv))
            except SystemExit as e:
                result = ("exit", e.code)
        return result, out.getvalue(), err.getvalue()

    with pytest.MonkeyPatch.context() as mp:
        for name in COMMAND_NAMES:
            mp.setattr(cli, f"cmd_{name.replace('-', '_')}", lambda args: args)
        dispatched = outcome(run)
    return dispatched, outcome(cli._build_parser().parse_args)


class TestParser:
    """The parser is built once per process; a plain argv is matched
    without argparse, any other parsed by it; commands dispatch by name."""

    def test_second_run_builds_no_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        assert run(["lens", "--p", "3"]) == 0
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(["lens", "--p", "3"]) == 0
        capsys.readouterr()
        assert built == []

    def test_rebound_command_is_called(self, monkeypatch, capsys):
        assert run(["lens", "--p", "3"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_lens", lambda args: 42 + args.p)
        assert run(["lens", "--p", "3"]) == 45

    @pytest.mark.parametrize("argv", [["chi"], ["nope"], ["--help"], ["lens", "--p", "x"]])
    def test_usage_is_the_same_every_time(self, argv, capsys):
        outcomes = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            captured = capsys.readouterr()
            outcomes.append((exc.value.code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (0, 2) and (outcomes[0][1] or outcomes[0][2])

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["nope"], ["chi"], ["chi", "--help"], ["verify"],
        ["lens", "--p", "x"], ["lens", "--p", "3", "extra"], ["lens", "--p", "3", "--help"],
        ["chi", "doc.json", "--bogus"], ["chi", "doc.json", "--route=both"],
        ["chi", "--route", "closed", "doc.json", "--json"], ["lens", "--p", "3", "--jso"],
        ["examples"], ["sato-levine", "doc.json", "doc.json"],
        ["lens", "--json"], ["lens", "--p", "-3"], ["verify", "a.json", "--json", "b.json"],
        ["chi", "doc.json", "--json", "--json"],
        ["chi", "doc.json", "--route", "both", "--route", "closed"],
        ["alexander", "doc.json", "--component"], ["alexander", "doc.json", "--component", "--json"],
        ["examples", "--write", "d", "trefoil-0"],
    ])
    def test_dispatch_matches_the_two_level_parse(self, argv):
        """run matches a plain argv against the subcommand's declared
        actions and hands any other to argparse; its exit code, output and
        Namespace are those of the top-level parser's parse_args."""
        dispatched, two_level = dispatch_and_two_level_parse(argv)
        assert dispatched == two_level
        if argv == ["lens", "--p", "3", "extra"]:
            assert two_level[2].splitlines()[-1] == "lescop: error: unrecognized arguments: extra"
        if argv == ["lens", "--json"]:
            assert two_level[2].splitlines()[-1] == (
                "lescop lens: error: the following arguments are required: --p")

    @given(argvs())
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    def test_run_parses_every_argv_as_the_two_level_parse(self, argv):
        dispatched, two_level = dispatch_and_two_level_parse(argv)
        assert dispatched == two_level

    @staticmethod
    def count_argparse_parses(monkeypatch):
        """The list that each call of ArgumentParser.parse_known_args or
        parse_args appends its name to, from now on."""
        calls = []

        def counted(method):
            original = getattr(argparse.ArgumentParser, method)

            def parse(self, *args, **kwargs):
                calls.append(method)
                return original(self, *args, **kwargs)
            return parse

        for method in ("parse_known_args", "parse_args"):
            monkeypatch.setattr(argparse.ArgumentParser, method, counted(method))
        return calls

    def test_plain_argv_reaches_no_argparse_parse(self, tmp_path, monkeypatch, capsys):
        """The workloads' argv shapes and README's command lines other than
        `examples` are matched without argparse."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("LESCOP_NORMALIZATION", raising=False)
        assert run(["examples", "--write", "examples"]) == 0
        Path("chain.json").write_text('[{"seifert": [["-1", "1"], ["0", "-1"]], "sign": -1}]')
        calls = self.count_argparse_parses(monkeypatch)
        commands = [
            ["chi", "examples/ribbon-s1.json", "--route", "both", "--json"],
            ["verify", "--json", "examples/trefoil-0.json", "examples/km-trefoil.json"],
            ["alexander", "examples/trefoil-0.json", "--json"],
            ["casson", "chain.json", "--json"],
            ["lens", "--p", "7", "--json"],
            *(argv[1:] for argv, _ in README_COMMANDS if argv[1] != "examples"),
        ]
        for argv in commands:
            assert run(argv) == 0, argv
        capsys.readouterr()
        assert len(commands) == 13 and calls == []

    @pytest.mark.parametrize("argv", [
        ["--help"], ["chi", "doc.json", "--route=both"], ["lens", "--p", "3", "--jso"],
        ["lens", "--json"],
    ])
    def test_other_argv_reaches_argparse(self, argv, monkeypatch, capsys):
        calls = self.count_argparse_parses(monkeypatch)
        with contextlib.suppress(SystemExit):
            run(argv)
        capsys.readouterr()
        assert "parse_args" in calls

    def test_equals_forms_print_what_the_plain_forms_print(self, corpus_dir, capsys):
        """--opt=value, which only argparse parses, prints the bytes of the
        plain form, which run matches: lens, and chi on every example."""
        pairs = [(["lens", "--p=5", "--json"], ["lens", "--p", "5", "--json"])]
        pairs += [(["chi", str(f), "--route=both", "--json"], ["chi", str(f), "--route", "both", "--json"])
                  for f in sorted(corpus_dir.glob("*.json"))]
        assert len(pairs) == 1 + len(corpus())
        for equals_form, plain in pairs:
            code, out, err = invoke(capsys, *plain)
            assert code == 0 and err == "", plain
            assert invoke(capsys, *equals_form) == (code, out, err), equals_form

    def test_split_link_routes_agree(self, tmp_path, capsys):
        f = tmp_path / "split.json"
        f.write_text(split_link_document(6, 1))
        code, out, _ = invoke(capsys, "chi", str(f))
        assert code == 0 and out.splitlines() == [
            "chi[closed_form] = 0", "chi[triangle] = 0", "ambiguity = unique", "routes agree"]
