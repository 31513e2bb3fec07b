import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lescop
from lescop import cli, floer
from lescop.cli import run
from lescop.corpus import corpus
from lescop.documents import parse

from conftest import dense_knot_document, split_link_document

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
        """Cold processes, so that work growing too fast with the genus fails by the timeout."""
        f = tmp_path / "g24.json"
        f.write_text(dense_knot_document(24))
        src = str(Path(lescop.__file__).resolve().parents[1])
        for command in ("alexander", "verify"):
            done = subprocess.run(
                [sys.executable, "-m", "lescop", command, str(f)],
                capture_output=True, text=True, timeout=10,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert done.returncode == 0, (command, done.stderr)
            assert "FAIL" not in done.stdout


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

    def test_huge_p_returns_at_once(self):
        """A cold process, so that work growing with p fails by the timeout."""
        p = 10**21
        src = str(Path(lescop.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "lescop", "lens", "--p", str(p), "--json"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"central": 2, "spheres": p // 2 - 1, "factor": p}


class TestVerify:
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
        leaf_traces = floer._leaf_traces

        def shifted(*args):
            traces = leaf_traces(*args)
            yield next(traces) + 4
            yield from traces

        monkeypatch.setattr(floer, "_leaf_traces", shifted)
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

    def test_schema_error(self, tmp_path, capsys):
        f = tmp_path / "extra.json"
        f.write_text('{"format_version": 1, "base_order": 1, "components": [], "x": 1}')
        code, _, err = invoke(capsys, "lescop", str(f))
        assert code == 2 and "unknown fields" in err


class TestParser:
    """The parser is built once per process; commands dispatch by name."""

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

    def test_split_link_routes_agree(self, tmp_path, capsys):
        f = tmp_path / "split.json"
        f.write_text(split_link_document(6, 1))
        code, out, _ = invoke(capsys, "chi", str(f))
        assert code == 0 and out.splitlines() == [
            "chi[closed_form] = 0", "chi[triangle] = 0", "ambiguity = unique", "routes agree"]
