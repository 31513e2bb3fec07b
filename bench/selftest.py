"""Self-test of the benchmark at its smallest size.

Run from the root of a lescop checkout::

    python3 bench/selftest.py

For every workload it runs bench/run.py untraced and traced with
``--seconds 1`` (each round still runs three times), and checks that
the result line has the contract's keys, that every metric BENCHMARK.json
names is printed with its unit and nothing else, that no operation failed,
and that the traced layer self times plus the unattributed time add up to
the traced total. Last, it checks that the benchmark refuses to run, with
a non-zero exit code and no result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = ("cli", "documents", "presentation", "ring", "invariants", "floer", "lens")
TIMEOUT_S = 170


def bench(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(workload, trace, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr}"
    assert type(result["attempted"]) is int and result["attempted"] >= 1, where
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{where}: metrics {sorted(set(got) ^ set(wanted))} differ"
    for name, m in result["metrics"].items():
        value = m["value"]
        assert type(value) in (int, float) and math.isfinite(value), f"{where}: {name}"
        assert trace or value > 0, f"{where}: {name} = {value}"
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        attributed = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
        total = metrics["trace.total_ms"]
        assert math.isclose(attributed + metrics["trace.unattributed_ms"], total,
                            rel_tol=1e-9), f"{where}: self times do not add up to {total}"
    return result


def check_refuses_without_program():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0, "benchmark ran without the program"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    shutil.rmtree(bare)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            result = check_result(workload, trace, bench(ROOT, workload, trace))
            print(f"ok  {workload} --trace {trace}: {result['attempted']} attempted")
    check_refuses_without_program()
    print("ok  refuses to run without src/lescop")


if __name__ == "__main__":
    sys.exit(main())
