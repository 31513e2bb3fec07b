"""Closed-loop benchmark of the lescop command-line interface.

Run from the root of a lescop checkout::

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0

One caller runs one operation at a time, each a call of the public entry
point ``lescop.cli.run(argv)`` with its output captured, and checks every
output (see workloads.py). ``--trace 0`` reports the end-to-end metrics,
untraced; ``--trace 1`` alternates untraced and traced rounds of the same
operations and reports the per-layer metrics (see spans.py and README.md).
The last line of standard output is the result object; the line before it
gives the run's context.

A shared host runs in phases of different speed, seconds to minutes
long, so the benchmark times a fixed exact-arithmetic calibration loop
(calibrate.py) before and after every timed step: the operations of about
STEP_S seconds, or a set-up. It scales the step's wall times by
REFERENCE_CALIBRATION_MS over the mean of the two calibration times. A
cold process runs between two cold processes of the calibration loop and
is scaled the same way by REFERENCE_COLD_MS. Every end-to-end time is a
median of scaled times: wall time at the host speed of the references.

The benchmark imports the package from ./src and exits with code 2,
printing no result, when there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from calibrate import calibrate
from spans import LAYERS, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CALIBRATE_SCRIPT = Path(__file__).resolve().with_name("calibrate.py")

SETUP_REPS = 15  # set-ups per run; setup_s is their median
COLD_REPS = 20  # cold `verify` processes per run; cold_verify_ms is their median
IMPORTTIME_REPS = 3
MIN_PASSES = 3  # runs of each round, at least
STEP_S = 0.25  # longest run of operations between two calibrations, about
# The calibration loop's time on an unloaded core of a 2-core x86_64 host
# (Xeon, CPython 3.11), in process and as a cold process; wall times are
# scaled to this host speed.
REFERENCE_CALIBRATION_MS = 25.0
REFERENCE_COLD_MS = 70.0
SUBPROCESS_TIMEOUT_S = 120


def import_program():
    """Import lescop.cli from ./src afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "lescop" or m.startswith("lescop.")]:
        del sys.modules[name]
    cli = importlib.import_module("lescop.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: lescop was imported from {cli.__file__}, not from ./src")
    return cli


def execute(cli, argv):
    """One operation: (wall ns, exit code, stdout). Exceptions count as exit 'raised'."""
    out = io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not a failed run
            code = "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    return time.perf_counter_ns() - start, code, out.getvalue()


def setup(workload, seed, directory):
    """Import, generate and write the inputs, warm up; returns (seconds, cli, rounds)."""
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    cli = import_program()
    rounds = workloads.build(workload, seed, directory)
    smallest = {}
    for op in rounds[0]:
        if op.argv[0] not in smallest or op.size < smallest[op.argv[0]].size:
            smallest[op.argv[0]] = op
    for op in smallest.values():
        execute(cli, op.argv)
    return time.perf_counter() - start, cli, rounds


class Tally:
    """Scaled wall times of every operation of the rounds, and the failures.

    An operation is one position in one round; it runs once per pass over
    the rounds, and the median of its scaled times is its latency.
    """

    def __init__(self, cli, rounds, tracer=None):
        self.cli = cli
        self.rounds = rounds
        self.tracer = tracer
        self.samples_ns = {}  # (round, position) -> scaled wall ns of each pass
        self.executions = 0
        self.failures = []

    def run_round(self, r, host):
        """Run round r once, handing each operation's wall time to host."""
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        try:
            for i, op in enumerate(self.rounds[r]):
                if tracer is not None:
                    tracer.begin_op()
                ns, code, out = execute(self.cli, op.argv)
                if tracer is not None:
                    tracer.end_op(ns)
                self.executions += 1
                host.timed(self.samples_ns.setdefault((r, i), []), ns)
                failure = workloads.check_op(op, code, out)
                if failure is not None:
                    self.failures.append(failure)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def latencies_ns(self):
        return [statistics.median(v) for v in self.samples_ns.values()]


class Host:
    """The calibration times of a run, and the scaling of wall times by them."""

    def __init__(self):
        self.calibration_ms = []
        self.cold_calibration_ms = []
        self._step = []  # (samples, wall ns) of the operations of the open step
        self._step_ms = 0.0  # calibration that opened the step
        self._step_at = 0.0

    def open_step(self):
        self._step_ms = self.calibrate()
        self._step_at = time.perf_counter()

    def timed(self, samples, ns):
        """Take an operation's wall time; its scaled time goes to samples when the step closes."""
        self._step.append((samples, ns))
        if time.perf_counter() - self._step_at >= STEP_S:
            self.close_step()
            self._step_at = time.perf_counter()

    def close_step(self):
        """Scale the open step's times; the closing calibration also opens the next step."""
        after = self.calibrate()
        scale = REFERENCE_CALIBRATION_MS / ((self._step_ms + after) / 2)
        for samples, ns in self._step:
            samples.append(ns * scale)
        self._step = []
        self._step_ms = after

    def calibrate(self):
        ms = calibrate()
        self.calibration_ms.append(ms)
        return ms

    def calibrate_cold(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(CALIBRATE_SCRIPT)], check=True,
                       capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        ms = (time.perf_counter() - start) * 1e3
        self.cold_calibration_ms.append(ms)
        return ms

    def scaled(self, fn, cold=False):
        """Run fn between two calibrations; (its result, the scale for its wall time).

        A cold process is scaled by the calibration loop run as a cold
        process, because in a slow phase process start slows less than
        in-process work does.
        """
        calibrate, reference = ((self.calibrate_cold, REFERENCE_COLD_MS) if cold
                                else (self.calibrate, REFERENCE_CALIBRATION_MS))
        before = calibrate()
        result = fn()
        after = calibrate()
        return result, reference / ((before + after) / 2)


def measure(host, tallies, seconds, probe, probes):
    """Closed loop over the rounds for `seconds`, each round at least MIN_PASSES times.

    Every tally runs each round in turn (for a traced run: untraced, then
    traced). `probe` runs `probes` times, spread evenly over the run.
    Returns the number of rounds run by each tally.
    """
    n = len(tallies[0].rounds)
    start = time.perf_counter()
    done = r = 0
    host.open_step()
    while r < MIN_PASSES * n or time.perf_counter() - start < seconds:
        for tally in tallies:
            tally.run_round(r % n, host)
        r += 1
        if done < probes and time.perf_counter() - start >= done * seconds / probes:
            host.close_step()
            probe()
            done += 1
            host.open_step()
    host.close_step()
    for _ in range(done, probes):
        probe()
    return r


def run_cold(paths, flags=()):
    """A cold `python -m lescop verify --json` process: (wall ms, completed process)."""
    cmd = [sys.executable, *flags, "-m", "lescop", "verify", "--json", *paths.values()]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return (time.perf_counter() - start) * 1e3, proc


def cold_failure(paths, proc):
    """Failure message for a cold verify of the built-in corpus, or None."""
    if proc.returncode != 0:
        return f"cold verify: exit code {proc.returncode}"
    try:
        data = json.loads(proc.stdout)
        golden = workloads.load_golden()["verify"]
        names = {path: name for name, path in paths.items()}
        if data["ok"] is not True or len(data["results"]) != len(paths):
            return "cold verify: not ok"
        for result in data["results"]:
            name = names[result["file"]]
            failure = workloads.verify_failure(result, workloads.CORPUS_CHI[name], golden[name])
            if failure is not None:
                return f"cold verify {name}: {failure}"
    except (ValueError, KeyError, TypeError) as e:
        return f"cold verify: unreadable output ({type(e).__name__}: {e})"
    return None


def import_times(stderr):
    """Self and total import time, in ms, from `python -X importtime` output."""
    own = {}
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        us = int(fields[0])
        total += us
        module = fields[2].strip()
        if module == "lescop" or module.startswith("lescop."):
            own[module] = us / 1e3
    return own, total / 1e3


def summary(values):
    """Count, minimum, quartiles and maximum of a list of times."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values)}


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lescop" / "cli.py").is_file():
        print("error: no src/lescop here; run from the root of a lescop checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    directory = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return measure_and_report(args, Host(), directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure_and_report(args, host, directory):
    reps = SETUP_REPS if args.trace == 0 else 1
    setups = []
    for _ in range(reps):
        (seconds, cli, rounds), scale = host.scaled(
            lambda: setup(args.workload, args.seed, directory))
        setups.append(seconds * scale)
    cold_paths = workloads.write_corpus(workloads.Writer(directory / "cold"))

    failures = []
    if args.trace == 0:
        tally = Tally(cli, rounds)
        tallies = [tally]
        cold = []

        def probe():
            (ms, proc), scale = host.scaled(lambda: run_cold(cold_paths), cold=True)
            cold.append(ms * scale)
            failures.append(cold_failure(cold_paths, proc))

        n_rounds = measure(host, tallies, args.seconds, probe, COLD_REPS)
        lat = tally.latencies_ns()
        metrics = {
            "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
            "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
            "op_p90_ms": (statistics.quantiles(lat, n=10)[8] / 1e6, "ms"),
            "cold_verify_ms": (statistics.median(cold), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        tracer = Tracer()
        plain, traced = Tally(cli, rounds), Tally(cli, rounds, tracer)
        tallies = [plain, traced]
        own = {}
        totals = []

        def probe():
            _, proc = run_cold(cold_paths, ("-X", "importtime"))
            failures.append(cold_failure(cold_paths, proc))
            times, total = import_times(proc.stderr)
            totals.append(total)
            for module, ms in times.items():
                own.setdefault(module, []).append(ms)

        n_rounds = measure(host, tallies, args.seconds, probe, IMPORTTIME_REPS)
        metrics = tracer.metrics()
        overhead = sum(traced.latencies_ns()) / sum(plain.latencies_ns()) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        for module in ("lescop", *(f"lescop.{layer}" for layer in LAYERS), "lescop.corpus"):
            metrics[f"import.{module}.self_ms"] = (statistics.median(own.get(module, [0.0])),
                                                   "ms")
        metrics["import.lescop_all.self_ms"] = (
            sum(statistics.median(v) for v in own.values()), "ms")
        metrics["import.total_ms"] = (statistics.median(totals), "ms")
        tracer.write(WORK / f"spans-{args.workload}.tsv")
    failures = [f for f in failures if f is not None]
    for tally in tallies:
        failures += tally.failures

    executions = sum(t.executions for t in tallies)
    attempted = executions + (COLD_REPS if args.trace == 0 else IMPORTTIME_REPS)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "executions": executions,
        "operations": len(tallies[0].samples_ns),
        "rounds": n_rounds,
        "setup_reps": reps,
        "failed_ratio": len(failures) / attempted,
        "calibration_ms": summary(host.calibration_ms),
        "reference_calibration_ms": REFERENCE_CALIBRATION_MS,
        "cold_calibration_ms": summary(host.cold_calibration_ms) if host.cold_calibration_ms
        else None,
        "reference_cold_ms": REFERENCE_COLD_MS,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace == 1:
        for name, share in tracer.top():
            print(f"# {share:7.1%}  {name}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
