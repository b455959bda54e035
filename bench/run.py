"""altzeta benchmark: one workload, one seed, one measured closed loop.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload identity_ladders --seed 1 --seconds 30 --trace 0

Workloads: identity_ladders, zero_demo, decay_fits (see bench/README.md);
--workload all runs the three in turn.
The package is imported from ./src; nothing needs installing but mpmath,
which only the output checks use.  The load runs in a child interpreter
(bench/load.py); this process generates nothing the child sees but the
seed, then checks every request's output against mpmath references outside
the timed region.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics latency_p50_s, latency_tail_s, throughput_rps, setup_s and
peak_rss_mb; with --trace 1 it holds the per-layer metrics instead.  The
line before it is a JSON report with the environment, the tail percentile
and sample count, failed_ratio with its base, failure reasons, the
default-tolerance probe and the machine-drift diagnostic
calib.loop.ns_per_op.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

from workloads import LAYERS, ROUNDS  # noqa: E402

SETUP_RUNS = 6  # fresh interpreters timed before the load, and as many after it
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
CLI_PASSES = 3
CLI_TABLE = {  # ROADMAP baseline CLI invocations, timed as fresh processes
    "cli.eval.process_ms": ["eval", "--sigma", "1", "--t", "0", "--n", "2"],
    "cli.residuals_65536.process_ms": ["residuals", "--sigma", "0.5", "--t", "14.1",
                                       "--n-max", "65536"],
    "cli.sweep.process_ms": ["sweep", "--sigma-min", "0.1", "--sigma-max", "0.9",
                             "--sigma-step", "0.1", "--t", "0"],
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": SRC}


def _timed_process(argv: list[str]) -> float:
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which would quantise the measured time.
    subprocess.run(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def measure_setup(warm: bool) -> list[float]:
    """Wall times of fresh interpreters importing altzeta and altzeta.cli."""
    argv = [sys.executable, "-c", "import altzeta, altzeta.cli"]
    if not warm:
        _timed_process(argv)  # compiles the byte code once
    return [_timed_process(argv) for _ in range(SETUP_RUNS)]


def measure_cli_table() -> dict[str, float]:
    """Fresh-process wall time of the ROADMAP baseline CLI commands, in ms."""
    times: dict[str, list[float]] = {name: [] for name in CLI_TABLE}
    for _ in range(CLI_PASSES):
        for name, args in CLI_TABLE.items():
            times[name].append(_timed_process([sys.executable, "-m", "altzeta", *args]))
    return {name: 1e3 * statistics.median(samples) for name, samples in times.items()}


def run_load(workload: str, args) -> tuple[list[dict], dict]:
    """Run bench/load.py to completion and return its results and summary."""
    argv = [sys.executable, os.path.join(BENCH, "load.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=2 * args.seconds + 90)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("load generator timed out")
    if proc.returncode != 0:
        raise BenchError(f"load generator exited with code {proc.returncode}")
    records = [json.loads(line) for line in out.splitlines()]
    if not records or not records[-1].get("summary"):
        raise BenchError("load generator printed no summary")
    return records[:-1], records[-1]


def environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "altzeta")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# The loop runs whole rounds of one mix, so per-round figures are
# comparable.  The host alternates between a fast and a slow state that can
# outlast a round (see bench/README.md); a median over a run's requests or
# rounds jumps from one state's value to the other's as the share of slow
# time crosses a half, while a mean over rounds moves in proportion to it.


def p50(results: list[dict]) -> float:
    """The median latency of a round, averaged over the run's rounds."""
    rounds: dict[int, list[float]] = {}
    for result in results:
        rounds.setdefault(result["round"], []).append(result["latency_s"])
    return statistics.fmean(statistics.median(times) for times in rounds.values())


def throughput(results: list[dict]) -> float:
    """Requests per second of request time over the whole run."""
    return len(results) / sum(r["latency_s"] for r in results)


def check_all(results: list[dict]) -> tuple[list[str | None], list[str], dict]:
    """Failure reason per result, the value mismatches, and checker diagnostics."""
    import check

    checker = check.Checker()
    verdicts: dict[str, tuple[str | None, str | None]] = {}
    reasons, mismatches = [], []
    for result in results:
        key = json.dumps([result[k] for k in ("argv", "k", "rc", "stdout", "error", "richardson")])
        if key not in verdicts:
            verdicts[key] = checker.check(result)
        reason, mismatch = verdicts[key]
        reasons.append(reason)
        if mismatch is not None:
            mismatches.append(f"{' '.join(result['argv'])}: {mismatch}")
    return reasons, mismatches, {"worst_tolerance_use": checker.worst_tol_use,
                                 "worst_tolerance_use_at": checker.worst_what}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="altzeta benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=[*ROUNDS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "altzeta", "cli.py")):
        print(f"error: no altzeta sources under {SRC}", file=sys.stderr)
        return 2
    if importlib.util.find_spec("mpmath") is None:
        print("error: mpmath is needed for the output checks", file=sys.stderr)
        return 2
    workloads = list(ROUNDS) if args.workload == "all" else [args.workload]
    return max(run_workload(workload, args) for workload in workloads)


def run_workload(workload: str, args) -> int:
    """Measure and check one workload; print its metrics, report and result lines."""
    report = {"workload": workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed)}
    metrics: dict[str, dict] = {}
    try:
        if args.trace:
            cli_table = measure_cli_table()
            results, summary = run_load(workload, args)
        else:
            setups = measure_setup(warm=False)
            results, summary = run_load(workload, args)
            setups += measure_setup(warm=True)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    reasons, mismatches, diagnostics = check_all(results)
    report["check_s"] = time.perf_counter() - t0
    report.update(diagnostics)
    failed = sum(reason is not None for reason in reasons)
    attempted = len(results)
    report["failed_ratio"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    report["failure_reasons"] = dict(Counter(r.split(":")[0] for r in reasons if r is not None))
    report["mismatches"] = mismatches[:5]
    report["rounds"] = summary["rounds"]
    probe = summary["probe"]
    probe_passed = sum(r["rc"] == 0 and r["error"] is None for r in probe)
    report["default_tol_probe"] = {"passed": probe_passed, "of": len(probe),
                                   "exit_codes": [r["rc"] for r in probe]}
    calib = statistics.median(summary["calib_ns_per_op"])
    report["calib.loop.ns_per_op"] = {"median": calib, "start": summary["calib_ns_per_op"][0],
                                      "end": summary["calib_ns_per_op"][1]}

    if args.trace:
        traced_s = summary["traced_s"]
        for layer in LAYERS:
            counts = summary["layers"][layer]
            metrics[f"{layer}.calls"] = _metric(counts["calls"], "count")
            metrics[f"{layer}.terms"] = _metric(counts["terms"], "count")
            metrics[f"{layer}.self_s"] = _metric(counts["self_s"], "s")
            metrics[f"{layer}.self_share"] = _metric(counts["self_s"] / traced_s, "ratio")
        metrics["trace.overhead_ratio"] = _metric(traced_s / summary["plain_s"], "ratio")
        metrics["cli.residuals_default_tol.pass_share"] = _metric(probe_passed / len(probe),
                                                                  "ratio")
        for name, value in summary["micro"].items():
            metrics[name] = _metric(value, name.rsplit(".", 1)[1].replace("_per_", "/"))
        for name, value in cli_table.items():
            metrics[name] = _metric(value, "ms")
        metrics["calib.loop.ns_per_op"] = _metric(calib, "ns/op")
    else:
        latencies = [r["latency_s"] for r in results]
        tail_value, tail_pct = tail(latencies)
        report["latency_tail_percentile"] = tail_pct
        report["samples"] = len(latencies)
        report["latency_p50_all_requests_s"] = statistics.median(latencies)
        metrics["latency_p50_s"] = _metric(p50(results), "s")
        metrics["latency_tail_s"] = _metric(tail_value, "s")
        metrics["throughput_rps"] = _metric(throughput(results), "1/s")
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
        metrics["peak_rss_mb"] = _metric(summary["peak_rss_kb"] / 1024.0, "MB")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
