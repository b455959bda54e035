"""Load generator: runs one workload's closed loop in a fresh interpreter.

Started by run.py as a child process, so that its peak RSS counts the
package and the requests but not mpmath, which only the checker imports.
One client sends the next request when the previous one has completed; no
threads, since the sums hold the interpreter lock.  Each request runs in
process through altzeta.cli.main(argv) with stdout captured.  Results
stream to stdout as one JSON object per line; the last line is a summary.

With --trace 1 every request runs twice, plain and traced, in alternating
order.  The traced copy wraps each public function where the package's
modules bind it, so time and term counts land on the defining module, and
the ratio of the two copies' total time is the tracing overhead.  The
per-layer microbenchmarks run after the loop.  After the loop, and outside
the results, the default-tolerance probe (workloads.probe_requests) runs
once; its exit codes go into the summary.

Usage: python3 bench/load.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import altzeta  # noqa: E402
import altzeta.cli  # noqa: E402
from workloads import LAYERS, probe_requests, round_requests, warmup_requests  # noqa: E402


def calibration_ns_per_op(loops: int = 5, ops: int = 100_000) -> float:
    """Median time per iteration of a fixed pure-Python loop."""
    samples = []
    for _ in range(loops):
        t0 = time.perf_counter()
        x = 0
        for i in range(ops):
            x += i * i
        samples.append((time.perf_counter() - t0) / ops * 1e9)
    return statistics.median(samples)


class Tracer:
    """Spans around the package's public functions, aggregated per layer.

    A layer is the module that defines the called function.  Self time is
    a span's duration minus the time of the spans it encloses.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.terms: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # enclosed child time of each open span
        self._patches = []
        public = set(altzeta.__all__)
        for name, module in list(sys.modules.items()):
            if name != "altzeta" and not name.startswith("altzeta."):
                continue
            for attr in public & set(vars(module)):
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    self._patches.append((module, attr, fn, self.wrap(fn)))
        self.main = self.wrap(altzeta.cli.main)

    def wrap(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        result_type = altzeta.SumResult

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[layer] += dt - self._open.pop()
                self.calls[layer] += 1
                if self._open:
                    self._open[-1] += dt
            if isinstance(out, result_type):
                self.terms[layer] += out.terms
            return out

        return span

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        try:
            yield self.main
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)


def execute(request, main) -> dict:
    """Run one request; exceptions are results, not harness failures."""
    out, err = io.StringIO(), io.StringIO()
    rc, error, richardson = None, None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(request.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            if request.richardson_k is not None:
                value = altzeta.eta_richardson(altzeta.zero_point(request.richardson_k).s)
                richardson = [value.real, value.imag]
    except Exception as exc:  # a raising request is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return {"argv": request.argv, "k": request.richardson_k, "rc": rc, "stdout": out.getvalue(),
            "error": error, "richardson": richardson, "latency_s": latency}


def closed_loop(workload: str, seed: int, seconds: float, tracer: Tracer | None, emit) -> dict:
    """Whole rounds until `seconds` have passed; returns loop totals."""
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    r = 0
    index = 0
    while True:
        for request in round_requests(workload, seed, r):
            if tracer is None:
                emit({**execute(request, altzeta.cli.main), "round": r})
            else:
                for leg in ((0, 1) if index % 2 == 0 else (1, 0)):
                    if leg:
                        with tracer.installed() as main:
                            result = execute(request, main)
                        traced_s += result["latency_s"]
                    else:
                        result = execute(request, altzeta.cli.main)
                        plain_s += result["latency_s"]
                    result["traced"] = bool(leg)
                    emit(result)
            index += 1
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"rounds": r, "wall_s": time.perf_counter() - start,
            "plain_s": plain_s, "traced_s": traced_s}


MICRO_PASSES = 9


def microbenchmarks() -> dict[str, float]:
    """Per-layer timings of public functions at fixed inputs.

    Each pass times every function once, and a metric is its median over
    the passes, so a burst of machine noise hits one pass of many metrics
    rather than every sample of one.  A warm-up pass comes first.
    """
    az = altzeta
    s = complex(0.5, 14.1)
    n = 10_000
    terms = [az.pow_neg(m, s) for m in range(1, n + 1)]
    ladder = [16 << i for i in range(11)]
    defects = az.defect_ladder(s, ladder)
    grid = [0.1 * i for i in range(1, 10)]
    s1, s16 = az.zero_point(1).s, az.zero_point(16).s

    def repeat(fn, times):
        def run():
            for _ in range(times):
                fn()
        return run

    # name: (call, units of work per call, scale to the metric's unit)
    cases = {
        "kernel.pow_neg.ns_per_call": (lambda: [az.pow_neg(m, s) for m in range(1, n + 1)], n, 1e9),
        "kernel.sum_fixed_order.ns_per_term": (lambda: az.sum_fixed_order(terms), n, 1e9),
        "partial_sums.zeta_partial.ns_per_term": (lambda: az.zeta_partial(n, s), n, 1e9),
        "partial_sums.eta_partial.ns_per_term": (lambda: az.eta_partial(n, s), n, 1e9),
        "partial_sums.band_sum.ns_per_term": (lambda: az.band_sum(n, s), n, 1e9),
        "identities.riemann_sum.ns_per_term": (lambda: az.riemann_sum(n, s), n, 1e9),
        "identities.integral_closed_form.ns_per_call": (
            repeat(lambda: az.integral_closed_form(s), n), n, 1e9),
        "identities.residual_suite.ms": (lambda: az.residual_suite(n, s), 1, 1e3),
        "zeros.zero_check.ms": (lambda: az.zero_check(1, n), 1, 1e3),
        "zeros.eta_reference.s1.ms": (repeat(lambda: az.eta_reference(s1, 1e-11), 20), 20, 1e3),
        "zeros.eta_reference.s16.ms": (repeat(lambda: az.eta_reference(s16, 1e-11), 20), 20, 1e3),
        "zeros.eta_richardson.ms": (lambda: az.eta_richardson(s1), 1, 1e3),
        "decay.defect_ladder.ms": (lambda: az.defect_ladder(s, ladder), 1, 1e3),
        "decay.fit_decay.us": (repeat(lambda: az.fit_decay(defects), 100), 100, 1e6),
        "decay.strip_sweep.ms": (lambda: az.strip_sweep(grid, 0.0, ladder[:9]), 1, 1e3),
    }
    times: dict[str, list[float]] = defaultdict(list)
    for _ in range(MICRO_PASSES + 1):
        for name, (call, units, scale) in cases.items():
            t0 = time.perf_counter()
            call()
            times[name].append((time.perf_counter() - t0) / units * scale)
    return {name: statistics.median(samples[1:]) for name, samples in times.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stream = sys.stdout

    def emit(obj: dict) -> None:
        stream.write(json.dumps(obj) + "\n")

    for request in warmup_requests():
        execute(request, altzeta.cli.main)
    calib_start = calibration_ns_per_op()
    tracer = Tracer() if args.trace else None
    totals = closed_loop(args.workload, args.seed, args.seconds, tracer, emit)
    calib_end = calibration_ns_per_op()
    probe = [execute(request, altzeta.cli.main) for request in probe_requests()]
    summary = {
        "summary": True,
        "probe": [{"argv": r["argv"], "rc": r["rc"], "error": r["error"]} for r in probe],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calib_ns_per_op": [calib_start, calib_end],
        **totals,
    }
    if tracer is not None:
        summary["layers"] = {
            layer: {"calls": tracer.calls[layer], "terms": tracer.terms[layer],
                    "self_s": tracer.self_s[layer]}
            for layer in LAYERS
        }
        summary["micro"] = microbenchmarks()
    emit(summary)
    stream.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
