"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each criterion enforces its stated tolerance and runtime budget.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

from altzeta.decay import defect_ladder, fit_decay
from altzeta.identities import defect, residual_suite
from altzeta.kernel import pow_neg
from altzeta.partial_sums import eta_partial
from altzeta.zeros import eta_reference, eta_richardson, zero_check, zero_point

LN2 = math.log(2.0)
T1 = 2.0 * math.pi / LN2  # ordinate of the first zero, 9.06472...

DOUBLING_4_14 = [1 << i for i in range(4, 15)]


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed <= budget_seconds, (
            f"runtime {elapsed:.2f}s exceeds budget {budget_seconds}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_identity_suite():
    """Three identity residuals over a 60-point grid, five n per point."""
    with criterion(1, "identity suite", 10.0):
        sigmas = (-2.0, 0.0, 0.5, 1.0, 2.0, 4.0)
        ts = (0.0, 1.0, T1, 14.1, 25.0, 50.0)
        ns = (1, 10, 100, 1000, 10**4)
        for sigma in sigmas:
            for t in ts:
                s = complex(sigma, t)
                for n in ns:
                    for r in residual_suite(n, s):
                        assert r.abs_diff <= 1e-12 * max(r.scale, 1.0), (s, n, r)


def test_criterion_2_classic_limit_log_two():
    """eta_2n(1) -> log 2 with defect exactly tracking the gap."""
    with criterion(2, "classic limit log 2", 1.0):
        one = complex(1.0, 0.0)
        # n = 1: gap and defect both reproduce log2 - 1/2 to one ulp
        gap = abs(eta_partial(2, one).value - LN2)
        d1 = abs(defect(1, one))
        target = LN2 - 0.5
        assert abs(gap - target) <= math.ulp(target)
        assert abs(d1 - target) <= math.ulp(target)
        # scaled defect sits in the calibrated band around 1/4
        for i in range(6, 15):
            n = 1 << i
            dn = abs(defect(n, one))
            assert 0.2 <= n * dn <= 0.3
            # the limit gap and the defect are the same number up to rounding
            assert abs(abs(eta_partial(2 * n, one).value - LN2) - dn) <= 1e-13


def test_criterion_3_zero_demonstration():
    """|eta_2n(s_k)| dies along the ladder; collapsed identity holds throughout."""
    with criterion(3, "zero demonstration", 30.0):
        for k in (1, -1, 2, -2, 3, -3):
            magnitudes = []
            for n in DOUBLING_4_14:
                check = zero_check(k, n)
                d_abs = abs(check.predicted)
                assert check.identity_diff <= 1e-12 * (1.0 + d_abs), (k, n)
                magnitudes.append(check.magnitude)
            assert all(a > b for a, b in zip(magnitudes, magnitudes[1:])), k
            assert magnitudes[-1] <= 1e-3, (k, magnitudes[-1])


def test_criterion_4_oracle_cross_check():
    """Accelerator vs Richardson vs the zero."""
    with criterion(4, "oracle cross-check", 30.0):
        grid = [
            complex(sigma, t)
            for sigma in (0.2, 0.9, 1.6, 2.3, 3.0)
            for t in (-30.0, -9.5, 0.5, 14.1)
        ]
        assert len(grid) == 20
        for s in grid:
            accelerated = eta_reference(s, 1e-11)
            assert abs(accelerated - eta_richardson(s)) <= 1e-9, s
        assert abs(eta_reference(zero_point(1).s, 1e-11)) <= 1e-10


def test_criterion_5_convergence_rate():
    """Unit decay exponent and the leading constant (1 - 2**-s)/2."""
    with criterion(5, "convergence rate", 30.0):
        points = [
            complex(1.0, 0.0),
            complex(2.0, 0.0),
            complex(0.5, 0.0),
            complex(0.5, 14.1),
            complex(1.0, T1),
        ]
        for s in points:
            fit = fit_decay(defect_ladder(s, DOUBLING_4_14))
            assert abs(fit.beta - 1.0) <= 0.05, (s, fit.beta)
            n = 1 << 14
            limit = (1.0 - pow_neg(2, s)) / 2.0
            assert abs(n * defect(n, s) - limit) <= 0.02 * abs(limit), s


def test_criterion_6_cli_determinism():
    """Every command twice; byte-identical stdout both times."""
    with criterion(6, "CLI determinism", 60.0):
        invocations = [
            ["eval", "--sigma", "0.5", "--t", "14.1", "--n", "100"],
            ["residuals", "--sigma", "0.5", "--t", "14.1", "--n-max", "256"],
            ["zeros", "--k", "1", "--n-max", "512"],
            ["converge", "--sigma", "1", "--t", "0", "--n-max", "2048"],
            ["sweep", "--sigma-min", "0.2", "--sigma-max", "0.8",
             "--sigma-step", "0.2", "--n-max", "512"],
        ]
        for argv in invocations:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "altzeta", *argv],
                    capture_output=True,
                    check=True,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout, argv
            assert runs[0].stdout  # nonempty output
