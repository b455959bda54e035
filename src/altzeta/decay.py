"""How fast the quadrature defect dies: power-law fits over n-ladders.

The instrumentation model is |defect_n(s)| ~ C * n**(-beta), fitted by
ordinary least squares in log-log coordinates.  For fixed s away from the
points where the defect vanishes identically, the right-endpoint rule
error is dominated by its 1/n term, so beta lands near 1.  The strip sweep
just repeats the fit across 0 < Re(s) < 1 and records the raw numbers; it
draws no conclusions from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, log, sqrt
from typing import Sequence

from .identities import _defects
from .kernel import MACHINE_EPSILON, _require_finite

#: |defect| at or below this is rounding noise; fitting its log is meaningless.
DEGENERACY_FLOOR = 10.0 * MACHINE_EPSILON


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit of defect magnitudes against n."""

    beta: float
    log_c: float
    rms_residual: float
    points_used: int


@dataclass(frozen=True)
class StripSample:
    """One decay fit at a point of the critical strip 0 < Re(s) < 1."""

    s: complex
    fit: DecayFit


def _validated_ladder(n_ladder: Sequence[int]) -> list[int]:
    ladder = [int(n) for n in n_ladder]
    if len(ladder) < 3:
        raise ValueError(f"ladder too short: need at least 3 entries, got {len(ladder)}")
    if ladder[0] < 1:
        raise ValueError(f"ladder entries must be positive, got {ladder[0]}")
    for a, b in zip(ladder, ladder[1:]):
        if b <= a:
            raise ValueError(f"ladder must be strictly increasing, got {a} then {b}")
    return ladder


def defect_ladder(s: complex, n_ladder: Sequence[int]) -> list[tuple[int, complex]]:
    """The defect at each ladder entry, in ladder order.

    Every rung reads its Riemann sum from one shared-node pass over the
    largest rung's nodes (each rung that divides the next shares them), bit
    for bit equal to ``defect(n, s)`` called rung by rung.
    """
    s = _require_finite(s)
    ladder = _validated_ladder(n_ladder)
    return list(zip(ladder, _defects([s.real], s.imag, ladder)[0]))


def fit_decay(samples: Sequence[tuple[int, complex]]) -> DecayFit:
    """OLS fit of log|defect| against log n; beta is the negated slope."""
    pairs = list(samples)
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 samples to fit, got {len(pairs)}")
    for n, d in pairs:
        if abs(d) <= DEGENERACY_FLOOR:
            raise ValueError(
                "defect at machine-noise level; increase s or decrease N "
                f"(|defect({n})| = {abs(d):.3e})"
            )
    xs = [log(n) for n, _ in pairs]
    ys = [log(abs(d)) for _, d in pairs]
    # statistics.linear_regression of Python 3.10/3.11; 3.12's math.sumprod changes the last digits.
    xbar = fsum(xs) / len(xs)
    ybar = fsum(ys) / len(ys)
    sxy = fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = fsum((x - xbar) * (x - xbar) for x in xs)
    if sxx == 0.0:
        raise ValueError("cannot fit: every sample has the same n")
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residuals = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    rms = sqrt(fsum(r * r for r in residuals) / len(residuals))
    return DecayFit(beta=-slope, log_c=intercept, rms_residual=rms, points_used=len(pairs))


def strip_sweep(
    sigma_grid: Sequence[float], t: float, n_ladder: Sequence[int]
) -> list[StripSample]:
    """One decay fit per grid point s = sigma + it, rows in grid order.

    Every sigma and every rung share one Riemann pass: the node logarithm
    and phase are formed once per node and the magnitude once per node and
    sigma; each fit equals ``fit_decay(defect_ladder(sigma + it, n_ladder))``
    bit for bit.
    """
    sigmas = [float(x) for x in sigma_grid]
    for sigma in sigmas:
        if not 0.0 < sigma < 1.0:
            raise ValueError(f"sigma must lie strictly inside (0, 1), got {sigma}")
    for a, b in zip(sigmas, sigmas[1:]):
        if b <= a:
            raise ValueError(f"sigma grid must be strictly increasing, got {a} then {b}")
    if not sigmas:
        return []
    ladder = _validated_ladder(n_ladder)
    return [StripSample(s=complex(sigma, t), fit=fit_decay(list(zip(ladder, defects))))
            for sigma, defects in zip(sigmas, _defects(sigmas, t, ladder))]
