"""Zeros of the alternating zeta function on the line Re(s) = 1, and s = 1.

At s_k = 1 + 2k*pi*i/log 2 (k an integer) the factor 1 - 2**(1-s) vanishes,
and the quadrature identity collapses to

    eta_{2n}(s_k) = n**(-it) * (I(s_k) - defect_n(s_k)),      t = 2k*pi/log 2,

where the integral I(s_k) is 0 for k != 0 and log 2 at k = 0 (s = 1).  The
right side is a unit-modulus rotation times the limit minus a defect that
dies like 1/(4n), so one ladder shows both eta(s_k) = 0 and eta(1) = log 2.
This module enumerates the points, checks the collapsed identity, and
measures the distance to the limit, cross-checked by two oracles: an
Euler-transform accelerator that shares no summation code with the sums
under test, and a Richardson extrapolator of the same single-stream
``_stream_sums`` snapshots that the ladder reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fabs, fsum, pi
from typing import Sequence

from .identities import _LN2, _defects
from .kernel import _require_finite, pow_neg
from .partial_sums import _check_request, _stream_sums

#: Zero indices exposed by default; |t| grows linearly in k and large |t|
#: needs finer exp/log error analysis than desk scale warrants.
DEFAULT_K_LIMIT = 16

#: Transformed-term budget for the series accelerator.
DEFAULT_MAX_ACCEL_TERMS = 10_000

#: Smallest acceptable accelerator target (binary64 floor with headroom).
MIN_TARGET_TOL = 1e-13

#: First rung and number of eliminations of the Richardson ladder.
_RICHARDSON_START = 16
_RICHARDSON_LEVELS = 8


class ToleranceNotReached(ArithmeticError):
    """The accelerator's tail estimate did not reach the requested tolerance."""


@dataclass(frozen=True)
class ZeroPoint:
    """Index k and the point s = 1 + (2k*pi/log 2) i: a zero of eta, or s = 1 at k = 0."""

    k: int
    s: complex


@dataclass(frozen=True)
class ZeroCheck:
    """One instance of the collapsed identity at a point s_k.

    ``identity_diff`` = |eta_value - predicted|; ``magnitude`` = |eta_value -
    limit|, the distance to the limit (0 at a zero, log 2 at k = 0) that
    must shrink along an n-ladder.
    """

    point: ZeroPoint
    n: int
    eta_value: complex
    predicted: complex
    identity_diff: float
    magnitude: float


def zero_point(k: int) -> ZeroPoint:
    """The k-th point 1 + (2k*pi/log 2) i, k an integer; k = 0 gives s = 1."""
    if not k % 1 == 0:  # inf % 1 and nan % 1 are nan
        raise ValueError(f"k must be an integer, got {k!r}")
    if abs(k) > DEFAULT_K_LIMIT:
        raise ValueError(f"|k| = {abs(k)} exceeds the supported range {DEFAULT_K_LIMIT}")
    t = (2.0 * pi * k) / _LN2
    return ZeroPoint(int(k), complex(1.0, t))


def _limit(point: ZeroPoint) -> float:
    # eta(s_k), which is I(s_k) exactly: log 2 at s = 1, 0 at every zero.
    return _LN2 if point.k == 0 else 0.0


def _eta_ladder(s: complex, ladder: Sequence[int]) -> list[complex]:
    # eta_{2n}(s) for each ladder entry n (increasing), from one ascending pass.
    return [eta.value for eta in _stream_sums(s, [2 * n for n in ladder], alternating=True)]


def _zero_ladder(point: ZeroPoint, ladder: Sequence[int]) -> list[ZeroCheck]:
    # The collapsed identity at each entry of an increasing n-ladder.
    s = point.s
    limit = _limit(point)
    checks = []
    defects = _defects([s.real], s.imag, ladder)[0]
    for n, eta_value, dn in zip(ladder, _eta_ladder(s, ladder), defects):
        rotation = pow_neg(n, complex(0.0, s.imag))  # n**(-it), unit modulus
        predicted = rotation * (limit - dn)
        checks.append(ZeroCheck(point, n, eta_value, predicted,
                                abs(eta_value - predicted), abs(eta_value - limit)))
    return checks


def zero_check(k: int, n: int) -> ZeroCheck:
    """Evaluate both sides of eta_{2n}(s_k) = n**(-it) (I(s_k) - defect_n(s_k))."""
    return _zero_ladder(zero_point(k), [_check_request(n)])[0]


# ---------------------------------------------------------------------------
# Independent oracles.
#
# eta_reference deliberately avoids the exp(-s log n) kernel, the
# compensated accumulator, and every identity above: terms come from
# complex.__pow__, the head is summed exactly with math.fsum, and the tail
# is accelerated by an Euler transform in its numerically stable
# iterated-averaging form.
# ---------------------------------------------------------------------------


def _oracle_term(n: int, s: complex) -> complex:
    return complex(n) ** (-s)


def eta_reference(s: complex, target_abs_tol: float) -> complex:
    """Alternating zeta value to within ``target_abs_tol``, Re(s) > 0.

    A short head (long enough that tail phases rotate under a radian per
    step) is summed exactly; the tail is Euler-transformed by repeated
    averaging of its partial sums.  Transformed increments eventually decay
    geometrically with ratio about one half, so the remainder is estimated
    by geometric extrapolation of the observed increments, with a safety
    factor of four; the loop stops once that estimate falls below half the
    target.  The estimate is a heuristic, not a bound, and the head terms
    from complex.__pow__ carry a phase error that grows with |t|.  Tests
    hold the error within the target, against mpmath, only for |t| <= 145
    (the zero points with |k| <= 16); at Re(s) = 1/2 and target 1e-13 it
    misses from t = 300 on (1.3e-13) without raising, and reads 1.6e-12 at
    t = 3e3.  A certified tail bound is planned to replace it (ROADMAP.md,
    item 1).  If the estimate does not fall below the target within
    DEFAULT_MAX_ACCEL_TERMS transformed terms, ToleranceNotReached is
    raised.  The head, about |t| terms, is summed in two streamed passes,
    one per component, so memory stays constant; one over DEFAULT_MAX_TERMS
    raises ValueError.
    """
    s = _require_finite(s)
    if s.real <= 0.0:
        raise ValueError(f"need Re(s) > 0 for the alternating series, got {s!r}")
    if not target_abs_tol >= MIN_TARGET_TOL:
        raise ValueError(
            f"target_abs_tol must be at least {MIN_TARGET_TOL}, got {target_abs_tol}"
        )

    head = _check_request(max(8, int(fabs(s.imag)) + 1))

    def head_terms():  # complex.__pow__ is deterministic, so both passes see the same terms
        return (_oracle_term(n, s) if n % 2 == 1 else -_oracle_term(n, s)
                for n in range(1, head + 1))

    head_value = complex(fsum(z.real for z in head_terms()), fsum(z.imag for z in head_terms()))

    row: list[complex] = []  # current antidiagonal of the averaging table
    partial = complex(0.0, 0.0)
    sign = 1.0 if head % 2 == 0 else -1.0  # sign of term head+1
    increments: list[float] = []
    for j in range(DEFAULT_MAX_ACCEL_TERMS):
        partial += sign * _oracle_term(head + 1 + j, s)
        sign = -sign
        new_row = [partial]
        for k in range(len(row)):
            new_row.append(0.5 * (new_row[k] + row[k]))
        row = new_row
        if j:
            increments.append(abs(row[-1] - diag))
        diag = row[-1]
        if len(increments) >= 4:
            largest = max(increments[-3:])
            window = increments[-4:]
            ratios = [b / a for a, b in zip(window, window[1:]) if a > 0.0]
            bound = None
            if ratios and max(ratios) <= 0.75:
                rho = max(ratios)
                bound = 4.0 * largest * rho / (1.0 - rho)
            elif largest <= 0.125 * target_abs_tol:
                bound = 4.0 * largest
            if bound is not None and bound <= 0.5 * target_abs_tol:
                return head_value + diag
    raise ToleranceNotReached(
        f"accelerator did not certify {target_abs_tol} within "
        f"{DEFAULT_MAX_ACCEL_TERMS} terms at s={s!r}"
    )


def eta_richardson(s: complex) -> complex:
    """Richardson-extrapolated even partial sums of the alternating series.

    The truncation error of eta_{2m}(s) expands in powers m**-(s+j), so a
    doubling ladder m = 16, 32, ..., 4096 admits elimination with the exact
    factors 2**-(s+j).  With Re(s) > 0 the denominators stay away from
    zero.  This is the deliberately crude guard oracle: slower convergence
    than eta_reference, and a different mechanism over the direct sums.  It
    carries no error bound, and its error grows with |t|: against mpmath at
    Re(s) = 1/2 it is 1.5e-14 at t = 14.1, 1.2e-8 at t = 145 (about s_16),
    4.1e-4 at t = 1e3 and 1.2 at t = 1e4.
    """
    s = _require_finite(s)
    if s.real <= 0.0:
        raise ValueError(f"need Re(s) > 0 for the alternating series, got {s!r}")
    ladder = [_RICHARDSON_START << i for i in range(_RICHARDSON_LEVELS + 1)]
    values = _eta_ladder(s, ladder)
    for j in range(_RICHARDSON_LEVELS):
        r = pow_neg(2, s + j)  # 2**-(s+j)
        values = [(values[i + 1] - r * values[i]) / (1.0 - r) for i in range(len(values) - 1)]
    return values[0]
