"""Closed-form integral, right-endpoint quadrature, defect, and residual checks.

The closed form

    integral of (1+x)**(-s) over [0,1]  =  (1 - 2**(1-s)) / (s - 1),

with the removable singularity at s = 1 (value log 2), is paired with its
n-node right-endpoint Riemann sum; their difference is the quadrature
defect.  Three exact algebraic identities tie these to the partial sums:

    cancellation:  eta_{2n}(s) - zeta_{2n}(s) = -2**(1-s) * zeta_n(s)
    band form:     eta_{2n}(s) = (1 - 2**(1-s)) zeta_{2n}(s) + 2**(1-s) * band_n(s)
    quadrature:    eta_{2n}(s) = (1 - 2**(1-s)) zeta_{2n}(s)
                                 + (2n)**(1-s) * (integral - defect_n(s))

Each residual check evaluates both sides independently and reports the
absolute difference together with a scale: the total magnitude of every
constituent term, the budget that rounding error is judged against.
Only rounding separates the two sides; the identities hold for all s.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, expm1, fabs, log, log1p, sin
from typing import Sequence

from .kernel import MACHINE_EPSILON, SumResult, _require_finite, _stream, pow_neg
from .partial_sums import _check_request, _prefix_sums

_LN2 = log(2.0)


def _expm1_complex(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small z.

    Real part via expm1(x)cos(y) - 2 sin^2(y/2); both pieces are O(|z|), so
    no leading-digit cancellation occurs.  Sine signs are restored
    explicitly to keep conjugation symmetry exact.
    """
    x, y = z.real, z.imag
    ay = fabs(y)
    half = sin(0.5 * ay)
    sn = sin(ay)
    if y < 0.0:
        sn = -sn
    return complex(expm1(x) * cos(ay) - 2.0 * half * half, exp(x) * sn)


def integral_closed_form(s: complex) -> complex:
    """The integral of (1+x)**(-s) over [0,1]; log 2 at the removable s = 1.

    For |u| < 2**-27, u = (s-1) log 2, the two-term series log 2 (1 - u/2) is within half an
    ulp; it covers s = 1 (0/0) and a subnormal u, where the quotient below loses bits.
    """
    s = _require_finite(s)
    u = (s - 1.0) * _LN2
    if abs(u) < 2.0 ** -27:  # the next term, log 2 * u**2/6, is under half an ulp
        return _LN2 * (1.0 - 0.5 * u)
    return -_expm1_complex(-u) / (s - 1.0)  # 1 - 2**(1-s) = -expm1(-u), free of cancellation


def _divisor_chains(ladder: Sequence[int]) -> list[list[int]]:
    # The distinct rungs split greedily into chains, each listed from its top
    # down, in which every rung divides the one above it; a doubling ladder is
    # one chain.  A rung's nodes k/n are then nodes of its chain's top.
    chains: list[list[int]] = []
    for n in sorted(set(ladder), reverse=True):
        for chain in chains:
            if chain[-1] % n == 0:
                chain.append(n)
                break
        else:
            chains.append([n])
    return chains


def _riemann_ladder(
    sigmas: Sequence[float], t: float, ladder: Sequence[int]
) -> list[list[SumResult]]:
    """riemann_sum(n, sigma + it) for every sigma (rows) and rung n (columns).

    One ascending pass per divisor chain over its top rung's nodes k = 1..N
    forms log1p(k/N) and the signed sine and cosine of the phase once per
    node, and exp(-sigma log1p(k/N)) once per node and sigma.  Each (sigma,
    rung) has its own compensated stream, fed only at that rung's nodes:
    k/n and (k*N/n)/N are the same rational, so IEEE division gives the same
    double and every stream sees exactly the terms of a fresh riemann_sum,
    in the same order.  Results are therefore bit-identical to one-off
    calls.  State is O(rungs * sigmas); no node is stored.
    """
    ladder = [_check_request(n) for n in ladder]
    for sigma in sigmas:
        _require_finite(complex(sigma, t))
    nt = -float(t)
    streams = {}  # (sigma index, n) -> result of that stream
    for chain in _divisor_chains(ladder):
        top = chain[0]
        heads = []  # (-sigma, add of the sigma's top rung)
        for i, sigma in enumerate(sigmas):
            add, below_n = None, 0  # built coarsest first, so each rung can feed the one below
            for n in reversed(chain):
                add, streams[i, n] = _stream(n // below_n if below_n else 0, add)
                below_n = n
            heads.append((-float(sigma), add))
        for k in range(1, top + 1):
            ln_x = log1p(k / top)
            # The phase part of kernel._exp_neg_parts, shared by every sigma.
            phase = nt * ln_x
            ap = fabs(phase)
            sn = sin(ap)
            if phase < 0.0:
                sn = -sn
            cs = cos(ap)
            for neg_sigma, add in heads:
                mag = exp(neg_sigma * ln_x)
                add(mag * cs, mag * sn, mag)
    found = {}
    for (i, n), result in streams.items():
        # The raw node sum is divided by n once, and the division folded into the bound.
        raw = result(n)
        bound = (raw.err_bound + MACHINE_EPSILON * (fabs(raw.value.real) + fabs(raw.value.imag))) / n
        found[i, n] = SumResult(raw.value / n, bound, n, raw.abs_sum / n)
    return [[found[i, n] for n in ladder] for i in range(len(sigmas))]


def riemann_sum(n: int, s: complex) -> SumResult:
    """Right-endpoint Riemann sum of (1+x)**(-s): (1/n) sum_{k=1}^n (1+k/n)**(-s).

    Node logarithms use log1p(k/n), ascending k; the division by n happens
    once at the end and is folded into the error bound.  This is the
    one-rung, one-sigma case of the shared-node pass ``_riemann_ladder``,
    which serves every defect ladder and strip sweep bit for bit alike.
    Raises OverflowError if the sum leaves the binary64 range.
    """
    s = _require_finite(s)
    return _riemann_ladder([s.real], s.imag, [n])[0][0]


def defect(n: int, s: complex) -> complex:
    """Quadrature defect: closed-form integral minus the n-node Riemann sum."""
    return integral_closed_form(s) - riemann_sum(n, s).value


def _defects(sigmas: Sequence[float], t: float, ladder: Sequence[int]) -> list[list[complex]]:
    # defect(n, sigma + it) for every sigma (rows) and rung n (columns), one Riemann pass.
    out = []
    for sigma, row in zip(sigmas, _riemann_ladder(sigmas, t, ladder)):
        integral = integral_closed_form(complex(sigma, t))
        out.append([integral - r.value for r in row])
    return out


@dataclass(frozen=True)
class Residual:
    """Two independently evaluated sides of one identity instance.

    ``abs_diff`` is exactly |lhs - rhs| as computed; ``scale`` is the summed
    magnitude of every constituent term (not a bound on |lhs| or |rhs|).
    """

    lhs: complex
    rhs: complex
    abs_diff: float
    scale: float


def _residual_ladder(ladder: Sequence[int], s: complex) -> list[tuple[Residual, Residual, Residual]]:
    """The three residuals at each rung n of a doubling ladder (each entry twice the last).

    One pass with stops ladder | 2*ladder serves every rung: zeta_n, zeta_2n
    and eta_2n are prefix snapshots, and band_n is the block stream between
    the consecutive stops n and 2n.  Every defect_n comes from one shared-node
    Riemann pass (``_riemann_ladder``).  The sides stay independent: zeta_2n
    is never formed as zeta_n + band_n, and the Riemann nodes log1p(k/n) are
    shared only between Riemann rungs, never with the Dirichlet pass.
    """
    s = _require_finite(s)
    stops = sorted(set(ladder) | {2 * n for n in ladder})
    snap = dict(zip(stops, _prefix_sums(s, stops, blocks=True)))
    c = pow_neg(2, s - 1.0)  # 2**(1-s)
    integral = integral_closed_form(s)
    out = []
    for n, dn in zip(ladder, _defects([s.real], s.imag, ladder)[0]):
        half = snap[n][0]
        zeta2n, eta2n, band = snap[2 * n]
        # (2n)**(1-s) from log(2n) is a different path from 2**(1-s) * n**(1-s),
        # so the quadrature check is not the band form in disguise.
        w = pow_neg(2 * n, s - 1.0)
        sides = (  # (lhs, rhs, scale) of cancellation, band and quadrature
            (eta2n.value - zeta2n.value, -(c * half.value),
             eta2n.abs_sum + zeta2n.abs_sum + abs(c) * half.abs_sum),
            (eta2n.value, (1.0 - c) * zeta2n.value + c * band.value,
             eta2n.abs_sum + abs(1.0 - c) * zeta2n.abs_sum + abs(c) * band.abs_sum),
            (eta2n.value, (1.0 - c) * zeta2n.value + w * (integral - dn),
             eta2n.abs_sum + abs(1.0 - c) * zeta2n.abs_sum + abs(w) * (abs(integral) + abs(dn))),
        )
        out.append(tuple(Residual(lhs, rhs, abs(lhs - rhs), scale) for lhs, rhs, scale in sides))
    return out


def residual_suite(n: int, s: complex) -> tuple[Residual, Residual, Residual]:
    """The cancellation, band and quadrature residuals at n, from one pass to 2n.

    Index the triple for one identity; ``[2].rhs`` is eta_{2n}(s) reassembled
    from the quadrature form (integral, defect and (2n)**(1-s)).
    """
    return _residual_ladder([n], s)[0]
