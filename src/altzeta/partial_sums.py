"""Finite Dirichlet partial sums: plain, alternating, and the upper band.

The three sums are

    zeta_partial(n, s) = sum_{m=1}^{n} m**(-s)
    eta_partial(n, s)  = sum_{m=1}^{n} (-1)**(m-1) m**(-s)
    band_sum(n, s)     = sum_{m=n+1}^{2n} m**(-s)

all entire in s and all summed in ascending m with compensated
accumulation, so results are bit-deterministic.  They, and every ladder of
them in the package, are snapshots of one ascending pass (``_prefix_sums``):
a Kahan state after n adds is exactly a fresh sum of those n terms.  Term
counts are capped; exceeding the cap raises before any summing.
"""

from __future__ import annotations

from math import fabs, log
from typing import Sequence

from .kernel import SumResult, _exp_neg_parts, _kahan_result, _require_finite

#: Hard cap on the number of terms in any one sum.
DEFAULT_MAX_TERMS = 10_000_000


def _check_request(n: int) -> None:
    if n < 1:
        raise ValueError(f"N must be a positive integer, got {n}")
    if n > DEFAULT_MAX_TERMS:
        raise ValueError(
            f"requested sum of {n} terms exceeds the configured limit of {DEFAULT_MAX_TERMS}"
        )


def _prefix_sums(
    s: complex, stops: Sequence[int], first: int = 1
) -> list[tuple[SumResult, SumResult, SumResult]]:
    """One ascending pass over m = first..stops[-1] (stops strictly increasing).

    Three compensated streams share each kernel value m**(-s): the zeta
    prefix, the eta prefix with sign (-1)**(m-1), and the block since the
    previous stop, summed as its own stream.  Returns a (zeta, eta, block)
    triple of SumResults per stop; raises OverflowError at the first stop
    where a sum or a magnitude tally has left the binary64 range.
    """
    for stop in stops:
        _check_request(stop - first + 1)
    s = _require_finite(s)
    sigma, t = s.real, s.imag
    zeta = eta = c_zeta = c_eta = 0j
    abs_re = abs_im = abs_sum = 0.0  # magnitudes are shared by zeta and eta
    out = []
    lo = first
    for stop in stops:
        block = c_block = 0j
        b_re = b_im = b_sum = 0.0
        for m in range(lo, stop + 1):
            re, im, mag = _exp_neg_parts(sigma, t, log(m))
            z = complex(re, im)
            # Kahan steps inlined; complex + and - act componentwise, so each
            # is the real-pair update of kernel._stream's add.
            y = z - c_zeta
            w = zeta + y
            zeta, c_zeta = w, (w - zeta) - y
            y = (z if m & 1 else -z) - c_eta
            w = eta + y
            eta, c_eta = w, (w - eta) - y
            y = z - c_block
            w = block + y
            block, c_block = w, (w - block) - y
            re, im = fabs(re), fabs(im)
            abs_re, abs_im, abs_sum = abs_re + re, abs_im + im, abs_sum + mag
            b_re, b_im, b_sum = b_re + re, b_im + im, b_sum + mag
        prefix = stop - first + 1
        out.append((
            _kahan_result(zeta, prefix, abs_re, abs_im, abs_sum),
            _kahan_result(eta, prefix, abs_re, abs_im, abs_sum),
            _kahan_result(block, stop - lo + 1, b_re, b_im, b_sum),
        ))
        lo = stop + 1
    return out


def zeta_partial(n: int, s: complex) -> SumResult:
    """Partial sum of the zeta Dirichlet series, ascending over 1..n."""
    return _prefix_sums(s, [n])[0][0]


def eta_partial(n: int, s: complex) -> SumResult:
    """Partial sum of the alternating zeta Dirichlet series over 1..n."""
    return _prefix_sums(s, [n])[0][1]


def band_sum(n: int, s: complex) -> SumResult:
    """Sum over the band n+1..2n, the upper half of a 2n-term partial sum."""
    return _prefix_sums(s, [2 * n], first=n + 1)[0][0]
