"""Finite Dirichlet partial sums: plain, alternating, and the upper band.

The three sums are

    zeta_partial(n, s) = sum_{m=1}^{n} m**(-s)
    eta_partial(n, s)  = sum_{m=1}^{n} (-1)**(m-1) m**(-s)
    band_sum(n, s)     = sum_{m=n+1}^{2n} m**(-s)

all entire in s and all summed in ascending m with compensated
accumulation, so results are bit-deterministic.  They, and every ladder of
them in the package, are snapshots of one ascending pass (``_prefix_sums``):
a Kahan state after n adds is exactly a fresh sum of those n terms.  Term
counts are capped, and n must be a whole number (an integral float is
taken as that integer); either failure raises ValueError before any summing.
"""

from __future__ import annotations

from math import cos, exp, fabs, log, sin
from typing import Sequence

from .kernel import SumResult, _kahan_result, _positive_int, _require_finite

#: Hard cap on the number of terms in any one sum.
DEFAULT_MAX_TERMS = 10_000_000


def _check_request(n: int) -> int:
    # n as an int, once it is a whole number of terms (an integral float is one) within the cap.
    n = _positive_int(n)
    if n > DEFAULT_MAX_TERMS:
        raise ValueError(
            f"requested sum of {n} terms exceeds the configured limit of {DEFAULT_MAX_TERMS}"
        )
    return n


def _prefix_sums(
    s: complex, stops: Sequence[int], first: int = 1, *, blocks: bool = False
) -> list[tuple[SumResult, SumResult, SumResult | None]]:
    """One ascending pass over m = first..stops[-1] (stops strictly increasing).

    Each kernel value m**(-s), the body of kernel._exp_neg_parts written
    inline, feeds compensated float-pair streams with kernel._stream's update,
    also inline: the zeta prefix, the eta prefix with sign (-1)**(m-1), and,
    only with ``blocks``, the block since the previous stop, summed as its
    own stream.  Returns a (zeta, eta, block) triple of SumResults per stop,
    the block None without ``blocks``; raises OverflowError at the first stop
    where a sum or a magnitude tally has left the binary64 range.
    """
    stops = [first - 1 + _check_request(stop - first + 1) for stop in stops]  # now ints
    s = _require_finite(s)
    neg_sigma, neg_t = -s.real, -s.imag
    z_re = z_im = cz_re = cz_im = e_re = e_im = ce_re = ce_im = 0.0
    abs_re = abs_im = abs_sum = 0.0  # magnitudes are shared by zeta and eta
    out = []
    lo = first
    for stop in stops:
        b_re = b_im = cb_re = cb_im = ab_re = ab_im = ab_sum = 0.0
        for m in range(lo, stop + 1):
            ln = log(m)
            mag = exp(neg_sigma * ln)
            phase = neg_t * ln
            ap = fabs(phase)
            sn = sin(ap)
            if phase < 0.0:
                sn = -sn
            re = mag * cos(ap)
            im = mag * sn
            y = re - cz_re
            w = z_re + y
            cz_re = (w - z_re) - y
            z_re = w
            y = im - cz_im
            w = z_im + y
            cz_im = (w - z_im) - y
            z_im = w
            if m & 1:
                sr, si = re, im
            else:
                sr, si = -re, -im
            y = sr - ce_re
            w = e_re + y
            ce_re = (w - e_re) - y
            e_re = w
            y = si - ce_im
            w = e_im + y
            ce_im = (w - e_im) - y
            e_im = w
            abs_re += fabs(re)
            abs_im += fabs(im)
            abs_sum += mag
            if blocks:
                y = re - cb_re
                w = b_re + y
                cb_re = (w - b_re) - y
                b_re = w
                y = im - cb_im
                w = b_im + y
                cb_im = (w - b_im) - y
                b_im = w
                ab_re += fabs(re)
                ab_im += fabs(im)
                ab_sum += mag
        prefix = stop - first + 1
        out.append((
            _kahan_result(complex(z_re, z_im), prefix, abs_re, abs_im, abs_sum),
            _kahan_result(complex(e_re, e_im), prefix, abs_re, abs_im, abs_sum),
            _kahan_result(complex(b_re, b_im), stop - lo + 1, ab_re, ab_im, ab_sum)
            if blocks else None,
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
    n = _check_request(n)
    return _prefix_sums(s, [2 * n], first=n + 1)[0][0]
