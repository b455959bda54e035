"""Finite Dirichlet partial sums: plain, alternating, and the upper band.

The three sums are

    zeta_partial(n, s) = sum_{m=1}^{n} m**(-s)
    eta_partial(n, s)  = sum_{m=1}^{n} (-1)**(m-1) m**(-s)
    band_sum(n, s)     = sum_{m=n+1}^{2n} m**(-s)

all entire in s and all summed in ascending m with compensated
accumulation, so results are bit-deterministic.  They, and every ladder of
them in the package, are snapshots of an ascending pass: ``_stream_sums``
for a caller that reads one series (the one-off sums, the zero ladders and
the Richardson oracle), ``_prefix_sums`` for one that reads zeta and eta
side by side (``eval`` and the residual ladders).  A Kahan state after n
adds is exactly a fresh sum of those n terms, so both passes give the same
bits.  Term counts are capped, and n must be a whole number (an integral
float is taken as that integer); either failure raises ValueError before
any summing.
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


def _snapshot(t: float, re: float, im: float, n: int,
              abs_re: float, abs_im: float, abs_sum: float) -> SumResult:
    # The passes take each sine of |t| ln m, so for t > 0 they sum the
    # conjugate terms.  Kahan summation commutes with negation, and its
    # sums are never -0.0, so 0.0 - im is the imaginary part of the sum
    # of the true terms bit for bit, a +0.0 sum staying +0.0.
    return _kahan_result(complex(re, 0.0 - im if t > 0.0 else im), n, abs_re, abs_im, abs_sum)


def _stream_sums(
    s: complex, stops: Sequence[int], first: int = 1, *, alternating: bool = False
) -> list[SumResult]:
    """One ascending pass over m = first..stops[-1] (stops strictly increasing).

    Each kernel value m**(-s), the body of kernel._exp_neg_parts written
    inline, feeds one compensated float-pair stream with kernel._stream's
    update, also inline: the terms m**(-s), or with ``alternating`` the terms
    (-1)**(m-1) m**(-s), the sign a factor of +-1.0 on the magnitude.
    Returns the SumResult of terms first..stop at each stop; raises
    OverflowError at the first stop where the sum or a magnitude tally has
    left the binary64 range.
    """
    stops = [first - 1 + _check_request(stop - first + 1) for stop in stops]  # now ints
    s = _require_finite(s)
    neg_sigma, t = -s.real, s.imag
    abs_t = fabs(t)
    flip = -1.0 if alternating else 1.0
    sign = flip ** (first - 1)
    z_re = z_im = c_re = c_im = abs_re = abs_im = abs_sum = 0.0
    out = []
    lo = first
    for stop in stops:
        for m in range(lo, stop + 1):
            ln = log(m)
            mag = exp(neg_sigma * ln)
            ap = abs_t * ln
            signed = sign * mag
            sign *= flip
            re = signed * cos(ap)
            im = signed * sin(ap)
            y = re - c_re
            w = z_re + y
            c_re = (w - z_re) - y
            z_re = w
            y = im - c_im
            w = z_im + y
            c_im = (w - z_im) - y
            z_im = w
            abs_re += fabs(re)
            abs_im += fabs(im)
            abs_sum += mag
        out.append(_snapshot(t, z_re, z_im, stop - first + 1, abs_re, abs_im, abs_sum))
        lo = stop + 1
    return out


def _prefix_sums(
    s: complex, stops: Sequence[int], *, blocks: bool = False
) -> list[tuple[SumResult, SumResult, SumResult | None]]:
    """One ascending pass over m = 1..stops[-1] (stops strictly increasing).

    The kernel and the update are those of ``_stream_sums``, feeding two
    streams from each kernel value: the zeta prefix and the eta prefix, its
    sign a factor of +-1.0 flipped each term; and, only with ``blocks``, the
    block since the previous stop, summed as its own stream.  Returns a
    (zeta, eta, block) triple of SumResults per stop, the block None without
    ``blocks``; raises OverflowError at the first stop where a sum or a
    magnitude tally has left the binary64 range.  Callers that read one of
    zeta and eta take ``_stream_sums``, which skips the other stream.
    """
    stops = [_check_request(stop) for stop in stops]  # now ints
    s = _require_finite(s)
    neg_sigma, t = -s.real, s.imag
    abs_t = fabs(t)
    sign = 1.0  # of the eta term at m
    z_re = z_im = cz_re = cz_im = e_re = e_im = ce_re = ce_im = 0.0
    abs_re = abs_im = abs_sum = 0.0  # magnitudes are shared by zeta and eta
    out = []
    lo = 1
    for stop in stops:
        b_re = b_im = cb_re = cb_im = ab_re = ab_im = ab_sum = 0.0
        for m in range(lo, stop + 1):
            ln = log(m)
            mag = exp(neg_sigma * ln)
            ap = abs_t * ln
            re = mag * cos(ap)
            im = mag * sin(ap)
            y = re - cz_re
            w = z_re + y
            cz_re = (w - z_re) - y
            z_re = w
            y = im - cz_im
            w = z_im + y
            cz_im = (w - z_im) - y
            z_im = w
            y = sign * re - ce_re
            w = e_re + y
            ce_re = (w - e_re) - y
            e_re = w
            y = sign * im - ce_im
            w = e_im + y
            ce_im = (w - e_im) - y
            e_im = w
            sign = -sign
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
        out.append((
            _snapshot(t, z_re, z_im, stop, abs_re, abs_im, abs_sum),
            _snapshot(t, e_re, e_im, stop, abs_re, abs_im, abs_sum),
            _snapshot(t, b_re, b_im, stop - lo + 1, ab_re, ab_im, ab_sum) if blocks else None,
        ))
        lo = stop + 1
    return out


def zeta_partial(n: int, s: complex) -> SumResult:
    """Partial sum of the zeta Dirichlet series, ascending over 1..n."""
    return _stream_sums(s, [n])[0]


def eta_partial(n: int, s: complex) -> SumResult:
    """Partial sum of the alternating zeta Dirichlet series over 1..n."""
    return _stream_sums(s, [n], alternating=True)[0]


def band_sum(n: int, s: complex) -> SumResult:
    """Sum over the band n+1..2n, the upper half of a 2n-term partial sum."""
    n = _check_request(n)
    return _stream_sums(s, [2 * n], first=n + 1)[0]
