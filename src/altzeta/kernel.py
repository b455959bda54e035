"""Deterministic complex arithmetic primitives.

Everything downstream sums terms of the form n**(-s) for complex s, so the
two things this module must get right are (a) an exponent kernel whose
conjugation symmetry is exact in floating point, and (b) a fixed-order
compensated accumulator with a defensible bound on its own rounding error.

All arithmetic is IEEE binary64.  Results depend only on the inputs, never
on scheduling: every function here is pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, fabs, isfinite, log, sin
from typing import Iterable

#: binary64 machine epsilon (spacing of doubles just above 1).
MACHINE_EPSILON = 2.0 ** -52


@dataclass(frozen=True)
class SumResult:
    """Value of a finite sum plus bookkeeping from the accumulation.

    ``err_bound`` is a first-order bound on the accumulated rounding error
    of ``value``; ``abs_sum`` is the sum of the magnitudes of the summed
    terms, the natural scale against which identity residuals are judged;
    ``terms`` is the number of terms actually summed.
    """

    value: complex
    err_bound: float
    terms: int
    abs_sum: float


def _require_finite(s: complex) -> complex:
    s = complex(s)
    if not (isfinite(s.real) and isfinite(s.imag)):
        raise ValueError(f"s must be finite, got {s!r}")
    return s


def _exp_neg_parts(sigma: float, t: float, ln_x: float) -> tuple[float, float, float]:
    """Real part, imaginary part, and magnitude of exp(-(sigma + it) * ln_x).

    The sine is evaluated on |phase| and the sign restored explicitly, so
    conjugating the exponent negates the imaginary part bit for bit; the
    cosine is even, so the real part is untouched.  That makes conjugation
    symmetry of every downstream sum exact rather than libm-dependent.
    """
    mag = exp(-sigma * ln_x)
    phase = -t * ln_x
    ap = fabs(phase)
    sn = sin(ap)
    if phase < 0.0:
        sn = -sn
    return mag * cos(ap), mag * sn, mag


def pow_neg(n: int, s: complex) -> complex:
    """n**(-s) computed as exp(-s log n) in the working precision.

    n is a positive integer, so the real logarithm is the only branch.
    Deterministic: identical inputs give bit-identical outputs.  Raises
    OverflowError if n**(-Re(s)) exceeds the binary64 range; no non-finite
    value is ever returned.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    s = _require_finite(s)
    re, im, _ = _exp_neg_parts(s.real, s.imag, log(n))
    return complex(re, im)


def _stream(every: int = 0, below=None):
    """One Kahan-compensated stream of complex terms: an (add, result) pair.

    add(re, im, mag) adds a term, each component with its own compensation,
    and passes every ``every``-th term on to the stream ``below`` (every = 0:
    none).  result(n) reads the sum of the n terms added so far; the caller
    counts them, so add keeps a single counter.  The state lives in closure
    cells: in CPython 3.11 an update through them costs about what one on
    local variables does, while list or attribute state costs up to twice as
    much.  By the classic compensated-summation result (Kahan 1965) the
    computed sum is the exact sum of terms perturbed relatively by at most
    2u + O(n u^2), so

        |error| <= (2 eps + n eps^2) * (sum |re_i| + sum |im_i|)

    which also absorbs the rounding of the magnitude tallies themselves.
    """
    s_re = c_re = s_im = c_im = abs_re = abs_im = abs_sum = 0.0
    count = 0

    def add(re: float, im: float, mag: float) -> None:
        nonlocal s_re, c_re, s_im, c_im, abs_re, abs_im, abs_sum, count
        y = re - c_re
        w = s_re + y
        c_re = (w - s_re) - y
        s_re = w
        y = im - c_im
        w = s_im + y
        c_im = (w - s_im) - y
        s_im = w
        abs_re += fabs(re)
        abs_im += fabs(im)
        abs_sum += mag
        count += 1
        if count == every:
            count = 0
            below(re, im, mag)

    def result(n: int) -> SumResult:
        return _kahan_result(complex(s_re, s_im), n, abs_re, abs_im, abs_sum)

    return add, result


def _kahan_result(value: complex, n: int, abs_re: float, abs_im: float, abs_sum: float) -> SumResult:
    # SumResult of an n-term compensated sum, with the bound stated on _stream.
    # A sum whose value or magnitude tallies left the binary64 range is an
    # error, never an inf or nan result.
    bound = (2.0 * MACHINE_EPSILON + n * MACHINE_EPSILON * MACHINE_EPSILON) * (abs_re + abs_im)
    if not all(map(isfinite, (value.real, value.imag, bound, abs_sum))):
        raise OverflowError(f"a sum of {n} terms exceeds the binary64 range")
    return SumResult(value, bound, n, abs_sum)


def sum_fixed_order(terms: Iterable[complex]) -> SumResult:
    """Sum ``terms`` in the given order with per-component compensation.

    Order is part of the contract: equal sequences give bit-identical
    results across runs and callers, and permuting the sequence may change
    the result.  The empty sequence sums to zero with a zero error bound.
    Raises ValueError on the first non-finite term, identifying its index,
    and OverflowError if finite terms sum beyond the binary64 range.
    """
    add, result = _stream()
    n = 0
    for n, z in enumerate(terms, 1):
        z = complex(z)
        if not (isfinite(z.real) and isfinite(z.imag)):
            raise ValueError(f"non-finite term at index {n - 1}: {z!r}")
        add(z.real, z.imag, abs(z))
    return result(n)
