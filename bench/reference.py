"""High-precision reference values for the benchmark's output checks.

Every headline value the CLI prints is a function of the prefix sums
Z(N) = sum_{m<=N} m**-s:

    zeta_N = Z(N)
    eta_N  = Z(N) - 2**(1-s) Z(N//2)
    band_n = Z(2n) - Z(n)
    R_n    = n**(s-1) band_n                 (right-endpoint Riemann sum)
    d_n    = I(s) - R_n,  I(s) = (1 - 2**(1-s)) / (s-1)  (log 2 at s = 1)

Z(N) is evaluated with mpmath at 160 bits in two regimes.  Below
X0 = 2(|s| + 2K) the terms are summed directly; prime powers p**-s come
from mpmath and composite terms from complete multiplicativity
(m**-s = p**-s (m/p)**-s) in 192-bit fixed point, which is ten times
cheaper per term and exact to far below binary64.  Beyond X0 the tail is
the Euler-Maclaurin expansion of the Hurwitz zeta function with K
Bernoulli terms: for x >= X0 each term is at most (4 pi)**-2 times the one
before, so the remainder is below 1e-26 of the leading term.
Both regimes share no code with the package under test.
"""

from __future__ import annotations

import math
from itertools import repeat

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from workloads import TOL_FACTOR, UNIT_ROUNDOFF

PREC = 160
FIXED_BITS = 192
EM_TERMS = 12


class Prefix:
    """Z(N) = sum_{m<=N} m**-s and A(N) = sum_{m<=N} m**-sigma at chosen N."""

    def __init__(self, s: complex, marks):
        self.s = s
        self.sigma, self.t = s.real, s.imag
        marks = sorted({int(n) for n in marks if n >= 1})
        with mp.workprec(PREC):
            self._s = mpc(s.real, s.imag)
            self.two_pow = mpmath.power(2, 1 - self._s)
            x0 = int(math.ceil(2 * (abs(s) + 2 * EM_TERMS)))
            direct = [n for n in marks if n <= x0]
            tail = [n for n in marks if n > x0]
            top = x0 if tail else (direct[-1] if direct else 0)
            self._z = _direct_prefix(self._s, top, set(direct) | {top})
            if tail:
                coefficients = _em_coefficients(self._s)
                base = self._z[top] + _hurwitz_tail(self._s, coefficients, top + 1)
                for n in tail:
                    self._z[n] = base - _hurwitz_tail(self._s, coefficients, n + 1)
        self._a = _abs_prefix(self.sigma, marks)

    def zeta(self, n: int):
        return self._z[n] if n > 0 else mpc(0)

    def eta(self, n: int):
        with mp.workprec(PREC):
            return self.zeta(n) - self.two_pow * self.zeta(n // 2)

    def riemann(self, n: int):
        with mp.workprec(PREC):
            return mpmath.power(n, self._s - 1) * (self.zeta(2 * n) - self.zeta(n))

    def integral(self):
        with mp.workprec(PREC):
            if self._s == 1:
                return mpmath.log(2)
            return (1 - self.two_pow) / (self._s - 1)

    def defect(self, n: int):
        with mp.workprec(PREC):
            return self.integral() - self.riemann(n)

    def abs_sum(self, n: int) -> float:
        return self._a[n]

    def riemann_abs_sum(self, n: int) -> float:
        return n ** (self.sigma - 1.0) * (self._a[2 * n] - self._a[n])

    def tol(self, n: int, abs_sum: float) -> float:
        """The disagreement tolerance c*u*(1 + |t| log n) * abs_sum."""
        return TOL_FACTOR * UNIT_ROUNDOFF * (1.0 + abs(self.t) * math.log(max(n, 2))) * abs_sum

    def defect_tol(self, n: int) -> float:
        return self.tol(n, self.riemann_abs_sum(n)) + self.integral_tol()

    def integral_tol(self) -> float:
        # The closed form's inputs are 2**(1-s) (phase |t| log 2) and 1/(s-1).
        scale = (1.0 + abs(complex(self.two_pow))) / max(abs(self.s - 1), 1e-4)
        return TOL_FACTOR * UNIT_ROUNDOFF * (1.0 + abs(self.t)) * scale


def marks_for_eta(ns):
    """The N whose Z(N) the alternating sums eta_N need."""
    return [m for n in ns for m in (n, n // 2)]


def marks_for_defect(ns):
    return [m for n in ns for m in (n, 2 * n)]


def _smallest_prime_factors(top: int) -> list[int]:
    spf = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if spf[p] == p:
            for q in range(p * p, top + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def _direct_prefix(s, top: int, marks) -> dict:
    """Z(N) for N in marks, N <= top, by one ascending multiplicative pass."""
    out = {}
    if top < 1:
        return out
    one = 1 << FIXED_BITS
    spf = _smallest_prime_factors(top)
    re = [0] * (top + 1)
    im = [0] * (top + 1)
    re[1] = one
    acc_re, acc_im = one, 0
    if 1 in marks:
        out[1] = mpc(1)
    neg_s = -s
    for m in range(2, top + 1):
        p = spf[m]
        if p == m:
            z = mpmath.power(m, neg_s)
            r = to_fixed(z.real._mpf_, FIXED_BITS)
            i = to_fixed(z.imag._mpf_, FIXED_BITS)
        else:
            a, b = re[p], im[p]
            c, d = re[m // p], im[m // p]
            r = (a * c - b * d) >> FIXED_BITS
            i = (a * d + b * c) >> FIXED_BITS
        re[m] = r
        im[m] = i
        acc_re += r
        acc_im += i
        if m in marks:
            out[m] = mpc(mpf(acc_re) / one, mpf(acc_im) / one)
    return out


def _em_coefficients(s) -> list:
    """c_k = B_2k/(2k)! * s(s+1)...(s+2k-2), k = 1..K, of the Hurwitz expansion."""
    coefficients, rising = [], s
    for k in range(1, EM_TERMS + 1):
        coefficients.append(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * rising)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return coefficients


def _hurwitz_tail(s, coefficients, x: int):
    """zeta(s, x) by its Euler-Maclaurin asymptotic series, x >= 2(|s| + 2K).

    zeta(s, x) ~ x**-s * (x/(s-1) + 1/2 + sum_k c_k x**(1-2k)), by Horner in 1/x**2.
    """
    x = mpf(x)
    y = 1 / (x * x)
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = acc * y + c
    return mpmath.power(x, -s) * (x / (s - 1) + mpf(0.5) + acc / x)


def _abs_prefix(sigma: float, marks) -> dict:
    """A(N) = sum_{m<=N} m**-sigma in binary64, ascending, at each mark."""
    out = {}
    acc = 0.0
    m = 0
    for n in marks:
        acc += math.fsum(map(pow, range(m + 1, n + 1), repeat(-sigma)))
        m = n
        out[n] = acc
    return out


def zero_point(k: int) -> complex:
    """s_k = 1 + 2k*pi*i/log 2, rounded to binary64."""
    with mp.workprec(PREC):
        return complex(1.0, float(2 * k * mp.pi / mp.log(2)))


def altzeta_at(s: complex) -> complex:
    """The alternating zeta function at s (Re s > 0) from mpmath."""
    with mp.workprec(PREC):
        return complex(mpmath.altzeta(mpc(s.real, s.imag)))
