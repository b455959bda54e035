"""Integral closed form, quadrature, defect, and the three residual checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altzeta.identities import (
    SINGULARITY_THRESHOLD,
    _integral_direct,
    _integral_series,
    _riemann_ladder,
    defect,
    integral_closed_form,
    residual_band,
    residual_cancellation,
    residual_quadrature,
    residual_suite,
    riemann_sum,
)
from altzeta.kernel import MACHINE_EPSILON, SumResult, _exp_neg_parts, _stream, pow_neg

LN2 = math.log(2.0)
T1 = 2.0 * math.pi / LN2

SIGMAS = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
TS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
SMALL_N = st.integers(min_value=1, max_value=300)

# Grid shared by several identity properties; mixes the singular point,
# the strip, a zero ordinate, and large-|s| corners.
POINT_GRID = [
    complex(1.0, 0.0),
    complex(2.0, 0.0),
    complex(0.5, 0.0),
    complex(0.25, 0.0),
    complex(0.75, 0.0),
    complex(0.5, 14.1),
    complex(1.0, T1),
    complex(-2.0, 1.0),
    complex(4.0, 50.0),
    complex(1.0, 50.0),
]


class TestIntegralClosedForm:
    def test_value_at_one_is_log_two(self):
        assert integral_closed_form(complex(1.0, 0.0)) == complex(LN2, 0.0)

    def test_value_at_zero(self):
        assert integral_closed_form(complex(0.0, 0.0)) == complex(1.0, 0.0)

    def test_value_at_two(self):
        assert integral_closed_form(complex(2.0, 0.0)) == complex(0.5, 0.0)

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    @pytest.mark.parametrize(
        "direction", [1.0, -1.0, 1.0j, -1.0j, (1.0 + 1.0j) / math.sqrt(2.0)]
    )
    def test_branches_agree_at_threshold(self, factor, direction):
        s = 1.0 + SINGULARITY_THRESHOLD * factor * direction
        assert abs(_integral_direct(s) - _integral_series(s)) <= 1e-14

    @given(sigma=SIGMAS, t=TS)
    @settings(max_examples=100)
    def test_conjugation(self, sigma, t):
        a = integral_closed_form(complex(sigma, t))
        b = integral_closed_form(complex(sigma, -t))
        assert b.real == a.real and b.imag == -a.imag

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            integral_closed_form(complex(float("inf"), 0.0))


class TestRiemannSum:
    def test_single_node_at_one(self):
        assert riemann_sum(1, complex(1.0, 0.0)).value == complex(0.5, 0.0)

    def test_constant_integrand(self):
        assert riemann_sum(2, complex(0.0, 0.0)).value == complex(1.0, 0.0)

    def test_two_nodes_at_one_vs_rational_oracle(self):
        expected = (Fraction(2, 3) + Fraction(1, 2)) / 2  # 7/12
        r = riemann_sum(2, complex(1.0, 0.0))
        assert abs(r.value.real - float(expected)) <= 4.0 * math.ulp(float(expected))
        assert r.value.imag == 0.0

    @given(n=SMALL_N, sigma=SIGMAS, t=TS)
    @settings(max_examples=60, deadline=None)
    def test_conjugation(self, n, sigma, t):
        a = riemann_sum(n, complex(sigma, t)).value
        b = riemann_sum(n, complex(sigma, -t)).value
        assert b.real == a.real and b.imag == -a.imag


def oracle_riemann_sum(n, s):
    """The per-rung reference loop: one kernel call and one accumulator add per node."""
    add, result = _stream()
    for k in range(1, n + 1):
        add(*_exp_neg_parts(s.real, s.imag, math.log1p(k / n)))
    raw = result(n)
    bound = (raw.err_bound + MACHINE_EPSILON * (abs(raw.value.real) + abs(raw.value.imag))) / n
    return SumResult(raw.value / n, bound, n, raw.abs_sum / n)


def bits(r):
    # Every SumResult field, with signed zeros told apart.
    return (r.value.real.hex(), r.value.imag.hex(), r.err_bound.hex(), r.terms, r.abs_sum.hex())


class TestRiemannLadder:
    """The shared-node pass equals the per-rung loop in every field."""

    @pytest.mark.parametrize("sigmas, t, ladder", [
        ([0.5], 14.1, [2 ** i for i in range(11)]),            # one doubling chain
        ([0.3], -7.0, [10, 20, 40, 80, 160, 320]),             # doubling from a non-power
        ([0.5, 2.0], 3.0, [3, 4, 6, 8, 12]),                   # two chains: 12-6-3 and 8-4
        ([0.05, 0.35, 0.65, 0.95], -21.5, [16, 32, 64, 128]),  # negative t: sine-sign branch
        ([-2.0, 0.0, 1.0, 4.5], 21.5, [5, 7, 35, 70, 1]),      # positive t, unsorted rungs
        ([1.0, 0.25], 0.0, [1, 2, 3, 9, 27]),
        ([0.5], 3000.0, [16, 64, 256]),
    ])
    def test_bit_identical_to_per_rung_loop(self, sigmas, t, ladder):
        rows = _riemann_ladder(sigmas, t, ladder)
        assert len(rows) == len(sigmas)
        for sigma, row in zip(sigmas, rows):
            assert [bits(r) for r in row] == [
                bits(oracle_riemann_sum(n, complex(sigma, t))) for n in ladder]

    @given(n=SMALL_N, sigma=SIGMAS, t=TS)
    @settings(max_examples=60, deadline=None)
    def test_one_rung_matches_oracle(self, n, sigma, t):
        s = complex(sigma, t)
        assert bits(riemann_sum(n, s)) == bits(oracle_riemann_sum(n, s))

    def test_overflowing_sum_is_an_error_not_an_inf(self):
        # Every node is finite (at most 2**1023.5), but their sum is not.
        with pytest.raises(OverflowError):
            riemann_sum(1000, complex(-1023.5, 0.0))

    def test_rejects_non_finite_t(self):
        with pytest.raises(ValueError):
            _riemann_ladder([0.5], float("nan"), [4])


class TestDefect:
    def test_single_node_defect_at_one(self):
        # log 2 - 1/2, reproduced to one ulp
        d = defect(1, complex(1.0, 0.0))
        assert abs(d.real - (LN2 - 0.5)) <= math.ulp(LN2 - 0.5)
        assert d.imag == 0.0

    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_exact_for_constant_integrand(self, n):
        assert defect(n, complex(0.0, 0.0)) == complex(0.0, 0.0)

    def test_single_node_defect_at_two(self):
        assert defect(1, complex(2.0, 0.0)) == complex(0.25, 0.0)

    @pytest.mark.parametrize("s", [p for p in POINT_GRID if p != 0])
    def test_halves_when_n_doubles(self, s):
        for n in (8, 16, 64, 512):
            assert abs(defect(2 * n, s)) < abs(defect(n, s))

    # Leading quadrature-error constants calibrated once by doubling-n runs
    # over 2**4..2**14, then frozen with 2x headroom.
    EM_BOUND = {
        complex(1.0, 0.0): 0.13,
        complex(2.0, 0.0): 0.30,
        complex(0.5, 0.0): 0.06,
        complex(0.25, 0.0): 0.025,
        complex(0.75, 0.0): 0.09,
        complex(0.5, 14.1): 3.2,
        complex(1.0, T1): 1.2,
        complex(-2.0, 1.0): 0.52,
        complex(4.0, 50.0): 10.4,
        complex(1.0, 50.0): 12.3,
    }

    @pytest.mark.parametrize("s", POINT_GRID)
    def test_leading_error_term(self, s):
        """n * defect_n -> (1 - 2**(-s))/2 at rate K(s)/n."""
        limit = (1.0 - pow_neg(2, s)) / 2.0
        bound = self.EM_BOUND[s]
        for i in range(4, 15):
            n = 1 << i
            assert abs(n * defect(n, s) - limit) <= bound / n


def _check(residual, tol):
    assert residual.abs_diff == abs(residual.lhs - residual.rhs)
    assert residual.abs_diff <= tol * max(residual.scale, 1.0)


class TestResiduals:
    def test_cancellation_integer_point_exact(self):
        r = residual_cancellation(1, complex(0.0, 0.0))
        assert r.lhs == complex(-2.0, 0.0)
        assert r.rhs == complex(-2.0, 0.0)
        assert r.abs_diff == 0.0

    def test_cancellation_harmonic(self):
        _check(residual_cancellation(5, complex(1.0, 0.0)), 1e-14)

    def test_cancellation_off_axis(self):
        _check(residual_cancellation(100, complex(0.5, 14.1)), 1e-12)

    def test_band_integer_point_exact(self):
        assert residual_band(1, complex(0.0, 0.0)).abs_diff == 0.0

    def test_band_at_one_vanishing_factor(self):
        r = residual_band(1, complex(1.0, 0.0))
        assert r.lhs == complex(0.5, 0.0)
        _check(r, 1e-15)

    def test_band_complex_point(self):
        _check(residual_band(64, complex(2.0, 3.0)), 1e-12)

    def test_quadrature_at_one(self):
        # eta_2(1) = 1/2 = log 2 - defect_1(1)
        r = residual_quadrature(1, complex(1.0, 0.0))
        assert r.lhs == complex(0.5, 0.0)
        assert r.abs_diff <= 1e-15

    def test_quadrature_integer_point(self):
        assert residual_quadrature(1, complex(0.0, 0.0)).abs_diff <= 1e-15

    def test_quadrature_growing_prefactor(self):
        _check(residual_quadrature(1000, complex(0.5, 0.0)), 1e-11)

    def test_suite_matches_individual_calls_bit_for_bit(self):
        for s in (complex(0.5, 14.1), complex(-2.0, 1.0), complex(1.0, T1)):
            for n in (1, 17, 256):
                cancel, band, quad = residual_suite(n, s)
                assert cancel == residual_cancellation(n, s)
                assert band == residual_band(n, s)
                assert quad == residual_quadrature(n, s)

    @given(n=SMALL_N, sigma=SIGMAS, t=TS)
    @settings(max_examples=60, deadline=None)
    def test_all_three_within_tolerance(self, n, sigma, t):
        for r in residual_suite(n, complex(sigma, t)):
            _check(r, 1e-12)

    @pytest.mark.parametrize("s", [complex(0.5, 50.0), complex(-5.0, 14.1), complex(5.0, 0.0)])
    def test_large_n_within_tolerance(self, s):
        for r in residual_suite(10**5, s):
            _check(r, 1e-12)

    @given(n=st.integers(min_value=1, max_value=120), sigma=SIGMAS, t=TS)
    @settings(max_examples=40, deadline=None)
    def test_residual_conjugation(self, n, sigma, t):
        for a, b in zip(residual_suite(n, complex(sigma, t)), residual_suite(n, complex(sigma, -t))):
            assert b.lhs.real == a.lhs.real and b.lhs.imag == -a.lhs.imag
            assert b.rhs.real == a.rhs.real and b.rhs.imag == -a.rhs.imag
            assert b.abs_diff == a.abs_diff
            assert b.scale == a.scale
