"""Partial-sum contracts: values, the splitting identity, conjugation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altzeta.identities import defect, residual_suite, riemann_sum
from altzeta.kernel import MACHINE_EPSILON, pow_neg, sum_fixed_order
from altzeta.partial_sums import (
    DEFAULT_MAX_TERMS,
    _prefix_sums,
    band_sum,
    eta_partial,
    zeta_partial,
)
from altzeta.zeros import zero_check

SIGMAS = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
TS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
SMALL_N = st.integers(min_value=1, max_value=400)


def rational_power_sum(ns, exponent, signs=None):
    """Oracle: exact rational sum of n**-exponent for integer exponents."""
    total = Fraction(0)
    for i, n in enumerate(ns):
        sign = 1 if signs is None else signs[i]
        total += Fraction(sign) / Fraction(n) ** exponent
    return total


class TestValues:
    def test_zeta_three_ones(self):
        assert zeta_partial(3, complex(0.0, 0.0)).value == complex(3.0, 0.0)

    def test_zeta_two_terms_at_one(self):
        assert zeta_partial(2, complex(1.0, 0.0)).value == complex(1.5, 0.0)

    def test_zeta_four_terms_at_two_vs_rational_oracle(self):
        expected = rational_power_sum((1, 2, 3, 4), 2)  # 205/144
        assert expected == Fraction(205, 144)
        r = zeta_partial(4, complex(2.0, 0.0))
        assert abs(r.value.real - float(expected)) <= r.err_bound + math.ulp(float(expected))
        assert r.value.imag == 0.0

    def test_eta_two_terms_at_one(self):
        assert eta_partial(2, complex(1.0, 0.0)).value == complex(0.5, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 5, 50])
    def test_eta_even_count_at_zero_cancels(self, m):
        assert eta_partial(2 * m, complex(0.0, 0.0)).value == complex(0.0, 0.0)

    def test_eta_four_terms_at_one_vs_rational_oracle(self):
        expected = rational_power_sum((1, 2, 3, 4), 1, signs=(1, -1, 1, -1))  # 7/12
        assert expected == Fraction(7, 12)
        r = eta_partial(4, complex(1.0, 0.0))
        assert abs(r.value.real - float(expected)) <= r.err_bound + math.ulp(float(expected))

    def test_band_single_term(self):
        assert band_sum(1, complex(1.0, 0.0)).value == complex(0.5, 0.0)

    def test_band_two_ones(self):
        assert band_sum(2, complex(0.0, 0.0)).value == complex(2.0, 0.0)

    def test_band_two_terms_at_one_vs_rational_oracle(self):
        expected = rational_power_sum((3, 4), 1)  # 7/12
        r = band_sum(2, complex(1.0, 0.0))
        assert abs(r.value.real - float(expected)) <= r.err_bound + math.ulp(float(expected))

    def test_matches_generic_summation_bit_for_bit(self):
        # the fused loops must agree exactly with summing explicit +-pow_neg
        # terms, both as one-off sums and as snapshots of one ladder pass
        # (abs_sum differs: sum_fixed_order tallies abs(z), the fused loops
        # the kernel magnitude)
        s = complex(0.5, 14.1)
        n = 137
        via_kernel = sum_fixed_order([pow_neg(m, s) for m in range(1, n + 1)])
        assert zeta_partial(n, s).value == via_kernel.value
        assert zeta_partial(n, s).err_bound == via_kernel.err_bound

        def fresh(s, lo, hi, alternating):
            return sum_fixed_order(
                [-pow_neg(m, s) if alternating and m % 2 == 0 else pow_neg(m, s)
                 for m in range(lo, hi + 1)]
            )

        ladder = (1, 2, 4, 8, 16, 32, 64, 128)
        stops = ladder + (256,)
        for s in (complex(0.5, 14.1), complex(1.0, -9.064720283654388), complex(-2.0, 0.0)):
            snap = dict(zip(stops, _prefix_sums(s, stops, blocks=True)))
            # without the block stream the zeta and eta snapshots are the same, bit for bit
            for stop, (zeta, eta, block) in zip(stops, _prefix_sums(s, stops)):
                assert repr((zeta, eta)) == repr(snap[stop][:2])
                assert block is None
            for n in ladder:
                want_zeta = fresh(s, 1, n, False)
                want_eta = fresh(s, 1, 2 * n, True)
                want_band = fresh(s, n + 1, 2 * n, False)
                for got, want in (
                    (zeta_partial(n, s), want_zeta),
                    (snap[n][0], want_zeta),
                    (eta_partial(2 * n, s), want_eta),
                    (snap[2 * n][1], want_eta),
                    (band_sum(n, s), want_band),
                    (snap[2 * n][2], want_band),
                ):
                    assert got.value == want.value
                    assert got.err_bound == want.err_bound
                    assert got.terms == want.terms

    @pytest.mark.parametrize("t", [-3.7, 0.0, -0.0, 1e6 + 0.3, -1e6])
    def test_inline_kernel_matches_pow_neg(self, t):
        # A one-term pass reads the inlined kernel at m alone.  A Kahan sum
        # from +0.0 turns a -0.0 term into +0.0, so == and not repr.
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(1, 10**7)
            s = complex(rng.uniform(-5.0, 5.0), t)
            zeta, eta, _ = _prefix_sums(s, [m], first=m)[0]
            term = pow_neg(m, s)
            assert zeta.value == term
            assert eta.value == (term if m % 2 else -term)


class TestContracts:
    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            zeta_partial(0, complex(1.0, 0.0))

    def test_term_limit_is_an_error_not_truncation(self):
        # raised before any summing: a truncated 10**7-term sum would take seconds
        for fn in (zeta_partial, eta_partial, band_sum, riemann_sum):
            with pytest.raises(ValueError, match="limit"):
                fn(DEFAULT_MAX_TERMS + 1, complex(1.0, 0.0))

    def test_overflowing_sum_is_an_error_not_a_nan(self):
        # 10**4 terms up to 10**308 each: the zeta value and the tallies overflow
        for fn in (zeta_partial, eta_partial):
            with pytest.raises(OverflowError):
                fn(10**4, complex(-77.0, 0.0))

    @pytest.mark.parametrize("fn", [
        zeta_partial, eta_partial, band_sum, riemann_sum, defect, residual_suite,
        pytest.param(lambda n, s: zero_check(1, n), id="zero_check"), pow_neg,
    ])
    def test_integral_float_n_works_other_n_is_named(self, fn):
        # One rule for every n: a whole number of terms, also as a float.
        s = complex(0.5, 14.1)
        assert fn(16.0, s) == fn(16, s)
        with pytest.raises(ValueError, match="n must be a positive integer, got 2.5"):
            fn(2.5, s)

    def test_terms_field_counts_terms(self):
        s = complex(2.0, 3.0)
        assert zeta_partial(7, s).terms == 7
        assert eta_partial(8, s).terms == 8
        assert band_sum(5, s).terms == 5


class TestSplittingIdentity:
    """zeta_{2n} = zeta_n + band_n, exactly in exact arithmetic."""

    @given(n=SMALL_N, sigma=SIGMAS, t=TS)
    @settings(max_examples=60, deadline=None)
    def test_random_points(self, n, sigma, t):
        s = complex(sigma, t)
        whole = zeta_partial(2 * n, s)
        half = zeta_partial(n, s)
        band = band_sum(n, s)
        diff = abs(whole.value - (half.value + band.value))
        assert diff <= whole.err_bound + half.err_bound + band.err_bound

    @pytest.mark.parametrize("s", [complex(0.5, 50.0), complex(-5.0, 3.0)])
    def test_large_n(self, s):
        n = 10**5
        whole = zeta_partial(2 * n, s)
        half = zeta_partial(n, s)
        band = band_sum(n, s)
        diff = abs(whole.value - (half.value + band.value))
        assert diff <= whole.err_bound + half.err_bound + band.err_bound


class TestFoldingIdentity:
    """eta_{2n} - zeta_{2n} + 2**(1-s) zeta_n vanishes up to rounding."""

    @given(n=SMALL_N, sigma=SIGMAS, t=TS)
    @settings(max_examples=60, deadline=None)
    def test_within_stated_budget(self, n, sigma, t):
        s = complex(sigma, t)
        eta = eta_partial(2 * n, s)
        zeta = zeta_partial(2 * n, s)
        half = zeta_partial(n, s)
        c = pow_neg(2, s - 1.0)  # 2**(1-s)
        lhs = abs(eta.value - zeta.value + c * half.value)
        budget = 10.0 * (
            eta.err_bound
            + zeta.err_bound
            + half.err_bound
            + MACHINE_EPSILON * (eta.abs_sum + zeta.abs_sum + abs(c) * half.abs_sum)
        )
        assert lhs <= budget


class TestConjugation:
    @given(n=st.integers(min_value=1, max_value=200), sigma=SIGMAS, t=TS)
    @settings(max_examples=60, deadline=None)
    def test_each_sum_commutes_with_conjugation(self, n, sigma, t):
        s = complex(sigma, t)
        sc = complex(sigma, -t)
        for fn in (zeta_partial, eta_partial, band_sum):
            a = fn(n, s)
            b = fn(n, sc)
            assert b.value.real == a.value.real
            assert b.value.imag == -a.value.imag
            assert b.err_bound == a.err_bound
            assert b.abs_sum == a.abs_sum
