"""Zero points, the collapsed identity, the limit demos, and the oracles."""

import math
import resource
import subprocess
import sys
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altzeta import zeros
from altzeta.identities import residual_suite
from altzeta.kernel import MACHINE_EPSILON, pow_neg
from altzeta.zeros import (
    ToleranceNotReached,
    eta_limit_demo,
    eta_reference,
    eta_richardson,
    zero_check,
    zero_point,
)

LN2 = math.log(2.0)
T1 = 2.0 * math.pi / LN2

mpmath.mp.dps = 30


def mp_eta(s):
    """High-precision oracle for the alternating zeta function."""
    return complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))


class TestZeroPoint:
    def test_first_point(self):
        p = zero_point(1)
        assert p.k == 1
        assert p.s == complex(1.0, 9.064720283654388)

    def test_negative_index_is_conjugate(self):
        a, b = zero_point(1), zero_point(-1)
        assert b.s.real == a.s.real
        assert b.s.imag == -a.s.imag

    def test_zero_index_excluded(self):
        with pytest.raises(ValueError, match="excluded point"):
            zero_point(0)

    def test_k_limit(self):
        assert zero_point(16).k == 16
        with pytest.raises(ValueError, match="range"):
            zero_point(17)

    def test_index_must_be_integral(self):
        # k = 1.5 would give s = 1 + 13.597i, which is not a zero
        for call in (lambda: zero_point(1.5), lambda: zero_check(1.5, 8),
                     lambda: eta_limit_demo(-2.5, (1, 2, 4))):
            with pytest.raises(ValueError, match="integer"):
                call()
        assert zero_point(16.0) == zero_point(16)
        assert zero_check(2.0, 8) == zero_check(2, 8)

    @given(k=st.integers(min_value=1, max_value=16))
    def test_real_part_exactly_one(self, k):
        assert zero_point(k).s.real == 1.0


class TestZeroCheck:
    def test_single_term_instance(self):
        # at n = 1 the rotation is 1**(-it) = 1 exactly
        check = zero_check(1, 1)
        expected_eta = 1.0 - pow_neg(2, zero_point(1).s)
        assert check.eta_value == expected_eta
        assert check.identity_diff <= 1e-13

    def test_magnitude_near_quarter_over_n(self):
        check = zero_check(1, 10**4)
        assert 1.25e-5 <= check.magnitude <= 5e-5  # leading term 1/(4n), factor-2 band

    def test_identity_at_thousand_terms(self):
        check = zero_check(2, 10**3)
        d = abs(check.predicted)
        assert check.identity_diff <= 1e-12 * (1.0 + check.magnitude + d)

    @pytest.mark.parametrize("k", [1, -1, 2, -2, 3, -3])
    @pytest.mark.parametrize("n", [1, 10, 100, 1000, 10**4])
    def test_identity_exactness_grid(self, k, n):
        check = zero_check(k, n)
        d = abs(check.predicted)
        assert check.identity_diff <= 1e-12 * (1.0 + check.magnitude + d)

    # Decay constants calibrated once by a doubling-n run (max n*|eta_2n|
    # over n >= 4), frozen with 2x headroom; conjugates share them.
    DECAY_C = {1: 0.55, 2: 0.9, 3: 2.0}

    @pytest.mark.parametrize("k", [1, 2, 3, -1, -2, -3])
    def test_decay_envelope(self, k):
        c = self.DECAY_C[abs(k)]
        for i in range(2, 15):
            n = 1 << i
            assert zero_check(k, n).magnitude <= c / n

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_quadrupling_n_quarters_the_magnitude(self, k, n):
        ratio = zero_check(k, n).magnitude / zero_check(k, 4 * n).magnitude
        assert 3.0 <= ratio <= 5.5

    @pytest.mark.parametrize("n", [2, 3, 100, 12345, 10**6])
    @pytest.mark.parametrize("t", [T1, 2 * T1, 14.1, -25.0])
    def test_rotation_has_unit_modulus(self, n, t):
        assert abs(abs(pow_neg(n, complex(0.0, t))) - 1.0) <= 4.0 * MACHINE_EPSILON

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_conjugate_index_conjugates_fields(self, k, n):
        a = zero_check(k, n)
        b = zero_check(-k, n)
        assert b.eta_value.real == a.eta_value.real
        assert b.eta_value.imag == -a.eta_value.imag
        assert b.predicted.real == a.predicted.real
        assert b.predicted.imag == -a.predicted.imag
        assert b.identity_diff == a.identity_diff
        assert b.magnitude == a.magnitude


class TestEtaLimitDemo:
    def test_sentinel_routes_to_log_two_limit(self):
        rows = eta_limit_demo(0, (1, 10, 100))
        assert rows[0][0] == 1
        assert abs(rows[0][1] - (LN2 - 0.5)) <= math.ulp(LN2 - 0.5)
        assert 0.023 <= rows[1][1] <= 0.026
        assert 0.0024 <= rows[2][1] <= 0.0026
        assert rows[0][1] > rows[1][1] > rows[2][1]

    def test_zero_demo_decreases(self):
        rows = eta_limit_demo(1, (10, 100, 1000))
        mags = [m for _, m in rows]
        assert mags[0] > mags[1] > mags[2]
        assert mags[-1] < 1e-3

    def test_short_ladder_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            eta_limit_demo(1, (5,))

    def test_non_increasing_ladder_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            eta_limit_demo(1, (10, 10, 20))

    def test_non_integral_ladder_rejected(self):
        # int() alone would truncate 1.9 to rung 1
        with pytest.raises(ValueError, match="integers"):
            eta_limit_demo(1, [1.9, 4, 8])
        assert eta_limit_demo(1, [2.0, 4, 8]) == eta_limit_demo(1, [2, 4, 8])


class TestEtaReference:
    def test_log_two(self):
        assert abs(eta_reference(complex(1.0, 0.0), 1e-12) - LN2) <= 1e-12

    def test_pi_squared_over_twelve(self):
        # independently: pi**2/12, and Richardson agrees below
        assert abs(eta_reference(complex(2.0, 0.0), 1e-12) - math.pi**2 / 12.0) <= 1e-12

    def test_vanishes_at_first_zero(self):
        assert abs(eta_reference(complex(1.0, T1), 1e-10)) <= 1e-10

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError, match="Re\\(s\\) > 0"):
            eta_reference(complex(0.0, 1.0), 1e-10)

    def test_rejects_unreachable_target(self):
        with pytest.raises(ValueError, match="target_abs_tol"):
            eta_reference(complex(1.0, 0.0), 1e-14)

    def test_rejects_head_over_term_cap(self):
        # The head grows with |t|; without the cap this call sums 1e8 terms
        # twice, so it runs in a child capped in time and address space.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        code = ("from altzeta import eta_reference\n"
                "try:\n    eta_reference(complex(0.5, 1e8), 1e-10)\n"
                "except ValueError as exc:\n    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, preexec_fn=cap_memory)
        assert proc.returncode == 0, proc.stderr
        assert "exceeds the configured limit" in proc.stdout

    def test_head_is_streamed(self):
        # About 1e5 head terms: held as a list they peaked at 4 MB; streamed,
        # the value is unchanged bit for bit.
        tracemalloc.start()
        try:
            value = eta_reference(complex(0.5, 1e5), 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20
        assert value == complex(8.819082989771728, 2.757951012371725)

    def test_explicit_failure_when_budget_too_small(self, monkeypatch):
        monkeypatch.setattr(zeros, "DEFAULT_MAX_ACCEL_TERMS", 6)
        with pytest.raises(ToleranceNotReached):
            eta_reference(complex(0.2, 30.0), 1e-13)

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 1.6, 3.0])
    @pytest.mark.parametrize("t", [0.0, -9.5, 14.1, 30.0])
    def test_against_high_precision_oracle(self, sigma, t):
        s = complex(sigma, t)
        assert abs(eta_reference(s, 1e-12) - mp_eta(s)) <= 1e-12

    def test_deterministic(self):
        s = complex(0.7, 21.0)
        assert eta_reference(s, 1e-11) == eta_reference(s, 1e-11)


class TestRichardsonGuard:
    @pytest.mark.parametrize("sigma", [0.2, 0.9, 2.0])
    @pytest.mark.parametrize("t", [0.0, 14.1, -30.0])
    def test_against_high_precision_oracle(self, sigma, t):
        s = complex(sigma, t)
        assert abs(eta_richardson(s) - mp_eta(s)) <= 1e-9

    def test_reconstructed_matches_direct_partial_sum(self):
        # the quadrature-form assembly reproduces the plain partial sum, also
        # at the first and last rungs of the Richardson ladder
        from altzeta.partial_sums import eta_partial

        points = (complex(0.5, 14.1), complex(2.0, 3.0), complex(0.5, 9.5),
                  complex(1.0, T1), complex(2.3, -25.0))
        for s in points:
            for n in (10, 16, 100, 4096):
                direct = eta_partial(2 * n, s).value
                assert abs(residual_suite(n, s)[2].rhs - direct) <= 1e-12

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            eta_richardson(complex(-1.0, 0.0))


class TestOracleAgreement:
    """The accelerator and the Richardson guard agree."""

    GRID = [
        complex(sigma, t)
        for sigma in (0.2, 0.9, 1.6, 2.3, 3.0)
        for t in (-30.0, -9.5, 0.5, 14.1)
    ]

    def test_twenty_point_grid(self):
        for s in self.GRID:
            accelerated = eta_reference(s, 1e-11)
            assert abs(accelerated - eta_richardson(s)) <= 1e-9
