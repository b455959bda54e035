"""Decay instrumentation: ladders, log-log fits, and the strip sweep."""

import math

import pytest

from altzeta.decay import DecayFit, defect_ladder, fit_decay, strip_sweep

LN2 = math.log(2.0)
T1 = 2.0 * math.pi / LN2

DOUBLING = [1 << i for i in range(4, 15)]  # 16 .. 16384


class TestDefectLadder:
    def test_harmonic_point_starts_at_log_two_minus_half(self):
        rows = defect_ladder(complex(1.0, 0.0), (1, 2, 4))
        assert rows[0] == (1, complex(LN2 - 0.5, 0.0))
        mags = [abs(d) for _, d in rows]
        assert mags[0] > mags[1] > mags[2]

    def test_constant_integrand_gives_zeros(self):
        rows = defect_ladder(complex(0.0, 0.0), (1, 2, 4))
        assert all(d == 0.0 for _, d in rows)

    def test_inverse_square_point_starts_at_quarter(self):
        rows = defect_ladder(complex(2.0, 0.0), (1, 2, 4))
        assert rows[0] == (1, complex(0.25, 0.0))

    def test_ladder_validation(self):
        s = complex(1.0, 0.0)
        with pytest.raises(ValueError, match="too short"):
            defect_ladder(s, (1, 2))
        with pytest.raises(ValueError, match="increasing"):
            defect_ladder(s, (4, 2, 8))
        with pytest.raises(ValueError, match="positive"):
            defect_ladder(s, (0, 1, 2))


class TestFitDecay:
    def test_harmonic_point_has_unit_exponent(self):
        fit = fit_decay(defect_ladder(complex(1.0, 0.0), DOUBLING))
        assert fit.beta == pytest.approx(1.0, abs=0.05)
        assert fit.points_used == len(DOUBLING)
        assert fit.rms_residual >= 0.0

    def test_degenerate_at_zero(self):
        with pytest.raises(ValueError, match="machine-noise"):
            fit_decay(defect_ladder(complex(0.0, 0.0), (16, 32, 64)))

    def test_inverse_square_constant(self):
        # leading constant (1 - 2**-2)/2 = 3/8
        fit = fit_decay(defect_ladder(complex(2.0, 0.0), DOUBLING))
        assert fit.beta == pytest.approx(1.0, abs=0.05)
        assert 0.36 <= math.exp(fit.log_c) <= 0.39

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_decay([(16, complex(0.1, 0.0)), (32, complex(0.05, 0.0))])

    def test_equal_n_rejected(self):
        with pytest.raises(ValueError):
            fit_decay([(16, complex(0.1, 0.0)), (16, complex(0.2, 0.0)), (16, complex(0.3, 0.0))])

    def test_synthetic_power_law_recovered_exactly(self):
        samples = [(n, complex(0.7 * n ** -1.3, 0.0)) for n in (8, 16, 32, 64, 128)]
        fit = fit_decay(samples)
        assert fit.beta == pytest.approx(1.3, abs=1e-12)
        assert fit.log_c == pytest.approx(math.log(0.7), abs=1e-12)
        assert fit.rms_residual <= 1e-13

    @pytest.mark.parametrize(
        "s",
        [complex(1.0, 0.0), complex(2.0, 0.0), complex(0.5, 0.0),
         complex(0.5, 14.1), complex(1.0, T1), complex(-2.0, 1.0)],
    )
    def test_unit_exponent_with_small_scatter(self, s):
        fit = fit_decay(defect_ladder(s, DOUBLING))
        assert 0.9 <= fit.beta <= 1.1
        assert fit.rms_residual <= 0.1


class TestScaledDefectConverges:
    """n*defect_n settles: successive doubling differences shrink >= 1.8x."""

    @pytest.mark.parametrize("s", [complex(2.0, 0.0), complex(0.5, 14.1), complex(1.0, T1)])
    def test_cauchy_like(self, s):
        from altzeta.identities import defect

        scaled = {n: n * defect(n, s) for n in DOUBLING}
        diffs = [abs(scaled[2 * n] - scaled[n]) for n in DOUBLING[2:-1]]  # from n=64
        for a, b in zip(diffs, diffs[1:]):
            assert a >= 1.8 * b


class TestStripSweep:
    def test_three_point_grid(self):
        ladder = [1 << i for i in range(4, 13)]
        samples = strip_sweep((0.25, 0.5, 0.75), 0.0, ladder)
        assert [x.s.real for x in samples] == [0.25, 0.5, 0.75]
        assert all(x.s.imag == 0.0 for x in samples)
        for x in samples:
            assert 0.9 <= x.fit.beta <= 1.1

    def test_empty_grid(self):
        assert strip_sweep((), 0.0, (16, 32, 64)) == []

    def test_sigma_outside_strip_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            strip_sweep((1.5,), 0.0, (16, 32, 64))
        with pytest.raises(ValueError, match="strictly inside"):
            strip_sweep((0.0,), 0.0, (16, 32, 64))

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            strip_sweep((0.5, 0.25), 0.0, (16, 32, 64))

    def test_reproducible(self):
        ladder = (16, 32, 64, 128)
        a = strip_sweep((0.3, 0.6), 7.5, ladder)
        b = strip_sweep((0.3, 0.6), 7.5, ladder)
        assert a == b
        assert isinstance(a[0].fit, DecayFit)
