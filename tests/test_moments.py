"""Catalan numbers, Wigner moments, the power identity, and model moment laws."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from freesde import cauchy as ca
from freesde import models as md
from freesde import moments as mo
from freesde.errors import MomentsUnavailable, OddOrder, OrderTooHigh, Overflow


class TestCatalan:
    def test_first_values(self):
        assert [mo.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_ten(self):
        assert mo.catalan(10) == 16796

    def test_recurrence_matches_closed_form(self):
        for k in range(31):
            assert mo.catalan(k) == math.comb(2 * k, k) // (k + 1)

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            mo.catalan(31)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mo.catalan(-1)


class TestWignerMoment:
    def test_unit_variance(self):
        assert mo.wigner_moment(1.0, 2) == 1.0

    def test_fourth_moment(self):
        assert mo.wigner_moment(1.0, 4) == 2.0

    def test_odd_vanishes(self):
        for t in (0.3, 1.0, 5.0):
            assert mo.wigner_moment(t, 3) == 0.0
            assert mo.wigner_moment(t, 7) == 0.0

    def test_time_scaling(self):
        # E[W_t^(2k)] = C_k t^k
        assert mo.wigner_moment(2.0, 6) == 5.0 * 8.0
        assert mo.wigner_moment(0.25, 4) == 2.0 * 0.0625

    def test_order_cap(self):
        with pytest.raises(Overflow):
            mo.wigner_moment(1.0, 62)


class TestPowerIdentity:
    def test_hand_checked_small_orders(self):
        # n=2, a=1: both sides equal 1; n=4, a=1: both sides equal 2
        assert mo.verify_power_identity(2, 1.0) == 0.0
        assert mo.verify_power_identity(4, 1.0) == 0.0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_residual_vanishes(self, n, a):
        assert mo.verify_power_identity(n, a) < 1e-12

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrder):
            mo.verify_power_identity(5, 1.0)

    def test_range_guard(self):
        with pytest.raises(OrderTooHigh):
            mo.verify_power_identity(14, 1.0)


class TestModelMoments:
    def test_gbm1_flat_drift(self):
        ms = mo.model_moments(md.GeometricBrownian1(0.0), 1.0)
        assert ms.mean == 1.0 and ms.second_moment == 2.0

    def test_gbm1_general(self):
        theta, t = 0.7, 1.3
        ms = mo.model_moments(md.GeometricBrownian1(theta), t)
        assert abs(ms.mean - math.exp(theta * t)) < 1e-14
        assert abs(ms.second_moment - (t + 1) * math.exp(2 * theta * t)) < 1e-12
        assert abs(ms.variance - t * math.exp(2 * theta * t)) < 1e-12
        assert abs(ms.std_over_mean - math.sqrt(t)) < 1e-12

    def test_gbm2_initial(self):
        ms = mo.model_moments(md.GeometricBrownian2(0.0), 0.0)
        assert ms.mean == 1.0 and ms.second_moment == 1.0

    def test_ou_flat_drift(self):
        ms = mo.model_moments(md.OrnsteinUhlenbeck(0.0, 1.0), 1.0)
        assert ms.mean == 0.0
        assert abs(ms.second_moment - 1.0) < 1e-14  # semicircle radius 2

    def test_zero_mean_ratio_is_nan(self):
        # the ratio divided by the zero ou mean and raised ZeroDivisionError
        ms = mo.model_moments(md.OrnsteinUhlenbeck(-1.0, 1.0), 1.0)
        assert ms.mean == 0.0 and ms.variance > 0
        assert math.isnan(ms.std_over_mean)

    def test_explosive_mean_constant(self):
        for t in (0.1, 0.5, 0.8):
            ms = mo.model_moments(md.Explosive(1.0, 1.0), t)
            assert ms.mean == 1.0
            assert np.isfinite(ms.second_moment)

    @pytest.mark.parametrize("k, a", [(1.0, 1.0), (1.3, 0.7)])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_explosive_second_moment_against_quadrature(self, k, a, frac):
        # a^2/(1 - tau) against the integral of x^2 times the paper's density
        t = frac * md.blowup_time(k, a)
        sup = md.explosive_support(k, a, t)
        want, _ = quad(lambda x: x * x * md.explosive_density(k, a, t, x),
                       sup.lo, sup.hi, limit=200)
        got = mo.model_moments(md.Explosive(k, a), t).second_moment
        assert abs(got - want) <= 1e-10 * want

    def test_variance_nonnegative_everywhere(self):
        specs = [md.OrnsteinUhlenbeck(-1.0, 1.0), md.OrnsteinUhlenbeck(0.5, 2.0),
                 md.GeometricBrownian1(-1.0), md.GeometricBrownian1(2.0),
                 md.GeometricBrownian2(0.3), md.Explosive(1.0, 1.0)]
        for spec in specs:
            for t in (0.0, 0.25, 0.5):
                assert mo.model_moments(spec, t).variance >= -1e-12

    def test_ou_variance_consistent_with_support(self):
        for theta, sigma, t in ((-1.0, 1.0, 0.8), (0.6, 1.2, 1.5), (0.0, 1.0, 2.0)):
            ms = mo.model_moments(md.OrnsteinUhlenbeck(theta, sigma), t)
            r = md.ou_support(theta, sigma, t).hi
            assert abs(ms.second_moment - (r / 2) ** 2) <= 1e-12 * max(1.0, ms.second_moment)


def edge_clustered_grid(sup, n=2049):
    phi = np.linspace(0.0, math.pi, n)
    return 0.5 * (sup.lo + sup.hi) - 0.5 * (sup.hi - sup.lo) * np.cos(phi)


class TestMomentsAgainstRecoveredDensity:
    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_gbm1_closed_form_vs_density(self, theta, t):
        spec = md.GeometricBrownian1(theta)
        ev = md.cauchy_evaluator(spec)
        xs = edge_clustered_grid(md.gbm_support(theta, t))
        curve = ca.stieltjes_invert(ev, t, xs, eps0=1e-5)
        ms = mo.model_moments(spec, t)
        assert abs(ca.density_moment(curve, 1) - ms.mean) < 5e-3
        assert abs(ca.density_moment(curve, 2) - ms.second_moment) < 2e-2


class TestMomentFunctionFactory:
    def test_explosive_exposes_constant_mean(self):
        mf = md.Explosive(2.0, 3.0).moment_function()
        assert mf(0, 1.0) == 1.0
        assert mf(1, 0.02) == 3.0
        with pytest.raises(MomentsUnavailable):
            mf(2, 0.02)

    def test_gbm1_orders(self):
        mf = md.GeometricBrownian1(0.0).moment_function()
        assert mf(1, 1.0) == 1.0
        assert mf(2, 1.0) == 2.0
