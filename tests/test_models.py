"""Closed-form transform, support, and density checks for the four models."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from freesde import cauchy as ca
from freesde import cli
from freesde import models as md
from freesde import rmt
from freesde.moments import model_moments
from freesde.errors import (
    InvalidConfig,
    NotNormalized,
    PastBlowup,
)

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(float).eps)


class TestModelSpecJson:
    def test_roundtrip(self):
        for spec in (md.OrnsteinUhlenbeck(-1.0, 2.0), md.GeometricBrownian1(0.5),
                     md.GeometricBrownian2(1.0), md.Explosive(0.5, 2.0)):
            assert md.model_from_json(md.model_to_json(spec)) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfig):
            md.model_from_json({"model": "ou", "theta": 1.0, "sigma": 1.0, "zap": 3})

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidConfig):
            md.model_from_json({"model": "explosive", "k": 1.0})

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidConfig):
            md.model_from_json({"model": "wishart"})

    def test_parameter_validation(self):
        with pytest.raises(InvalidConfig):
            md.Explosive(k=-1.0, a=1.0)
        with pytest.raises(InvalidConfig):
            md.OrnsteinUhlenbeck(theta=0.0, sigma=-1.0)


class TestOrnsteinUhlenbeck:
    def test_flat_drift_is_semicircle_radius_two(self):
        # theta = 0, sigma = 1, t = 1: variance 1, radius 2
        got = md.ou_cauchy(0.0, 1.0, 1.0, 2.0j)
        want = complex(ca.semicircle_cauchy(2.0j, 1.0))
        assert abs(got - want) == 0.0
        z = 2.0j
        assert abs(got - (-z + np.sqrt(z * z - 4.0)) / 2.0) < 1e-14

    def test_zero_variance_is_the_point_mass_at_zero(self):
        # X_0 = 0: the transform is -1/z exactly, in and off the axis
        z = np.array([2.0j, -1.5 + 0.25j, 3.0, -1e-300 + 0j])
        assert np.array_equal(md.ou_cauchy(-1.0, 1.0, 0.0, z), -1.0 / z)
        assert md.ou_cauchy(0.7, 1.0, 0.0, 0.5 + 1j) == -1.0 / (0.5 + 1j)

    def test_auto_grid_margins_scale_with_the_support(self):
        # an absolute width floor of 1e-12 once padded this support ~1e86-fold
        spec = md.OrnsteinUhlenbeck(-1.0, 1e-100)
        sup, curve = spec.support(1.0), spec.density_curve(1.0)
        pad = 0.05 * sup.width
        assert (curve.xs[0], curve.xs[-1]) == (sup.lo - pad, sup.hi + pad)

    def test_stationary_value_off_support(self):
        got = md.ou_cauchy(-1.0, 1.0, 30.0, 3.0)
        assert abs(got - (-3.0 + math.sqrt(7.0))) < 1e-10

    def test_decay_normalization(self):
        for theta, sigma, t in ((0.7, 0.5, 1.2), (-2.0, 1.0, 0.3), (0.0, 2.0, 2.0)):
            g = md.ou_cauchy(theta, sigma, t, 1e6j)
            assert abs(1e6j * g + 1.0) < 1e-4

    def test_on_support_real_is_boundary_value(self):
        # real z inside the support used to be refused
        for theta, sigma, t in ((0.0, 1.0, 1.0), (-1.0, 1.0, 2.0), (0.5, 0.7, 0.8)):
            v = md.ou_variance(theta, sigma, t)
            xs = np.linspace(-2.0, 2.0, 41)[1:-1] * math.sqrt(v)
            g = md.ou_cauchy(theta, sigma, t, xs)
            assert np.max(np.abs(g.imag / np.pi - ca.semicircle_density(xs, v))) < 1e-14
            assert md.ou_cauchy(theta, sigma, t, 0.5 * math.sqrt(v)).imag > 0

    def test_herglotz_sampling(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-4, 4, 100) + 1j * rng.uniform(1e-3, 10, 100)
        g = md.ou_cauchy(-1.0, 1.0, 2.0, z)
        assert np.all(np.asarray(g).imag > 0)

    def test_support_three_cases(self):
        sup = md.ou_support(0.0, 1.0, 1.0)
        assert abs(sup.lo + 2.0) < 1e-14 and abs(sup.hi - 2.0) < 1e-14
        sup = md.ou_support(-1.0, 1.0, 30.0)
        assert abs(sup.lo + SQRT2) < 1e-6 and abs(sup.hi - SQRT2) < 1e-6
        sup = md.ou_support(1.0, 1.0, 0.0)
        assert sup.lo == sup.hi == 0.0
        # -r with r = 0 gave a lower end of -0.0, which support wrote as "-0"
        for sup in (sup, md.ou_support(1.0, 0.0, 1.0)):
            assert math.copysign(1.0, sup.lo) == math.copysign(1.0, sup.hi) == 1.0
        # growing regime stays above the flat-drift radius
        assert md.ou_support(1.0, 1.0, 1.0).hi > 2.0

    def test_support_continuous_in_theta(self):
        base = md.ou_support(0.0, 1.0, 1.0).hi
        for theta in (1e-8, -1e-8):
            assert abs(md.ou_support(theta, 1.0, 1.0).hi - base) < 1e-6

    @pytest.mark.parametrize("theta,sigma,t", [(-1.0, 1.0, 1.0), (0.5, 0.7, 0.8),
                                               (0.0, 1.5, 2.0)])
    def test_inverted_density_matches_proposition_radius(self, theta, sigma, t):
        ev = md.cauchy_evaluator(md.OrnsteinUhlenbeck(theta, sigma))
        sup = md.ou_support(theta, sigma, t)
        xs = np.linspace(sup.lo * 1.06, sup.hi * 1.06, 901)
        curve = ca.stieltjes_invert(ev, t, xs, eps0=1e-5)
        ref = ca.semicircle_density(xs, (sup.hi / 2.0) ** 2)
        assert np.max(np.abs(curve.ps - ref)) < 1e-4

    @pytest.mark.parametrize("theta", [9e-9, -9e-9, 1e-12, -1e-12])
    def test_variance_near_theta_zero(self, theta):
        # a theta -> 0 cutoff at |theta t| < 1e-8 once returned t itself,
        # off by up to 9e-9 relative
        with localcontext() as ctx:
            ctx.prec = 60
            x = 2 * Decimal(theta)
            want = float((x.exp() - 1) / x)
        assert math.isclose(md.ou_variance(theta, 1.0, 1.0), want, rel_tol=1e-15)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1e160, 1e300])
    def test_sigma_is_a_pure_scale(self, sigma):
        # sigma^2 under- or overflows a double at every one of these scales
        spec, unit = md.OrnsteinUhlenbeck(-1.0, sigma), md.OrnsteinUhlenbeck(-1.0, 1.0)
        sup, unit_sup = spec.support(1.0), unit.support(1.0)
        for end, unit_end in ((sup.lo, unit_sup.lo), (sup.hi, unit_sup.hi)):
            assert math.isclose(end, sigma * unit_end, rel_tol=1e-15)
        curve, unit_curve = spec.density_curve(1.0), unit.density_curve(1.0)
        assert np.max(np.abs(curve.xs / sigma - unit_curve.xs)) <= \
            1e-13 * np.max(np.abs(unit_curve.xs))
        assert np.max(np.abs(curve.ps * sigma - unit_curve.ps)) <= 1e-13 * np.max(unit_curve.ps)

    def test_variance_against_support_radius(self):
        for theta, sigma, t in ((-1.3, 0.8, 0.7), (0.9, 1.1, 1.4), (0.0, 1.0, 3.0)):
            v = md.ou_variance(theta, sigma, t)
            r = md.ou_support(theta, sigma, t).hi
            assert abs(v - (r / 2.0) ** 2) <= 1e-12 * max(1.0, v)

    def test_theta_past_two_to_the_1023(self):
        # 2 theta overflowed to -inf: variance 0 and support [0, 0], which
        # the CLI wrote with exit 0; 2 (theta t) at t = 1e-310 is -0.02, so
        # v_1 = (1 - e^-0.02) / 2e308, not the saturated 1 / 2e308
        assert math.isclose(md.ou_variance(-1e308, 1.0, 0.5), 5e-309, rel_tol=1e-12)
        sup = md.ou_support(-1e308, 1.0, 0.5)
        assert math.isclose(sup.hi, math.sqrt(2e-308), rel_tol=1e-12) and sup.lo == -sup.hi
        with localcontext() as ctx:
            ctx.prec = 60
            want = float((1 - Decimal(-0.02).exp()) / (2 * Decimal(1e308)))
        assert math.isclose(md.ou_variance(-1e308, 1.0, 1e-310), want, rel_tol=1e-9)


def _composed_euler_law(theta, dt, k):
    """(decay, noise time) of k Euler steps x <- rho x + sigma dW, rho = 1 +
    theta dt, by binary powers of the one-step map in 80-digit arithmetic:
    (d, n) then (d', n') is (d d', d'^2 n + n')."""
    with localcontext() as ctx:
        ctx.prec = 80
        step = (1 + Decimal(theta * dt), Decimal(dt))
        acc = (Decimal(1), Decimal(0))
        while k:
            if k & 1:
                acc = (acc[0] * step[0], step[0] ** 2 * acc[1] + step[1])
            step = (step[0] ** 2, step[0] ** 2 * step[1] + step[1])
            k >>= 1
    return acc


class TestOuEulerLaw:
    """ou's segment law is the k-fold composition of one Euler step."""

    @given(st.floats(-5.0, 5.0), st.floats(0.0, 0.1, exclude_min=True, allow_subnormal=False),
           st.integers(0, rmt.MAX_STEPS))
    @example(0.0, 0.05, 7)                   # theta = 0: noise time k dt
    @example(0.0, 0.1, rmt.MAX_STEPS)
    @example(-10.0, 0.1, 5)                  # theta dt = -1: rho = 0
    @example(-15.0, 0.1, 5)                  # rho = -0.5: rho^k changes sign
    @example(-25.0, 0.1, 7)                  # rho = -1.5
    @example(-20.0, 0.1, 9)                  # rho = -1
    @example(1e-9, 1e-3, rmt.MAX_STEPS)      # theta dt -> 0: no cancellation
    @example(-3e-7, 0.1, 4321)
    @example(5.0, 0.1, rmt.MAX_STEPS)        # overflows
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_composed_steps(self, theta, dt, k):
        decay, noise = _composed_euler_law(theta, dt, k)
        try:
            got = md.ou_euler_law(theta, dt, k)
        except OverflowError:
            assert max(abs(decay), noise) > Decimal("1e300")
            return
        # relative, down to the smallest normal double
        tiny = Decimal(np.finfo(float).tiny)
        for value, want in zip(got, (decay, noise)):
            assert abs(Decimal(value) - want) <= Decimal("1e-12") * abs(want) + tiny

    def test_segment_drift_time_gives_the_decay(self):
        for theta, dt, k in ((-1.0, 1e-2, 37), (0.8, 1e-3, 500), (-10.0, 0.1, 3)):
            spec = md.OrnsteinUhlenbeck(theta, 1.0)
            decay, noise = md.ou_euler_law(theta, dt, k)
            steps, drift, got = spec.euler_segment(dt, k)
            assert (steps, got) == (k, noise)
            assert abs(1.0 + theta * drift - decay) <= 4 * EPS * max(1.0, abs(decay))
        assert md.OrnsteinUhlenbeck(0.0, 1.0).euler_segment(1e-2, 5) == (5, 5e-2, 5e-2)
        # an overflowing law falls back to one Euler step per draw
        assert md.OrnsteinUhlenbeck(5.0, 1.0).euler_segment(0.1, 1000) == (1, 0.1, 0.1)
        for spec in (md.GeometricBrownian1(0.5), md.GeometricBrownian2(0.5),
                     md.Explosive(1.0, 1.0)):
            assert spec.euler_segment(1e-2, 40) == (1, 1e-2, 1e-2)


class TestGeometricBrownian1:
    def test_initial_transform_exact(self):
        for z in (2.0 + 0.5j, -1.0 + 0.1j, 5.0):
            assert md.gbm_cauchy(0.7, 0.0, z) == 1.0 / (1.0 - z)

    def test_residual_certificate(self):
        z = 5.0 + 0.01j
        g = md.gbm_cauchy(0.0, 1.0, z)
        res = abs(z + 1.0 / g - np.exp((-1.0 - z * g) * 1.0))
        assert res < 1e-12
        assert g.imag > 0

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 2.0])
    def test_residual_and_branch_across_parameters(self, theta):
        alpha = theta - 1.0
        for t in (0.5, 1.0, 2.0):
            sup = md.gbm_support(theta, t)
            z = np.array([sup.hi * 1.1 + 0.01j,
                          0.5 * (sup.lo + sup.hi) + 1e-5j,
                          2.0 + 3.0j,
                          sup.lo + 1e-9j])
            g = md.gbm_cauchy(theta, t, z)
            res = np.abs(z + 1.0 / g - np.exp((alpha - z * g) * t))
            assert np.max(res) < 1e-12
            assert np.all(g.imag > 0)

    def test_decay_normalization(self):
        g = md.gbm_cauchy(0.5, 1.0, 1e6j)
        assert abs(1e6j * g + 1.0) < 1e-4

    def test_herglotz_sampling(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-2, 6, 100) + 1j * rng.uniform(1e-3, 10, 100)
        g = md.gbm_cauchy(0.5, 1.0, z)
        assert np.all(np.asarray(g).imag > 0)

    def test_mean_of_recovered_density(self):
        # E(X_t) = e^{theta t}; flat-drift case at t = 1
        ev = md.cauchy_evaluator(md.GeometricBrownian1(0.0))
        sup = md.gbm_support(0.0, 1.0)
        phi = np.linspace(0.0, math.pi, 2049)
        xs = 0.5 * (sup.lo + sup.hi) - 0.5 * (sup.hi - sup.lo) * np.cos(phi)
        curve = ca.stieltjes_invert(ev, 1.0, xs, eps0=1e-5)
        assert abs(ca.density_moment(curve, 1) - 1.0) < 5e-3
        assert abs(curve.mass - 1.0) < 1e-3

    def test_branch_point_products(self):
        # t = 4/3 gives branch-point products 1/2 and -3/2
        t = 4.0 / 3.0
        s = math.sqrt(1.0 + 4.0 / t)
        assert abs((-1.0 + s) / 2.0 - 0.5) < 1e-15
        assert abs((-1.0 - s) / 2.0 + 1.5) < 1e-15

    def test_support_at_four_thirds(self):
        sup = md.gbm_support(1.0, 4.0 / 3.0)
        assert abs(sup.lo - (1.0 / 3.0) * math.exp(-2.0 / 3.0)) < 1e-12
        assert abs(sup.hi - 3.0 * math.exp(2.0)) < 1e-12
        assert abs(sup.lo - 0.17114) < 1e-5
        assert abs(sup.hi - 22.1672) < 1e-4

    def test_support_asymptotics(self):
        theta, t = 0.5, 50.0
        sup = md.gbm_support(theta, t)
        lo_ref = math.exp((theta - 1.0) * t) / (math.e * t)
        hi_ref = math.e * t * math.exp(theta * t)
        assert 0.9 < sup.lo / lo_ref < 1.1
        assert 0.9 < sup.hi / hi_ref < 1.1

    @pytest.mark.parametrize("t", [1e10, 1e15, 1e17, 1e300])
    def test_support_upper_end_at_large_t(self, t):
        # hi = r/(1+r) e^((theta-1-r) t) at r = -(1 + sqrt(1 + 4/t))/2, theta = 0,
        # in enough digits that 1 + 4/t keeps all of 4/t: no cancellation left
        with localcontext() as ctx:
            ctx.prec = 400
            r = -(1 + (1 + 4 / Decimal(t)).sqrt()) / 2
            want = r / (1 + r) * ((-1 - r) * Decimal(t)).exp()
            assert abs(Decimal(md.gbm_support(0.0, t).hi) - want) <= Decimal("1e-14") * want

    def test_support_end_past_a_double_is_refused(self):
        with pytest.raises(OverflowError):
            md.gbm_support(0.0, 1e308)

    def test_support_positive(self):
        for theta in (-2.0, 0.0, 1.0, 3.0):
            for t in (0.1, 1.0, 10.0):
                assert md.gbm_support(theta, t).lo > 0.0

    def test_support_shrinks_for_negative_drift(self):
        # contracting case: upper edge falls toward zero at large times
        his = [md.gbm_support(-1.0, t).hi for t in (4.0, 6.0, 9.0)]
        assert his[0] > his[1] > his[2]
        assert his[2] < 0.01

    def test_transition_period_for_strong_positive_drift(self):
        # early on a sizable mass fraction still sits below 1 even though
        # the law eventually runs off to infinity
        ev = md.cauchy_evaluator(md.GeometricBrownian1(2.0))
        fractions = []
        for t in (0.25, 2.0):
            sup = md.gbm_support(2.0, t)
            phi = np.linspace(0.0, math.pi, 2049)
            xs = 0.5 * (sup.lo + sup.hi) - 0.5 * (sup.hi - sup.lo) * np.cos(phi)
            curve = ca.stieltjes_invert(ev, t, xs, eps0=1e-5)
            fractions.append(np.trapezoid(np.where(xs <= 1.0, curve.ps, 0.0), xs))
        assert fractions[0] > 0.2
        assert fractions[1] < 0.01

    # Without the Im s polish the root stayed off the branch by its last
    # Newton step and the transform raised BranchViolation; the point lies
    # 1e-5 past the support's upper end, at Im z far below |z|.
    def test_polish_keeps_the_branch_just_off_the_support(self):
        theta, t = -0.8339417520574633, 0.9240199792976924
        z = 2.1416561253882476 + 6.765331893059714e-16j
        assert 0.0 < z.real - md.gbm_support(theta, t).hi < 2e-5
        assert md.gbm_cauchy(theta, t, z).imag > 0

    # The support lies in x > 0, so the density at x < 0 is exactly 0.
    # Newton on s itself (no flip to s - i pi where Re z < 0) resolves Im s
    # near pi only to an ulp of pi and left p up to 1.7e-17 there; without
    # the Im s polish p reached 2.1e-22.
    def test_config_grid_density_vanishes_left_of_zero(self):
        xs = np.linspace(-3.0, 3.0, 2048)
        curve = ca.stieltjes_invert(md.GeometricBrownian1(0.5).cauchy, 1.0, xs, eps0=0.0)
        assert np.all(curve.ps[xs < 0] == 0.0)


def _gbm_query():
    """Points of the closed upper half plane, as functions of the support:
    zero, the exact support ends, polar points with |z| from 1e-30 to 1e30
    (angles 0 and pi give the real axis), and points near the support at
    heights from 1e-300 up."""
    polar = st.builds(
        lambda e, phi: lambda sup: complex(10.0 ** e * math.cos(phi),
                                           10.0 ** e * max(math.sin(phi), 0.0)),
        st.floats(-30.0, 30.0), st.one_of(st.sampled_from([0.0, math.pi]),
                                          st.floats(0.0, math.pi)))
    near = st.builds(
        lambda s, h: lambda sup: complex(sup.lo + s * sup.width, h),
        st.floats(-0.2, 1.2), st.one_of(st.just(0.0), st.floats(-300.0, 1.0).map(
            lambda e: 10.0 ** e)))
    ends = st.sampled_from([lambda sup: complex(sup.lo), lambda sup: complex(sup.hi)])
    return st.one_of(st.just(lambda sup: 0j), ends, polar, near)


class TestGeometricBrownian1Property:
    @given(st.floats(-2.0, 3.0), st.floats(1e-6, 6.0), _gbm_query())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_root_of_functional_equation_on_herglotz_branch(self, theta, t, query):
        sup = md.gbm_support(theta, t)
        z = query(sup)
        g = md.gbm_cauchy(theta, t, z)
        assert np.isfinite(g) and g.imag >= -4.0 * EPS * abs(g)
        # off the axis Im g >= Im z / (|z| + z_+)^2, asserted where that is
        # a normal double
        if z.imag / (abs(z) + sup.hi) ** 2 >= 1e-300:
            assert g.imag > 0
        if z == 0:
            assert g == math.exp((1.0 - theta) * t)
        terms = (z, 1.0 / g, np.exp((theta - 1.0 - z * g) * t))
        assert abs(terms[0] + terms[1] - terms[2]) <= 1e-13 * sum(map(abs, terms))

    # Below t = 1e-10 the support is narrower than 4e-5 around x ~ 1, and
    # rounding a node next to an edge to a double moves the square-root edge
    # density by more than 1e-7 of its peak, whichever method reads it.
    @given(st.floats(-1.0, 2.0), st.floats(1e-10, 6.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(0.5, 6.0)
    def test_boundary_curve_matches_newton(self, theta, t):
        curve = md.GeometricBrownian1(theta).boundary(t)
        xs, ps = curve.xs, curve.ps
        assert xs.size == md.AUTO_GRID_N
        inner = np.flatnonzero(ps > 0)
        ref = md.gbm_cauchy(theta, t, xs[inner] + 0j).imag / math.pi
        assert np.max(np.abs(ps[inner] - ref)) <= 1e-7 * np.max(ps)
        sup = md.gbm_support(theta, t)
        ends = (xs[inner[0] - 1], xs[inner[-1] + 1])
        assert ends == pytest.approx((sup.lo, sup.hi), rel=1e-12, abs=0.0)


class TestGeometricBrownian2:
    def test_initial_moments(self):
        assert md.gbm2_moments(0.3, 0.0) == (1.0, 1.0)

    def test_flat_drift_second_moment(self):
        mean, second = md.gbm2_moments(0.0, 1.0)
        assert mean == 1.0
        assert abs(second - (2.0 * math.e ** 2 - 1.0)) < 1e-12
        assert abs(second - 13.7781) < 1e-4

    def test_dispersion_ratio(self):
        # the ratio the moments command writes is sqrt(2 (e^(2t) - 1)) for every theta
        for theta in (-1.0, 0.0, 0.5, 2.0):
            for t in (0.1, 1.0, 3.0):
                ratio = model_moments(md.GeometricBrownian2(theta), t).std_over_mean
                assert abs(ratio - math.sqrt(2.0 * math.expm1(2.0 * t))) <= 1e-12 * ratio
            assert abs(model_moments(md.GeometricBrownian2(theta), 1.0).std_over_mean
                       - 3.5746) < 1e-4

    def test_no_transform_available(self):
        with pytest.raises(InvalidConfig):
            md.cauchy_evaluator(md.GeometricBrownian2(0.0))


def _explosive_query():
    """Points of the closed upper half plane, as functions of the support:
    zero, polar points with |z| from 1e-300 up (angles 0 and pi give the
    real axis), and points on or just above the support and its margins."""
    polar = st.builds(
        lambda e, phi: lambda sup: complex(10.0 ** e * math.cos(phi),
                                           10.0 ** e * max(math.sin(phi), 0.0)),
        st.floats(-300.0, 8.0), st.one_of(st.sampled_from([0.0, math.pi]),
                                          st.floats(0.0, math.pi)))
    near = st.builds(
        lambda s, h: lambda sup: complex(sup.lo + s * sup.width, h),
        st.floats(-0.2, 1.2), st.one_of(st.just(0.0), st.floats(1e-12, 1.0)))
    return st.one_of(st.just(lambda sup: 0j), polar, near)


class TestExplosive:
    def test_initial_transform(self):
        for z in (2.0 + 1.0j, 0.3, -5.0):
            assert md.explosive_cauchy(1.0, 1.0, 0.0, z) == 1.0 / (1.0 - z)

    def test_decay_and_branch(self):
        # a mean-one law has |z g + 1| ~ E(X)/|z|, so the decay bound needs
        # large |z|; the moderate point checks the branch and leading term
        g = md.explosive_cauchy(1.0, 1.0, 0.25, 1e6j)
        assert abs(1e6j * g + 1.0) < 1e-4
        g10 = md.explosive_cauchy(1.0, 1.0, 0.25, 10.0j)
        assert g10.imag > 0
        assert abs(10.0j * g10 + 1.0) < 0.15

    def test_herglotz_sampling(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(-3, 6, 100) + 1j * rng.uniform(1e-3, 10, 100)
        g = md.explosive_cauchy(1.0, 1.0, 0.25, z)
        assert np.all(np.asarray(g).imag > 0)

    def test_boundary_values_reproduce_density(self):
        # same quadratic, two independent code paths
        sup = md.explosive_support(1.0, 1.0, 0.25)
        xs = np.linspace(sup.lo + 1e-9, sup.hi - 1e-9, 1501)
        g = md.explosive_cauchy(1.0, 1.0, 0.25, xs + 0j)
        dens = md.explosive_density(1.0, 1.0, 0.25, xs)
        assert np.max(np.abs(np.asarray(g).imag / math.pi - dens)) < 1e-8

    def test_branch_held_near_blowup(self):
        # a 40-step root-tracking sweep lost the Herglotz root here
        g = md.explosive_cauchy(1.0, 1.0, 0.99, 15860.201383176098 + 1e-6j)
        assert np.isfinite(g) and g.imag > 0

    # t/T* from 1e-300 keeps t, |g| ~ 1/sqrt(tau) and g^2 in double range
    @given(st.floats(0.3, 3.0), st.floats(0.3, 3.0),
           st.floats(1e-300, 1.0 - 1e-6), _explosive_query())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_reciprocal_semicircle_properties(self, k, a, frac, query):
        t = frac * md.blowup_time(k, a)
        sup = md.explosive_support(k, a, t)
        z = query(sup)
        g = md.explosive_cauchy(k, a, t, z)
        assert np.isfinite(g) and g.imag >= 0
        # off the axis Im g >= Im z / (|z| + z_+)^2, asserted where that is
        # a normal double
        if z.imag / (abs(z) + sup.hi) ** 2 >= 1e-300:
            assert g.imag > 0
        if z == 0:
            assert g == 1.0 / a + a * k * k * t
        # The paper's quadratic functional equation R(g; z) = 0.  Near a
        # branch point a narrow support makes |g| and dR/dz large, and moving
        # z by a few ulps then moves R by more than 1e-10 of its terms; the
        # root is held to the equation at some z within that distance.
        k2t = k * k * t
        terms = (k2t * z ** 3 * g * g, (z / a - 1.0 + (a + 2.0 * z) * z * k2t) * g,
                 1.0 / a + (z + a) * k2t)
        dR_dz = 3.0 * k2t * z * z * g * g + (1.0 / a + (a + 4.0 * z) * k2t) * g + k2t
        z_ulps = 8.0 * EPS * (abs(z) + a)
        assert abs(sum(terms)) <= 1e-10 * sum(map(abs, terms)) + abs(dR_dz) * z_ulps
        # On the axis Im g / pi is the printed density.  Scale is the largest
        # of the grid peak, Im g / pi and the density: the grid over the
        # support of Y = X^(-1) finds the peak even when z_+ is astronomically
        # far out, but it collapses for a support narrower than an ulp.
        if z.imag == 0:
            ws = np.linspace(1.0 / sup.hi, 1.0 / sup.lo, 4097)
            peak = np.max(md.explosive_density(k, a, t, 1.0 / ws))
            dens = md.explosive_density(k, a, t, z.real)
            scale = max(peak, g.imag / math.pi, dens)
            assert abs(g.imag / math.pi - dens) <= 1e-8 * scale

    # the printed discriminant cancels to ~eps against its peak 4 tau: at
    # k=a=1, tau=1e-9 it gave 2.37 at x = z_+ where Im g/pi is 0.0083
    @pytest.mark.parametrize("tau", [1e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize("k, a", [(1.0, 1.0), (1.3, 0.7)])
    def test_density_matches_transform_at_small_tau(self, k, a, tau):
        t = tau / (a * k) ** 2
        sup = md.explosive_support(k, a, t)
        xs = sup.lo + sup.width * (1.0 - np.cos(np.linspace(0.0, math.pi, 1025))) / 2.0
        xs[0], xs[-1] = sup.lo, sup.hi
        dens = md.explosive_density(k, a, t, xs)
        g = md.explosive_cauchy(k, a, t, xs + 0j)
        assert np.max(np.abs(g.imag / math.pi - dens)) <= 1e-12 * np.max(dens)

    def test_support_quarter(self):
        sup = md.explosive_support(1.0, 1.0, 0.25)
        assert abs(sup.lo - 4.0 / 9.0) < 1e-15
        assert abs(sup.hi - 4.0) < 1e-14

    def test_lower_edge_limit(self):
        sup = md.explosive_support(1.0, 1.0, 1.0 - 1e-4)
        assert abs(sup.lo - 0.25) < 1e-3

    def test_support_collapses_at_zero_time(self):
        sup = md.explosive_support(1.0, 1.0, 1e-12)
        assert abs(sup.lo - 1.0) < 1e-5 and abs(sup.hi - 1.0) < 1e-5

    def test_upper_edge_divergence(self):
        assert md.explosive_support(1.0, 1.0, 0.97).hi > 1e3

    def test_limit_density_value(self):
        # tau -> 1 profile sqrt(4 xi - 1)/(2 pi xi^3) at xi = 1/2 is 4/pi
        val = md.explosive_density(1.0, 1.0, 1.0 - 1e-9, 0.5)
        assert abs(val - 4.0 / math.pi) < 1e-4

    def test_density_outside_support_zero(self):
        assert md.explosive_density(1.0, 1.0, 0.25, 0.3) == 0.0
        assert md.explosive_density(1.0, 1.0, 0.25, 4.5) == 0.0

    def test_density_normalization_quadrature(self):
        sup = md.explosive_support(1.0, 1.0, 0.25)
        mass, _ = quad(lambda x: md.explosive_density(1.0, 1.0, 0.25, x),
                       sup.lo, sup.hi, limit=200)
        assert abs(mass - 1.0) < 1e-6

    def test_mean_constant(self):
        sup = md.explosive_support(1.0, 1.0, 0.5)
        mean, _ = quad(lambda x: x * md.explosive_density(1.0, 1.0, 0.5, x),
                       sup.lo, sup.hi, limit=200)
        assert abs(mean - 1.0) < 1e-6

    def test_blowup_time(self):
        assert md.blowup_time(1.0, 1.0) == 1.0
        assert md.blowup_time(1.0, 2.0) == 0.25
        ts = [md.blowup_time(k, 1.0) for k in (1.0, 2.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert ts[-1] < 1e-3

    def test_blowup_time_beyond_a_double(self, tmp_path):
        # (a k)^2 past either end of the double range
        assert md.blowup_time(1e-200, 1.0) == math.inf
        assert md.blowup_time(1.0, 1e-170) == math.inf
        assert md.blowup_time(1e200, 1.0) == 0.0
        for k, a in ((1e-200, 1.0), (1.0, 1e-170)):
            argv = ["--model", "explosive", "--k", str(k), "--a", str(a), "--times", "1",
                    "--out", str(tmp_path)]
            for command in ("support", "moments"):
                assert cli.main([command, *argv]) == 0
                rows = (tmp_path / f"{command}_explosive.csv").read_text().split()
                assert rows[1].startswith("1,")
                assert all(math.isfinite(float(v)) for v in rows[1].split(","))
        spec = md.Explosive(1e-200, 1.0)
        sup = spec.support(1.0)
        assert (sup.lo, sup.hi) == (1.0, 1.0)
        assert spec.moments(1.0) == (1.0, 1.0)

    def test_past_blowup_refused(self):
        with pytest.raises(PastBlowup):
            md.explosive_cauchy(1.0, 1.0, 1.0, 2.0j)
        with pytest.raises(PastBlowup):
            md.explosive_support(1.0, 2.0, 0.3)
        with pytest.raises(PastBlowup):
            md.explosive_density(2.0, 1.0, 0.26, 1.0)

    def test_scale_covariance(self):
        # density of X/a at time (ak)^{-2} tau depends on tau alone
        xi = np.linspace(0.46, 3.9, 400)
        f11 = md.explosive_density(1.0, 1.0, 0.25, xi)
        f2h = md.explosive_density(0.5, 2.0, 0.25, 2.0 * xi) * 2.0
        assert np.max(np.abs(f11 - f2h)) < 1e-10


class TestDensityCurve:
    # one uniform grid over the three supports below
    GRID = np.linspace(-1.5, 12.5, 4096)

    @pytest.mark.parametrize("spec, t, error, match", [
        (md.OrnsteinUhlenbeck(-1.0, 1.0), 1.0, None, None),
        (md.GeometricBrownian1(0.5), 1.0, None, None),
        (md.Explosive(1.0, 1.0), 0.5, None, None),
        (md.GeometricBrownian2(0.0), 1.0, InvalidConfig, "no transform"),
        # README's reach is 0.95 of the blow-up time; at 0.99 the grid loses mass
        (md.Explosive(1.0, 1.0), 0.99, NotNormalized, "curve mass"),
    ], ids=["ou", "gbm1", "explosive", "gbm2", "explosive-near-blowup"])
    @pytest.mark.parametrize("uniform", [False, True], ids=["auto", "uniform"])
    def test_is_the_records_normalized_curve(self, spec, t, error, match, uniform):
        xs = self.GRID if uniform else None
        if error is not None:
            with pytest.raises(error, match=match):
                spec.density_curve(t, xs)
            return
        curve = spec.density_curve(t, xs)
        ref = ca.stieltjes_invert(spec.cauchy, t, xs, eps0=0.0) if uniform else spec.boundary(t)
        assert np.array_equal(curve.xs, ref.xs) and np.array_equal(curve.ps, ref.ps)
        assert abs(curve.mass - 1.0) <= ca.MASS_TOL


class TestEvaluatorDispatch:
    def test_support_of(self):
        assert md.OrnsteinUhlenbeck(0.0, 1.0).support(0.0).hi == 0.0
        assert md.GeometricBrownian1(0.0).support(0.0).lo == 1.0
        assert md.Explosive(1.0, 2.0).support(0.0).lo == 2.0
        with pytest.raises(InvalidConfig):
            md.GeometricBrownian2(0.0).support(1.0)

    def test_evaluators_vectorized(self):
        for spec in (md.OrnsteinUhlenbeck(-1.0, 1.0), md.GeometricBrownian1(0.5),
                     md.Explosive(1.0, 1.0)):
            ev = md.cauchy_evaluator(spec)
            z = np.array([1.0 + 1.0j, 2.0 + 0.5j])
            out = ev(0.3, z)
            assert out.shape == z.shape
            assert isinstance(ev(0.3, 1.0 + 1.0j), complex)

    def test_initial_values(self):
        assert md.OrnsteinUhlenbeck(0.0, 1.0).x0 == 0.0
        assert md.GeometricBrownian1(1.0).x0 == 1.0
        assert md.Explosive(1.0, 3.0).x0 == 3.0
