"""Inversion, Hilbert transform, moments, and Fokker-Planck residual checks."""

import math

import numpy as np
import pytest

from freesde import cauchy as ca
from freesde import models as md
from freesde.characteristics import Polynomial
from freesde.errors import (
    ClampExceeded,
    GridMismatch,
    GridTooCoarse,
    NonFinite,
    OrderTooHigh,
)


def semicircle_evaluator(variance=1.0):
    return lambda t, z: ca.semicircle_cauchy(z, variance)


def semicircle_curve(variance=1.0, n=1024, width=1.1, t=None):
    r = 2 * math.sqrt(variance)
    xs = np.linspace(-width * r, width * r, n)
    return ca.DensityCurve.from_samples(xs, ca.semicircle_density(xs, variance), t=t)


class TestSupportInterval:
    def test_nan_end_is_non_finite(self):
        # ou at theta = 1e308, the CLI input that once reached this check,
        # now fails earlier as an overflow of its variance
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(NonFinite):
                ca.SupportInterval(lo, hi)


class TestDensityCurve:
    def test_construction_and_support(self):
        # the semicircle of variance 1 lives on [-2, 2]
        curve = semicircle_curve()
        assert abs(curve.mass - 1.0) < 1e-3
        curve.assert_normalized()
        assert np.all(curve.ps[np.abs(curve.xs) < 2.0] > 0.0)

    def test_vanishes_outside_support(self):
        # boundary values of the transform are real off the cut [-2, 2]
        xs = semicircle_curve().xs
        curve = ca.stieltjes_invert(semicircle_evaluator(), 0.0, xs, eps0=0.0)
        curve.assert_normalized()
        assert np.all(curve.ps[np.abs(xs) > 2.0] == 0.0)
        assert np.all(curve.ps[np.abs(xs) < 2.0] > 0.0)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            ca.DensityCurve.from_samples([0, 1, 2], [0.1, -0.2, 0.1])

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            ca.DensityCurve.from_samples([0, 2, 1], [0.1, 0.2, 0.1])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            ca.DensityCurve.from_samples([0, 1, 2], [0.1, np.nan, 0.1])

    def test_csv_roundtrip_exact(self):
        curve = semicircle_curve(n=257)
        back = ca.DensityCurve.from_csv(curve.to_csv())
        assert np.array_equal(back.xs, curve.xs)
        assert np.array_equal(back.ps, curve.ps)


class TestStieltjesInvert:
    def test_semicircle_at_zero(self):
        # analytic density sqrt(4 - x^2)/(2 pi) at the origin is 1/pi
        xs = np.linspace(-2.2, 2.2, 1025)
        curve = ca.stieltjes_invert(semicircle_evaluator(), 0.0, xs, eps0=1e-4)
        i0 = np.argmin(np.abs(xs))
        assert abs(curve.ps[i0] - 1.0 / math.pi) < 1e-4

    def test_point_mass_away_from_atom(self):
        xs = np.linspace(0.5, 2.0, 64)
        curve = ca.stieltjes_invert(lambda t, z: -1.0 / z, 0.0, xs, eps0=1e-3)
        assert np.max(curve.ps) < 1e-3
        assert curve.mass < 1e-3

    def test_ou_stationary_matches_semicircle(self):
        # long-horizon contracting process: semicircle of radius sqrt(2)
        ev = md.cauchy_evaluator(md.OrnsteinUhlenbeck(-1.0, 1.0))
        xs = np.linspace(-1.5, 1.5, 801)
        curve = ca.stieltjes_invert(ev, 20.0, xs, eps0=1e-5)
        ref = ca.semicircle_density(xs, 0.5)
        assert np.max(np.abs(curve.ps - ref)) < 1e-4

    def test_inversion_consistency_default_eps(self):
        # radius-2 semicircle at the default eps schedule; the eps -> 0
        # limit converges non-uniformly at the sqrt edge, so nodes within
        # two steps of +/-2 are excluded from the pointwise comparison
        xs = np.linspace(-2.1, 2.1, 1024)
        curve = ca.stieltjes_invert(semicircle_evaluator(), 0.0, xs, eps0=1e-3)
        ref = ca.semicircle_density(xs, 1.0)
        h = curve.step
        away = np.minimum(np.abs(xs - 2.0), np.abs(xs + 2.0)) > 2 * h
        assert np.max(np.abs(curve.ps - ref)[away]) < 1e-4
        curve.assert_normalized()

    def test_clamp_gives_positive_zero(self):
        # Im g = -0.0 is not negative: the clamp once kept it, and the CSV read "-0"
        xs = np.linspace(-1.0, 1.0, 32)
        curve = ca.stieltjes_invert(
            lambda t, z: np.where(z.real < 0, complex(0.0, -0.0), 0.5j), 0.0, xs, eps0=0.0)
        assert curve.clamped_points == 0 and not np.signbit(curve.ps).any()
        assert "-0" not in curve.to_csv().replace("\n", ",").split(",")

    def test_nonfinite_error(self):
        with pytest.raises(NonFinite):
            ca.stieltjes_invert(lambda t, z: z * np.nan, 0.0, np.linspace(-1, 1, 32))

    def test_wrong_branch_rejected(self):
        # conjugate branch has negative imaginary part: everything clamps
        with pytest.raises(ClampExceeded):
            ca.stieltjes_invert(lambda t, z: np.conj(ca.semicircle_cauchy(z, 1.0)),
                                0.0, np.linspace(-2.2, 2.2, 256))


def brute_force_pv(curve: ca.DensityCurve, x: float, refine: int = 4) -> float:
    """Independent PV oracle: plain trapezoid on a refined grid with a
    symmetric exclusion window plus the analytic window correction."""
    xs = np.linspace(curve.xs[0], curve.xs[-1], refine * (curve.xs.size - 1) + 1)
    ps = np.interp(xs, curve.xs, curve.ps)
    h = xs[1] - xs[0]
    delta = 2.5 * h
    mask = np.abs(xs - x) > delta
    body = np.trapezoid(np.where(mask, ps / np.where(mask, x - xs, 1.0), 0.0), xs)
    i = np.argmin(np.abs(xs - x))
    slope = (ps[min(i + 1, xs.size - 1)] - ps[max(i - 1, 0)]) / (2 * h)
    return float(body - 2.0 * delta * slope)


def pair_sum(curve: ca.DensityCurve, x: float) -> float:
    """The symmetric-pair principal-value sum at one point x, term by term:
    pairs y = x +/- k*h, k = 1..K, with trapezoid weights 1/k, 1.5/k on the
    first pair and 0.5/k on the last, samples beyond the grid counting as
    zero."""
    h = curve.step
    K = int(math.ceil((curve.xs[-1] - curve.xs[0]) / h)) + 1
    k = np.arange(1, K + 1)
    w = np.ones(K)
    w[0], w[-1] = 1.5, 0.5
    right = np.interp(x + k * h, curve.xs, curve.ps, left=0.0, right=0.0)
    left = np.interp(x - k * h, curve.xs, curve.ps, left=0.0, right=0.0)
    return float(-np.dot(w / k, right - left))


def at_node(curve: ca.DensityCurve, x: float) -> float:
    """The grid transform at the node x, which must be a node of the grid."""
    i = int(np.argmin(np.abs(curve.xs - x)))
    assert abs(curve.xs[i] - x) <= 1e-15
    return float(ca.hilbert_transform_grid(curve)[i])


class TestHilbertTransform:
    def test_semicircle_interior_vs_analytic_and_oracle(self):
        # for the radius-2 semicircle the transform is x/2 inside the support
        curve = semicircle_curve(n=1024)
        got = at_node(curve, 1.0)
        assert abs(got - 0.5) < 2e-3
        assert abs(got - brute_force_pv(curve, 1.0)) < 2e-3

    def test_odd_symmetry_cancels_exactly(self):
        curve = semicircle_curve(n=513)
        assert abs(at_node(curve, 0.0)) < 1e-14

    def test_edge_is_finite(self):
        # 2.0 is a node of the n = 1057 grid (h = 1/240), not of n = 1024
        curve = semicircle_curve(n=1057)
        val = at_node(curve, 2.0)
        assert np.isfinite(val)
        assert abs(val - brute_force_pv(curve, 2.0)) < 0.05

    def test_grid_too_coarse(self):
        xs = np.linspace(-2.5, 2.5, 18)
        curve = ca.DensityCurve.from_samples(xs, ca.semicircle_density(xs, 1.0))
        with pytest.raises(GridTooCoarse):
            ca.hilbert_transform_grid(curve)
        # inversion off the axis leaves p > 0 on all 18 nodes, 14 above the floor
        curve = ca.stieltjes_invert(semicircle_evaluator(), 0.0, xs, eps0=1e-3)
        with pytest.raises(GridTooCoarse):
            ca.hilbert_transform_grid(curve)

    def test_needs_uniform_grid(self):
        xs = np.concatenate([np.linspace(-2, 0, 50), np.linspace(0.1, 2, 80)])
        curve = ca.DensityCurve.from_samples(xs, ca.semicircle_density(xs, 1.0))
        with pytest.raises(ValueError):
            ca.hilbert_transform_grid(curve)

    def test_oracle_agreement_across_points(self):
        # every probe is a node of the n = 1057 grid (h = 1/240), not of n = 1024
        curve = semicircle_curve(n=1057)
        for x in (-1.5, -0.7, 0.3, 1.2, 1.8):
            assert abs(at_node(curve, x) - brute_force_pv(curve, x)) < 2e-3

    @pytest.mark.parametrize("n", [257, 513, 1024, 1025, 4097])
    def test_grid_matches_pointwise(self, n):
        # the one-convolution form is the direct pair sum at each node
        curve = semicircle_curve(n=n)
        grid = ca.hilbert_transform_grid(curve)
        point = np.array([pair_sum(curve, x) for x in curve.xs])
        assert np.max(np.abs(grid - point)) <= 1e-13 * np.max(np.abs(point))


class TestDensityMoment:
    def test_normalization(self):
        assert abs(ca.density_moment(semicircle_curve(), 0) - 1.0) < 1e-3

    def test_semicircle_variance(self):
        # variance of the radius-2 semicircle is r^2/4 = 1
        assert abs(ca.density_moment(semicircle_curve(), 2) - 1.0) < 1e-3

    def test_order_cap(self):
        with pytest.raises(OrderTooHigh):
            ca.density_moment(semicircle_curve(), 9)


class TestFokkerPlanckResidual:
    @staticmethod
    def _ou_triplet(n, t0=30.0, dt=1e-3, eps=1e-5):
        ev = md.cauchy_evaluator(md.OrnsteinUhlenbeck(-1.0, 1.0))
        xs = np.linspace(-1.5, 1.5, n)
        return [ca.stieltjes_invert(ev, t, xs, eps0=eps)
                for t in (t0 - dt, t0, t0 + dt)]

    def test_stationary_residual_small(self):
        prev, mid, nxt = self._ou_triplet(513)
        res = ca.fokker_planck_residual(prev, mid, nxt, Polynomial([0.0, -1.0]))
        xin = mid.xs[1:-1]
        interior = np.abs(xin) < math.sqrt(2) * 0.92
        assert np.max(np.abs(res[interior])) < 5e-3

    def test_refinement_rate(self):
        maxima = []
        for n in (513, 1025):
            prev, mid, nxt = self._ou_triplet(n)
            res = ca.fokker_planck_residual(prev, mid, nxt, Polynomial([0.0, -1.0]))
            xin = mid.xs[1:-1]
            interior = np.abs(xin) < math.sqrt(2) * 0.92
            maxima.append(np.max(np.abs(res[interior])))
        assert maxima[0] / maxima[1] > 2.5  # consistent with second order

    def test_zero_density_zero_residual(self):
        xs = np.linspace(-1, 1, 65)
        zero = ca.DensityCurve.from_samples(xs, np.zeros_like(xs), t=1.0)
        prev = ca.DensityCurve.from_samples(xs, np.zeros_like(xs), t=0.9)
        nxt = ca.DensityCurve.from_samples(xs, np.zeros_like(xs), t=1.1)
        res = ca.fokker_planck_residual(prev, zero, nxt, Polynomial([]))
        assert np.all(res == 0.0)

    def test_grid_mismatch(self):
        prev, mid, nxt = self._ou_triplet(257)
        other = ca.DensityCurve.from_samples(np.linspace(-1.4, 1.4, 257),
                                             mid.ps, t=prev.t)
        with pytest.raises(GridMismatch):
            ca.fokker_planck_residual(other, mid, nxt, Polynomial([0.0, -1.0]))

    def test_unequal_time_spacing(self):
        prev, mid, nxt = self._ou_triplet(257)
        nxt.t = mid.t + 5e-3
        with pytest.raises(GridMismatch):
            ca.fokker_planck_residual(prev, mid, nxt, Polynomial([0.0, -1.0]))

    def test_grid_checked_once(self, monkeypatch):
        # the residual checked the mid curve's grid, then its Hilbert transform again
        calls = []
        check = ca._check_pv_grid
        monkeypatch.setattr(ca, "_check_pv_grid", lambda p: calls.append(p) or check(p))
        prev, mid, nxt = self._ou_triplet(257)
        ca.fokker_planck_residual(prev, mid, nxt, Polynomial([0.0, -1.0]))
        assert len(calls) == 1 and calls[0] is mid

    def test_nonuniform_grid_refused(self):
        xs = np.sinh(np.linspace(-1.5, 1.5, 257))
        prev, mid, nxt = (ca.DensityCurve.from_samples(xs, ca.semicircle_density(xs, 0.5), t=t)
                          for t in (0.9, 1.0, 1.1))
        with pytest.raises(ValueError, match="uniform grid"):
            ca.fokker_planck_residual(prev, mid, nxt, Polynomial([0.0, -1.0]))


class TestSemicircleClosedForms:
    def test_cdf_anchors(self):
        assert ca.semicircle_cdf(-2.0, 1.0) == 0.0
        assert abs(ca.semicircle_cdf(0.0, 1.0) - 0.5) < 1e-15
        assert abs(ca.semicircle_cdf(2.0, 1.0) - 1.0) < 1e-15

    def test_transform_herglotz_and_decay(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-4, 4, 100) + 1j * rng.uniform(1e-3, 10, 100)
        g = ca.semicircle_cauchy(z, 1.3)
        assert np.all(g.imag > 0)
        assert abs(1e6j * ca.semicircle_cauchy(1e6j, 1.3) + 1.0) < 1e-4

    def test_density_integrates_to_one(self):
        xs = np.linspace(-3, 3, 4001)
        assert abs(np.trapezoid(ca.semicircle_density(xs, 1.3), xs) - 1.0) < 1e-4
