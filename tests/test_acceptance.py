"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s``) after all
of its assertions go through; pytest -v shows the same per-criterion
status through the test names.
"""

import math
import time

import numpy as np
import pytest

from freesde import cauchy as ca
from freesde import characteristics as ch
from freesde import models as md
from freesde import moments as mo
from freesde import rmt

SQRT2 = math.sqrt(2.0)


def _report(num, name, elapsed, budget):
    print(f"[criterion {num:2d}] {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_01_ou_stationary_law():
    t0 = time.perf_counter()
    theta, sigma, t = -1.0, 1.0, 30.0
    ev = md.cauchy_evaluator(md.OrnsteinUhlenbeck(theta, sigma))
    xs = np.linspace(-1.05 * SQRT2, 1.05 * SQRT2, 1024)
    curve = ca.stieltjes_invert(ev, t, xs, eps0=1e-5)
    ref = ca.semicircle_density(xs, 0.5)  # radius sqrt(2) <=> variance 1/2
    on_support = np.abs(xs) <= SQRT2
    assert np.max(np.abs(curve.ps - ref)[on_support]) < 1e-4
    assert np.max(np.abs(curve.ps - ref)) < 1e-4  # off-support nodes too
    sup = md.ou_support(theta, sigma, t)
    assert abs(sup.lo + SQRT2) < 1e-6
    assert abs(sup.hi - SQRT2) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "stationary contracting law", elapsed, 1.0)


def test_criterion_02_ou_monte_carlo_agreement():
    t0 = time.perf_counter()
    spec = md.OrnsteinUhlenbeck(-1.0, 1.0)
    cfg = rmt.SimConfig(N=300, dt=1e-3, t_end=2.0, n_paths=20, seed=101)
    hist = rmt.run_ensemble(spec, cfg, [2.0])[0]
    v = md.ou_variance(-1.0, 1.0, 2.0)
    xs = np.linspace(-2.4 * math.sqrt(v), 2.4 * math.sqrt(v), 3001)
    curve = ca.DensityCurve.from_samples(xs, ca.semicircle_density(xs, v))
    ks = rmt.kolmogorov_distance(hist, curve)
    assert ks < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, f"contracting-model MC agreement (KS={ks:.3f})", elapsed, 60.0)


@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_criterion_03_gbm_functional_equation(theta, t):
    t0 = time.perf_counter()
    alpha = theta - 1.0
    sup = md.gbm_support(theta, t)
    phi = np.linspace(0.0, math.pi, 4097)
    xs = 0.5 * (sup.lo + sup.hi) - 0.5 * (sup.hi - sup.lo) * np.cos(phi)
    eps = 1e-5
    for height in (eps, eps / 2):
        z = xs + 1j * height
        g = md.gbm_cauchy(theta, t, z)
        res = np.abs(z + 1.0 / g - np.exp((alpha - z * g) * t))
        assert np.max(res) < 1e-12
    ev = md.cauchy_evaluator(md.GeometricBrownian1(theta))
    curve = ca.stieltjes_invert(ev, t, xs, eps0=eps)
    assert abs(curve.mass - 1.0) < 1e-3
    mean = ca.density_moment(curve, 1)
    second = ca.density_moment(curve, 2)
    assert abs(mean - math.exp(theta * t)) < 5e-3
    assert abs((second - mean ** 2) - t * math.exp(2 * theta * t)) < 2e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"multiplicative model (theta={theta}, t={t})", elapsed, 30.0)


def _im_g_height(theta, t, x):
    # boundary values: Im g vanishes identically off the support, rises as
    # pi * density inside it
    return md.gbm_cauchy(theta, t, complex(x, 0.0)).imag


def _bisect_edge(theta, t, lo, hi, want_above_at_lo):
    """Locate the Im g = 1e-6 crossing of the solved transform by bisection."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = _im_g_height(theta, t, mid) > 1e-6
        if above == want_above_at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_04_gbm_support_formulas():
    t0 = time.perf_counter()
    theta = 0.5
    for t in (0.5, 1.0, 2.0):
        sup = md.gbm_support(theta, t)
        assert _im_g_height(theta, t, 0.5 * (sup.lo + sup.hi)) > 1e-6
        assert _im_g_height(theta, t, sup.lo * 0.8) < 1e-6
        assert _im_g_height(theta, t, sup.hi * 1.2) < 1e-6
        lo_num = _bisect_edge(theta, t, sup.lo * 0.8, 0.5 * (sup.lo + sup.hi),
                              want_above_at_lo=False)
        hi_num = _bisect_edge(theta, t, 0.5 * (sup.lo + sup.hi), sup.hi * 1.2,
                              want_above_at_lo=True)
        assert abs(lo_num - sup.lo) / sup.lo < 1e-3
        assert abs(hi_num - sup.hi) / sup.hi < 1e-3
    # exact branch-point products at t = 4/3
    s = math.sqrt(1.0 + 4.0 / (4.0 / 3.0))
    assert (-1.0 + s) / 2.0 == 0.5
    assert (-1.0 - s) / 2.0 == -1.5
    elapsed = time.perf_counter() - t0
    _report(4, "multiplicative-model support formulas", elapsed, 30.0)


def test_criterion_05_explosive_cross_validation():
    t0 = time.perf_counter()
    k = a = 1.0
    # (i) boundary transform values against the printed density
    for t in (0.1, 0.25, 0.5, 0.8):
        sup = md.explosive_support(k, a, t)
        xs = np.linspace(sup.lo + 1e-9, sup.hi - 1e-9, 1201)
        g = md.explosive_cauchy(k, a, t, xs + 0j)
        dens = md.explosive_density(k, a, t, xs)
        assert np.max(np.abs(np.asarray(g).imag / math.pi - dens)) < 1e-8
    # (ii) support endpoints by formula
    sup = md.explosive_support(k, a, 0.25)
    assert abs(sup.lo - 4.0 / 9.0) < 1e-15
    assert abs(sup.hi - 4.0) < 1e-14
    # (iv) lower edge approaches a/4 toward blow-up
    assert abs(md.explosive_support(k, a, 1.0 - 1e-4).lo - 0.25) < 1e-3
    # (iii) Monte Carlo agreement at t = 0.25 and t = 0.5 (the criterion pins
    # N and the path count; dt = 2e-3 keeps the weak error far below the
    # 0.05 distance bound at half the cost)
    spec = md.Explosive(k, a)
    cfg = rmt.SimConfig(N=300, dt=2e-3, t_end=0.5, n_paths=20, seed=2025)
    hists = rmt.run_ensemble(spec, cfg, [0.25, 0.5])
    for t, hist in zip((0.25, 0.5), hists):
        sup = md.explosive_support(k, a, t)
        xs = np.linspace(max(sup.lo - 0.5, 1e-6), sup.hi + 0.5, 3001)
        curve = ca.DensityCurve.from_samples(xs, md.explosive_density(k, a, t, xs))
        ks = rmt.kolmogorov_distance(hist, curve)
        assert ks < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 90.0
    _report(5, "explosive-model cross validation", elapsed, 90.0)


def test_criterion_06_free_power_identity():
    t0 = time.perf_counter()
    for n in (2, 4, 6, 8, 10, 12):
        for A in (0.5, 1.0, 2.0):
            assert mo.verify_power_identity(n, A) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, "free power identity", elapsed, 1.0)


def test_criterion_07_wigner_mc_moments():
    t0 = time.perf_counter()
    spec = md.OrnsteinUhlenbeck(0.0, 1.0)  # pure driving noise
    cfg = rmt.SimConfig(N=300, dt=1e-3, t_end=1.0, n_paths=10, seed=404)
    pooled, _ = rmt.run_paths(spec, cfg, [1.0])
    lam = pooled[0].reshape(cfg.n_paths, -1)
    for order, target in ((2, 1.0), (4, 2.0)):
        per_path = (lam ** order).mean(axis=1)
        se = per_path.std(ddof=1) / math.sqrt(cfg.n_paths)
        assert abs(per_path.mean() - target) < 3.0 * se, \
            f"order {order}: {per_path.mean():.5f} vs {target} (SE {se:.2e})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, "driving-noise MC moments", elapsed, 30.0)


def test_criterion_08_characteristics_engine_equivalence():
    t0 = time.perf_counter()
    theta, sigma = -1.0, 1.0
    rhs = ch.build_pde(ch.Polynomial([0.0, theta]), ch.Polynomial([sigma]),
                       ch.MomentFunction.none())
    s_grid = np.linspace(-4.0, 4.0, 801)
    surf = ch.integrate_characteristics(
        rhs, lambda s: (s + 2.0j, -1.0 / (s + 2.0j)), s_grid, t_end=1.0, dt=1e-3)
    worst = 0.0
    count = 0
    for tq in (0.2, 0.4, 0.6, 0.8, 1.0):
        j = int(round(tq / 1e-3))
        zs = surf.z[:, j]
        for i in (200, 250, 300, 350, 400, 450, 500, 550, 600, 650):
            mid = (zs[i] + zs[i + 1]) / 2.0
            got = ch.evaluate_on_surface(surf, tq, mid)
            want = md.ou_cauchy(theta, sigma, tq, mid)
            worst = max(worst, abs(got - want))
            count += 1
    assert count == 50
    assert worst < 1e-4
    # fourth-order convergence under step halving
    z0 = 2.0 + 1.0j
    g0 = -1.0 / z0
    g_exact = g0 * math.exp(-theta)
    z_exact = (z0 - sigma ** 2 * g0 / (2 * theta)) * math.exp(theta) \
        + sigma ** 2 * g0 / (2 * theta) * math.exp(-theta)
    errs = []
    for dt in (0.02, 0.01):
        s1 = ch.integrate_characteristics(
            rhs, lambda s: (np.full(s.shape, z0), np.full(s.shape, g0)),
            np.array([0.0]), t_end=1.0, dt=dt)
        errs.append(max(abs(s1.g[0, -1] - g_exact), abs(s1.z[0, -1] - z_exact)))
    assert errs[0] / errs[1] >= 14.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(8, f"characteristics equivalence (worst={worst:.2e})", elapsed, 10.0)


def test_criterion_09_fokker_planck_residual():
    t0 = time.perf_counter()
    theta, sigma, tmid, dt = -1.0, 1.0, 30.0, 1e-3
    ev = md.cauchy_evaluator(md.OrnsteinUhlenbeck(theta, sigma))
    drift = ch.Polynomial([0.0, theta])
    maxima = []
    for n in (513, 1025):
        xs = np.linspace(-1.5, 1.5, n)
        prev, mid, nxt = (ca.stieltjes_invert(ev, tt, xs, eps0=1e-5)
                          for tt in (tmid - dt, tmid, tmid + dt))
        res = ca.fokker_planck_residual(prev, mid, nxt, drift)
        xin = xs[1:-1]
        interior = np.abs(xin) < SQRT2 * 0.92
        maxima.append(float(np.max(np.abs(res[interior]))))
    assert maxima[0] < 5e-3
    assert maxima[0] / maxima[1] > 2.5  # second-order decay under refinement
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(9, f"evolution-equation residual (max={maxima[0]:.1e})", elapsed, 5.0)


def test_criterion_10_property_suites(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    cases = [
        (md.OrnsteinUhlenbeck(-1.0, 1.0), 2.0),
        (md.GeometricBrownian1(0.5), 1.0),
        (md.Explosive(1.0, 1.0), 0.4),
    ]
    # Herglotz and decay sampling, 100 points per model
    for spec, t in cases:
        ev = md.cauchy_evaluator(spec)
        z = rng.uniform(-4, 6, 100) + 1j * rng.uniform(1e-3, 10, 100)
        g = ev(t, z)
        assert np.all(np.asarray(g).imag > 0)
        assert abs(1e6j * ev(t, 1e6j) + 1.0) < 1e-4
    # emitted curves: nonnegative, normalized, CSV round-trip equality
    for spec, t in cases:
        ev = md.cauchy_evaluator(spec)
        sup = spec.support(t)
        xs = np.linspace(sup.lo - 0.07 * sup.width, sup.hi + 0.07 * sup.width, 1024)
        curve = ca.stieltjes_invert(ev, t, xs, eps0=1e-4)
        assert np.all(curve.ps >= 0.0)
        curve.assert_normalized()
        back = ca.DensityCurve.from_csv(curve.to_csv())
        assert np.array_equal(back.xs, curve.xs)
        assert np.array_equal(back.ps, curve.ps)
    # bitwise determinism under a fixed seed
    spec = md.OrnsteinUhlenbeck(-1.0, 1.0)
    cfg = rmt.SimConfig(N=60, dt=2e-3, t_end=0.3, n_paths=4, seed=55)
    h1 = rmt.run_ensemble(spec, cfg, [0.3])[0]
    h2 = rmt.run_ensemble(spec, cfg, [0.3])[0]
    assert np.array_equal(h1.samples, h2.samples)
    assert h1.to_csv() == h2.to_csv()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(10, "property suites", elapsed, 30.0)
