"""Monte Carlo oracle checks: increments, steps, Picard, ensembles, distances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesde import cauchy as ca
from freesde import models as md
from freesde import rmt
from freesde.errors import (
    EmptyHistogram,
    InvalidConfig,
    NoContraction,
    NonFinite,
    PastBlowup,
)


SPECS = [md.OrnsteinUhlenbeck(-1.0, 1.0), md.GeometricBrownian1(0.5),
         md.GeometricBrownian2(0.5), md.Explosive(1.0, 1.0)]


class TestSimConfig:
    def test_rejects_zero_paths(self):
        with pytest.raises(InvalidConfig):
            rmt.SimConfig(N=10, dt=1e-2, t_end=1.0, n_paths=0)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(InvalidConfig):
            rmt.SimConfig(N=1, dt=1e-2, t_end=1.0, n_paths=1)

    def test_rejects_bad_dt(self):
        with pytest.raises(InvalidConfig):
            rmt.SimConfig(N=10, dt=0.0, t_end=1.0, n_paths=1)
        with pytest.raises(InvalidConfig):
            rmt.SimConfig(N=10, dt=2.0, t_end=1.0, n_paths=1)

    def test_rejects_oversized_ensemble(self):
        # checked before the grid test, whose round(t_end/dt) overflowed
        for t_end, dt, n_paths in ((10.0, 1e-320, 1), (1.0, 1.0 / (rmt.MAX_STEPS + 1), 1),
                                   (1.0, 1e-2, rmt.MAX_PATHS + 1)):
            with pytest.raises(InvalidConfig):
                rmt.SimConfig(N=4, dt=dt, t_end=t_end, n_paths=n_paths)
        cfg = rmt.SimConfig(N=4, dt=1.0 / rmt.MAX_STEPS, t_end=1.0, n_paths=rmt.MAX_PATHS)
        assert cfg.n_steps == rmt.MAX_STEPS

    def test_rejects_t_end_off_grid(self):
        # round(0.1 / 0.03) = 3 steps would silently stop at 0.09
        with pytest.raises(InvalidConfig):
            rmt.SimConfig(N=10, dt=0.03, t_end=0.1, n_paths=1)
        assert rmt.SimConfig(N=10, dt=0.01, t_end=0.4, n_paths=1).n_steps == 40


class TestWignerIncrement:
    def test_trace_second_moment_statistics(self):
        # entrywise accounting: E[trace(dW^2)/N] = dt (1 + 1/N)
        N, dt, reps = 200, 0.1, 100
        rng = rmt.path_rng(31, 0)
        vals = np.empty(reps)
        for i in range(reps):
            w = rmt.sample_wigner_increment(N, dt, rng)
            vals[i] = np.trace(w @ w) / N
        target = dt * (1.0 + 1.0 / N)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) < 3.0 * se

    def test_zero_dt_gives_zero_matrix(self):
        rng = rmt.path_rng(0, 0)
        assert np.all(rmt.sample_wigner_increment(8, 0.0, rng) == 0.0)

    def test_symmetry(self):
        rng = rmt.path_rng(1, 2)
        w = rmt.sample_wigner_increment(50, 0.3, rng)
        assert np.array_equal(w, w.T)

    def test_deterministic_for_fixed_key(self):
        w1 = rmt.sample_wigner_increment(30, 0.5, rmt.path_rng(77, 4))
        w2 = rmt.sample_wigner_increment(30, 0.5, rmt.path_rng(77, 4))
        assert np.array_equal(w1, w2)


class TestEulerStep:
    def test_ou_from_zero_is_pure_noise(self):
        spec = md.OrnsteinUhlenbeck(-2.0, 1.5)
        x = np.zeros((20, 20))
        out = rmt.euler_step(x, spec, 1e-2, rmt.path_rng(3, 0))
        dw = rmt.sample_wigner_increment(20, 1e-2, rmt.path_rng(3, 0))
        assert np.allclose(out, 1.5 * dw, rtol=0, atol=1e-15)

    def test_gbm1_at_identity(self):
        # sqrt(I) = I, so the step is I + theta I dt + dW
        spec = md.GeometricBrownian1(0.7)
        x = np.eye(16)
        out = rmt.euler_step(x, spec, 1e-2, rmt.path_rng(4, 0))
        dw = rmt.sample_wigner_increment(16, 1e-2, rmt.path_rng(4, 0))
        assert np.max(np.abs(out - (x + 0.7 * 1e-2 * x + dw))) < 1e-12

    def test_explosive_at_identity(self):
        spec = md.Explosive(1.0, 1.0)
        x = np.eye(16)
        out = rmt.euler_step(x, spec, 1e-2, rmt.path_rng(5, 0))
        dw = rmt.sample_wigner_increment(16, 1e-2, rmt.path_rng(5, 0))
        assert np.max(np.abs(out - (x + dw))) < 1e-14

    def test_gbm2_step_shape(self):
        spec = md.GeometricBrownian2(0.0)
        x = np.eye(12) * 2.0
        out = rmt.euler_step(x, spec, 1e-2, rmt.path_rng(6, 0))
        dw = rmt.sample_wigner_increment(12, 1e-2, rmt.path_rng(6, 0))
        assert np.max(np.abs(out - (x + x @ dw + dw @ x))) < 1e-14

    @pytest.mark.parametrize("spec", SPECS,
                             ids=["ou", "gbm1", "gbm2", "explosive"])
    def test_increment_exactly_symmetric(self, spec):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((40, 40)) / math.sqrt(40)
        x = np.eye(40) + 0.3 * (a + a.T)
        dw = rmt.sample_wigner_increment(40, 2e-3, rmt.path_rng(12, 0))
        m = rmt._apply_increment(x, spec, 2e-3, dw)
        assert np.array_equal(m, m.T)


class TestPathStack:
    """A (Q, N, N) stack of paths steps exactly as its paths do one by one."""

    @given(st.sampled_from(SPECS), st.integers(2, 40), st.integers(1, 6),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_slices(self, spec, n, q, seed):
        dt = 1e-2
        stacked = rmt.sample_wigner_increment(
            n, dt, [rmt.path_rng(seed, p) for p in range(q)])
        assert stacked.shape == (q, n, n)
        for p in range(q):
            one = rmt.sample_wigner_increment(n, dt, rmt.path_rng(seed, p))
            assert np.array_equal(stacked[p], one)
        a = np.random.default_rng(seed).uniform(-1, 1, (q, n, n))
        x = a @ a.swapaxes(-1, -2) / n + np.eye(n)
        clamp = np.zeros(q)
        m = rmt._apply_increment(x, spec, dt, stacked, clamp)
        for p in range(q):
            assert np.array_equal(m[p], rmt._apply_increment(x[p], spec, dt, stacked[p]))
        assert np.array_equal(clamp, np.zeros(q))
        lam = np.linalg.eigvalsh(m)
        for p in range(q):
            assert np.array_equal(lam[p], np.linalg.eigvalsh(m[p]))

    def test_indefinite_member_alone_takes_fallback(self, monkeypatch):
        calls = []
        sqrt = rmt.sym_sqrt_clamped
        monkeypatch.setattr(rmt, "sym_sqrt_clamped",
                            lambda x: calls.append(x) or sqrt(x))
        x = np.stack([np.diag([1.0, 0.5, 2.0, 1.5, 0.8, 1.2]),
                      np.diag([1.0, -0.5, 2.0, 1.5, 0.8, 1.2]),
                      np.eye(6)])
        dw = rmt.sample_wigner_increment(
            6, 1e-2, [rmt.path_rng(8, p) for p in range(3)])
        clamp = np.zeros(3)
        spec = md.GeometricBrownian1(0.5)
        m = rmt._apply_increment(x, spec, 1e-2, dw, clamp)
        assert len(calls) == 1 and np.array_equal(calls[0], x[1])
        assert np.array_equal(clamp, [0.0, 0.5, 0.0])
        for p in range(3):
            assert np.array_equal(m[p], rmt._apply_increment(x[p], spec, 1e-2, dw[p]))


class TestGbm1Factor:
    @given(st.integers(2, 12), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_cholesky_differs_from_root_by_rotation(self, n, seed):
        # L^-1 x^(1/2) is orthogonal, so L dW L^T has the law of the
        # symmetric-root step
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (n, n))
        x = a @ a.T + np.eye(n)
        factor, clamp = rmt.psd_factor(x)
        root, _ = rmt.sym_sqrt_clamped(x)
        q = np.linalg.solve(factor, root)
        assert clamp == 0.0
        assert np.array_equal(factor, np.tril(factor))
        assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-10

    def test_indefinite_state_falls_back_to_clamped_root(self, monkeypatch):
        calls = []
        sqrt = rmt.sym_sqrt_clamped
        monkeypatch.setattr(rmt, "sym_sqrt_clamped",
                            lambda x: calls.append(x) or sqrt(x))
        x = np.diag([1.0, -0.5, 2.0, 1.5, 0.8, 1.2])
        dw = rmt.sample_wigner_increment(6, 1e-2, rmt.path_rng(8, 0))
        clamp = np.zeros(())
        m = rmt._apply_increment(x, md.GeometricBrownian1(0.5), 1e-2, dw, clamp)
        assert len(calls) == 1
        assert np.array_equal(m, m.T)
        assert clamp == 0.5


class TestPicard:
    def test_null_dynamics_converges_first_sweep(self):
        spec = md.OrnsteinUhlenbeck(0.0, 0.0)
        cfg = rmt.SimConfig(N=8, dt=1e-2, t_end=0.1, n_paths=1, seed=0)
        res = rmt.picard_solve(spec, cfg)
        assert res.iterations == 1
        assert np.all(res.path == 0.0)

    def test_matches_explicit_path_on_same_noise(self):
        spec = md.OrnsteinUhlenbeck(-1.0, 1.0)
        cfg = rmt.SimConfig(N=40, dt=1e-3, t_end=0.1, n_paths=1, seed=9)
        res = rmt.picard_solve(spec, cfg)
        rng = rmt.path_rng(9, 0)
        x = spec.x0 * np.eye(40)
        for _ in range(cfg.n_steps):
            x = rmt.euler_step(x, spec, cfg.dt, rng)
        assert np.max(np.abs(res.path[-1] - x)) < 1e-6

    def test_contraction_factors_decay(self):
        spec = md.OrnsteinUhlenbeck(-1.0, 1.0)
        cfg = rmt.SimConfig(N=40, dt=1e-3, t_end=0.1, n_paths=1, seed=9)
        res = rmt.picard_solve(spec, cfg)
        assert all(r < 0.9 for r in res.contraction[1:])

    def test_no_contraction_for_stiff_horizon(self):
        spec = md.OrnsteinUhlenbeck(40.0, 1.0)
        cfg = rmt.SimConfig(N=16, dt=5e-3, t_end=0.5, n_paths=1, seed=1)
        with pytest.raises(NoContraction):
            rmt.picard_solve(spec, cfg)


class TestEnsemble:
    def test_pure_wigner_semicircle_distance(self):
        # flat drift, unit constant noise: the spectrum at t=1 is the
        # radius-2 semicircle in the large-N limit
        spec = md.OrnsteinUhlenbeck(0.0, 1.0)
        cfg = rmt.SimConfig(N=150, dt=2e-3, t_end=1.0, n_paths=6, seed=2024)
        hist = rmt.run_ensemble(spec, cfg, [1.0])[0]
        xs = np.linspace(-2.5, 2.5, 2001)
        curve = ca.DensityCurve.from_samples(xs, ca.semicircle_density(xs, 1.0))
        assert rmt.kolmogorov_distance(hist, curve) < 0.05

    def test_bitwise_determinism(self):
        spec = md.OrnsteinUhlenbeck(-1.0, 1.0)
        cfg = rmt.SimConfig(N=40, dt=5e-3, t_end=0.25, n_paths=4, seed=88)
        h1 = rmt.run_ensemble(spec, cfg, [0.25])[0]
        h2 = rmt.run_ensemble(spec, cfg, [0.25])[0]
        assert np.array_equal(h1.samples, h2.samples)
        assert np.array_equal(h1.counts, h2.counts)

    def test_determinism_across_thread_counts(self, monkeypatch):
        # blocks of 5, then 3 + 2, then 2 + 2 + 1 paths
        cfg = rmt.SimConfig(N=24, dt=5e-3, t_end=0.2, n_paths=5, seed=6)
        assert [len(b) for b in rmt._path_blocks(5, 2, 24)] == [3, 2]
        for spec in SPECS:
            runs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("FREESDE_THREADS", threads)
                runs.append(rmt.run_paths(spec, cfg, [0.1, 0.2]))
            for pooled, clamp in runs[1:]:
                for a, b in zip(pooled, runs[0][0]):
                    assert np.array_equal(a, b)
                assert clamp.shape == (cfg.n_paths,)
                assert np.array_equal(clamp, runs[0][1])

    @pytest.mark.parametrize("spec", [md.GeometricBrownian1(0.5),
                                      md.Explosive(1.0, 1.0)],
                             ids=["gbm1", "explosive"])
    def test_blas_determinism_across_thread_counts(self, spec, monkeypatch):
        # these steps are matrix products, so BLAS runs inside every path
        cfg = rmt.SimConfig(N=120, dt=1e-2, t_end=0.1, n_paths=5, seed=6)
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("FREESDE_THREADS", threads)
            runs.append(rmt.run_paths(spec, cfg, [0.05, 0.1]))
        for pooled, clamp in runs[1:]:
            for a, b in zip(pooled, runs[0][0]):
                assert np.array_equal(a, b)
            assert clamp.shape == (cfg.n_paths,)
            assert np.array_equal(clamp, runs[0][1])

    def test_blas_pinned_during_paths_and_restored(self, monkeypatch):
        api = rmt._blas_thread_api()
        if api is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, put = api
        before = get()
        put(2)
        try:
            seen = []
            step = rmt._apply_increment

            def spy(x, *args):
                seen.append(get())
                if len(seen) >= 7:  # every later step fails, on any thread
                    raise RuntimeError("path failure")
                return step(x, *args)

            monkeypatch.setattr(rmt, "_apply_increment", spy)
            monkeypatch.setenv("FREESDE_THREADS", "2")
            spec = md.GeometricBrownian1(0.5)
            cfg = rmt.SimConfig(N=20, dt=1e-2, t_end=0.05, n_paths=2, seed=1)
            with pytest.raises(RuntimeError):
                rmt.run_paths(spec, cfg, [0.05])
            assert get() == 2
            assert seen and set(seen) == {1}
            monkeypatch.setattr(rmt, "_apply_increment", step)
            rmt.run_paths(spec, cfg, [0.05])
            assert get() == 2
        finally:
            put(before)

    def test_march_ends_at_last_snapshot(self, monkeypatch):
        # a t_end past the last snapshot draws no further increments
        draws = []
        sample = rmt.sample_wigner_increment

        def spy(N, dt, rngs, *args):
            draws.append(len(rngs))
            return sample(N, dt, rngs, *args)

        monkeypatch.setattr(rmt, "sample_wigner_increment", spy)
        monkeypatch.setenv("FREESDE_THREADS", "1")
        spec = md.GeometricBrownian1(0.5)
        runs = []
        for t_end in (0.1, 1.0):
            draws.clear()
            cfg = rmt.SimConfig(N=8, dt=1e-2, t_end=t_end, n_paths=3, seed=4)
            runs.append(rmt.run_paths(spec, cfg, [0.1]))
            assert draws == [3] * 10
        assert np.array_equal(runs[0][0][0], runs[1][0][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_overflow_stops_the_march(self, monkeypatch):
        # theta dt = 5e306: step 1 is finite, step 2 overflows and is the last
        steps = []
        step = rmt._apply_increment

        def spy(x, *args):
            steps.append(x.shape)
            return step(x, *args)

        monkeypatch.setattr(rmt, "_apply_increment", spy)
        monkeypatch.setenv("FREESDE_THREADS", "1")
        cfg = rmt.SimConfig(N=4, dt=0.05, t_end=0.5, n_paths=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="step 2"):
                rmt.run_paths(md.GeometricBrownian2(1e308), cfg, [0.05, 0.5])
        assert steps == [(2, 4, 4)] * 2

    def test_snapshot_must_align_with_grid(self):
        spec = md.OrnsteinUhlenbeck(0.0, 1.0)
        cfg = rmt.SimConfig(N=10, dt=1e-2, t_end=0.5, n_paths=1, seed=0)
        with pytest.raises(InvalidConfig):
            rmt.run_ensemble(spec, cfg, [0.123])
        with pytest.raises(InvalidConfig):
            rmt.run_ensemble(spec, cfg, [0.7])

    def test_explosive_horizon_guard(self):
        spec = md.Explosive(1.0, 1.0)
        cfg = rmt.SimConfig(N=10, dt=1e-2, t_end=0.95, n_paths=1, seed=0)
        with pytest.raises(PastBlowup):
            rmt.run_ensemble(spec, cfg, [0.95])
        ok = rmt.SimConfig(N=10, dt=1e-2, t_end=0.95, n_paths=1, seed=0,
                           allow_near_blowup=True)
        rmt.run_ensemble(spec, ok, [0.95])  # override honored

    def test_wigner_moment_consistency_under_step_halving(self):
        # weak-order check: halving dt moves the pooled second moment by
        # less than the Monte Carlo scatter (3 standard errors)
        spec = md.OrnsteinUhlenbeck(-1.0, 1.0)
        out = {}
        for dt in (2e-3, 1e-3):
            cfg = rmt.SimConfig(N=150, dt=dt, t_end=0.5, n_paths=8, seed=123)
            pooled, _ = rmt.run_paths(spec, cfg, [0.5])
            lam = pooled[0].reshape(8, -1)
            per_path = (lam ** 2).mean(axis=1)
            out[dt] = (per_path.mean(), per_path.std(ddof=1) / math.sqrt(8))
        diff = abs(out[2e-3][0] - out[1e-3][0])
        assert diff < 3.0 * max(out[2e-3][1], out[1e-3][1])


class TestOuSegments:
    """ou is sampled snapshot to snapshot by the exact law of its Euler chain."""

    def test_one_draw_per_snapshot_interval(self, monkeypatch):
        draws = []
        sample = rmt.sample_wigner_increment

        def spy(N, dt, rngs, *args):
            draws.append((len(rngs), dt))
            return sample(N, dt, rngs, *args)

        monkeypatch.setattr(rmt, "sample_wigner_increment", spy)
        spec = md.OrnsteinUhlenbeck(-1.0, 1.0)
        cfg = rmt.SimConfig(N=8, dt=1e-2, t_end=0.3, n_paths=5, seed=3)
        # out of order, duplicated and at t = 0: intervals 0 -> 0.1 -> 0.3
        times = [0.3, 0.1, 0.0, 0.1]
        noise = [md.ou_euler_law(-1.0, 1e-2, k)[1] for k in (10, 20)]
        for threads, blocks in (("1", [5]), ("2", [3, 2])):
            monkeypatch.setenv("FREESDE_THREADS", threads)
            draws.clear()
            pooled, _ = rmt.run_paths(spec, cfg, times)
            assert sorted(draws) == sorted((q, v) for q in blocks for v in noise)
            assert np.array_equal(pooled[1], pooled[3])
            assert np.all(pooled[2] == 0.0) and np.all(pooled[0] != 0.0)
        # the other models draw once per Euler step
        draws.clear()
        rmt.run_paths(md.Explosive(1.0, 1.0), cfg, times)
        assert sorted(draws) == [(2, 1e-2)] * 30 + [(3, 1e-2)] * 30

    def test_jumped_state_has_the_chain_law(self):
        # E[tr X^2/N] = sigma^2 (noise time) (1 + 1/N) at both snapshots, the
        # second after a decayed first; step by step on independent streams
        # the same chain agrees
        N, P, dt, steps = 40, 48, 1e-2, (40, 100)
        spec = md.OrnsteinUhlenbeck(0.8, 1.3)
        cfg = rmt.SimConfig(N=N, dt=dt, t_end=1.0, n_paths=P, seed=1515)
        pooled, _ = rmt.run_paths(spec, cfg, [0.4, 1.0])
        rngs = [rmt.path_rng(1515, P + p) for p in range(P)]
        x = np.zeros((P, N, N))
        chain = {}
        for j in range(1, steps[-1] + 1):
            dw = rmt.sample_wigner_increment(N, dt, rngs)
            x = rmt._apply_increment(x, spec, dt, dw)
            if j in steps:
                chain[j] = np.einsum("pij,pij->p", x, x) / N
        for lam, k in zip(pooled, steps):
            jumped = (lam.reshape(P, N) ** 2).mean(axis=1)
            se = jumped.std(ddof=1) / math.sqrt(P)
            want = spec.sigma ** 2 * md.ou_euler_law(spec.theta, dt, k)[1] * (1 + 1 / N)
            assert abs(jumped.mean() - want) < 3.0 * se
            se_chain = chain[k].std(ddof=1) / math.sqrt(P)
            assert abs(jumped.mean() - chain[k].mean()) < 3.0 * math.hypot(se, se_chain)

    def test_overflowing_law_steps_one_by_one(self):
        # rho = 1.5: rho^(2k) overflows for k > 875, the state not before 1750
        spec = md.OrnsteinUhlenbeck(5.0, 1.0)
        cfg = rmt.SimConfig(N=4, dt=0.1, t_end=100.0, n_paths=1, seed=2)
        pooled, _ = rmt.run_paths(spec, cfg, [100.0])
        assert np.all(np.isfinite(pooled[0])) and np.max(np.abs(pooled[0])) > 1e150


class TestGbm1Agreement:
    def test_kolmogorov_and_positivity(self):
        # matrix square roots force positivity: clamped mass stays tiny
        spec = md.GeometricBrownian1(0.5)
        t = 0.15
        cfg = rmt.SimConfig(N=300, dt=1e-3, t_end=t, n_paths=20, seed=7)
        pooled, clamp = rmt.run_paths(spec, cfg, [t])
        hist = rmt.EigenHistogram.from_samples(pooled[0], t)
        ev = md.cauchy_evaluator(spec)
        sup = md.gbm_support(spec.theta, t)
        xs = np.linspace(sup.lo * 0.9, sup.hi * 1.1, 1500)
        curve = ca.stieltjes_invert(ev, t, xs, eps0=1e-4)
        assert rmt.kolmogorov_distance(hist, curve) < 0.05
        assert clamp.shape == (cfg.n_paths,) and np.all(clamp < 1e-6 * cfg.N)


class TestEigenHistogram:
    def test_counts_sum_to_samples(self):
        h = rmt.EigenHistogram.from_samples(np.random.default_rng(0).normal(size=500), 1.0)
        assert h.counts.sum() == 500
        assert h.n_samples == 500

    def test_empty_rejected(self):
        with pytest.raises(EmptyHistogram):
            rmt.EigenHistogram.from_samples([], 0.0)

    def test_csv_format(self):
        h = rmt.EigenHistogram.from_samples([0.0, 0.5, 1.0, 1.5], 1.0)
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert sum(int(ln.split(",")[2]) for ln in lines[1:]) == 4


class TestKolmogorovDistance:
    @staticmethod
    def _semicircle_curve(v=1.0):
        xs = np.linspace(-2.5, 2.5, 4001)
        return ca.DensityCurve.from_samples(xs, ca.semicircle_density(xs, v))

    def test_self_distance_small(self):
        # inverse-CDF samples of the curve itself
        curve = self._semicircle_curve()
        cdf = np.concatenate([[0.0], np.cumsum(
            np.diff(curve.xs) * (curve.ps[1:] + curve.ps[:-1]) / 2)])
        u = (np.arange(4000) + 0.5) / 4000
        samples = np.interp(u, cdf / cdf[-1], curve.xs)
        h = rmt.EigenHistogram.from_samples(samples, 0.0)
        assert rmt.kolmogorov_distance(h, curve) < 2.0 / math.sqrt(4000)

    def test_point_mass_against_semicircle(self):
        h = rmt.EigenHistogram.from_samples(np.zeros(100), 0.0)
        assert abs(rmt.kolmogorov_distance(h, self._semicircle_curve()) - 0.5) < 1e-3

    def test_disjoint_supports(self):
        h = rmt.EigenHistogram.from_samples(np.linspace(10, 11, 50), 0.0)
        # analytic CDF saturates at the trapezoid mass of the curve (~1)
        assert rmt.kolmogorov_distance(h, self._semicircle_curve()) > 1.0 - 1e-4
