"""Monte Carlo oracle checks: increments, steps, ensembles, distances."""

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
    NonFinite,
    PastBlowup,
)


SPECS = [md.OrnsteinUhlenbeck(-1.0, 1.0), md.GeometricBrownian1(0.5),
         md.GeometricBrownian2(0.5), md.Explosive(1.0, 1.0)]


def draw(N, dt, rng):
    """One increment of one stream: the [0, 0] matrix of a one-by-one stack."""
    return rmt.sample_wigner_increment(N, [dt], [rng])[0, 0]


def advance(x, spec, dt, dw, clamp=None):
    """The model's explicit step of the march state x (one matrix or a
    stack) into a new array; gbm1's square-root clamp is added into ``clamp``."""
    out = np.empty_like(x)
    c = spec.euler_increment(x, dt, dw, out, np.empty((2,) + x.shape))
    if clamp is not None and c is not None:
        clamp += c
    return out


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
        # round(0.1 / 0.03) = 3 steps would silently stop at 0.09; an absolute
        # slack of 1e-9 took 3 steps of 3e-13, to 9e-13, as t_end = 1e-12
        for dt, t_end in ((0.03, 0.1), (3e-13, 1e-12)):
            with pytest.raises(InvalidConfig):
                rmt.SimConfig(N=10, dt=dt, t_end=t_end, n_paths=1)
        assert rmt.SimConfig(N=10, dt=0.01, t_end=0.4, n_paths=1).n_steps == 40
        assert rmt.SimConfig(N=10, dt=0.1, t_end=0.3, n_paths=1).n_steps == 3

    @pytest.mark.parametrize("seed", [-1, -3001, 2**64, 2**64 + 7])
    def test_rejects_seed_outside_its_range(self, seed):
        with pytest.raises(InvalidConfig, match=r"\[0, 2\*\*64\)"):
            rmt.SimConfig(N=10, dt=0.01, t_end=0.4, n_paths=1, seed=seed)
        rmt.SimConfig(N=10, dt=0.01, t_end=0.4, n_paths=1, seed=2**64 - 1)

    def test_seeds_past_two_to_the_63_draw_their_own_streams(self):
        # the whole integer seeds the stream: a float64 key rounds
        # 2**63 + 1 to 2**63, and those two seeds drew one stream
        draws = [rmt.path_rng(seed, 0).standard_normal(4)
                 for seed in (2**63, 2**63 + 1, 2**64 - 1)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])


class TestPathStreams:
    def test_index_is_a_spawn_key_not_entropy(self):
        # an unpadded entropy list [seed, path] makes (5, 1) and
        # (5 + 2**32, 0) the same words, hence the same stream
        a = rmt.path_rng(5, 1).standard_normal(8)
        b = rmt.path_rng(5 + 2**32, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,p", [(0, 0), (5, 1), (77, 4), (2**64 - 1, 9)])
    def test_stream_is_the_spawned_child(self, seed, p):
        child = np.random.SeedSequence(seed).spawn(p + 1)[p]
        want = np.random.Generator(np.random.SFC64(child)).standard_normal(64)
        assert np.array_equal(rmt.path_rng(seed, p).standard_normal(64), want)

    @pytest.mark.parametrize("a,b", [((7, 0), (7, 1)), ((7, 0), (8, 0)),
                                     ((2**63, 3), (2**63 + 1, 3)),
                                     ((2**64 - 1, 0), (2**64 - 1, 1))],
                             ids=["paths", "seeds", "seeds-past-2^63", "paths-at-2^64-1"])
    def test_neighbouring_streams_are_uncorrelated(self, a, b):
        n = 2**16
        x, y = (rmt.path_rng(*key).standard_normal(n) for key in (a, b))
        assert abs(np.corrcoef(x, y)[0, 1]) < 5.0 / math.sqrt(n)


class TestWignerIncrement:
    def test_trace_second_moment_statistics(self):
        # entrywise accounting: E[trace(dW^2)/N] = dt (1 + 1/N)
        N, dt, reps = 200, 0.1, 100
        rng = rmt.path_rng(31, 0)
        vals = np.empty(reps)
        for i in range(reps):
            w = draw(N, dt, rng)
            vals[i] = np.trace(w @ w) / N
        target = dt * (1.0 + 1.0 / N)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) < 3.0 * se

    @pytest.mark.parametrize("Q", [None, 3], ids=["stream", "stack"])
    def test_entrywise_law(self, Q):
        # tr(dW^2) mixes the diagonal and off-diagonal variances; here each
        # of the N(N+1)/2 entries is held to mean 0 and its own variance,
        # dt/N off the diagonal and 2 dt/N on it, within 4 SE
        N, dt, S = 5, 0.25, 20000
        rngs = [rmt.path_rng(32, p) for p in range(Q or 1)]
        w = rmt.sample_wigner_increment(N, [dt] * S, rngs).reshape(-1, N, N)
        i, j = np.triu_indices(N)
        entries, n = w[:, i, j], w.shape[0]
        assert np.all(np.abs(entries.mean(axis=0)) < 4 * entries.std(axis=0) / math.sqrt(n))
        sq = entries * entries
        want = np.where(i == j, 2 * dt / N, dt / N)
        assert np.all(np.abs(sq.mean(axis=0) - want) < 4 * sq.std(axis=0) / math.sqrt(n))

    def test_zero_dt_gives_zero_matrix(self):
        rng = rmt.path_rng(0, 0)
        assert np.all(rmt.sample_wigner_increment(8, [0.0], [rng]) == 0.0)

    def test_symmetry(self):
        rng = rmt.path_rng(1, 2)
        w = draw(50, 0.3, rng)
        assert np.array_equal(w, w.T)

    def test_deterministic_for_fixed_key(self):
        w1 = draw(30, 0.5, rmt.path_rng(77, 4))
        w2 = draw(30, 0.5, rmt.path_rng(77, 4))
        assert np.array_equal(w1, w2)


def explicit_step(x, spec, dt, rng):
    """One explicit step of the matrix x, through the model's march state."""
    dw = draw(x.shape[0], dt, rng)
    return spec.state_matrix(advance(spec.march_state(x), spec, dt, dw))


class TestEulerStep:
    def test_ou_from_zero_is_pure_noise(self):
        spec = md.OrnsteinUhlenbeck(-2.0, 1.5)
        x = np.zeros((20, 20))
        out = explicit_step(x, spec, 1e-2, rmt.path_rng(3, 0))
        dw = draw(20, 1e-2, rmt.path_rng(3, 0))
        assert np.allclose(out, 1.5 * dw, rtol=0, atol=1e-15)

    def test_gbm1_at_identity(self):
        # sqrt(I) = I, so the step is I + theta I dt + dW
        spec = md.GeometricBrownian1(0.7)
        x = np.eye(16)
        out = explicit_step(x, spec, 1e-2, rmt.path_rng(4, 0))
        dw = draw(16, 1e-2, rmt.path_rng(4, 0))
        assert np.max(np.abs(out - (x + 0.7 * 1e-2 * x + dw))) < 1e-12

    def test_explosive_at_identity(self):
        spec = md.Explosive(1.0, 1.0)
        x = np.eye(16)
        out = explicit_step(x, spec, 1e-2, rmt.path_rng(5, 0))
        dw = draw(16, 1e-2, rmt.path_rng(5, 0))
        assert np.max(np.abs(out - (x + dw))) < 1e-14

    def test_gbm2_step_shape(self):
        spec = md.GeometricBrownian2(0.0)
        x = np.eye(12) * 2.0
        out = explicit_step(x, spec, 1e-2, rmt.path_rng(6, 0))
        dw = draw(12, 1e-2, rmt.path_rng(6, 0))
        assert np.max(np.abs(out - (x + x @ dw + dw @ x))) < 1e-14

    @pytest.mark.parametrize("Q", [None, 3], ids=["matrix", "stack"])
    @pytest.mark.parametrize("spec,step", [
        (md.GeometricBrownian2(0.5),
         lambda x, dw: (1.0 + 0.5 * 2e-3) * x + x @ dw + dw @ x),
        (md.Explosive(1.3, 1.0), lambda x, dw: x + 1.3 * x @ dw @ x),
    ], ids=["gbm2", "explosive"])
    def test_step_off_the_identity(self, spec, step, Q):
        # at a random symmetric state x and dw do not commute
        rng = np.random.default_rng(12)
        a = rng.standard_normal((Q or 1, 40, 40)) / math.sqrt(40)
        x = np.eye(40) + 0.3 * (a + a.swapaxes(-1, -2))
        dw = rmt.sample_wigner_increment(
            40, [2e-3], [rmt.path_rng(12, p) for p in range(Q or 1)])[:, 0]
        if Q is None:
            x, dw = x[0], dw[0]
        m = advance(x, spec, 2e-3, dw)
        assert np.array_equal(m, m.swapaxes(-1, -2))
        scale = np.linalg.norm(x, axis=(-2, -1)) ** 2
        err = np.max(np.abs(m - step(x, dw)), axis=(-2, -1))
        assert np.all(err <= 1e-13 * scale)

    @pytest.mark.parametrize("spec", SPECS,
                             ids=["ou", "gbm1", "gbm2", "explosive"])
    def test_increment_exactly_symmetric(self, spec):
        # gbm1 marches a factor, which is never symmetrized: it stays
        # lower triangular with a positive diagonal
        rng = np.random.default_rng(12)
        a = rng.standard_normal((40, 40)) / math.sqrt(40)
        x = np.eye(40) + 0.3 * (a + a.T)
        dw = draw(40, 2e-3, rmt.path_rng(12, 0))
        m = advance(spec.march_state(x), spec, 2e-3, dw)
        if spec.tag == "gbm1":
            assert np.array_equal(m, np.tril(m)) and np.all(np.diag(m) > 0)
        else:
            assert np.array_equal(m, m.T)

    def test_chunked_draws_match_one_by_one(self):
        # a sequence of noise times draws each stream's increments in one
        # call, with the values of one draw after another
        dts = [1e-2, 3e-3, 0.0, 2e-2]
        chunk = rmt.sample_wigner_increment(9, dts, [rmt.path_rng(5, p) for p in range(3)])
        single = rmt.sample_wigner_increment(9, dts, [rmt.path_rng(5, 1)])
        assert chunk.shape == (3, 4, 9, 9) and single.shape == (1, 4, 9, 9)
        for p in range(3):
            rng = rmt.path_rng(5, p)
            for s, dt in enumerate(dts):
                assert np.array_equal(chunk[p, s], draw(9, dt, rng))
        assert np.array_equal(single[0], chunk[1])


class TestPathStack:
    """A (Q, N, N) stack of paths steps exactly as its paths do one by one."""

    @given(st.sampled_from(SPECS), st.integers(2, 40), st.integers(1, 6),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_stack_matches_slices(self, spec, n, q, seed):
        dt = 1e-2
        stacked = rmt.sample_wigner_increment(
            n, [dt], [rmt.path_rng(seed, p) for p in range(q)])[:, 0]
        assert stacked.shape == (q, n, n)
        for p in range(q):
            one = draw(n, dt, rmt.path_rng(seed, p))
            assert np.array_equal(stacked[p], one)
        a = np.random.default_rng(seed).uniform(-1, 1, (q, n, n))
        x = a @ a.swapaxes(-1, -2) / n + np.eye(n)
        clamp = np.zeros(q)
        m = advance(x, spec, dt, stacked, clamp)
        for p in range(q):
            assert np.array_equal(m[p], advance(x[p], spec, dt, stacked[p]))
        assert np.array_equal(clamp, np.zeros(q))
        lam = np.linalg.eigvalsh(m)
        for p in range(q):
            assert np.array_equal(lam[p], np.linalg.eigvalsh(m[p]))

    def test_indefinite_member_alone_takes_fallback(self, monkeypatch):
        # gbm1's step factors A = (1 + theta dt) I + dW; only member 1's A
        # is indefinite, so it alone takes the clamped root
        calls = []
        sqrt = rmt.sym_sqrt_clamped
        monkeypatch.setattr(rmt, "sym_sqrt_clamped",
                            lambda x: calls.append(x) or sqrt(x))
        f = np.sqrt(np.stack([np.diag([1.0, 0.5, 2.0, 1.5, 0.8, 1.2]),
                              np.diag([1.0, 0.4, 2.0, 1.5, 0.8, 1.2]),
                              np.eye(6)]))
        dw = rmt.sample_wigner_increment(
            6, [1e-2], [rmt.path_rng(8, p) for p in range(3)])[:, 0]
        dw[1, 1, 1] -= 1.5
        a = dw.copy()
        a[:, range(6), range(6)] += 1.0 + 0.5 * 1e-2
        lam = np.linalg.eigvalsh(a[1])
        clamp = np.zeros(3)
        spec = md.GeometricBrownian1(0.5)
        m = advance(f, spec, 1e-2, dw, clamp)
        assert len(calls) == 1 and np.array_equal(calls[0], a[1])
        assert clamp[0] == clamp[2] == 0.0
        assert clamp[1] == pytest.approx(-lam[lam < 0].sum(), rel=1e-12) and clamp[1] > 0.4
        for p in range(3):
            assert np.array_equal(m[p], advance(f[p], spec, 1e-2, dw[p]))
        assert np.min(np.linalg.eigvalsh(spec.state_matrix(m))) > -1e-12


class TestGbm1Factor:
    @given(st.integers(2, 12), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None, derandomize=True)
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
        # an Euler step F A F^T that loses definiteness has an indefinite A
        # (Sylvester's law of inertia): its clamped root stands in once, the
        # clamp is A's negative mass, and the next state F root(A) keeps
        # F root(A) root(A)^T F^T = F A_+ F^T positive semidefinite
        calls = []
        sqrt = rmt.sym_sqrt_clamped
        monkeypatch.setattr(rmt, "sym_sqrt_clamped",
                            lambda x: calls.append(x) or sqrt(x))
        spec = md.GeometricBrownian1(0.5)
        f = spec.march_state(np.diag([1.0, 0.5, 2.0, 1.5, 0.8, 1.2]))
        dw = draw(6, 1e-2, rmt.path_rng(8, 0))
        dw[2, 2] -= 1.5
        a = dw + (1.0 + 0.5 * 1e-2) * np.eye(6)
        clamp = np.zeros(())
        m = advance(f, spec, 1e-2, dw, clamp)
        assert len(calls) == 1 and np.array_equal(calls[0], a)
        root, mass = sqrt(a)
        assert clamp == mass and mass > 0.4
        assert np.array_equal(m, f @ root)
        assert np.min(np.linalg.eigvalsh(spec.state_matrix(m))) > -1e-12

    @given(st.integers(2, 40), st.floats(-1.0, 2.0), st.sampled_from([1e-3, 1e-2]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_factor_chain_holds_to_the_matrix_chain(self, n, theta, dt, seed):
        # 30 steps on the same increments: the factor chain against the
        # matrix step it replaced (psd_factor of x, two products, symmetrize)
        spec = md.GeometricBrownian1(theta)
        dws = rmt.sample_wigner_increment(n, [dt] * 30, [rmt.path_rng(seed, 0)])[0]
        x = np.eye(n)
        f = spec.march_state(x)
        clamp = np.zeros(())
        for dw in dws:
            x = _matrix_chain_step(x, theta, dt, dw)
            f = advance(f, spec, dt, dw, clamp)
            lam = np.linalg.eigvalsh(x)
            gap = np.max(np.abs(np.linalg.eigvalsh(spec.state_matrix(f)) - lam))
            assert gap <= 1e-12 * np.max(np.abs(lam))
            assert np.array_equal(f, np.tril(f)) and np.all(np.diag(f) > 0)
        assert clamp == 0.0


def _matrix_chain_step(x, theta, dt, dw):
    """gbm1's step on the matrix x, (1 + theta dt) x + L dW L^T with
    L = chol(x), symmetrized: the chain that the factor march replaced."""
    factor, clamp = rmt.psd_factor(x)
    assert clamp == 0.0
    t = factor @ dw @ factor.T
    m = x * (1.0 + theta * dt)
    m += t
    return (m + m.T) * 0.5


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
            increment = md.GeometricBrownian1.euler_increment

            def spy(self, *args):
                seen.append(get())
                if len(seen) >= 7:  # every later step fails, on any thread
                    raise RuntimeError("path failure")
                return increment(self, *args)

            monkeypatch.setattr(md.GeometricBrownian1, "euler_increment", spy)
            monkeypatch.setenv("FREESDE_THREADS", "2")
            spec = md.GeometricBrownian1(0.5)
            cfg = rmt.SimConfig(N=20, dt=1e-2, t_end=0.05, n_paths=2, seed=1)
            with pytest.raises(RuntimeError):
                rmt.run_paths(spec, cfg, [0.05])
            assert get() == 2
            assert seen and set(seen) == {1}
            monkeypatch.setattr(md.GeometricBrownian1, "euler_increment", increment)
            rmt.run_paths(spec, cfg, [0.05])
            assert get() == 2
        finally:
            put(before)

    def test_march_ends_at_last_snapshot(self, monkeypatch):
        # a t_end past the last snapshot draws no further increments
        draws = []
        sample = rmt.sample_wigner_increment

        def spy(N, dts, rngs, *args, **kwargs):  # one call draws a chunk of increments
            draws.extend([len(rngs)] * len(dts))
            return sample(N, dts, rngs, *args, **kwargs)

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
        increment = md.GeometricBrownian2.euler_increment

        def spy(self, x, *args):
            steps.append(x.shape)
            return increment(self, x, *args)

        monkeypatch.setattr(md.GeometricBrownian2, "euler_increment", spy)
        monkeypatch.setenv("FREESDE_THREADS", "1")
        cfg = rmt.SimConfig(N=4, dt=0.05, t_end=0.5, n_paths=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="step 2"):
                rmt.run_paths(md.GeometricBrownian2(1e308), cfg, [0.05, 0.5])
        assert steps == [(2, 4, 4)] * 2

    @pytest.mark.parametrize("spec", SPECS, ids=["ou", "gbm1", "gbm2", "explosive"])
    @pytest.mark.parametrize("N, n_paths, dt, threads", [
        (24, 16, 2e-3, ("1",)), (40, 5, 1e-2, ("1", "2", "3"))],
        ids=["N24-16paths", "N40-5paths-threads123"])
    def test_chunked_draws_are_stream_identical(self, spec, N, n_paths, dt, threads,
                                                monkeypatch):
        # against the march as it drew before chunking, one path at a time
        cfg = rmt.SimConfig(N=N, dt=dt, t_end=0.4, n_paths=n_paths, seed=31)
        times = [0.4, 0.0, 0.1, 0.1]  # out of order, t = 0 and a repeated time
        want = _per_draw_paths(spec, cfg, times)
        for n in threads:
            monkeypatch.setenv("FREESDE_THREADS", n)
            pooled, clamp = rmt.run_paths(spec, cfg, times)
            for a, b in zip(pooled, want[0]):
                assert np.array_equal(a, b)
            assert np.array_equal(clamp, want[1])

    @pytest.mark.parametrize("value", ["0", "-2", "65", "100000", "1e3", ""])
    def test_thread_count_outside_its_range_is_refused(self, value, monkeypatch):
        monkeypatch.setenv("FREESDE_THREADS", value)
        with pytest.raises(InvalidConfig, match=rf"\[1, {rmt.MAX_THREADS}\]"):
            rmt._n_workers()
        monkeypatch.setenv("FREESDE_THREADS", str(rmt.MAX_THREADS))
        assert rmt._n_workers() == rmt.MAX_THREADS

    def test_default_pool_fits_the_cpus_this_process_may_use(self, monkeypatch):
        # os.cpu_count() counts the machine's CPUs: under taskset -c 0 the
        # pool ran two threads on one CPU
        monkeypatch.delenv("FREESDE_THREADS", raising=False)
        monkeypatch.setattr(rmt.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(rmt.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert rmt._n_workers() == 1
        monkeypatch.setattr(rmt.os, "sched_getaffinity", lambda pid: set(range(6)))
        assert rmt._n_workers() == 4
        monkeypatch.delattr(rmt.os, "sched_getaffinity")
        assert rmt._n_workers() == 4

    def test_snapshot_must_align_with_grid(self):
        spec = md.OrnsteinUhlenbeck(0.0, 1.0)
        cfg = rmt.SimConfig(N=10, dt=1e-2, t_end=0.5, n_paths=1, seed=0)
        with pytest.raises(InvalidConfig):
            rmt.run_ensemble(spec, cfg, [0.123])
        with pytest.raises(InvalidConfig):
            rmt.run_ensemble(spec, cfg, [0.7])

    def test_snapshot_past_t_end_is_refused(self):
        # an absolute 1e-12 slack marched 50 steps, 5x past t_end, to 5e-13
        spec = md.OrnsteinUhlenbeck(0.0, 1.0)
        cfg = rmt.SimConfig(N=4, dt=1e-14, t_end=1e-13, n_paths=1, seed=0)
        with pytest.raises(InvalidConfig, match="outside"):
            rmt.run_ensemble(spec, cfg, [5e-13])
        cfg = rmt.SimConfig(N=4, dt=0.1, t_end=0.3, n_paths=1, seed=0)
        assert rmt._snapshot_steps(cfg, [0.1 + 0.2]) == [3]

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


def _per_draw_paths(model, cfg, snapshot_times):
    """Pooled eigenvalues and clamps of a march that draws each segment's
    increment on its own, path by path, with BLAS on one thread."""
    snap_steps = rmt._snapshot_steps(cfg, snapshot_times)
    pooled, clamps = [[] for _ in snap_steps], []
    with rmt._single_threaded_blas():
        for p in range(cfg.n_paths):
            rng = rmt.path_rng(cfg.seed, p)
            clamp = np.zeros(())
            x = model.march_state(model.x0 * np.eye(cfg.N))
            seen, j = {}, 0
            for stop in sorted(set(snap_steps)):
                while j < stop:
                    k, drift, noise = model.euler_segment(cfg.dt, stop - j)
                    x = advance(x, model, drift, draw(cfg.N, noise, rng), clamp)
                    j += k
                seen[stop] = np.linalg.eigvalsh(model.state_matrix(x))
            for out, step in zip(pooled, snap_steps):
                out.append(seen[step])
            clamps.append(float(clamp))
    return [np.concatenate(vals) for vals in pooled], np.array(clamps)


class TestOuSegments:
    """ou is sampled snapshot to snapshot by the exact law of its Euler chain."""

    def test_one_draw_per_snapshot_interval(self, monkeypatch):
        draws = []
        sample = rmt.sample_wigner_increment

        def spy(N, dts, rngs, *args, **kwargs):  # one call draws a chunk of increments
            draws.extend((len(rngs), dt) for dt in dts)
            return sample(N, dts, rngs, *args, **kwargs)

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
            dw = rmt.sample_wigner_increment(N, [dt], rngs)[:, 0]
            x = advance(x, spec, dt, dw)
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

    @pytest.mark.parametrize("samples", [
        [1.5], [2.0] * 9, [0.0, 1.0], [0.0, 0.0, 0.0, 1.0],
        np.random.default_rng(1).normal(size=500),
        np.random.default_rng(2).standard_cauchy(2000),
        np.random.default_rng(3).uniform(-2, 2, 4800),
    ], ids=["one", "constant", "two", "zero-iqr", "normal", "cauchy", "uniform"])
    def test_bins_follow_freedman_diaconis(self, samples):
        # the rule written out: width 2 IQR n^(-1/3), ceil(span/width) bins
        x = np.sort(np.asarray(samples, dtype=float))
        q75, q25 = np.percentile(x, [75, 25])
        width = 2.0 * (q75 - q25) * x.size ** (-1.0 / 3.0)
        span = x[-1] - x[0]
        nbins = max(1, math.ceil(span / width)) if width > 0 and span > 0 else 1
        counts, edges = np.histogram(x, bins=nbins)
        h = rmt.EigenHistogram.from_samples(samples, 0.5)
        assert np.array_equal(h.bin_edges, edges)
        assert np.array_equal(h.counts, counts)

    @pytest.mark.parametrize("scale", [1.0, 3.7e-90, 5.1e100])
    def test_moments_are_the_plain_means(self, scale):
        # the power-of-two scaling is exact: bitwise the plain means
        h = rmt.EigenHistogram.from_samples(
            scale * np.random.default_rng(4).normal(1.0, 2.0, 999), 0.5)
        assert h.moments() == (np.mean(h.samples), np.mean(h.samples ** 2))

    def test_moments_of_huge_or_zero_samples(self):
        # the squares sum past the largest double, their mean does not
        x = np.random.default_rng(5).normal(size=999)
        with np.errstate(over="ignore"):
            assert np.mean((1e153 * x) ** 2) == np.inf
        m1, m2 = rmt.EigenHistogram.from_samples(1e153 * x, 0.5).moments()
        assert m1 / 1e153 == pytest.approx(np.mean(x), rel=1e-14)
        assert m2 / 1e153 / 1e153 == pytest.approx(np.mean(x * x), rel=1e-14)
        assert rmt.EigenHistogram.from_samples(np.zeros(4), 0.5).moments() == (0.0, 0.0)

    @pytest.mark.parametrize("samples", [[0.0, np.nan], [-1e308, 1e308], [1e300] * 3],
                             ids=["nan", "range-overflows", "huge-constant"])
    def test_non_finite_or_unbinnable_samples_are_refused(self, samples):
        with pytest.raises(NonFinite):
            rmt.EigenHistogram.from_samples(samples, 0.5)


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
