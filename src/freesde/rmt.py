"""Finite-N random-matrix oracle for dX = a(X) dt + b(X) dW c(X).

Real symmetric N x N states driven by symmetric Gaussian increments whose
empirical spectrum converges to the semicircle law: independent entries
above the diagonal with variance dt/N and diagonal variance 2 dt/N, so
E[trace(dW^2)/N] = dt (1 + 1/N).  Paths own counter-keyed random streams
(Philox keyed by (seed, path index)), which makes every ensemble bitwise
reproducible under any parallel schedule; BLAS runs single-threaded while
paths run, so each path's arithmetic is the same for any pool size.  Pooled
eigenvalue histograms are compared against analytic densities through the
Kolmogorov distance.
"""

from __future__ import annotations

import ctypes
import functools
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cauchy import DensityCurve
from .errors import (
    EigenFail,
    EmptyHistogram,
    InvalidConfig,
    NoContraction,
    PastBlowup,
)
from .models import (
    Explosive,
    GeometricBrownian1,
    GeometricBrownian2,
    ModelSpec,
    OrnsteinUhlenbeck,
    blowup_time,
    initial_value,
    model_to_json,
)

PICARD_TOL = 1e-8


def _n_workers() -> int:
    env = os.environ.get("FREESDE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidConfig(
                f"FREESDE_THREADS must be an integer, got {env!r}") from None
    return min(os.cpu_count() or 1, 4)


@functools.cache
def _blas_thread_api():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    Looked up on first use, so importing the package loads nothing extra.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _single_threaded_blas():
    """Run the block with BLAS on one thread, then restore the old count.

    The path pool supplies the parallelism; BLAS threads inside each pool
    thread would only oversubscribe the cores.  Without the bundled OpenBLAS
    the block runs unchanged.
    """
    api = _blas_thread_api()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass(frozen=True)
class SimConfig:
    """Ensemble parameters; validated on construction."""

    N: int
    dt: float
    t_end: float
    n_paths: int
    seed: int = 0
    scheme: str = "euler"  # "euler" | "picard"
    picard_max_iter: int = 25
    allow_near_blowup: bool = False

    def __post_init__(self):
        if self.N < 2:
            raise InvalidConfig("matrix dimension must be at least 2")
        if not (self.dt > 0):
            raise InvalidConfig("dt must be positive")
        if self.dt > self.t_end:
            raise InvalidConfig("dt must not exceed t_end")
        if not _on_grid(self.t_end, self.dt):
            raise InvalidConfig(
                f"t_end={self.t_end} is not a multiple of dt={self.dt}")
        if self.n_paths < 1:
            raise InvalidConfig("n_paths must be a positive integer")
        if self.scheme not in ("euler", "picard"):
            raise InvalidConfig(f"unknown scheme '{self.scheme}'")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def to_json(self) -> dict:
        return {"N": self.N, "dt": self.dt, "t_end": self.t_end,
                "n_paths": self.n_paths, "seed": self.seed, "scheme": self.scheme}


def _on_grid(t: float, dt: float) -> bool:
    return abs(round(t / dt) * dt - t) <= 1e-9 * max(1.0, abs(t))


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-keyed stream for one path; independent of scheduling order."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), path_index]))


_triu_cache: dict = {}


def _triu(N: int):
    if N not in _triu_cache:
        _triu_cache[N] = np.triu_indices(N)
    return _triu_cache[N]


def sample_wigner_increment(N: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric Gaussian increment matrix with semicircle-normalized entries.

    Exactly the N(N+1)/2 independent entries are drawn: above-diagonal
    variance dt/N and diagonal variance 2 dt/N.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    iu = _triu(N)
    vals = rng.standard_normal(iu[0].size)
    vals *= math.sqrt(dt / N)
    a = np.empty((N, N))
    a[iu] = vals
    a.T[iu] = vals
    idx = np.arange(N)
    a[idx, idx] *= math.sqrt(2.0)
    return a


def sym_sqrt_clamped(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Positive-semidefinite square root via eigendecomposition.

    Negative eigenvalues are clamped to zero before the root; the clamped
    magnitude is returned as a diagnostic — growing clamp mass means the
    time step is too large to keep the state positive.
    """
    try:
        w, v = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise EigenFail(f"eigendecomposition failed: {exc}") from exc
    clamp = float(np.abs(w[w < 0]).sum())
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.T, clamp


def psd_factor(x: np.ndarray) -> tuple[np.ndarray, float]:
    """A factor F with F F^T = x, plus the clamped mass of the fallback.

    The Cholesky factor L serves the gbm1 step: L dW L^T has the law of
    x^(1/2) dW x^(1/2) because Q = L^(-1) x^(1/2) is orthogonal and the
    Wigner increment is orthogonally invariant.  When Euler has lost
    definiteness, Cholesky fails and the clamped eigenvalue root stands in.
    """
    try:
        return np.linalg.cholesky(x), 0.0
    except np.linalg.LinAlgError:
        return sym_sqrt_clamped(x)


@dataclass
class PathDiagnostics:
    """Per-path accumulators surfaced by the ensemble driver."""

    clamp_total: float = 0.0


def _apply_increment(x: np.ndarray, model: ModelSpec, dt: float, dw: np.ndarray,
                     diag: PathDiagnostics | None = None) -> np.ndarray:
    """One explicit step x + a(x) dt + b(x) dw c(x), symmetrized."""
    if isinstance(model, OrnsteinUhlenbeck):
        m = x * (1.0 + model.theta * dt)
        m += model.sigma * dw
    elif isinstance(model, GeometricBrownian1):
        factor, clamp = psd_factor(x)
        if diag is not None:
            diag.clamp_total += clamp
        m = x * (1.0 + model.theta * dt)
        m += factor @ dw @ factor.T
    elif isinstance(model, GeometricBrownian2):
        m = x * (1.0 + model.theta * dt)
        m += x @ dw
        m += dw @ x
    elif isinstance(model, Explosive):
        m = x + model.k * (x @ dw @ x)
    else:
        raise TypeError(f"not a model spec: {model!r}")
    m = m + m.T
    m *= 0.5
    return m


def euler_step(x: np.ndarray, model: ModelSpec, dt: float,
               rng: np.random.Generator) -> np.ndarray:
    """Sample a driving increment and advance the state one step."""
    dw = sample_wigner_increment(x.shape[0], dt, rng)
    return _apply_increment(x, model, dt, dw)


def initial_matrix(model: ModelSpec, N: int) -> np.ndarray:
    return initial_value(model) * np.eye(N)


@dataclass
class PicardResult:
    path: np.ndarray  # (n_steps + 1, N, N)
    contraction: list[float] = field(default_factory=list)
    iterations: int = 0


def _picard_path(model: ModelSpec, x0: np.ndarray, dt: float,
                 dws: np.ndarray, max_iter: int) -> PicardResult:
    """Successive approximations of the integral equation on a fixed grid.

    Iterates x^(m+1)(t) = x0 + sum a(x^(m)) dt + sum b(x^(m)) dW c(x^(m))
    against the same driving increments every sweep; the fixed point of the
    discrete map coincides with the explicit one-step scheme on that grid.
    """
    n_steps = dws.shape[0]
    N = x0.shape[0]
    cur = np.broadcast_to(x0, (n_steps + 1, N, N)).copy()
    diffs: list[float] = []
    grow = 0
    for it in range(1, max_iter + 1):
        nxt = np.empty_like(cur)
        nxt[0] = x0
        for j in range(n_steps):
            inc = _apply_increment(cur[j], model, dt, dws[j]) - cur[j]
            nxt[j + 1] = nxt[j] + inc
            nxt[j + 1] = (nxt[j + 1] + nxt[j + 1].T) / 2.0
        d = float(np.max(np.linalg.norm(nxt - cur, axis=(1, 2))) / math.sqrt(N))
        diffs.append(d)
        cur = nxt
        if d < PICARD_TOL:
            return PicardResult(path=cur, contraction=_ratios(diffs), iterations=it)
        if len(diffs) >= 2 and diffs[-1] > diffs[-2]:
            grow += 1
            if grow >= 3:
                raise NoContraction(
                    "successive-approximation differences grew three times in a row; "
                    "shrink t_end")
        else:
            grow = 0
    return PicardResult(path=cur, contraction=_ratios(diffs), iterations=max_iter)


def _ratios(diffs: list[float]) -> list[float]:
    return [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]


def picard_solve(model: ModelSpec, cfg: SimConfig) -> PicardResult:
    """Path of the successive-approximation scheme (stream of path index 0).

    Meant for short horizons: the scheme is a local contraction, so keep
    t_end small (about 0.5 or less) or expect NoContraction.
    """
    rng = path_rng(cfg.seed, 0)
    n_steps = cfg.n_steps
    dws = np.stack([sample_wigner_increment(cfg.N, cfg.dt, rng)
                    for _ in range(n_steps)])
    return _picard_path(model, initial_matrix(model, cfg.N), cfg.dt, dws,
                        cfg.picard_max_iter)


@dataclass
class EigenHistogram:
    """Pooled eigenvalue samples at one time plus Freedman-Diaconis bins."""

    time: float
    samples: np.ndarray  # sorted
    bin_edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_samples(cls, samples, time: float) -> "EigenHistogram":
        samples = np.sort(np.asarray(samples, dtype=float).ravel())
        if samples.size == 0:
            raise EmptyHistogram("no eigenvalue samples")
        q75, q25 = np.percentile(samples, [75, 25])
        width = 2.0 * (q75 - q25) * samples.size ** (-1.0 / 3.0)
        span = samples[-1] - samples[0]
        if width <= 0 or span <= 0:
            nbins = 1
        else:
            nbins = max(1, int(math.ceil(span / width)))
        counts, edges = np.histogram(samples, bins=nbins)
        return cls(time=time, samples=samples, bin_edges=edges, counts=counts)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
            buf.write("%.17g,%.17g,%d\n" % (lo, hi, c))
        return buf.getvalue()

    def sidecar_json(self, model: ModelSpec, cfg: SimConfig,
                     kolmogorov: float | None = None) -> str:
        return json.dumps({
            "model": model_to_json(model),
            "config": cfg.to_json(),
            "time": self.time,
            "n_samples": self.n_samples,
            "kolmogorov_vs_analytic": kolmogorov,
        })


def _snapshot_steps(cfg: SimConfig, snapshot_times: Sequence[float]) -> list[int]:
    steps = []
    for ts in snapshot_times:
        if ts < 0 or ts > cfg.t_end + 1e-12:
            raise InvalidConfig(f"snapshot time {ts} outside [0, {cfg.t_end}]")
        if not _on_grid(ts, cfg.dt):
            raise InvalidConfig(f"snapshot time {ts} is not a multiple of dt={cfg.dt}")
        steps.append(int(round(ts / cfg.dt)))
    return steps


def _evolve_path(model: ModelSpec, cfg: SimConfig, path_index: int,
                 snap_steps: Sequence[int]) -> tuple[list[np.ndarray], PathDiagnostics]:
    rng = path_rng(cfg.seed, path_index)
    diag = PathDiagnostics()
    want = set(snap_steps)
    out: dict[int, np.ndarray] = {}
    if cfg.scheme == "picard":
        n_steps = cfg.n_steps
        dws = np.stack([sample_wigner_increment(cfg.N, cfg.dt, rng)
                        for _ in range(n_steps)])
        res = _picard_path(model, initial_matrix(model, cfg.N), cfg.dt, dws,
                           cfg.picard_max_iter)
        for j in want:
            out[j] = np.linalg.eigvalsh(res.path[j])
    else:
        x = initial_matrix(model, cfg.N)
        if 0 in want:
            out[0] = np.linalg.eigvalsh(x)
        for j in range(1, cfg.n_steps + 1):
            dw = sample_wigner_increment(cfg.N, cfg.dt, rng)
            x = _apply_increment(x, model, cfg.dt, dw, diag)
            if j in want:
                out[j] = np.linalg.eigvalsh(x)
    return [out[j] for j in snap_steps], diag


def run_paths(model: ModelSpec, cfg: SimConfig, snapshot_times: Sequence[float]
              ) -> tuple[list[np.ndarray], list[PathDiagnostics]]:
    """Pooled eigenvalues at each snapshot plus per-path diagnostics.

    Paths run independently (optionally on a small thread pool sized by
    FREESDE_THREADS) with BLAS pinned to one thread; pooling concatenates in
    path order, so the output is identical whatever the schedule.
    """
    if isinstance(model, Explosive) and not cfg.allow_near_blowup:
        horizon = 0.9 * blowup_time(model.k, model.a)
        if cfg.t_end > horizon:
            raise PastBlowup(
                f"t_end={cfg.t_end} beyond 0.9x blow-up ({horizon:.4g}); "
                "set allow_near_blowup to override")
    snap_steps = _snapshot_steps(cfg, snapshot_times)
    workers = min(_n_workers(), cfg.n_paths)
    with _single_threaded_blas():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(
                    lambda p: _evolve_path(model, cfg, p, snap_steps),
                    range(cfg.n_paths)))
        else:
            results = [_evolve_path(model, cfg, p, snap_steps)
                       for p in range(cfg.n_paths)]
    pooled = [np.concatenate([res[0][i] for res in results])
              for i in range(len(snap_steps))]
    return pooled, [res[1] for res in results]


def run_ensemble(model: ModelSpec, cfg: SimConfig,
                 snapshot_times: Sequence[float]) -> list[EigenHistogram]:
    """Evolve the ensemble and pool eigenvalue histograms at the snapshots."""
    pooled, _ = run_paths(model, cfg, snapshot_times)
    return [EigenHistogram.from_samples(vals, t)
            for vals, t in zip(pooled, snapshot_times)]


def kolmogorov_distance(h: EigenHistogram, p: DensityCurve) -> float:
    """sup_x |empirical CDF - analytic CDF| over the pooled sample points.

    The analytic distribution function is the cumulative trapezoid of the
    density curve, clamped to [0, mass] outside its grid.
    """
    if h.samples.size == 0:
        raise EmptyHistogram("histogram has no samples")
    cdf_grid = np.concatenate([
        [0.0], np.cumsum(np.diff(p.xs) * (p.ps[1:] + p.ps[:-1]) / 2.0)])
    F = np.interp(h.samples, p.xs, cdf_grid, left=0.0, right=cdf_grid[-1])
    n = h.samples.size
    i = np.arange(1, n + 1)
    d_hi = np.max(np.abs(i / n - F))
    d_lo = np.max(np.abs((i - 1) / n - F))
    return float(max(d_hi, d_lo))
