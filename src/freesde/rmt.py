"""Finite-N random-matrix oracle for dX = a(X) dt + b(X) dW c(X).

Real symmetric N x N states driven by symmetric Gaussian increments whose
empirical spectrum converges to the semicircle law: independent entries
above the diagonal with variance dt/N and diagonal variance 2 dt/N, so
E[trace(dW^2)/N] = dt (1 + 1/N).  The Ornstein-Uhlenbeck model is linear
with additive noise, so its Euler chain has an exact law at every snapshot:
it is sampled from one snapshot to the next with one increment draw
(``ModelSpec.euler_segment``); the other models draw once per Euler step.
Paths own counter-keyed random streams
(Philox keyed by (seed, path index)) and are stepped in blocks, each block
as one (Q, N, N) stack; BLAS runs single-threaded while paths run, so each
path's arithmetic is the same for any pool size and any blocking, and every
ensemble is bitwise reproducible under any parallel schedule.  Pooled
eigenvalue histograms are compared against analytic densities through the
Kolmogorov distance.
"""

from __future__ import annotations

import ctypes
import functools
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cauchy import DensityCurve
from .errors import (
    EigenFail,
    EmptyHistogram,
    InvalidConfig,
    NoContraction,
    NonFinite,
    PastBlowup,
)

if TYPE_CHECKING:
    from .models import ModelSpec

PICARD_TOL = 1e-8
PICARD_MAX_ITER = 25
MAX_N = 4096  # largest matrix dimension: one path's buffers stay under ~0.6 GB
MAX_PATHS = 10**4  # most paths per ensemble: the list of path blocks stays bounded
MAX_STEPS = 10**6  # most Euler steps per path, t_end/dt


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
    allow_near_blowup: bool = False

    def __post_init__(self):
        if not 2 <= self.N <= MAX_N:
            raise InvalidConfig(f"matrix dimension must be in [2, {MAX_N}], got {self.N}")
        if not (self.dt > 0):
            raise InvalidConfig("dt must be positive")
        if self.dt > self.t_end:
            raise InvalidConfig("dt must not exceed t_end")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise InvalidConfig(f"t_end/dt must be at most {MAX_STEPS}, got "
                                f"{self.t_end / self.dt:g}")
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise InvalidConfig(f"n_paths must be in [1, {MAX_PATHS}], got {self.n_paths}")
        if not _on_grid(self.t_end, self.dt):
            raise InvalidConfig(
                f"t_end={self.t_end} is not a multiple of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def to_json(self) -> dict:
        return {"N": self.N, "dt": self.dt, "t_end": self.t_end,
                "n_paths": self.n_paths, "seed": self.seed}


def _on_grid(t: float, dt: float) -> bool:
    return abs(round(t / dt) * dt - t) <= 1e-9 * max(1.0, abs(t))


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-keyed stream for one path; independent of scheduling order."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), path_index]))


@functools.cache
def _wigner_maps(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather map (N, N) from packed upper-triangle values, and the diagonal.

    The packed order is that of np.triu_indices(N); entry (i, j) and entry
    (j, i) read the same packed value, so the gathered matrix is exactly
    symmetric.
    """
    iu = np.triu_indices(N)
    gather = np.empty((N, N), dtype=np.intp)
    gather[iu] = np.arange(iu[0].size)
    gather.T[iu] = gather[iu]
    diagonal = np.diagonal(gather).copy()
    gather.flags.writeable = diagonal.flags.writeable = False
    return gather, diagonal


def sample_wigner_increment(N: int, dt: float, rng, out: np.ndarray | None = None,
                            packed: np.ndarray | None = None) -> np.ndarray:
    """Symmetric Gaussian increment matrix with semicircle-normalized entries.

    Exactly the N(N+1)/2 independent entries are drawn: above-diagonal
    variance dt/N and diagonal variance 2 dt/N.  ``rng`` is one Generator,
    giving an (N, N) matrix, or a sequence of Q Generators, giving a
    (Q, N, N) stack whose matrix q is drawn from stream q alone, with the
    same values that stream would give one matrix at a time.  ``out`` and
    ``packed`` (shape (..., N(N+1)/2)) are optional reused buffers.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    gather, diagonal = _wigner_maps(N)
    single = isinstance(rng, np.random.Generator)
    rngs = (rng,) if single else rng
    lead = () if single else (len(rngs),)
    if packed is None:
        packed = np.empty(lead + (N * (N + 1) // 2,))
    for row, stream in zip(packed.reshape(len(rngs), -1), rngs):
        stream.standard_normal(out=row)
    packed *= math.sqrt(dt / N)
    packed[..., diagonal] *= math.sqrt(2.0)
    if out is None:
        out = np.empty(lead + (N, N))
    return np.take(packed, gather, axis=-1, out=out, mode="clip")


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


def psd_factor(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Factors F with F F^T = x, plus the clamped mass of each fallback.

    x is one matrix or a (..., N, N) stack; the clamps have shape
    x.shape[:-2].  The Cholesky factor L serves the gbm1 step: L dW L^T has
    the law of x^(1/2) dW x^(1/2) because Q = L^(-1) x^(1/2) is orthogonal
    and the Wigner increment is orthogonally invariant.  When Euler has lost
    definiteness, Cholesky fails and the clamped eigenvalue root stands in,
    matrix by matrix, so only the indefinite members of a stack take it.
    """
    try:
        return np.linalg.cholesky(x), np.zeros(x.shape[:-2])
    except np.linalg.LinAlgError:
        if x.ndim == 2:
            return sym_sqrt_clamped(x)
    pairs = [psd_factor(m) for m in x]
    return np.stack([f for f, _ in pairs]), np.array([c for _, c in pairs])


def _apply_increment(x: np.ndarray, model: ModelSpec, dt: float, dw: np.ndarray,
                     clamp: np.ndarray | None = None, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """One explicit step x + a(x) dt + b(x) dw c(x) (the model's
    ``euler_increment``), symmetrized; dt is the drift time of the segment
    that dw drives (see ``ModelSpec.euler_segment``).

    x and dw are one matrix or matching (..., N, N) stacks; the square-root
    clamp of each matrix (gbm1 only) is added into ``clamp``, a float array
    of shape x.shape[:-2].  ``out`` (which may be x itself) receives the new
    state and ``scratch`` (shape (2,) + x.shape) holds the temporaries; both
    are allocated when not given.
    """
    if scratch is None:
        scratch = np.empty((2,) + x.shape)
    if out is None:
        out = np.empty_like(x)
    m, t = scratch
    c = model.euler_increment(x, dt, dw, m, t)
    if clamp is not None and c is not None:
        clamp += c
    np.add(m, m.swapaxes(-1, -2), out=out)
    out *= 0.5
    return out


def euler_step(x: np.ndarray, model: ModelSpec, dt: float,
               rng: np.random.Generator) -> np.ndarray:
    """Sample a driving increment and advance the state one step."""
    dw = sample_wigner_increment(x.shape[0], dt, rng)
    return _apply_increment(x, model, dt, dw)


@dataclass
class PicardResult:
    path: np.ndarray  # (n_steps + 1, N, N)
    contraction: list[float] = field(default_factory=list)
    iterations: int = 0


def _ratios(diffs: list[float]) -> list[float]:
    return [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]


def picard_solve(model: ModelSpec, cfg: SimConfig) -> PicardResult:
    """Successive approximations of the integral equation on a fixed grid.

    Iterates x^(m+1)(t) = x0 + sum a(x^(m)) dt + sum b(x^(m)) dW c(x^(m))
    against the same driving increments (the stream of path index 0) every
    sweep; the fixed point of the discrete map coincides with the explicit
    one-step scheme on that grid.  Meant for short horizons: the scheme is a
    local contraction, so keep t_end small (about 0.5 or less) or expect
    NoContraction.
    """
    rng = path_rng(cfg.seed, 0)
    dws = [sample_wigner_increment(cfg.N, cfg.dt, rng) for _ in range(cfg.n_steps)]
    x0 = model.x0 * np.eye(cfg.N)
    cur = np.broadcast_to(x0, (cfg.n_steps + 1, cfg.N, cfg.N)).copy()
    diffs: list[float] = []
    grow = 0
    for it in range(1, PICARD_MAX_ITER + 1):
        nxt = np.empty_like(cur)
        nxt[0] = x0
        for j in range(cfg.n_steps):
            inc = _apply_increment(cur[j], model, cfg.dt, dws[j]) - cur[j]
            nxt[j + 1] = nxt[j] + inc
        d = float(np.max(np.linalg.norm(nxt - cur, axis=(1, 2))) / math.sqrt(cfg.N))
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
    return PicardResult(path=cur, contraction=_ratios(diffs), iterations=PICARD_MAX_ITER)


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
        if not np.isfinite(samples[-1] - samples[0]):  # NaN sorts last
            raise NonFinite("eigenvalue samples are not finite or their range overflows")
        q75, q25 = np.percentile(samples, [75, 25])
        width = 2.0 * (q75 - q25) * samples.size ** (-1.0 / 3.0)
        span = samples[-1] - samples[0]
        if width <= 0 or span <= 0:
            nbins = 1
        else:
            nbins = max(1, int(math.ceil(span / width)))
        try:
            counts, edges = np.histogram(samples, bins=nbins)
        except ValueError as exc:  # one repeated value too large to widen by 0.5
            raise NonFinite(f"no histogram bins for the samples: {exc}") from exc
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


def _snapshot_steps(cfg: SimConfig, snapshot_times: Sequence[float]) -> list[int]:
    steps = []
    for ts in snapshot_times:
        if ts < 0 or ts > cfg.t_end + 1e-12:
            raise InvalidConfig(f"snapshot time {ts} outside [0, {cfg.t_end}]")
        if not _on_grid(ts, cfg.dt):
            raise InvalidConfig(f"snapshot time {ts} is not a multiple of dt={cfg.dt}")
        steps.append(int(round(ts / cfg.dt)))
    return steps


# Doubles in one (Q, N, N) stack of paths, about the size of an L2 cache:
# small matrices are stepped many paths at a time, large ones one by one.
_STACK_DOUBLES = 2 ** 15


def _path_blocks(n_paths: int, workers: int, N: int) -> list[range]:
    """Contiguous blocks of path indices, each stepped as one stack."""
    size = min(-(-n_paths // workers), max(1, _STACK_DOUBLES // (N * N)))
    return [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _snapshot_eigvals(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of a state stack; a state that overflowed raises EigenFail."""
    try:
        return np.linalg.eigvalsh(x)
    except np.linalg.LinAlgError as exc:
        raise EigenFail(f"snapshot eigenvalues failed: {exc}") from exc


def _evolve_path(model: ModelSpec, cfg: SimConfig, paths: range,
                 snap_steps: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Eigenvalues (Q, N) at each snapshot of a block of Q paths, plus each
    path's square-root clamp mass, shape (Q,).

    The Euler scheme steps the block as one (Q, N, N) stack in reused
    buffers, one segment (``ModelSpec.euler_segment``) per increment draw,
    from snapshot to snapshot; it ends at the last one.  Path p draws from
    its own stream in the same order as it would alone, so every path's
    values are independent of the blocking.  A state that overflows or turns
    NaN raises NonFinite at once (the error state is set here because it is
    local to each pool thread).
    """
    rngs = [path_rng(cfg.seed, p) for p in paths]
    clamp = np.zeros(len(paths))
    x = np.empty((len(paths), cfg.N, cfg.N))
    x[...] = model.x0 * np.eye(cfg.N)
    out: dict[int, np.ndarray] = {}
    dw = np.empty_like(x)
    scratch = np.empty((2,) + x.shape)
    packed = np.empty((len(paths), cfg.N * (cfg.N + 1) // 2))
    j = 0
    with np.errstate(over="raise", invalid="raise"):
        try:
            for stop in sorted(set(snap_steps)):
                while j < stop:
                    k, drift, noise = model.euler_segment(cfg.dt, stop - j)
                    sample_wigner_increment(cfg.N, noise, rngs, dw, packed)
                    _apply_increment(x, model, drift, dw, clamp, x, scratch)
                    j += k
                out[stop] = _snapshot_eigvals(x)
        except FloatingPointError as exc:
            raise NonFinite(
                f"Monte Carlo state not finite at step {j + k}: {exc}") from exc
    return [out[j] for j in snap_steps], clamp


def run_paths(model: ModelSpec, cfg: SimConfig, snapshot_times: Sequence[float]
              ) -> tuple[list[np.ndarray], np.ndarray]:
    """Pooled eigenvalues at each snapshot plus each path's square-root
    clamp mass, shape (n_paths,).

    Paths run in contiguous blocks, each stepped as one stack (optionally on
    a small thread pool sized by FREESDE_THREADS), with BLAS pinned to one
    thread; pooling concatenates in path order, so the output is identical
    whatever the schedule and the blocking.
    """
    if not cfg.allow_near_blowup and cfg.t_end > model.mc_horizon:
        raise PastBlowup(
            f"t_end={cfg.t_end} beyond the Monte Carlo horizon "
            f"({model.mc_horizon:.4g}) of model '{model.tag}'; "
            "set allow_near_blowup to override")
    snap_steps = _snapshot_steps(cfg, snapshot_times)
    workers = min(_n_workers(), cfg.n_paths)
    blocks = _path_blocks(cfg.n_paths, workers, cfg.N)
    with _single_threaded_blas():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(
                    lambda b: _evolve_path(model, cfg, b, snap_steps), blocks))
        else:
            results = [_evolve_path(model, cfg, b, snap_steps) for b in blocks]
    pooled = [np.concatenate([res[0][i].ravel() for res in results])
              for i in range(len(snap_steps))]
    return pooled, np.concatenate([res[1] for res in results])


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
