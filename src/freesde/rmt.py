"""Finite-N random-matrix oracle for dX = a(X) dt + b(X) dW c(X).

Real symmetric N x N states driven by symmetric Gaussian increments whose
empirical spectrum converges to the semicircle law: independent entries
above the diagonal with variance dt/N and diagonal variance 2 dt/N, so
E[trace(dW^2)/N] = dt (1 + 1/N).  The Ornstein-Uhlenbeck model is linear
with additive noise, so its Euler chain has an exact law at every snapshot:
it is sampled from one snapshot to the next with one increment draw
(``ModelSpec.euler_segment``); the other models draw once per Euler step.
The march carries each model's own state (``ModelSpec.march_state``): the
matrix itself, except for gbm1, which carries a factor F with X = F F^T.
Each path owns an SFC64 stream whose SeedSequence spawn key is its index
(``path_rng``): SFC64 draws a normal in 10 ns against Philox's 15, and
the draw is the small-matrix march's largest cost.  Paths are stepped in
blocks, each block as one (Q, N, N) stack; each stream draws the increments
of S segments in one call, in the order it would draw them one by one, and
one gather forms the block's (Q, S, N, N) chunk.  BLAS runs single-threaded
while paths run, so each path's arithmetic is the same for any pool size,
blocking and chunking, and every ensemble is bitwise reproducible under
any parallel schedule.  Pooled eigenvalue histograms are compared against
analytic densities by Kolmogorov distance.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cauchy import DensityCurve, csv_table
from .errors import (
    EigenFail,
    EmptyHistogram,
    InvalidConfig,
    NonFinite,
    PastBlowup,
)

if TYPE_CHECKING:
    from .models import ModelSpec

MAX_N = 4096  # largest matrix dimension: one path's buffers stay under ~0.6 GB
MAX_PATHS = 10**4  # most paths per ensemble: the list of path blocks stays bounded
MAX_THREADS = 64  # largest FREESDE_THREADS: the path pool's OS threads stay few
MAX_STEPS = 10**6  # most Euler steps per path, t_end/dt


def _n_workers() -> int:
    env = os.environ.get("FREESDE_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if not 1 <= n <= MAX_THREADS:
            raise InvalidConfig(f"FREESDE_THREADS must be an integer in "
                                f"[1, {MAX_THREADS}], got {env!r}")
        return n
    # the CPUs this process may run on, not the machine's
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(cpus, 4)


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
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig(f"seed must be in [0, 2**64), got {self.seed}")
        if not _on_grid(self.t_end, self.dt):
            raise InvalidConfig(
                f"t_end={self.t_end} is not a multiple of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _on_grid(t: float, dt: float) -> bool:
    return abs(round(t / dt) * dt - t) <= 1e-9 * max(dt, abs(t))


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Path ``path_index``'s stream, SeedSequence(seed).spawn(n)[path_index]
    under SFC64: independent of scheduling order.  An entropy list
    [seed, path_index] would not do: it is not padded, so (5, 1) and
    (5 + 2**32, 0) would share a stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.SFC64(ss))


@functools.cache
def _wigner_maps(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather map (N, N) from packed upper-triangle values, in the order of
    np.triu_indices(N), and the diagonal.  Entries (i, j) and (j, i) read the
    same packed value, so each gathered matrix is exactly symmetric."""
    iu = np.triu_indices(N)
    gather = np.empty((N, N), dtype=np.intp)
    gather[iu] = np.arange(iu[0].size)
    gather.T[iu] = gather[iu]
    diagonal = np.diagonal(gather).copy()
    gather.flags.writeable = diagonal.flags.writeable = False
    return gather, diagonal


def sample_wigner_increment(N: int, dts: Sequence[float], rngs, out=None) -> np.ndarray:
    """Stream q's semicircle-normalized symmetric Gaussian increment over
    noise time dts[s] as matrix [q, s] of a (Q, S, N, N) stack (``out`` if
    given): its N(N+1)/2 independent entries have variance dt/N above the
    diagonal and 2 dt/N on it.  Each stream draws its S increments in one
    call, in the order it would draw them one at a time; one gather forms
    every matrix."""
    if min(dts) < 0:
        raise ValueError("dt must be nonnegative")
    gather, diagonal = _wigner_maps(N)
    packed = np.empty((len(rngs), len(dts), N * (N + 1) // 2))
    for block, stream in zip(packed, rngs):
        stream.standard_normal(out=block)
    packed *= np.array([math.sqrt(d / N) for d in dts])[:, None]
    packed[..., diagonal] *= math.sqrt(2.0)
    return np.take(packed, gather, axis=-1, mode="clip", out=out)


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
    x.shape[:-2].  The Cholesky factor L serves the gbm1 march: L dW L^T has
    the law of x^(1/2) dW x^(1/2) because Q = L^(-1) x^(1/2) is orthogonal
    and the Wigner increment is orthogonally invariant.  Where x is
    indefinite, Cholesky fails and the clamped eigenvalue root stands in,
    matrix by matrix, so only the indefinite members of a stack take it.
    """
    try:
        return np.linalg.cholesky(x), np.zeros(x.shape[:-2])
    except np.linalg.LinAlgError:
        if x.ndim == 2:
            return sym_sqrt_clamped(x)
    pairs = [psd_factor(m) for m in x]
    return np.stack([f for f, _ in pairs]), np.array([c for _, c in pairs])


@dataclass
class EigenHistogram:
    """Pooled eigenvalue samples at one time, binned by numpy's
    Freedman-Diaconis rule (``np.histogram(..., bins="fd")``)."""

    time: float
    samples: np.ndarray  # sorted
    bin_edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_samples(cls, samples, time: float) -> "EigenHistogram":
        samples = np.sort(np.asarray(samples, dtype=float).ravel())
        if samples.size == 0:
            raise EmptyHistogram("no eigenvalue samples")
        if not math.isfinite(float(samples[-1]) - float(samples[0])):  # NaN sorts last
            raise NonFinite("eigenvalue samples are not finite or their range overflows")
        try:
            counts, edges = np.histogram(samples, bins="fd")
        except ValueError as exc:  # one repeated value too large to widen by 0.5
            raise NonFinite(f"no histogram bins for the samples: {exc}") from exc
        return cls(time=time, samples=samples, bin_edges=edges, counts=counts)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    def moments(self) -> tuple[float, float]:
        """Sample mean and second moment, on the samples scaled (exactly) by a
        power of two, so neither overflows where it is finite."""
        scale = math.ldexp(1.0, math.frexp(max(-self.samples[0], self.samples[-1]))[1] - 1)
        u = self.samples / scale
        return scale * float(np.mean(u)), scale * (scale * float(np.mean(u * u)))

    def to_csv(self) -> str:
        edges = self.bin_edges.tolist()
        return csv_table("bin_lo,bin_hi,count", zip(edges[:-1], edges[1:], self.counts.tolist()))


def _snapshot_steps(cfg: SimConfig, snapshot_times: Sequence[float]) -> list[int]:
    steps = []
    for ts in snapshot_times:
        # the march stops at t_end's step; the first bound keeps ts/dt finite
        if ts < 0 or ts > cfg.t_end + cfg.dt or round(ts / cfg.dt) > cfg.n_steps:
            raise InvalidConfig(f"snapshot time {ts} outside [0, {cfg.t_end}]")
        if not _on_grid(ts, cfg.dt):
            raise InvalidConfig(f"snapshot time {ts} is not a multiple of dt={cfg.dt}")
        steps.append(round(ts / cfg.dt))
    return steps


# Doubles in one (Q, N, N) stack of paths, and in one block's chunk of
# packed increment draws, about the size of an L2 cache: small matrices are
# stepped many paths and drawn many segments at a time, large ones one by one.
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


def _segments(model: ModelSpec, dt: float, stops: Sequence[int]):
    """The march's segments in order, each (end step, drift time, noise
    time): ``ModelSpec.euler_segment`` from each stop to the next."""
    j = 0
    for stop in stops:
        while j < stop:
            k, drift, noise = model.euler_segment(dt, stop - j)
            j += k
            yield j, drift, noise


def _evolve_path(model: ModelSpec, cfg: SimConfig, paths: range,
                 snap_steps: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Eigenvalues (Q, N) at each snapshot of a block of Q paths, plus each
    path's square-root clamp mass, shape (Q,).

    The Euler scheme steps the block's march states (``ModelSpec.march_state``)
    as one (Q, N, N) stack in place, by the model's ``euler_increment``, one
    segment (``_segments``) per increment, up to the last snapshot.  The
    increments are drawn up to S segments per call into one reused
    (Q, S, N, N) buffer, S Q N(N+1)/2 at most ``_STACK_DOUBLES`` (S >= 1).
    Path p draws from its own stream in the same order as it would alone,
    so its values are independent of the blocking and the chunking.  A
    state that overflows or turns NaN raises NonFinite at once (the error
    state is set here because it is local to each pool thread).
    """
    rngs = [path_rng(cfg.seed, p) for p in paths]
    Q, N = len(paths), cfg.N
    S = max(1, _STACK_DOUBLES // (Q * N * (N + 1) // 2))
    clamp = np.zeros(Q)
    x = np.empty((Q, N, N))
    x[...] = model.x0 * np.eye(N)
    x = model.march_state(x)
    dw, scratch = np.empty((Q, S, N, N)), np.empty((2,) + x.shape)
    stops = set(snap_steps)
    segments = _segments(model, cfg.dt, sorted(stops))
    out: dict[int, np.ndarray] = {}
    j = 0
    with np.errstate(over="raise", invalid="raise"):
        try:
            if 0 in stops:
                out[0] = _snapshot_eigvals(model.state_matrix(x))
            while chunk := list(itertools.islice(segments, S)):
                sample_wigner_increment(N, [noise for *_, noise in chunk], rngs,
                                        out=dw[:, :len(chunk)])
                for s, (j, drift, _) in enumerate(chunk):
                    c = model.euler_increment(x, drift, dw[:, s], x, scratch)
                    if c is not None:
                        clamp += c
                    if j in stops:
                        out[j] = _snapshot_eigvals(model.state_matrix(x))
        except FloatingPointError as exc:
            raise NonFinite(
                f"Monte Carlo state not finite at step {j}: {exc}") from exc
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
