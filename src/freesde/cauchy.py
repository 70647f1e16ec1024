"""Cauchy transforms, spectral densities, and the operations that link them.

The Cauchy transform of a spectral measure mu is

    g(z) = integral mu(dx) / (x - z),

an analytic map of the upper half plane into itself with g(z) ~ -1/z at
infinity.  The density is recovered by the Stieltjes inversion limit
p(x) = (1/pi) * lim_{eps->0} Im g(x + i*eps).  A transform that extends
continuously to the real axis gives the limit as its boundary value
(eps = 0, what the CLI uses); otherwise the limit is taken off the axis by
two-point Richardson extrapolation over {eps, eps/2}.

Also provided: the principal-value Hilbert transform used by the
free Fokker-Planck residual check, trapezoid moments, and the semicircle
family closed forms that serve as reference solutions throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ClampExceeded,
    GridMismatch,
    GridTooCoarse,
    NonFinite,
    NotNormalized,
    OrderTooHigh,
)

# Nodes where the density is below this fraction of the curve's peak count
# as off the support in the principal-value grid check.
SUPPORT_FLOOR = 1e-6

# Trapezoid mass of a curve claiming to be a full probability density must
# match 1 within this tolerance.
MASS_TOL = 1e-3

# Clamped (negative, zeroed) density mass beyond this fails the inversion.
CLAMP_MASS_TOL = 1e-3


@dataclass(frozen=True)
class SupportInterval:
    """Closed real interval [lo, hi] carrying a spectral support."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise NonFinite(f"support interval has a NaN end: [{self.lo}, {self.hi}]")
        if not (self.lo <= self.hi):
            raise ValueError(f"support interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def csv_table(header: str, rows) -> str:
    """The header row, then each row (a tuple of numbers, one per header
    column) in 17-significant-digit %g, comma-separated; LF line endings."""
    row = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return header + "\n" + "".join(map(row.__mod__, rows))


@dataclass
class DensityCurve:
    """Sampled spectral density p(x) on a strictly increasing grid.

    ``mass`` is the trapezoid integral of ``ps`` over ``xs``; a curve only
    *claims* to be a full probability density when the caller checks
    ``assert_normalized``.  ``clamped_points``/``clamped_mass`` record how
    much negative density an inversion zeroed out.  A curve carries no
    support: each law's support is its model record's ``support(t)``.
    """

    xs: np.ndarray
    ps: np.ndarray
    mass: float
    t: float | None = None
    clamped_points: int = 0
    clamped_mass: float = 0.0

    @classmethod
    def from_samples(cls, xs, ps, t: float | None = None,
                     clamped_points: int = 0, clamped_mass: float = 0.0) -> "DensityCurve":
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or ps.shape != xs.shape:
            raise ValueError("need matching 1-d grids with at least two points")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
            raise NonFinite("density samples contain NaN/Inf")
        if np.any(ps < 0):
            raise ValueError("density samples must be nonnegative")
        mass = float(np.trapezoid(ps, xs))
        return cls(xs=xs, ps=ps, mass=mass, t=t,
                   clamped_points=clamped_points, clamped_mass=clamped_mass)

    # -- contracts ---------------------------------------------------------

    def assert_normalized(self) -> None:
        if abs(self.mass - 1.0) > MASS_TOL:
            raise NotNormalized(f"curve mass {self.mass} not within {MASS_TOL} of 1")

    def is_uniform(self) -> bool:
        d = np.diff(self.xs)
        return bool(np.max(d) - np.min(d) <= 1e-9 * np.max(d))

    @property
    def step(self) -> float:
        return float(self.xs[1] - self.xs[0])

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        return csv_table("x,p", zip(self.xs.tolist(), self.ps.tolist()))

    @classmethod
    def from_csv(cls, text: str, t: float | None = None) -> "DensityCurve":
        lines = [ln for ln in text.strip().split("\n") if ln]
        if not lines or lines[0].strip() != "x,p":
            raise ValueError("expected header 'x,p'")
        xs, ps = [], []
        for ln in lines[1:]:
            a, b = ln.split(",")
            xs.append(float(a))
            ps.append(float(b))
        return cls.from_samples(xs, ps, t=t)


def stieltjes_invert(g: Callable, t: float, xs, eps0: float = 1e-3) -> DensityCurve:
    """Recover the density on the grid ``xs`` from a Cauchy transform g(t, z).

    Evaluates (1/pi) Im g(t, x + i*eps) at eps0 and eps0/2 and Richardson-
    extrapolates the eps -> 0 limit (2*p(eps/2) - p(eps)), which removes the
    O(eps) bias.  With ``eps0 = 0`` the boundary values g(t, x) are used
    directly, for transforms that extend continuously to the real axis.
    Negative extrapolated values are clamped to zero and counted; if the
    clamped mass exceeds ``CLAMP_MASS_TOL`` the curve is rejected, since
    systematically negative density signals a wrong transform branch.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or not np.all(np.diff(xs) > 0):
        raise ValueError("xs must be a strictly increasing 1-d grid")
    if eps0 < 0:
        raise ValueError("eps0 must be nonnegative")
    if eps0 == 0.0:
        p = np.asarray(g(t, xs + 0j)).imag / np.pi
    else:
        p_full = np.asarray(g(t, xs + 1j * eps0)).imag / np.pi
        p_half = np.asarray(g(t, xs + 0.5j * eps0)).imag / np.pi
        p = 2.0 * p_half - p_full
    neg = p < 0
    clamped_points = int(np.count_nonzero(neg))
    clamped_mass = float(np.trapezoid(np.where(neg, -p, 0.0), xs))
    if clamped_mass > CLAMP_MASS_TOL:
        raise ClampExceeded(
            f"clamped density mass {clamped_mass:.3e} exceeds {CLAMP_MASS_TOL:.1e}")
    p = np.where(p <= 0.0, 0.0, p)  # +0.0 for -0.0 too; NaN goes on to NonFinite
    return DensityCurve.from_samples(xs, p, t=t, clamped_points=clamped_points,
                                     clamped_mass=clamped_mass)


def _pair_weights(K: int) -> np.ndarray:
    """Weights of the pairs y = x +/- k*h, k = 1..K, in the principal-value sum.

    The trapezoid weight 1/k, except 1.5/k on the first pair (it also covers
    the u = 0 cell, slope estimated from that pair) and 0.5/k on the last.
    """
    w = np.ones(K)
    w[0] = 1.5
    w[-1] = 0.5
    return w / np.arange(1, K + 1)


def _check_pv_grid(p: DensityCurve) -> None:
    if not p.is_uniform():
        raise ValueError("principal-value scheme needs a uniform grid")
    peak = np.max(p.ps)
    if peak == 0.0:
        return  # vanished curve transforms to exactly zero
    inside = np.count_nonzero(p.ps >= SUPPORT_FLOOR * peak)
    if inside < 16:
        raise GridTooCoarse(f"only {inside} grid points inside the support")


def hilbert_transform_grid(p: DensityCurve) -> np.ndarray:
    """Principal value of integral p(y)/(x - y) dy at each grid node x by
    symmetric-pair quadrature: pairing y = x +/- k*h cancels the singular
    cell.  Samples beyond the grid count as zero, so the grid must cover
    the support; accuracy is O(h^2) away from the support edges and stays
    finite at them.  The pair sums are one linear convolution with the
    antisymmetric kernel, computed by FFT: the n samples and 2n + 1 taps
    are zero-padded to the first power of two at or above 3n, their full
    convolution's length, so no term wraps around.  It agrees with the
    direct O(n^2) sum to roundoff.
    """
    _check_pv_grid(p)
    n = p.ps.size
    w = _pair_weights(n)
    size = 1 << (3 * n - 1).bit_length()
    spectrum = np.fft.rfft(p.ps, size) * np.fft.rfft(
        np.concatenate([-w[::-1], [0.0], w]), size)
    return np.fft.irfft(spectrum, size)[n:2 * n]


def density_moment(p: DensityCurve, k: int) -> float:
    """Trapezoid moment integral x^k p(x) dx over the curve's grid."""
    if k < 0 or k != int(k):
        raise ValueError("moment order must be a nonnegative integer")
    if k > 8:
        raise OrderTooHigh(f"moment order {k} > 8: tail truncation dominates")
    return float(np.trapezoid(p.xs ** k * p.ps, p.xs))


def fokker_planck_residual(p_prev: DensityCurve, p_mid: DensityCurve,
                           p_next: DensityCurve, drift: Callable) -> np.ndarray:
    """Residual of dp/dt + d/dx [ p (Hp + a) ] on the interior grid nodes.

    ``drift`` is a(x), callable on the grid array.  The three curves must
    share one uniform grid, node for node, and be equally spaced in time;
    time and space derivatives are central differences, so the returned
    array has two fewer entries than the grid (endpoints excluded).
    """
    for q in (p_prev, p_next):
        if not np.array_equal(q.xs, p_mid.xs):
            raise GridMismatch("density curves are not on a common grid")
    ts = [p_prev.t, p_mid.t, p_next.t]
    if any(v is None for v in ts):
        raise GridMismatch("curves must carry time labels")
    dt1 = p_mid.t - p_prev.t
    dt2 = p_next.t - p_mid.t
    if dt1 <= 0 or abs(dt2 - dt1) > 1e-9 * dt1:
        raise GridMismatch(f"times not equally spaced: {ts}")
    flux = p_mid.ps * (hilbert_transform_grid(p_mid) + np.asarray(drift(p_mid.xs), dtype=float))
    dp_dt = (p_next.ps - p_prev.ps) / (2.0 * dt1)
    dflux_dx = (flux[2:] - flux[:-2]) / (2.0 * p_mid.step)
    return dp_dt[1:-1] + dflux_dx


# -- semicircle family closed forms (reference solutions) -------------------

def semicircle_density(x, variance: float):
    """Semicircle density of the given variance: radius r = 2*sqrt(variance)."""
    r2 = 4.0 * variance
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.maximum(r2 - x * x, 0.0)) / (2.0 * math.pi * variance)


def semicircle_cauchy(z, variance: float):
    """Herglotz branch of the semicircle Cauchy transform of the given
    variance: ``semicircle_cauchy_radius`` at r = 2*sqrt(variance)."""
    return semicircle_cauchy_radius(z, 2.0 * math.sqrt(max(float(variance), 0.0)))


def semicircle_cauchy_radius(z, r: float):
    """Herglotz branch of the Cauchy transform of the semicircle on [-r, r];
    -1/z, the point mass at the origin, for r = 0.

    The two principal square roots make the product w behave like +z at
    infinity off the cut [-r, r], selecting the branch with Im g > 0 on the
    upper half plane.  The root (w - z)/(2v), v = (r/2)^2, is rewritten as
    -2/(z + w), which never squares r and avoids the large-|z| cancellation,
    so the g ~ -1/z decay is accurate to roundoff at every scale of r.
    """
    z = np.asarray(z, dtype=complex)
    if r <= 0.0:
        return -1.0 / z
    w = np.sqrt(z - r) * np.sqrt(z + r)
    return -2.0 / (z + w)


def semicircle_cdf(x, variance: float):
    """Distribution function of the semicircle law (for histogram distances)."""
    r = 2.0 * math.sqrt(variance)
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -r, r)
    val = 0.5 + (xc * np.sqrt(r * r - xc * xc) + r * r * np.arcsin(xc / r)) / (math.pi * r * r)
    return np.where(x < -r, 0.0, np.where(x > r, 1.0, val))
