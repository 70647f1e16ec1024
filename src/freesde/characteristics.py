"""Reduction of polynomial-coefficient evolution equations and their
integration by the method of characteristics.

For a self-adjoint process dX = a(X) dt + sum_i b_i(X) dW c_i(X), with
polynomial drift a and noise pairs (b_i, c_i), the free Ito rule gives the
time derivative of the Cauchy transform as

    dg/dt = -E(a(X) G^2) + sum_ij E(f_ij(X) G) * E(h_ij(X) G^2),   G = (X - z)^(-1),

with the products f_ij = c_i b_j and h_ij = b_i c_j.  Each expectation
reduces to closed form in (g, dg/dz) plus moments E(X^j): dividing
f(X) - f(z) by (X - z), exactly per monomial, gives
E(f(X)G) = f(z) g + S1(z), and a second division gives
E(f(X)G^2) = f(z) dg + f'(z) g + S2(z), where the moment sums S1 and S2
are polynomials in z whose coefficients ``_moment_sum`` writes in closed
form.  The result is a quasilinear equation dg/dt + P dg/dz = Q whose
characteristic curves (dz/dt = P, dg/dt = Q) are integrated here with
classical RK4.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    MomentsUnavailable,
    OrderTooHigh,
    OutsideSurface,
    StepTooLarge,
)

MAX_DEGREE = 8
BLOWUP_CUTOFF = 1e12


def _trim(c) -> tuple:
    """Coefficients lowest degree first, trailing zeros dropped."""
    c = list(c)
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial, lowest degree first, trailing zeros trimmed."""

    coeffs: tuple

    def __init__(self, coeffs: Sequence[float]):
        c = _trim(float(v) for v in coeffs)
        if len(c) - 1 > MAX_DEGREE:
            raise OrderTooHigh(f"degree {len(c) - 1} exceeds engine limit {MAX_DEGREE}")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x):
        """The value at x, an array of x's shape and (at least float) dtype."""
        x = np.asarray(x)
        out = np.empty(x.shape, dtype=np.result_type(x.dtype, float))
        _as_writer(_horner_writer(self.coeffs))(x, None, out, None)
        return out


ONE = Polynomial([1.0])  # the noise factor 1: a product bc stands for the pair (bc, ONE)


class MomentFunction:
    """Handle j -> (t -> E(X_t^j)) for 0 <= j <= jmax; order zero is always 1."""

    def __init__(self, fn: Callable[[int, float], float], jmax: int):
        self._fn = fn
        self.jmax = int(jmax)

    def __call__(self, j: int, t: float) -> float:
        if j == 0:
            return 1.0
        if j > self.jmax:
            raise MomentsUnavailable(f"moment order {j} > jmax={self.jmax}")
        return float(self._fn(j, t))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MomentFunction":
        """Time-constant moments; values[j] is E(X^j) with values[0] == 1."""
        vals = [float(v) for v in values]
        if not vals or vals[0] != 1.0:
            raise ValueError("values[0] must be 1")
        return cls(lambda j, t: vals[j], len(vals) - 1)

    @classmethod
    def none(cls) -> "MomentFunction":
        return cls(lambda j, t: 1.0, 0)


def _padd(*ps) -> tuple:
    """Sum of coefficient sequences (lowest degree first), trailing zeros trimmed."""
    out = [0.0] * max(map(len, ps), default=0)
    for p in ps:
        for i, c in enumerate(p):
            out[i] += c
    return _trim(out)


def _pmul(p, q) -> tuple:
    out = [0.0] * max(len(p) + len(q) - 1, 0)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return tuple(out)


def _pneg(p) -> tuple:
    return tuple(-c for c in p)


def _pderiv(p) -> tuple:
    return tuple(i * c for i, c in enumerate(p))[1:]


def _moment_sum(c, mu, d):
    """Coefficients in z of the moment sum S_d of the d-th division of
    f = sum_i c_i x^i by (X - z): the z^p coefficient is
    C(p+d-1, p) sum_i c_i mu_{i-d-p}, which reads mu up to deg f - d."""
    k = len(c)
    return [math.comb(p + d - 1, p) * sum(c[i] * mu[i - d - p] for i in range(p + d, k))
            for p in range(k - d)]


def _products(pairs) -> list:
    """(f, h) = (c_i b_j, b_i c_j) for every ordered couple of noise pairs
    (b_i, c_i), (b_j, c_j), i major, as trimmed coefficient tuples."""
    return [(_trim(_pmul(ci.coeffs, bj.coeffs)), _trim(_pmul(bi.coeffs, cj.coeffs)))
            for bi, ci in pairs for bj, cj in pairs]


def _fold(a: Polynomial, pairs, mu) -> tuple:
    """(P0, P1, Q0, Q1, Q2) with P = P0 + P1 g and Q = Q0 + Q1 g + Q2 g^2,
    each a real polynomial in z, for the noise ``pairs`` and the moments
    mu = (mu_0, .., mu_need); each sums its terms in the order of the pairs."""
    a = a.coeffs
    P0, P1, Q0, Q1, Q2 = [a], [], [_pneg(_moment_sum(a, mu, 2))], [_pneg(_pderiv(a))], []
    for f, h in _products(pairs):
        S1_f, S2_h, dh = _moment_sum(f, mu, 1), _moment_sum(h, mu, 2), _pderiv(h)
        P0.append(_pneg(_pmul(h, S1_f)))
        P1.append(_pneg(_pmul(f, h)))
        Q0.append(_pmul(S1_f, S2_h))
        Q1 += [_pmul(f, S2_h), _pmul(S1_f, dh)]
        Q2.append(_pmul(f, dh))
    return tuple(_padd(*terms) for terms in (P0, P1, Q0, Q1, Q2))


def _is_zero(v) -> bool:
    return isinstance(v, float) and v == 0.0


def _horner_writer(c):
    """sum_k c_k z^k for coefficients lowest first, as a writer
    ``w(z, g, out, tmp)`` that fills ``out`` by Horner's rule in place,
    skipping zero terms and taking a unit leading factor as a copy or a
    negation of z; the float itself when c is constant."""
    if len(c) < 2:
        return c[0] if c else 0.0
    top, terms, c0 = c[-1], c[-2:0:-1], c[0]

    def write(z, g, out, tmp):
        if top == 1.0:
            np.copyto(out, z)
        elif top == -1.0:
            np.negative(z, out=out)
        else:
            np.multiply(top, z, out=out)
        for ck in terms:
            if ck:
                np.add(out, ck, out=out)
            np.multiply(out, z, out=out)
        if c0:
            np.add(out, c0, out=out)
    return write


def _mul_add_writer(c, y):
    """c g + y as a writer ``w(z, g, out, tmp)``, for c and y each a float
    (a constant) or a writer: a zero term is skipped and a unit factor taken
    as a copy or a negation of g; a float when c is zero and y a float.

    ``c`` is written into ``out`` and may use ``tmp``; ``y`` is written into
    ``tmp`` after it, so it must need no scratch of its own.
    """
    if _is_zero(c):
        return y
    if isinstance(c, float) and c == -1.0 and not _is_zero(y):
        def write(z, g, out, tmp):  # y - g
            if isinstance(y, float):
                np.subtract(y, g, out=out)
            else:
                y(z, g, out, tmp)
                np.subtract(out, g, out=out)
        return write

    def write(z, g, out, tmp):
        if not isinstance(c, float):
            c(z, g, out, tmp)
            np.multiply(out, g, out=out)
        elif c == 1.0:
            np.copyto(out, g)
        elif c == -1.0:
            np.negative(g, out=out)
        else:
            np.multiply(c, g, out=out)
        if not isinstance(y, float):
            y(z, g, tmp, None)
            np.add(out, tmp, out=out)
        elif y:
            np.add(out, y, out=out)
    return write


def _as_writer(v):
    """A writer of v, which is a writer already or a float to fill with."""
    if isinstance(v, float):
        return lambda z, g, out, tmp: out.fill(v)
    return v


def _compile_slope(fold: tuple):
    """The slope ``slope(z, g, P, Q, tmp)`` of one fold (P0, P1, Q0, Q1, Q2):
    it writes P = P1(z) g + P0(z) into P and Q = (Q2(z) g + Q1(z)) g + Q0(z)
    into Q, using ``tmp`` (z's shape) as scratch."""
    P0, P1, Q0, Q1, Q2 = map(_horner_writer, fold)
    P = _as_writer(_mul_add_writer(P1, P0))
    Q = _as_writer(_mul_add_writer(_mul_add_writer(Q2, Q1), Q0))

    def slope(z, g, p, q, tmp):
        P(z, g, p, tmp)
        Q(z, g, q, tmp)
    return slope


@dataclass(frozen=True)
class PdeRightHandSide:
    """Assembled right-hand side dg/dt = -E(aG^2) + sum_ij E(f_ij G) E(h_ij G^2)
    of the noise ``pairs`` (b_i, c_i), with f_ij = c_i b_j and h_ij = b_i c_j.

    ``characteristic`` gives the quasilinear split dg/dt + P dg/dz = Q that
    the characteristic integrator marches, and the call evaluates Q - P dg/dz:

        P = a(z) - sum_ij h_ij(z) E(f_ij G)
          = [a - sum h S1_f] + [-sum f h] g,
        Q = -a'(z) g - S2_a + sum_ij E(f_ij G) (h_ij'(z) g + S2_h)
          = [-S2_a + sum S1_f S2_h] + [-a' + sum (f S2_h + S1_f h')] g + [sum f h'] g^2.

    The bracketed coefficients are real polynomials in z that depend on t
    only through the moments mu_0..mu_need that S2_a, S1_f and S2_h read,
    need = max(0, deg a - 2, max deg f_ij - 1).  S2_h reads up to
    deg h_ij - 2, which never binds: polynomials in X commute, so
    h_ij = f_ji.
    They are folded and compiled into a slope once per distinct moment
    vector (once per march when the moments are constant), which evaluates
    them by Horner in place; both ``characteristic`` and the march use it.
    """

    drift: Polynomial
    pairs: tuple  # the noise: (b, c) pairs of polynomials in x
    moments: MomentFunction
    need: int = field(init=False, repr=False, compare=False)
    _slopes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "need", max([0, self.drift.degree - 2] + [
            len(f) - 2 for f, _ in _products(self.pairs)]))

    def __call__(self, t: float, z, g, dg):
        P, Q = self.characteristic(t, z, g)
        return Q - P * dg

    def slope(self, t: float):
        """The compiled slope at time t (see ``_compile_slope``), compiled
        again only when the moments change."""
        mu = tuple(self.moments(j, t) for j in range(self.need + 1))
        slope = self._slopes.get(mu)
        if slope is None:
            self._slopes.clear()
            slope = self._slopes[mu] = _compile_slope(
                _fold(self.drift, self.pairs, mu))
        return slope

    def characteristic(self, t: float, z, g):
        """(P, Q): dz/dt = P and dg/dt = Q along a characteristic curve.

        Both are new arrays of the broadcast shape of z and g (at least
        float), also where P or Q is constant.
        """
        z, g = np.asarray(z), np.asarray(g)
        shape = np.broadcast_shapes(z.shape, g.shape)
        out = np.empty((2,) + shape, dtype=np.result_type(z, g, 1.0))
        P, Q = out[0, ...], out[1, ...]
        self.slope(t)(z, g, P, Q, np.empty(shape, out.dtype))
        return P, Q


def build_pde(a: Polynomial, noise, m: MomentFunction) -> PdeRightHandSide:
    """Validate moment coverage and assemble the evolution right-hand side.

    ``noise`` is a sequence of (b, c) polynomial pairs, or one polynomial
    bc that stands for the pair (bc, 1).
    """
    pairs = ((noise, ONE),) if isinstance(noise, Polynomial) else tuple(noise)
    rhs = PdeRightHandSide(drift=a, pairs=pairs, moments=m)
    if rhs.need > m.jmax:
        raise MomentsUnavailable(f"need moments up to order {rhs.need}, have {m.jmax}")
    return rhs


@dataclass
class CharacteristicSurface:
    """Curves (t, z(s,t), g(s,t)) from real initial labels, on a common time grid.

    Curves that exceed the blow-up cutoff are truncated: ``trunc_index[i]``
    is the last valid time index of curve i (n_t - 1 when untouched) and
    entries beyond it are NaN.
    """

    t_grid: np.ndarray
    z: np.ndarray  # complex, shape (n_s, n_t)
    g: np.ndarray  # complex, shape (n_s, n_t)
    truncated: np.ndarray  # bool, shape (n_s,)
    trunc_index: np.ndarray  # int, shape (n_s,)


def _mapped_zeros(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in a private anonymous memory mapping of its own,
    its pages faulted in when it is mapped where mmap defines MAP_POPULATE.

    The surface is the largest allocation of the package (25.6 MB for 801
    curves over 1000 steps).  Taken from the malloc heap and freed, it
    leaves holes that smaller allocations split, so a process that
    integrates repeatedly keeps a whole extra surface resident in some runs
    and not in others.  A mapping of its own goes back to the system when
    the array is freed.  The march writes every page, so faulting them all
    in at once costs less than one fault per page while it runs.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1),
                    flags=mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def integrate_characteristics(rhs: PdeRightHandSide, init, labels, t_end: float,
                              dt: float = 1e-3) -> CharacteristicSurface:
    """March every characteristic curve with classical fixed-step RK4.

    ``init`` maps the ``labels`` array to the initial pair (z(s,0), g(s,0)).
    All labels advance together (curves are independent, so the sweep is
    vectorized across them) as one stacked state (z, g) of shape (2, n_s):
    each step is written into one row of a time-major (n_t, 2, n_s) surface,
    whose z and g are views.  Every RK4 stage writes the right-hand side's
    slope into a reused buffer, and each stage argument and the RK4
    combination is one operation on the whole state.  A curve whose |z| or
    |g| passes ``BLOWUP_CUTOFF``, or that turns non-finite, is truncated and
    marked; one reduction over the state tests for that after each step, and
    the per-curve test runs only when it fails.
    """
    if not (0 < dt < math.inf and 0 <= t_end < math.inf):
        raise ValueError(f"need finite dt > 0 and t_end >= 0, got dt={dt}, t_end={t_end}")
    labels = np.asarray(labels, dtype=float)
    if labels.size == 0:
        raise ValueError("need at least one label")
    z0, g0 = init(labels)
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    h = t_end / n_steps if n_steps else 0.0
    t_grid = np.linspace(0.0, t_end, n_steps + 1)
    n_s = labels.size
    Y = _mapped_zeros((n_steps + 1, 2, n_s), complex)
    Y[0, 0], Y[0, 1] = z0, g0
    trunc_index = np.full(n_s, n_steps, dtype=int)
    active = np.ones(n_s, dtype=bool)
    k1, k2, k3, k4, arg, acc = np.empty((6, 2, n_s), dtype=complex)
    tmp = np.empty(n_s, dtype=complex)
    size = np.empty((2, n_s))
    fixed = rhs.slope(0.0) if rhs.need < 1 else None  # the fold needs mu_0 alone

    def stage(t, y, k):
        (fixed or rhs.slope(t))(y[0], y[1], k[0], k[1], tmp)

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            t, y, y_next = t_grid[n], Y[n], Y[n + 1]
            stage(t, y, k1)
            np.add(y, np.multiply(h / 2, k1, out=arg), out=arg)
            stage(t + h / 2, arg, k2)
            np.add(y, np.multiply(h / 2, k2, out=arg), out=arg)
            stage(t + h / 2, arg, k3)
            np.add(y, np.multiply(h, k3, out=arg), out=arg)
            stage(t + h, arg, k4)
            # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
            np.multiply(k2, 2, out=acc)
            acc += k1
            acc += np.multiply(k3, 2, out=k3)
            acc += k4
            acc *= h / 6
            np.add(y, acc, out=y_next)
            # |.| < cutoff is false for NaN and inf, so it checks finiteness too
            if np.abs(y_next, out=size).max() < BLOWUP_CUTOFF:
                continue
            if n == 0 and not np.isfinite(y_next).all():
                raise StepTooLarge("non-finite RK4 stage on the first step; reduce dt")
            alive = (size < BLOWUP_CUTOFF).all(axis=0)
            trunc_index[active & ~alive] = n
            active &= alive
            if not active.any():
                break
    truncated = trunc_index < n_steps
    for i in np.flatnonzero(truncated):
        Y[trunc_index[i] + 1:, :, i] = np.nan
    return CharacteristicSurface(t_grid=t_grid, z=Y[:, 0].T, g=Y[:, 1].T,
                                 truncated=truncated, trunc_index=trunc_index)


def evaluate_on_surface(surf: CharacteristicSurface, t: float, z: complex) -> complex:
    """Interpolate g at (t, z) from the two curves bracketing Re z.

    Curve states are first interpolated linearly in time, then z and g
    linearly between the bracketing curves (ordered by Re z).  At fixed t
    the curves trace a line in the plane, not a region, so a query farther
    from the interpolated point than the chord between the two curves
    raises OutsideSurface, as do queries outside the swept range.
    """
    tg = surf.t_grid
    if not (tg[0] <= t <= tg[-1]):
        raise OutsideSurface(f"t={t} outside the surface time range")
    j = min(max(1, int(np.searchsorted(tg, t))), tg.size - 1)
    k = max(j - 1, 0)  # j - 1, or row 0 itself on a one-row surface
    w = 0.0 if tg[j] == tg[k] else (t - tg[k]) / (tg[j] - tg[k])
    usable = surf.trunc_index >= j
    if np.count_nonzero(usable) < 2:
        raise OutsideSurface("fewer than two curves reach the query time")
    zt = (1 - w) * surf.z[usable, k] + w * surf.z[usable, j]
    gt = (1 - w) * surf.g[usable, k] + w * surf.g[usable, j]
    order = np.argsort(zt.real)
    zs, gs = zt[order], gt[order]
    xs = zs.real
    z = complex(z)
    x = z.real
    if not (xs[0] <= x <= xs[-1]):
        raise OutsideSurface(f"Re z={x} outside the curve hull [{xs[0]}, {xs[-1]}]")
    i = int(np.searchsorted(xs, x))
    i = max(1, min(i, xs.size - 1))
    x0, x1 = xs[i - 1], xs[i]
    u = 0.0 if x1 == x0 else (x - x0) / (x1 - x0)
    chord = zs[i] - zs[i - 1]
    if abs(z - (zs[i - 1] + u * chord)) > abs(chord):
        raise OutsideSurface(f"z={z} lies off the curves at t={t}")
    return complex((1 - u) * gs[i - 1] + u * gs[i])
