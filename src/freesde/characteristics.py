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
from functools import partial
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


def _is_float(v, x: float) -> bool:
    """v is the float x: a moving coefficient (a 0-d array) is never constant."""
    return isinstance(v, float) and v == x


_is_zero = partial(_is_float, x=0.0)


def _trim(c) -> tuple:
    """Coefficients lowest degree first, trailing float zeros dropped."""
    c = list(c)
    while c and _is_zero(c[-1]):
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
        _run(_as_ops(_horner_ops(self.coeffs))(x, None, out, None))
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
    (b_i, c_i), (b_j, c_j), i major, as trimmed coefficient tuples.  A couple
    with f or h zero is dropped: each of its terms in ``_fold`` has a factor
    f or S1_f and a factor h, h' or S2_h, so it adds nothing, and no moment
    is read for it."""
    products = ((_trim(_pmul(ci.coeffs, bj.coeffs)), _trim(_pmul(bi.coeffs, cj.coeffs)))
                for bi, ci in pairs for bj, cj in pairs)
    return [(f, h) for f, h in products if f and h]


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


def _negate(x, out):
    """The call np.negative(x, out), bound: on the real views where x and
    out are contiguous complex arrays of one shape, which flips the same
    sign bits in one pass over floats."""
    if (x.dtype.kind == "c" and x.dtype == out.dtype and x.shape == out.shape and x.ndim
            and x.flags.c_contiguous and out.flags.c_contiguous):
        x, out = x.view(x.real.dtype), out.view(out.real.dtype)
    return partial(np.negative, x, out)


def _horner_ops(c):
    """sum_k c_k z^k for coefficients lowest first, as a binder
    ``bind(z, g, out, tmp)`` that returns the in-place ufunc calls, bound to
    those arrays, that fill ``out`` by Horner's rule: float zero terms skipped
    and a float unit leading factor taken as a copy or a negation of z.  The
    coefficient itself (a float or a 0-d array) when c is constant in z."""
    if len(c) < 2:
        return c[0] if c else 0.0
    top, terms, c0 = c[-1], c[-2:0:-1], c[0]

    def bind(z, g, out, tmp):
        if _is_float(top, 1.0):
            ops = [partial(np.copyto, out, z)]
        elif _is_float(top, -1.0):
            ops = [_negate(z, out)]
        else:
            ops = [partial(np.multiply, top, z, out)]
        for ck in terms:
            if not _is_zero(ck):
                ops.append(partial(np.add, out, ck, out))
            ops.append(partial(np.multiply, out, z, out))
        if not _is_zero(c0):
            ops.append(partial(np.add, out, c0, out))
        return ops
    return bind


def _mul_add_ops(c, y):
    """c g + y as a binder ``bind(z, g, out, tmp)`` of in-place calls, for c
    and y each a constant (a float or a 0-d array) or a binder: a float zero
    term is skipped and a float unit factor taken as a copy or a negation of
    g; y itself when c is a float zero.

    ``c`` is written into ``out`` and may use ``tmp``; ``y`` is written into
    ``tmp`` after it, so it must need no scratch of its own.
    """
    if _is_zero(c):
        return y
    if _is_float(c, -1.0) and not _is_zero(y):
        def bind(z, g, out, tmp):  # y - g
            if not callable(y):
                return [partial(np.subtract, y, g, out)]
            return y(z, g, out, tmp) + [partial(np.subtract, out, g, out)]
        return bind

    def bind(z, g, out, tmp):
        if callable(c):
            ops = c(z, g, out, tmp) + [partial(np.multiply, out, g, out)]
        elif _is_float(c, 1.0):
            ops = [partial(np.copyto, out, g)]
        elif _is_float(c, -1.0):
            ops = [_negate(g, out)]
        else:
            ops = [partial(np.multiply, c, g, out)]
        if callable(y):
            ops += y(z, g, tmp, None) + [partial(np.add, out, tmp, out)]
        elif not _is_zero(y):
            ops.append(partial(np.add, out, y, out))
        return ops
    return bind


def _as_ops(v):
    """A binder of v, which is a binder already or a constant to fill with."""
    if callable(v):
        return v
    return lambda z, g, out, tmp: [partial(out.fill, v)]


def _run(ops) -> None:
    """Make the bound calls ``ops`` in order."""
    for op in ops:
        op()


def _compile_slope(fold: tuple):
    """The slope ``slope(z, g, P, Q, tmp)`` of one fold (P0, P1, Q0, Q1, Q2):
    it returns the in-place calls, bound to those arrays, that write
    P = P1(z) g + P0(z) into P and then Q = (Q2(z) g + Q1(z)) g + Q0(z) into
    Q, using ``tmp`` (z's shape) as scratch."""
    P0, P1, Q0, Q1, Q2 = map(_horner_ops, fold)
    P = _as_ops(_mul_add_ops(P1, P0))
    Q = _as_ops(_mul_add_ops(_mul_add_ops(Q2, Q1), Q0))

    def slope(z, g, p, q, tmp):
        return P(z, g, p, tmp) + Q(z, g, q, tmp)
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
    ``fold`` forms them at many times at once; ``characteristic`` compiles its
    one fold into in-place Horner calls, and the march one per stage time.
    """

    drift: Polynomial
    pairs: tuple  # the noise: (b, c) pairs of polynomials in x
    moments: MomentFunction
    need: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "need", max([0, self.drift.degree - 2] + [
            len(f) - 2 for f, _ in _products(self.pairs)]))

    def __call__(self, t: float, z, g, dg):
        P, Q = self.characteristic(t, z, g)
        return Q - P * dg

    def fold(self, times) -> tuple:
        """(P0, P1, Q0, Q1, Q2) (see ``_fold``) at every entry of ``times``: a
        coefficient that reads a moment of order >= 1 is an array of times'
        shape (a numpy float for a scalar time), every other one a float."""
        times = np.asarray(times, dtype=float)
        mu = [1.0] + [np.reshape([self.moments(j, t) for t in times.flat], times.shape)
                      for j in range(1, self.need + 1)]
        return _fold(self.drift, self.pairs, mu)

    def characteristic(self, t: float, z, g):
        """(P, Q): dz/dt = P and dg/dt = Q along a characteristic curve.

        Both are new arrays of the broadcast shape of z and g (at least
        float), also where P or Q is constant.
        """
        z, g = np.asarray(z), np.asarray(g)
        shape = np.broadcast_shapes(z.shape, g.shape)
        out = np.empty((2,) + shape, dtype=np.result_type(z, g, 1.0))
        P, Q = out[0, ...], out[1, ...]
        _run(_compile_slope(self.fold(t))(z, g, P, Q, np.empty(shape, out.dtype)))
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


MAX_SURFACE_BYTES = 2**30  # largest characteristic surface, (n_t, 2, n_s) complex
BLOCK_STEPS = 64  # steps folded at once: a march reads no moment past the block it stops in
MADV_POPULATE_WRITE = getattr(mmap, "MADV_POPULATE_WRITE", 23)  # Linux >= 5.14


def _mapped_zeros(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in a private anonymous memory mapping of its own,
    advised to transparent huge pages and then populated for writing; where
    either advice is refused, a mapping populated at map time where mmap
    defines MAP_POPULATE.

    The surface is the largest allocation of the package (25.6 MB for 801
    curves over 1000 steps).  Taken from the malloc heap and freed, it
    leaves holes that smaller allocations split, so a process that
    integrates repeatedly keeps a whole extra surface resident in some runs
    and not in others.  A mapping of its own goes back to the system when
    the array is freed.  The march writes every page, so faulting them all
    in at once costs less than one fault per page while it runs, and 2 MB
    pages fault in faster than 4 KB ones.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    size = max(count * dtype.itemsize, 1)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    try:
        buf.madvise(mmap.MADV_HUGEPAGE)
        buf.madvise(MADV_POPULATE_WRITE)
    except (AttributeError, OSError):
        buf.close()
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def integrate_characteristics(rhs: PdeRightHandSide, init, labels, t_end: float,
                              dt: float = 1e-3) -> CharacteristicSurface:
    """March every characteristic curve with classical fixed-step RK4.

    ``init`` maps the ``labels`` array to the initial pair (z(s,0), g(s,0)),
    each finite and of the labels' size.  All labels advance together
    (curves are independent, so the sweep is vectorized across them) as one
    stacked state (z, g) of shape (2, n_s), held in one buffer and copied
    after each step into one row of a time-major (n_t, 2, n_s) surface,
    whose z and g are views; a surface over ``MAX_SURFACE_BYTES`` is refused
    before anything is allocated.  The in-place calls of one RK4 step (each
    stage's slope, each stage argument and the RK4 combination, one
    operation on the whole state each) are bound to their buffers once, each
    moving coefficient a 0-d view of a row that the step copies in.  A curve whose
    |z| or |g| passes ``BLOWUP_CUTOFF``, or that turns non-finite, is
    truncated and marked: after each step one reduction tests that both
    parts of every entry stay under half the cutoff, the exact modulus test
    runs only when that fails, and the per-curve test only when that fails.
    """
    if not (0 < dt < math.inf and 0 <= t_end < math.inf):
        raise ValueError(f"need finite dt > 0 and t_end >= 0, got dt={dt}, t_end={t_end}")
    labels = np.asarray(labels, dtype=float)
    if labels.size == 0:
        raise ValueError("need at least one label")
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    n_s = labels.size
    n_bytes = (n_steps + 1) * 2 * n_s * np.dtype(complex).itemsize
    if n_bytes > MAX_SURFACE_BYTES:
        raise ValueError(f"a surface of {n_steps + 1} times x {n_s} curves takes {n_bytes:.3g} "
                         f"bytes, over the {MAX_SURFACE_BYTES} byte bound; raise dt or march "
                         f"fewer labels")
    z0, g0 = init(labels)
    y = np.empty((2, n_s), dtype=complex)  # the state (z, g)
    for row, v in zip(y, (z0, g0)):
        if np.shape(v) != (n_s,):
            raise ValueError(f"init must give z and g of shape ({n_s},), got {np.shape(v)}")
        row[:] = v
    bad = ~np.isfinite(y).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"initial (z, g) = ({y[0, i]}, {y[1, i]}) is not finite at label "
                         f"{labels.flat[i]} (index {i})")
    h = t_end / n_steps if n_steps else 0.0
    t_grid = np.linspace(0.0, t_end, n_steps + 1)
    Y = _mapped_zeros((n_steps + 1, 2, n_s), complex)
    Y[0] = y
    trunc_index = np.full(n_s, n_steps, dtype=int)
    active = np.ones(n_s, dtype=bool)
    k1, k2, k3, k4, arg, acc = np.empty((6, 2, n_s), dtype=complex)
    tmp = np.empty(n_s, dtype=complex)
    size = np.empty((2, n_s))
    parts = y.view(float)
    part_size = np.empty_like(parts)
    stages = ((y, k1, [partial(np.multiply, h / 2, k1, arg), partial(np.add, y, arg, arg)]),
              (arg, k2, [partial(np.multiply, h / 2, k2, arg), partial(np.add, y, arg, arg)]),
              (arg, k3, [partial(np.multiply, h, k3, arg), partial(np.add, y, arg, arg)]),
              # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
              (arg, k4, [partial(np.multiply, k2, 2, acc), partial(np.add, acc, k1, acc),
                         partial(np.multiply, k3, 2, k3), partial(np.add, acc, k3, acc),
                         partial(np.add, acc, k4, acc), partial(np.multiply, acc, h / 6, acc),
                         partial(np.add, y, acc, y)]))

    def block(n):
        """The fold at the stage times of the block from step n, and its moving coefficients."""
        fold = rhs.fold(t_grid[n:min(n + BLOCK_STEPS, n_steps), None] + (0.0, h / 2, h))
        return fold, [c for p in fold for c in p if isinstance(c, np.ndarray)]

    fold, moving = block(0)
    rows = np.empty((3, len(moving)))  # the moving coefficients at t, t + h/2 and t + h
    views = iter([row[k, ...] for row in rows for k in range(row.size)])  # slope i reads row i
    slopes = [_compile_slope(tuple(tuple(next(views) if isinstance(c, np.ndarray) else c
                                         for c in p) for p in fold)) for _ in rows]
    step = [op for slope, (x, k, then) in zip(slopes[:2] + slopes[1:], stages)  # t + h/2 twice
            for op in slope(x[0], x[1], k[0], k[1], tmp) + then]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            if moving:  # a fold of mu_0 alone copies no rows
                if n % BLOCK_STEPS == 0:
                    table = np.stack(block(n)[1] if n else moving, axis=-1)
                rows[...] = table[n % BLOCK_STEPS]
            _run(step)
            Y[n + 1] = y
            # each part under cutoff/2 puts |.| under cutoff/sqrt(2); the
            # tests are false for NaN and inf, so they check finiteness too
            if np.abs(parts, out=part_size).max() < BLOWUP_CUTOFF / 2:
                continue
            if np.abs(y, out=size).max() < BLOWUP_CUTOFF:
                continue
            if n == 0 and not np.isfinite(y).all():
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
