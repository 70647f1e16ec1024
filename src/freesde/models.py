"""The four worked models: each model's record and its closed forms.

Conventions: the Cauchy transform is g(t, z) = E[(X_t - z)^(-1)], so the
Herglotz branch has Im g > 0 on the upper half plane and z*g -> -1 at
infinity.  Initial conditions are fixed per model: the Ornstein-Uhlenbeck
process starts at 0, both geometric-Brownian variants at the identity, and
the explosive model at a times the identity.

Each model is a frozen dataclass that carries every model-specific fact
the other modules need (see ``ModelSpec``); ``MODELS`` maps tags to classes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .cauchy import DensityCurve, SupportInterval, semicircle_cauchy_radius, stieltjes_invert
from .characteristics import ONE, MomentFunction, Polynomial
from .errors import (
    BranchViolation,
    GridTooCoarse,
    InvalidConfig,
    NewtonDiverged,
    PastBlowup,
)
from .rmt import psd_factor

_MEPS = float(np.finfo(float).eps)

# Relative guard band below the blow-up time; queries beyond are refused.
BLOWUP_GUARD = 1e-9

# Iteration cap of the gbm1 Newton solve, and step halvings per iteration.
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30

# Nodes of the auto grid, its uniform nodes on each 5% margin beside the
# support, and the map of the rest: phi at equal steps over [0, pi] (cos phi
# in ``ModelSpec.boundary``, sin phi in ``gbm_boundary``).
AUTO_GRID_N = 1024
AUTO_TAIL = 12
AUTO_PHI = np.linspace(0.0, math.pi, AUTO_GRID_N - 2 * AUTO_TAIL)
AUTO_PHI.flags.writeable = False

# The noise factor x of the records' (b, c) pairs; ONE is the factor 1.
X = Polynomial([0.0, 1.0])


class ModelSpec:
    """A model dX = a(X) dt + b(X) dW c(X): a frozen dataclass of its
    parameters that carries every model-specific fact.

    ``tag`` names it in configs and flags; X_0 = ``x0`` I; ``mc_horizon`` is
    the latest Monte Carlo t_end without ``allow_near_blowup``.
    ``moments(t)`` gives the mean and second moment, ``support(t)`` the
    spectral support, ``cauchy(t, z)`` the Cauchy transform (None where it
    is not known), ``boundary(t)`` the density curve on the ``AUTO_GRID_N``
    nodes of the auto grid at t, ``density_curve(t, grid)`` the normalized
    curve the CLI writes, ``polynomials()`` the drift a(x) and the noise as
    (b, c) pairs of polynomials, for sum_i b_i(X) dW c_i(X).

    The Monte Carlo march carries a state s for each matrix x:
    ``march_state(x)`` gives it and ``state_matrix(s, out=None)`` gives x
    back.  It is x itself, except for gbm1, whose state is a factor F with
    x = F F^T, a product written into ``out`` where given.
    ``euler_increment(s, dt, dw, tmp)`` steps s in place to the state of
    x + a(x) dt + b(x) dw c(x), for one state or an (..., N, N) stack.  It
    may overwrite the increment ``dw``, uses one temporary ``tmp`` of s's
    shape, and returns gbm1's square-root clamp per matrix (else None); a
    symmetric state comes out exactly symmetric.  ``euler_segment(dt, k)`` gives
    the Euler steps that one increment draw covers, out of the k left
    before the next snapshot, with the drift time and the noise time that
    ``euler_increment`` and the draw take for them.
    """

    mc_horizon = math.inf

    def euler_segment(self, dt, k):
        """One Euler step per draw: (1, dt, dt)."""
        return 1, dt, dt

    def march_state(self, x):
        return x

    def state_matrix(self, s, out=None):
        return s

    def moment_function(self) -> MomentFunction:
        """Both moment orders as a (j, t) handle for the evolution equations."""
        return MomentFunction(lambda j, t: self.moments(t)[j - 1], jmax=2)

    def boundary(self, t) -> DensityCurve:
        """A cosine map over the support, where the square-root edges and any
        near-blow-up spikes live, inside ``_margin_grid``'s tails; the density
        (1/pi) Im g(t, x) on it is read by ``stieltjes_invert`` at eps = 0."""
        sup = self.support(t)
        core = 0.5 * (sup.lo + sup.hi) - 0.5 * sup.width * np.cos(AUTO_PHI)
        return stieltjes_invert(self.cauchy, t, _margin_grid(sup, core, t), eps0=0.0)

    def density_curve(self, t, grid=None) -> DensityCurve:
        """The density at t, p = (1/pi) Im g(t, x), on ``grid``, or without
        one on the auto grid: ``boundary``'s ``AUTO_GRID_N`` nodes clustered
        at the support edges, with short uniform tails on 5% margins beside
        it.  gbm1 reads that grid and density from its explicit boundary
        curve; its Newton solve serves a given grid alone, and does not
        reach as far in t (``NewtonDiverged``).  p is read with no offset,
        as every transform extends continuously to the axis: an offset eps
        leaves an O(sqrt(eps)) bias at square-root edges that no
        extrapolation removes.  A record with no transform is a config
        error, and every curve faces the mass check (``NotNormalized``)."""
        g = cauchy_evaluator(self)
        curve = self.boundary(t) if grid is None else stieltjes_invert(g, t, grid, eps0=0.0)
        curve.assert_normalized()
        return curve


@dataclass(frozen=True)
class OrnsteinUhlenbeck(ModelSpec):
    """dX = theta X dt + sigma dW, X_0 = 0.

    sigma = 0 is admitted as the degenerate noiseless case (the state stays
    at the origin and the transform is -1/z); negative sigma is rejected.
    """
    theta: float
    sigma: float

    tag = "ou"
    x0 = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidConfig("sigma must be nonnegative")

    def moments(self, t):
        """Centered, with the process variance as second moment."""
        return 0.0, ou_variance(self.theta, self.sigma, t)

    def support(self, t):
        return ou_support(self.theta, self.sigma, t)

    def cauchy(self, t, z):
        return ou_cauchy(self.theta, self.sigma, t, z)

    def polynomials(self):
        return Polynomial([0.0, self.theta]), ((Polynomial([self.sigma]), ONE),)

    def euler_increment(self, x, dt, dw, tmp):
        x *= 1.0 + self.theta * dt
        x += np.multiply(dw, self.sigma, out=dw)

    def euler_segment(self, dt, k):
        """All k steps in one draw, by the law of the Euler chain
        (``ou_euler_law``): the drift time h has 1 + theta h = rho^k.  Where
        that law overflows a double the chain goes on one step per draw."""
        try:
            decay, noise = ou_euler_law(self.theta, dt, k)
        except OverflowError:
            return 1, dt, dt
        return k, (decay - 1.0) / self.theta if self.theta else k * dt, noise


@dataclass(frozen=True)
class GeometricBrownian1(ModelSpec):
    """dX = theta X dt + X^(1/2) dW X^(1/2), X_0 = I.

    The Monte Carlo march carries a factor F of X = F F^T (the Cholesky
    factor, lower triangular, while no step clamps).  The Euler step
    (1 + theta dt) X + F dW F^T is F A F^T with A = (1 + theta dt) I + dW,
    so its factor is F C with C C^T = A: one Cholesky and one product a
    step (``psd_factor``; F dW F^T has the law of X^(1/2) dW X^(1/2)).  For
    a nonsingular F, A is indefinite exactly when the step is (Sylvester's
    law of inertia); then the clamped root of A stands in for that matrix
    alone, the step's clamp is A's negative eigenvalue mass, and X stays
    positive semidefinite.
    """
    theta: float

    tag = "gbm1"
    x0 = 1.0

    def moments(self, t):
        """E(X) = e^(theta t) and E(X^2) = (t+1) e^(2 theta t)."""
        return (math.exp(self.theta * t),
                (t + 1.0) * math.exp(2.0 * self.theta * t))

    def support(self, t):
        return gbm_support(self.theta, t) if t > 0 else SupportInterval(1.0, 1.0)

    def cauchy(self, t, z):
        return gbm_cauchy(self.theta, t, z)

    def boundary(self, t) -> DensityCurve:
        """The explicit boundary curve (``gbm_boundary``), with no Newton
        solve; g is real off the support, so the tails carry p = 0.  Every
        p = y/(pi x) is positive, so nothing is clamped."""
        core, p = gbm_boundary(self.theta, t)
        pad = np.zeros(AUTO_TAIL)
        xs = _margin_grid(SupportInterval(core[0], core[-1]), core, t)
        return DensityCurve.from_samples(xs, np.concatenate([pad, p, pad]), t=t)

    def polynomials(self):
        """X^(1/2) dW X^(1/2) as the pair (x, 1): the equation reads only
        the products c_i b_j and b_i c_j."""
        return Polynomial([0.0, self.theta]), ((X, ONE),)

    def march_state(self, x):
        return psd_factor(x)[0]

    def state_matrix(self, s, out=None):
        return np.matmul(s, s.swapaxes(-1, -2), out=out)

    def euler_increment(self, f, dt, dw, tmp):
        # A = (1 + theta dt) I + dw, formed in dw itself
        np.einsum("...ii->...i", dw)[...] += 1.0 + self.theta * dt
        c, clamp = psd_factor(dw)
        np.copyto(f, np.matmul(f, c, out=tmp))
        return clamp


@dataclass(frozen=True)
class GeometricBrownian2(ModelSpec):
    """dX = theta X dt + X dW + dW X, X_0 = I.  No closed-form transform;
    the characteristics engine marches it from its two noise pairs."""
    theta: float

    tag = "gbm2"
    x0 = 1.0
    cauchy = None

    def moments(self, t):
        return gbm2_moments(self.theta, t)

    def moment_function(self):
        """The mean e^(theta t) alone, the one moment the noise products
        read: the second moment, never evaluated, overflows a double first."""
        return MomentFunction(lambda j, t: math.exp(self.theta * t), jmax=1)

    def support(self, t):
        raise InvalidConfig(
            "support of the second geometric-Brownian variant is not known in closed form")

    def polynomials(self):
        return Polynomial([0.0, self.theta]), ((X, ONE), (ONE, X))

    def euler_increment(self, x, dt, dw, tmp):
        # x and dw are exactly symmetric, so dw x = (x dw)^T: one product
        # t = x dw, in tmp, and t + t^T, in dw, is exactly symmetric, so the
        # step is too
        np.matmul(x, dw, out=tmp)
        np.add(tmp, tmp.swapaxes(-1, -2), out=dw)
        x *= 1.0 + self.theta * dt
        x += dw


@dataclass(frozen=True)
class Explosive(ModelSpec):
    """dX = k X dW X, X_0 = a I.  Blows up at t = (a k)^(-2)."""
    k: float
    a: float

    tag = "explosive"

    def __post_init__(self):
        if self.k <= 0 or self.a <= 0:
            raise InvalidConfig("k and a must be positive")

    x0 = property(lambda self: self.a)

    @property
    def mc_horizon(self):
        """0.9 of the blow-up time: finite-N paths diverge close to it.

        The horizon bounds where the law is finite, not every Euler path: a
        path can overflow well inside it, so a run past a path's overflow
        raises NonFinite (``compare`` exits 3).  At k = a = 1, N = 24, 16
        paths and dt = 2e-3, seed 9 overflows by t = 0.4, 0.4 of the
        blow-up time; dt = 1e-3, or seed 8 or 10, runs through.
        """
        return 0.9 * blowup_time(self.k, self.a)

    def moments(self, t):
        """E(X) = a and E(X^2) = a^2/(1 - tau), tau = a^2 k^2 t: the second
        moment diverges at the blow-up time tau = 1."""
        _check_blowup(self.k, self.a, t)
        return self.a, self.a ** 2 / (1.0 - (self.a * self.k) ** 2 * t)

    def moment_function(self):
        """The constant mean alone: the degree-2 noise pair needs no more."""
        return MomentFunction(lambda j, t: self.a, jmax=1)

    def support(self, t):
        return explosive_support(self.k, self.a, t)

    def cauchy(self, t, z):
        return explosive_cauchy(self.k, self.a, t, z)

    def polynomials(self):
        return Polynomial([]), ((Polynomial([0.0, 0.0, self.k]), ONE),)

    def euler_increment(self, x, dt, dw, tmp):
        # rounding leaves t = x dw x, in dw, just off symmetric; t + t^T is
        # exactly so
        np.matmul(x, dw, out=tmp)
        np.matmul(tmp, x, out=dw)
        np.add(dw, dw.swapaxes(-1, -2), out=tmp)
        tmp *= 0.5 * self.k
        x += tmp


def _margin_grid(sup: SupportInterval, core: np.ndarray, t: float) -> np.ndarray:
    """The ``core`` nodes on ``sup``, with ``AUTO_TAIL`` uniform nodes on
    each margin of 5% of its width beside it, so vanishing outside the
    support stays visible and the grid scales with the support.  Nodes that
    collapse (a zero-width support among them), overflow or underflow raise
    GridTooCoarse."""
    pad = 0.05 * sup.width
    with np.errstate(all="ignore"):
        left = np.linspace(sup.lo - pad, sup.lo, AUTO_TAIL, endpoint=False)
        right = np.linspace(sup.hi + pad, sup.hi, AUTO_TAIL, endpoint=False)[::-1]
        xs = np.concatenate([left, core, right])
        if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)):
            raise GridTooCoarse(
                f"support [{sup.lo:g}, {sup.hi:g}] at t={t:g} has no strictly increasing grid")
    return xs


MODELS = {cls.tag: cls for cls in
          (OrnsteinUhlenbeck, GeometricBrownian1, GeometricBrownian2, Explosive)}
# the tag and every model's parameters, each once, in record order
MODEL_KEYS = ("model",) + tuple(dict.fromkeys(
    f.name for cls in MODELS.values() for f in dataclasses.fields(cls)))


def config_number(kind, value, what: str):
    """kind(value) for a config or flag value; a boolean, a string (the CLI
    reads flag and environment text first), a fractional value for an int,
    or a malformed or non-finite value is a config error."""
    try:
        number = kind(value)
        ok = (not isinstance(value, (bool, str)) and math.isfinite(number)
              and (number == value or not isinstance(value, float)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidConfig(f"{what} must be a finite {kind.__name__}, got {value!r}")
    return number


def config_object(value, fields, what: str, required=()) -> dict:
    """value as a config object: a dict of ``fields`` alone that holds every
    ``required`` one; anything else is a config error."""
    if not isinstance(value, dict):
        raise InvalidConfig(f"{what} is not a JSON object, got {type(value).__name__}")
    unknown = set(value) - set(fields)
    if unknown:
        raise InvalidConfig(f"unknown {what} fields {sorted(unknown)}; "
                            f"allowed: {', '.join(fields)}")
    missing = [f for f in required if f not in value]
    if missing:
        raise InvalidConfig(f"{what} needs fields {missing}")
    return value


def model_from_json(d: dict) -> ModelSpec:
    """Parse {"model": tag, ...params}; unknown and missing fields are rejected."""
    tag = config_object(d, MODEL_KEYS, "model", required=("model",))["model"]
    cls = MODELS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise InvalidConfig(f"unknown model '{tag}' (expected one of {sorted(MODELS)})")
    fields = [f.name for f in dataclasses.fields(cls)]
    config_object(d, ("model", *fields), f"model '{tag}'", required=fields)
    return cls(**{f: config_number(float, d[f], f"{tag} {f}") for f in fields})


def model_to_json(spec: ModelSpec) -> dict:
    return {"model": spec.tag, **dataclasses.asdict(spec)}


# -- Ornstein-Uhlenbeck ------------------------------------------------------

def ou_variance(theta: float, sigma: float, t: float) -> float:
    """Variance sigma (sigma v_1), with v_1 = (e^(2 theta t) - 1) / (2 theta)
    the variance at sigma = 1 and its theta -> 0 limit t where |theta t| is
    below 2^-60 (as in ``ou_euler_law``; expm1 is exact to an ulp above it),
    formed as 2 (theta t), never 2 theta, which overflows for |theta| >= 2^1023.
    A variance past a double raises OverflowError."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    v1 = t if abs(theta * t) < 2.0 ** -60 else math.expm1(2.0 * (theta * t)) / theta / 2.0
    v = sigma * (sigma * v1)
    if not math.isfinite(v):
        raise OverflowError(f"ou variance overflows a double at t={t:g}")
    return v


def ou_euler_law(theta: float, dt: float, k: int) -> tuple[float, float]:
    """Decay rho^k and noise time dt (1 + rho^2 + ... + rho^(2k-2)) of k
    Euler steps x <- rho x + sigma dW, rho = 1 + theta dt.

    k steps map x to rho^k x + sigma W, W one Wigner increment of the noise
    time.  Both come from log |rho| through exp and expm1, so neither
    cancels as theta dt -> 0; rho <= 0 (theta dt <= -1) is admitted.  Where
    k theta dt is below 2^-60 the chain is the theta = 0 chain to double
    precision: (1, k dt).  Raises OverflowError where rho^k or the noise
    time overflows a double.
    """
    h = theta * dt
    if abs(k * h) < 2.0 ** -60:
        return 1.0, k * dt
    rho = 1.0 + h
    if rho == 0.0:  # only the last step's noise survives
        return 0.0, dt
    lg = math.log1p(h) if rho > 0 else math.log(-rho)
    decay = math.exp(k * lg)
    if rho < 0 and k % 2:
        decay = -decay
    noise = dt * (math.expm1(2 * k * lg) / math.expm1(2.0 * lg) if lg else k)
    if math.isinf(noise):
        raise OverflowError("noise time of the Euler chain overflows a double")
    return decay, noise


def ou_support(theta: float, sigma: float, t: float) -> SupportInterval:
    """Semicircle support [-r, r] with r = 2 sigma sqrt(v_1) (see
    ``ou_variance``): the cut of ``ou_cauchy``, growing like e^(theta t) for
    theta > 0, like sqrt(t) for theta = 0, and saturating at
    sigma * sqrt(2/|theta|) for theta < 0.  An end past a double raises
    OverflowError.
    """
    r = 2.0 * (sigma * math.sqrt(ou_variance(theta, 1.0, t)))
    if math.isinf(r):
        raise OverflowError(f"ou support end overflows a double at t={t:g}")
    return SupportInterval(0.0 - r, r)  # +0.0, not -0.0, when r = 0


def ou_cauchy(theta: float, sigma: float, t: float, z):
    """Semicircle transform with the time-dependent variance of the process.

    Solves v g^2 + z g + 1 = 0 on the Herglotz branch, where v is the
    variance at time t; the degenerate v = 0 start returns -1/z (point mass
    at the origin).  Real z inside the support gets the boundary value with
    Im g > 0, so Im g / pi is the semicircle density there.  The transform
    is taken on ``ou_support``'s radius, in which sigma is a pure scale
    (g(z) = g_1(z/sigma)/sigma, g_1 the sigma = 1 transform), so the cut
    ends exactly at the support's ends and no sigma^2 is formed.
    """
    out = semicircle_cauchy_radius(z, ou_support(theta, sigma, t).hi)
    return out if np.ndim(z) else complex(out)


# -- Geometric Brownian I ----------------------------------------------------

def gbm_support(theta: float, t: float) -> SupportInterval:
    """Support endpoints from the branch points of the transform.

    The products r = z*g at the branch points solve t r^2 + t r - 1 = 0,
    whose roots q = (2/t)/(1 + sqrt(1 + 4/t)) and -1 - q do not cancel at
    large t.  In z = r/(1+r) e^((theta-1-r) t) they give the ends
    lo = q/(1+q) e^((theta-1-q) t) and hi = (1+q)/q e^((theta+q) t), which
    grows like e t e^(theta t).  lo underflows to 0 for theta < 1 at large t
    (past t = 737.5 at theta = 0); hi past a double raises OverflowError.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    q = 2.0 / t / (1.0 + math.sqrt(1.0 + 4.0 / t))
    hi = (1.0 + q) / q * math.exp((theta + q) * t)
    if math.isinf(hi):
        raise OverflowError(f"gbm1 support end overflows a double at t={t:g}")
    return SupportInterval(q / (1.0 + q) * math.exp((theta - 1.0 - q) * t), hi)


def gbm_boundary(theta: float, t: float):
    """The auto grid's ``AUTO_GRID_N - 2 AUTO_TAIL`` nodes x over the
    support and the density p on them, from the explicit boundary curve of
    ``gbm_cauchy``'s inverse map: no Newton solve.

    On the support r = x g = u + i y has y > 0, and the inverse map
    x = r/(1+r) e^((theta-1-r) t) is real where arg(r/(1+r)) = t y, which is
    the curve u^2 + u = c, c = y (cot(t y) - y).  Its roots u = q and
    u = -1 - q, q = 2c/(1 + sqrt(D)), D = 1 + 4c, trace the lower and
    upper sides of the support for y in (0, y*): D falls strictly on
    (0, pi/t), and y* is its one root there, found by bisection.  The nodes
    are y = y* sin(phi) at equal steps of phi over [0, pi], the lower side
    for phi < pi/2, so x - x_edge ~ phi^2 at both edges, as for a cosine
    map, and the sides join smoothly at y*.  With rho = |q + iy|/|1 + q + iy|,
    x = rho e^((theta-1-q) t) on the lower side and e^((theta+q) t)/rho on
    the upper, and p = Im g / pi = y/(pi x); the end nodes are
    ``gbm_support``'s ends, with p = 0.  Nodes that underflow or collapse
    are left for the caller's grid check.
    """
    def c_of(y, cot):  # the curve's right side c; D = 1 + 4c
        return y * (cot - y)

    sup = gbm_support(theta, t)
    lo, hi = 0.0, math.pi  # bisection on a = t y, where D > 0 at lo
    while (a := 0.5 * (lo + hi)) not in (lo, hi):
        if 1.0 + 4.0 * c_of(a / t, 1.0 / math.tan(a)) > 0:
            lo = a
        else:
            hi = a
    phi = AUTO_PHI[1:-1]
    a = lo * np.sin(phi)
    y = a / t
    with np.errstate(all="ignore"):
        c = c_of(y, 1.0 / np.tan(a))
        q = 2.0 * c / (1.0 + np.sqrt(np.maximum(1.0 + 4.0 * c, 0.0)))
        rho = np.hypot(q, y) / np.hypot(1.0 + q, y)
        x = np.where(phi < 0.5 * math.pi, rho * np.exp((theta - 1.0 - q) * t),
                     np.exp((theta + q) * t) / rho)
        p = y / (math.pi * x)
    return (np.concatenate([[sup.lo], x, [sup.hi]]),
            np.concatenate([[0.0], p, [0.0]]))


def _gbm_newton(alpha: float, t: float, z):
    """Damped Newton on K(s) = s - t w = zeta = Log z - alpha t, w = e^s/(1 - e^s),
    at each point of ``z`` (see ``gbm_cauchy``); returns s, w and the mask
    of points with |K - zeta| <= 2 eps (|s| + t |w| + |zeta|).  Where
    Re z < 0 it runs on s - i pi against Log(-z) - alpha t, so Im s is as
    fine near pi as near 0.  From Re zeta + i (Im zeta + pi)/2 each step is
    halved, projected onto the strip, until |K - zeta| decreases; near a
    fold that can fail, and then the full step is taken.
    """
    flip = z.real < 0
    lo = np.where(flip, -math.pi, 0.0)  # the strip is lo <= Im s <= lo + pi

    def residual(s, zeta, flip):
        ex = np.exp(s)
        v = np.where(flip, 1.0 + ex, -np.expm1(s))  # 1/(1 + w)
        # Im 1/v = Im w does not cancel where |e^s| >> 1
        w = (np.where(flip, -ex, ex) / v).real + 1j * (1.0 / v).imag
        return w, s - t * w - zeta, 1.0 - t * w / v

    def converged(s, w, F, zeta):
        return np.abs(F) <= 2.0 * _MEPS * (np.abs(s) + t * np.abs(w) + np.abs(zeta))

    with np.errstate(all="ignore"):
        zeta = np.log(np.where(flip, -z, z)) - alpha * t
        s = zeta.real + 0.5j * (zeta.imag + math.pi + 2.0 * lo)
        w, F, dK = residual(s, zeta, flip)
        for _ in range(NEWTON_MAX_ITER):
            act = np.flatnonzero(~converged(s, w, F, zeta))
            if act.size == 0:
                break
            step = F[act] / dK[act]
            for i in range(NEWTON_MAX_HALVINGS + 1):
                trial = s[act] - (0.5 ** i if i < NEWTON_MAX_HALVINGS else 1.0) * step
                trial = trial.real + 1j * np.clip(trial.imag, lo[act], lo[act] + math.pi)
                wt, Ft, dKt = residual(trial, zeta[act], flip[act])
                take = (np.abs(Ft) < np.abs(F[act])) | (i == NEWTON_MAX_HALVINGS)
                idx = act[take]
                s[idx], w[idx], F[idx], dK[idx] = trial[take], wt[take], Ft[take], dKt[take]
                act, step = act[~take], step[~take]
                if act.size == 0:
                    break
        done = converged(s, w, F, zeta)
        # off the support at Im z << |z|, steps on Im s alone resolve it to its
        # own precision while they contract and the residual holds
        polish, d_old = done.copy(), np.full(s.shape, np.inf)
        for _ in range(NEWTON_MAX_ITER):
            d = (F / dK).imag
            polish &= (np.abs(d) > 2.0 * _MEPS * np.abs(s.imag)) & (np.abs(d) < 0.5 * d_old)
            act, d_old = np.flatnonzero(polish), np.abs(d)
            if act.size == 0:
                break
            trial = s[act].real + 1j * np.clip(s[act].imag - d[act], lo[act], lo[act] + math.pi)
            wt, Ft, dKt = residual(trial, zeta[act], flip[act])
            take = converged(trial, wt, Ft, zeta[act])
            idx = act[take]
            s[idx], w[idx], F[idx], dK[idx] = trial[take], wt[take], Ft[take], dKt[take]
            polish[act[~take]] = False
    return s - 1j * lo, w, done


def gbm_cauchy(theta: float, t: float, z):
    """Transform of the first geometric-Brownian variant.

    With w = z g, z + 1/g = e^((theta - 1 - z g) t) is the inverse map
    z = w/(1+w) e^((theta - 1 - w) t).  w -> w/(1+w) keeps the upper half
    plane, so s = Log(w/(1+w)) lies in 0 <= Im s <= pi and, on the Herglotz
    branch, s - t w = Log z - (theta - 1) t with principal logarithms.
    ``_gbm_newton`` solves that at each point; real z gets the boundary
    value from above.  A point that does not converge raises
    ``NewtonDiverged``; a root with Im s < t Im w (off the closure of the
    branch's domain) or Im g <= 0 at Im z > 0 raises ``BranchViolation``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    zin = np.asarray(z, dtype=complex)
    zf = zin.ravel()
    if t == 0.0:
        out = 1.0 / (1.0 - zf)
        return (out.reshape(zin.shape) if np.ndim(z) else complex(out[0]))
    alpha = theta - 1.0
    zero = zf == 0
    s, w, done = _gbm_newton(alpha, t, zf[~zero])
    if not np.all(done):
        raise NewtonDiverged(f"{np.count_nonzero(~done)} points did not converge at t={t:g}")
    if np.any(s.imag < t * w.imag - 8.0 * _MEPS * (np.abs(s) + t * np.abs(w))):
        raise BranchViolation("root leaves the domain of the Herglotz branch")
    g0 = math.exp(-alpha * t) if -alpha * t < 709.78 else math.inf  # g(0) = E(X^-1)
    g = np.full(zf.shape, g0, dtype=complex)
    # g = w/z = (1 + w) e^((w - alpha) t): the first form gives Re g with the
    # smaller residual, the second Im g to its own precision where Im g << |g|
    g[~zero] = (w / zf[~zero]).real + 1j * (g0 * np.exp(t * w) * (1.0 + w)).imag
    if np.any((zf.imag > 0) & (g.imag <= 0)):
        raise BranchViolation("converged root leaves the upper half plane")
    return g.reshape(zin.shape) if np.ndim(z) else complex(g[0])


# -- Geometric Brownian II ---------------------------------------------------

def gbm2_moments(theta: float, t: float) -> tuple[float, float]:
    """Mean e^(theta t) and second moment 2 e^(2(theta+1) t) - e^(2 theta t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(theta * t), 2.0 * math.exp(2.0 * (theta + 1.0) * t) - math.exp(2.0 * theta * t)


def gbm2_first_integral(theta: float, t: float, z, g):
    """I = g_Y + (2w + 1)(w + 1), with z_Y = e^(-theta t) z, g_Y = e^(theta t) g
    and w = z_Y g_Y: constant, at 2 g_0^2, along each characteristic curve
    of gbm2's evolution equation from (z_0, g_0 = 1/(1 - z_0)) at t = 0."""
    g_y = math.exp(theta * t) * g
    w = math.exp(-theta * t) * z * g_y
    return g_y + (2.0 * w + 1.0) * (w + 1.0)


# -- Explosive model ---------------------------------------------------------

def blowup_time(k: float, a: float) -> float:
    """Finite horizon (a k)^(-2) at which the support's upper edge diverges:
    inf where (a k)^2 underflows a double, 0 where it overflows."""
    if k <= 0 or a <= 0:
        raise ValueError("k and a must be positive")
    ak2 = (a * k) * (a * k)
    return 1.0 / ak2 if ak2 > 0 else math.inf


def _check_blowup(k: float, a: float, t: float) -> None:
    if t > blowup_time(k, a) * (1.0 - BLOWUP_GUARD):
        raise PastBlowup(f"t={t} beyond the blow-up guard of {blowup_time(k, a)}")


def _support_ends(k: float, a: float, t: float):
    """The support ends z_pm = a/(1 -/+ s)^2, s = a k sqrt(t), as (nearest
    double, remainder) pairs.  Their offsets from a are formed in 50-digit
    decimal arithmetic, so each pair resolves its end far below an ulp, also
    for a support narrower than an ulp of a."""
    _check_blowup(k, a, t)
    with localcontext() as ctx:
        ctx.prec = 50
        a_ = Decimal(a)
        s = a_ * Decimal(k) * Decimal(t).sqrt()
        ends = []
        for off in (-a_ * s * (2 + s) / (1 + s) ** 2, a_ * s * (2 - s) / (1 - s) ** 2):
            near = float(a_ + off)
            ends.append((near, float(a_ - Decimal(near) + off)))
    return ends


def explosive_support(k: float, a: float, t: float) -> SupportInterval:
    """Support [a/(1+s)^2, a/(1-s)^2], s = a k sqrt(t), the reciprocal of the
    semicircle support of X^(-1), with each end correctly rounded."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    (lo, _), (hi, _) = _support_ends(k, a, t)
    return SupportInterval(lo, hi)


def explosive_cauchy(k: float, a: float, t: float, z):
    """Transform of the explosive model as the reciprocal of a semicircle.

    By the free Ito rule Y = X^(-1) solves dY = -k dW + k^2 a dt, so Y is a
    semicircle of centre m = 1/a + a k^2 t and variance v = k^2 t, and
    g_X(z) = -(1 + w g_Y(w))/z at w = 1/z.  The result is the Herglotz root
    of the model's quadratic functional equation

        k^2 t z^3 g^2 + (z/a - 1 + (a + 2z) z k^2 t) g + 1/a + (z + a) k^2 t = 0.

    Clearing the 1/z gives g = (4 v z / q + 2 m) / q with q = 1 - m z + sigma,
    where sigma^2 = (1 - z/z_-)(1 - z/z_+) over the support ends z_pm and
    sigma(0) = 1.  sigma is the product of the principal roots of z - z_pm
    over -sqrt(z_- z_+) = -a/(1 - a^2 k^2 t): analytic off the support, free
    of cancellation near z = 0 and near the blow-up time, and, for real z
    inside the support, the boundary value from above.  z - z_pm is taken
    against the ends to twice double precision (``_support_ends``), so the
    cut is exact at the edge nodes of a grid and for a support narrower
    than an ulp of a.  q = 2 at z = 0 gives g(0) = E(Y) = m exactly.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    (lo, lo_rest), (hi, hi_rest) = _support_ends(k, a, t)
    zarr = np.asarray(z, dtype=complex)
    if t == 0.0:
        out = 1.0 / (a - zarr)
        return out if np.ndim(z) else complex(out)
    v = k * k * t
    m = 1.0 / a + a * k * k * t
    sigma = (np.sqrt(zarr - lo - lo_rest) * np.sqrt(zarr - hi - hi_rest)
             / (-math.sqrt(lo) * math.sqrt(hi)))
    # 1 - m z, written so that it does not cancel at z = a
    q = np.where(zarr == 0, 2.0, sigma - (zarr - a) / a - a * v * zarr)
    g = (4.0 * v * zarr / q + 2.0 * m) / q
    return g if np.ndim(z) else complex(g)


def explosive_density(k: float, a: float, t: float, x):
    """Closed-form density on [z_-, z_+], zero outside.

    In the scaled variables tau = k^2 a^2 t and xi = x/a the density of the
    scaled operator is sqrt(-(1-tau)^2 xi^2 + 2(1+tau) xi - 1) / (2 pi xi^3 tau);
    the returned value includes the 1/a change-of-variables factor.  As
    tau -> 1 this approaches sqrt(4 xi - 1) / (2 pi xi^3) on [1/4, inf).
    The discriminant, which cancels at small tau, is evaluated as
    (1-tau)^2 (x - z_-)(z_+ - x) / a^2 against ``_support_ends``.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    (lo, lo_rest), (hi, hi_rest) = _support_ends(k, a, t)
    tau = (a * k) ** 2 * t
    x = np.asarray(x, dtype=float)
    disc = (1.0 - tau) ** 2 * ((x - lo) - lo_rest) * ((hi - x) + hi_rest) / (a * a)
    inside = disc > 0.0
    xi = np.where(inside, x / a, 1.0)
    val = np.sqrt(np.where(inside, disc, 0.0)) / (2.0 * math.pi * xi ** 3 * tau) / a
    out = np.where(inside, val, 0.0)
    return out if np.ndim(x) else float(out)


# -- readers of the model record ---------------------------------------------

def cauchy_evaluator(spec: ModelSpec):
    """The model's transform g(t, z); a config error where none is known."""
    if spec.cauchy is None:
        raise InvalidConfig(f"no transform is available for model '{spec.tag}'; "
                            "only its moments are known in closed form")
    return spec.cauchy
