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

from .cauchy import CauchyEvaluator, SupportInterval, semicircle_cauchy
from .characteristics import MomentFunction, Polynomial
from .errors import (
    BranchViolation,
    InvalidConfig,
    NewtonDiverged,
    PastBlowup,
)
from .rmt import psd_factor

_MEPS = float(np.finfo(float).eps)

# Relative guard band below the blow-up time; queries beyond are refused.
BLOWUP_GUARD = 1e-9

# Most time steps of the gbm1 Newton continuation.  With the default step of
# 0.05 its horizon is t = 50, and a call costs at most 1000 Newton solves.
GBM_MAX_SWEEPS = 1000


class ModelSpec:
    """A model dX = a(X) dt + b(X) dW c(X): a frozen dataclass of its
    parameters that carries every model-specific fact.

    ``tag`` names it in configs and flags; X_0 = ``x0`` I; ``mc_horizon`` is
    the latest Monte Carlo t_end without ``allow_near_blowup``.
    ``moments(t)`` gives the mean and second moment, ``support(t)`` the
    spectral support, ``transform()`` the Cauchy-transform evaluator (or
    None), ``polynomials()`` the drift a(x) and noise product (b c)(x).
    ``euler_increment(x, dt, dw, m, t, diag)`` writes x + a(x) dt + b(x) dw
    c(x) for one matrix or an (..., N, N) stack into ``m``, with ``t`` as
    scratch and gbm1 square-root clamps added to ``diag``; see
    ``rmt._apply_increment``, which symmetrizes it.
    """

    mc_horizon = math.inf

    def moment_function(self) -> MomentFunction:
        """Both moment orders as a (j, t) handle for the evolution equations."""
        return MomentFunction(lambda j, t: self.moments(t)[j - 1], jmax=2)


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

    def transform(self):
        return CauchyEvaluator(lambda t, z: ou_cauchy(self.theta, self.sigma, t, z),
                               name=self.tag)

    def polynomials(self):
        return Polynomial([0.0, self.theta]), Polynomial([self.sigma])

    def euler_increment(self, x, dt, dw, m, t, diag):
        np.multiply(x, 1.0 + self.theta * dt, out=m)
        m += np.multiply(dw, self.sigma, out=t)


@dataclass(frozen=True)
class GeometricBrownian1(ModelSpec):
    """dX = theta X dt + X^(1/2) dW X^(1/2), X_0 = I."""
    theta: float

    tag = "gbm1"
    x0 = 1.0

    def moments(self, t):
        """E(X) = e^(theta t) and E(X^2) = (t+1) e^(2 theta t)."""
        return (math.exp(self.theta * t),
                (t + 1.0) * math.exp(2.0 * self.theta * t))

    def support(self, t):
        return gbm_support(self.theta, t) if t > 0 else SupportInterval(1.0, 1.0)

    def transform(self):
        return CauchyEvaluator(lambda t, z: gbm_cauchy(self.theta, t, z), name=self.tag)

    def polynomials(self):
        return Polynomial([0.0, self.theta]), Polynomial([0.0, 1.0])

    def euler_increment(self, x, dt, dw, m, t, diag):
        factor, clamp = psd_factor(x)
        if diag is not None:
            diags = [diag] if x.ndim == 2 else diag
            for d, c in zip(diags, np.reshape(clamp, -1)):
                d.clamp_total += float(c)
        np.matmul(factor, dw, out=m)
        np.matmul(m, factor.swapaxes(-1, -2), out=t)
        np.multiply(x, 1.0 + self.theta * dt, out=m)
        m += t


@dataclass(frozen=True)
class GeometricBrownian2(ModelSpec):
    """dX = theta X dt + X dW + dW X, X_0 = I.  Moments only; no transform."""
    theta: float

    tag = "gbm2"
    x0 = 1.0

    def moments(self, t):
        return gbm2_moments(self.theta, t)

    def support(self, t):
        raise InvalidConfig(
            "support of the second geometric-Brownian variant is not known in closed form")

    def transform(self):
        return None

    def polynomials(self):
        raise InvalidConfig("second geometric-Brownian variant has no single b*c product")

    def euler_increment(self, x, dt, dw, m, t, diag):
        np.multiply(x, 1.0 + self.theta * dt, out=m)
        m += np.matmul(x, dw, out=t)
        m += np.matmul(dw, x, out=t)


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
        """0.9 of the blow-up time: finite-N paths diverge close to it."""
        return 0.9 * blowup_time(self.k, self.a)

    def moments(self, t):
        """E(X) = a and E(X^2) = a^2/(1 - tau), tau = a^2 k^2 t: the second
        moment diverges at the blow-up time tau = 1."""
        _check_blowup(self.k, self.a, t)
        return self.a, self.a ** 2 / (1.0 - (self.a * self.k) ** 2 * t)

    def moment_function(self):
        """The constant mean alone: the degree-2 noise product needs no more."""
        return MomentFunction(lambda j, t: self.a, jmax=1)

    def support(self, t):
        return explosive_support(self.k, self.a, t)

    def transform(self):
        horizon = blowup_time(self.k, self.a) * (1.0 - BLOWUP_GUARD)
        return CauchyEvaluator(lambda t, z: explosive_cauchy(self.k, self.a, t, z),
                               t_max=horizon, name=self.tag)

    def polynomials(self):
        return Polynomial([]), Polynomial([0.0, 0.0, self.k])

    def euler_increment(self, x, dt, dw, m, t, diag):
        np.matmul(x, dw, out=m)
        np.matmul(m, x, out=t)
        t *= self.k
        np.add(x, t, out=m)


MODELS = {cls.tag: cls for cls in
          (OrnsteinUhlenbeck, GeometricBrownian1, GeometricBrownian2, Explosive)}


def model_from_json(d: dict) -> ModelSpec:
    """Parse {"model": tag, ...params}; unknown fields are rejected."""
    if not isinstance(d, dict) or "model" not in d:
        raise InvalidConfig("model object needs a 'model' tag")
    tag = d["model"]
    cls = MODELS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise InvalidConfig(f"unknown model '{tag}' (expected one of {sorted(MODELS)})")
    fields = [f.name for f in dataclasses.fields(cls)]
    extra = set(d) - {"model", *fields}
    if extra:
        raise InvalidConfig(f"unknown fields for model '{tag}': {sorted(extra)}")
    missing = [f for f in fields if f not in d]
    if missing:
        raise InvalidConfig(f"model '{tag}' missing fields: {missing}")
    try:
        params = {f: float(d[f]) for f in fields}
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"bad parameter for model '{tag}': {exc}") from exc
    if not all(map(math.isfinite, params.values())):
        raise InvalidConfig(f"parameters of model '{tag}' must be finite: {params}")
    return cls(**params)


def model_to_json(spec: ModelSpec) -> dict:
    return {"model": spec.tag, **dataclasses.asdict(spec)}


# -- Ornstein-Uhlenbeck ------------------------------------------------------

def ou_variance(theta: float, sigma: float, t: float) -> float:
    """Variance sigma^2 (e^(2 theta t) - 1) / (2 theta), with the theta->0 limit."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if abs(theta * t) < 1e-8:
        return sigma * sigma * t
    return sigma * sigma * math.expm1(2.0 * theta * t) / (2.0 * theta)


def ou_support(theta: float, sigma: float, t: float) -> SupportInterval:
    """Semicircle support [-r, r] with r = 2 sqrt(variance): the cut of
    ``ou_cauchy``, growing like e^(theta t) for theta > 0, like sqrt(t) for
    theta = 0, and saturating at sigma * sqrt(2/|theta|) for theta < 0.
    """
    r = 2.0 * math.sqrt(ou_variance(theta, sigma, t))
    return SupportInterval(-r, r)


def ou_cauchy(theta: float, sigma: float, t: float, z):
    """Semicircle transform with the time-dependent variance of the process.

    Solves v g^2 + z g + 1 = 0 on the Herglotz branch, where v is the
    variance at time t; the degenerate v = 0 start returns -1/z (point mass
    at the origin).  Real z inside the support gets the boundary value with
    Im g > 0, so Im g / pi is the semicircle density there.
    """
    out = semicircle_cauchy(z, ou_variance(theta, sigma, t))
    return out if np.ndim(z) else complex(out)


# -- Geometric Brownian I ----------------------------------------------------

def gbm_support(theta: float, t: float) -> SupportInterval:
    """Support endpoints from the branch points of the transform.

    The products r = z*g at the branch points solve t r^2 + t r - 1 = 0;
    plugging each root into z = r/(1+r) * e^((theta-1-r) t) gives the
    endpoints.  The lower one stays strictly positive for all t > 0.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    alpha = theta - 1.0
    s = math.sqrt(1.0 + 4.0 / t)
    ends = []
    for r in ((-1.0 + s) / 2.0, (-1.0 - s) / 2.0):
        ends.append(r / (1.0 + r) * math.exp((alpha - r) * t))
    return SupportInterval(min(ends), max(ends))


def _gbm_residual(alpha: float, t: float, z, g):
    return z + 1.0 / g - np.exp((alpha - z * g) * t)


def _gbm_newton(alpha: float, t: float, z, g, tol: float,
                max_iter: int = 200, max_halvings: int = 8):
    """Vectorized damped Newton on F(g) = z + 1/g - e^((alpha - z g) t).

    The full step is tried first; only a step that worsens |F| (or leaves
    the finite range) is halved, at most ``max_halvings`` times, after which
    the full step is kept anyway: Newton's path near a fold is not
    |F|-monotone, and the final residual check is the actual gate.  The
    per-point tolerance has an ulp floor proportional to |z| because the
    residual subtracts terms of that size.
    """
    g = g.copy()
    tol_v = np.maximum(tol, 8.0 * _MEPS * np.abs(z))
    F = _gbm_residual(alpha, t, z, g)
    for _ in range(max_iter):
        act = np.abs(F) > tol_v
        if not np.any(act):
            return g, True
        za, ga, Fa = z[act], g[act], F[act]
        E = np.exp((alpha - za * ga) * t)
        dF = -1.0 / ga ** 2 + za * t * E
        step = Fa / dF
        cand = ga - step
        Fc = _gbm_residual(alpha, t, za, cand)
        retry = ~(np.abs(Fc) <= np.abs(Fa)) | ~np.isfinite(Fc)
        if np.any(retry):
            lam = np.ones(step.shape)
            for _ in range(max_halvings):
                lam = np.where(retry, lam / 2.0, lam)
                trial = ga - lam * step
                Ft = _gbm_residual(alpha, t, za, trial)
                improved = (np.abs(Ft) < np.abs(Fa)) & np.isfinite(Ft)
                take = retry & (improved | ~np.isfinite(Fc))
                cand = np.where(take, trial, cand)
                Fc = np.where(take, Ft, Fc)
                retry = retry & ~improved
                if not np.any(retry):
                    break
        g[act], F[act] = cand, Fc
    return g, bool(not np.any(np.abs(F) > tol_v))


def gbm_cauchy(theta: float, t: float, z, tol: float = 1e-12,
               dt_max: float = 0.05, y_safe: float = 0.5):
    """Transform of the first geometric-Brownian variant by Newton continuation.

    Starts from the exact t = 0 transform 1/(1 - z) and advances in time
    steps of at most ``dt_max``, reseeding Newton from the previous solution;
    a t that needs more than ``GBM_MAX_SWEEPS`` steps is refused.
    The time sweep runs at Im z lifted to at least ``y_safe`` (the solution
    is analytic on the upper half plane, while branch points move along the
    real axis); afterwards Im z is lowered geometrically to the query height.
    Every accepted point satisfies the functional-equation residual bound
    and the Herglotz branch condition.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    alpha = theta - 1.0
    zin = np.asarray(z, dtype=complex)
    zf = zin.ravel()
    if t == 0.0:
        out = 1.0 / (1.0 - zf)
        return (out.reshape(zin.shape) if np.ndim(z) else complex(out[0]))
    n_steps = int(math.ceil(t / dt_max))
    if n_steps > GBM_MAX_SWEEPS:
        raise NewtonDiverged(
            f"t={t:g} is past the continuation horizon t={GBM_MAX_SWEEPS * dt_max:g} "
            f"({GBM_MAX_SWEEPS} time steps of at most {dt_max:g})")
    y_lift = np.maximum(zf.imag, y_safe)
    zl = zf.real + 1j * y_lift
    g = 1.0 / (1.0 - zl)
    for i in range(1, n_steps + 1):
        g, ok = _gbm_newton(alpha, t * i / n_steps, zl, g, tol)
        if not ok:
            raise NewtonDiverged(f"continuation stalled at t={t * i / n_steps:.4g}")
    y = y_lift.copy()
    target = zf.imag
    while np.any(y > target):
        # geometric descent, jumping to the target height (possibly the real
        # axis itself) once within the 1e-14 floor
        y = np.where(y / 2.0 <= np.maximum(target, 1e-14), target, y / 2.0)
        zl = zf.real + 1j * y
        g, ok = _gbm_newton(alpha, t, zl, g, tol)
        if not ok:
            raise NewtonDiverged(f"descent stalled at Im z={y.min():.3g}")
    upper = zf.imag > 0
    if np.any(upper & (g.imag <= 0)):
        raise BranchViolation("converged root leaves the upper half plane")
    return g.reshape(zin.shape) if np.ndim(z) else complex(g[0])


# -- Geometric Brownian II ---------------------------------------------------

def gbm2_moments(theta: float, t: float) -> tuple[float, float]:
    """Mean e^(theta t) and second moment 2 e^(2(theta+1) t) - e^(2 theta t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(theta * t), 2.0 * math.exp(2.0 * (theta + 1.0) * t) - math.exp(2.0 * theta * t)


def gbm2_std_over_mean(t: float) -> float:
    """Ratio of standard deviation to mean: sqrt(2 (e^(2t) - 1)), theta-free."""
    return math.sqrt(2.0 * math.expm1(2.0 * t))


# -- Explosive model ---------------------------------------------------------

def blowup_time(k: float, a: float) -> float:
    """Finite horizon (a k)^(-2) at which the support's upper edge diverges."""
    if k <= 0 or a <= 0:
        raise ValueError("k and a must be positive")
    return 1.0 / (a * k) ** 2


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
    """
    if t <= 0:
        raise ValueError("t must be positive")
    _check_blowup(k, a, t)
    tau = (a * k) ** 2 * t
    xi = np.asarray(x, dtype=float) / a
    disc = -((1.0 - tau) ** 2) * xi * xi + 2.0 * (1.0 + tau) * xi - 1.0
    inside = disc > 0.0
    xi_safe = np.where(inside, xi, 1.0)
    val = np.sqrt(np.where(inside, disc, 0.0)) / (2.0 * math.pi * xi_safe ** 3 * tau) / a
    out = np.where(inside, val, 0.0)
    return out if np.ndim(x) else float(out)


# -- readers of the model record ---------------------------------------------

def cauchy_evaluator(spec: ModelSpec) -> CauchyEvaluator:
    """The model's transform as an immutable evaluator handle."""
    evaluator = spec.transform()
    if evaluator is None:
        raise InvalidConfig(f"no transform is available for model '{spec.tag}'; "
                            "only its moments are known in closed form")
    return evaluator
