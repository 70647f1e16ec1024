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

from .cauchy import SupportInterval, semicircle_cauchy
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

# Iteration cap of the gbm1 Newton solve, and step halvings per iteration.
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30


class ModelSpec:
    """A model dX = a(X) dt + b(X) dW c(X): a frozen dataclass of its
    parameters that carries every model-specific fact.

    ``tag`` names it in configs and flags; X_0 = ``x0`` I; ``mc_horizon`` is
    the latest Monte Carlo t_end without ``allow_near_blowup``.
    ``moments(t)`` gives the mean and second moment, ``support(t)`` the
    spectral support, ``cauchy(t, z)`` the Cauchy transform (None where it
    is not known), ``polynomials()`` the drift a(x) and noise product (b c)(x).
    ``euler_increment(x, dt, dw, m, t)`` writes x + a(x) dt + b(x) dw c(x)
    for one matrix or an (..., N, N) stack into ``m``, with ``t`` as
    scratch, and returns gbm1's square-root clamp per matrix (else None);
    see ``rmt._apply_increment``, which symmetrizes it.  ``euler_segment(dt, k)``
    gives the Euler steps that one increment draw covers, out of the k left
    before the next snapshot, with the drift time and the noise time that
    ``euler_increment`` and the draw take for them.
    """

    mc_horizon = math.inf

    def euler_segment(self, dt, k):
        """One Euler step per draw: (1, dt, dt)."""
        return 1, dt, dt

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

    def cauchy(self, t, z):
        return ou_cauchy(self.theta, self.sigma, t, z)

    def polynomials(self):
        return Polynomial([0.0, self.theta]), Polynomial([self.sigma])

    def euler_increment(self, x, dt, dw, m, t):
        np.multiply(x, 1.0 + self.theta * dt, out=m)
        m += np.multiply(dw, self.sigma, out=t)

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

    def cauchy(self, t, z):
        return gbm_cauchy(self.theta, t, z)

    def polynomials(self):
        return Polynomial([0.0, self.theta]), Polynomial([0.0, 1.0])

    def euler_increment(self, x, dt, dw, m, t):
        factor, clamp = psd_factor(x)
        np.matmul(factor, dw, out=m)
        np.matmul(m, factor.swapaxes(-1, -2), out=t)
        np.multiply(x, 1.0 + self.theta * dt, out=m)
        m += t
        return clamp


@dataclass(frozen=True)
class GeometricBrownian2(ModelSpec):
    """dX = theta X dt + X dW + dW X, X_0 = I.  Moments only; no transform."""
    theta: float

    tag = "gbm2"
    x0 = 1.0
    cauchy = None

    def moments(self, t):
        return gbm2_moments(self.theta, t)

    def support(self, t):
        raise InvalidConfig(
            "support of the second geometric-Brownian variant is not known in closed form")

    def polynomials(self):
        raise InvalidConfig("second geometric-Brownian variant has no single b*c product")

    def euler_increment(self, x, dt, dw, m, t):
        # x and dw are exactly symmetric, so dw x = (x dw)^T: one product
        np.matmul(x, dw, out=t)
        np.multiply(x, 1.0 + self.theta * dt, out=m)
        m += t
        m += t.swapaxes(-1, -2)


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

    def cauchy(self, t, z):
        return explosive_cauchy(self.k, self.a, t, z)

    def polynomials(self):
        return Polynomial([]), Polynomial([0.0, 0.0, self.k])

    def euler_increment(self, x, dt, dw, m, t):
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
    s = math.sqrt(1.0 + 4.0 / t)
    ends = [r / (1.0 + r) * math.exp((theta - 1.0 - r) * t)
            for r in ((-1.0 + s) / 2.0, (-1.0 - s) / 2.0)]
    return SupportInterval(min(ends), max(ends))


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
