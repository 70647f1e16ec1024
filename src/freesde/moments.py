"""Moment-level free Ito calculus: Catalan numbers, Wigner-process moments,
the power identity for free stochastic integrals, and per-model moment laws.

The even moments of the Wigner process are Catalan: E[W_t^(2k)] = C_k t^k.
Taking expectations in the expansion of W_a^n as iterated free integrals
yields the identity checked by ``verify_power_identity``:

    E[W_a^n] = sum_{k=0}^{n/2-1} (n - 2k - 1) C_k * integral_0^a E[W_t^(n-2k-2)] t^k dt,

since the free stochastic integral itself has zero expectation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from scipy.integrate import quad

from .characteristics import MomentFunction
from .errors import OddOrder, OrderTooHigh, Overflow
from .models import (
    Explosive,
    GeometricBrownian1,
    GeometricBrownian2,
    ModelSpec,
    OrnsteinUhlenbeck,
    explosive_density,
    explosive_support,
    gbm2_moments,
    ou_variance,
)

CATALAN_MAX = 30

_catalan_cache = [1]


def catalan(k: int) -> int:
    """k-th Catalan number by the convolution recurrence C_{n+1} = sum C_i C_{n-i}."""
    if k < 0 or k != int(k):
        raise ValueError("order must be a nonnegative integer")
    if k > CATALAN_MAX:
        raise Overflow(f"Catalan order {k} > {CATALAN_MAX}")
    while len(_catalan_cache) <= k:
        n = len(_catalan_cache) - 1
        _catalan_cache.append(
            sum(_catalan_cache[i] * _catalan_cache[n - i] for i in range(n + 1)))
    return _catalan_cache[k]


def wigner_moment(t: float, n: int) -> float:
    """E[W_t^n]: zero for odd n, C_{n/2} t^{n/2} for even n (n <= 60)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n < 0 or n != int(n):
        raise ValueError("order must be a nonnegative integer")
    if n > 2 * CATALAN_MAX:
        raise Overflow(f"moment order {n} > {2 * CATALAN_MAX}")
    if n % 2:
        return 0.0
    return float(catalan(n // 2)) * t ** (n // 2)


def verify_power_identity(n: int, a: float) -> float:
    """Residual of the expectation form of the power identity (exact arithmetic).

    Both sides are polynomials in the horizon a with rational coefficients;
    the time integrals are carried out exactly, so a correct identity gives
    a residual of zero up to the final float conversion.
    """
    if n % 2:
        raise OddOrder(f"power identity needs an even order, got {n}")
    if not 2 <= n <= 12:
        raise OrderTooHigh(f"order {n} outside the checked range [2, 12]")
    p = n // 2
    af = Fraction(a)
    lhs = catalan(p) * af ** p
    rhs = Fraction(0)
    for k in range(p):
        m = n - 2 * k - 2  # power of W_t left inside the integral
        rhs += (n - 2 * k - 1) * catalan(k) * catalan(m // 2) * af ** p / p
    return float(abs(lhs - rhs))


@dataclass(frozen=True)
class MomentSequence:
    """Orders 0..2 of E(X_t^j) at one time; order 0 is identically 1."""

    t: float
    mean: float
    second_moment: float

    @property
    def values(self) -> tuple[float, float, float]:
        return (1.0, self.mean, self.second_moment)

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2

    @property
    def std_over_mean(self) -> float:
        return math.sqrt(max(self.variance, 0.0)) / self.mean


def _explosive_second_moment(k: float, a: float, t: float) -> float:
    """Second moment by adaptive quadrature of the closed-form density.

    No closed form is known; the integral diverges as t approaches the
    blow-up time, which is warned about near the horizon.
    """
    tau = (a * k) ** 2 * t
    if tau > 0.9:
        warnings.warn("explosive second moment diverges toward the blow-up time; "
                      f"tau={tau:.3f} is in the unreliable band", RuntimeWarning)
    sup = explosive_support(k, a, t)
    val, _ = quad(lambda x: x * x * explosive_density(k, a, t, x),
                  sup.lo, sup.hi, limit=200)
    return float(val)


def model_moments(spec: ModelSpec, t: float) -> MomentSequence:
    """Order-1 and order-2 moments of each model at time t.

    Ornstein-Uhlenbeck is centered with the process variance; the first
    geometric variant has E(X) = e^(theta t), E(X^2) = (t+1) e^(2 theta t);
    the second has E(X^2) = 2 e^(2(theta+1) t) - e^(2 theta t); the explosive
    model keeps E(X) = a while its second moment comes from quadrature.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if isinstance(spec, OrnsteinUhlenbeck):
        return MomentSequence(t, 0.0, ou_variance(spec.theta, spec.sigma, t))
    if isinstance(spec, GeometricBrownian1):
        return MomentSequence(t, math.exp(spec.theta * t),
                              (t + 1.0) * math.exp(2.0 * spec.theta * t))
    if isinstance(spec, GeometricBrownian2):
        mean, second = gbm2_moments(spec.theta, t)
        return MomentSequence(t, mean, second)
    if isinstance(spec, Explosive):
        if t == 0.0:
            return MomentSequence(t, spec.a, spec.a ** 2)
        return MomentSequence(t, spec.a,
                              _explosive_second_moment(spec.k, spec.a, t))
    raise TypeError(f"not a model spec: {spec!r}")


def model_moment_function(spec: ModelSpec) -> MomentFunction:
    """Moments as a (j, t) handle for assembling evolution equations.

    The explosive model exposes only its constant mean (its noise product
    has degree 2, which is all the reduction needs); the others expose both
    closed-form orders.
    """
    if isinstance(spec, Explosive):
        return MomentFunction(lambda j, t: spec.a, jmax=1)

    def fn(j: int, t: float) -> float:
        ms = model_moments(spec, t)
        return ms.values[j]

    return MomentFunction(fn, jmax=2)


def moments_csv(spec: ModelSpec, times) -> str:
    """CSV report t,mean,second_moment,variance for the given times."""
    lines = ["t,mean,second_moment,variance"]
    for t in times:
        ms = model_moments(spec, float(t))
        lines.append(",".join("%.17g" % v
                              for v in (ms.t, ms.mean, ms.second_moment, ms.variance)))
    return "\n".join(lines) + "\n"
