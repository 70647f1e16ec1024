"""Moment-level free Ito calculus: Catalan numbers, Wigner-process moments,
the power identity for free stochastic integrals, and readers of each
model's moment laws.

The even moments of the Wigner process are Catalan: E[W_t^(2k)] = C_k t^k.
Taking expectations in the expansion of W_a^n as iterated free integrals
yields the identity checked by ``verify_power_identity``:

    E[W_a^n] = sum_{k=0}^{n/2-1} (n - 2k - 1) C_k * integral_0^a E[W_t^(n-2k-2)] t^k dt,

since the free stochastic integral itself has zero expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OddOrder, OrderTooHigh, Overflow
from .models import ModelSpec

CATALAN_MAX = 30


def catalan(k: int) -> int:
    """k-th Catalan number C_k = binom(2k, k) / (k + 1)."""
    if k < 0 or k != int(k):
        raise ValueError("order must be a nonnegative integer")
    if k > CATALAN_MAX:
        raise Overflow(f"Catalan order {k} > {CATALAN_MAX}")
    return math.comb(2 * k, k) // (k + 1)


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
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2

    @property
    def std_over_mean(self) -> float:
        """Dispersion ratio; nan at a zero mean (ou), where it is undefined."""
        return math.sqrt(max(self.variance, 0.0)) / self.mean if self.mean else math.nan


def model_moments(spec: ModelSpec, t: float) -> MomentSequence:
    """Order-1 and order-2 moments of a model at time t (see its ``moments``)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return MomentSequence(t, *spec.moments(t))
