"""Spectral dynamics of free stochastic differential equations.

Library layout:

- ``cauchy``: density curves, Stieltjes inversion, principal-value Hilbert
  transform, free Fokker-Planck residual, semicircle closed forms.
- ``characteristics``: reduction of polynomial-coefficient evolution
  equations to quasilinear form and RK4 integration of their characteristics.
- ``models``: one record per worked model (Ornstein-Uhlenbeck, two
  geometric-Brownian variants, and the finite-time explosive model) with
  its moments, support, Cauchy transform ``cauchy(t, z)``, SDE polynomials
  and Monte Carlo step, plus the closed-form transforms, supports, and
  densities behind them.
- ``moments``: Catalan numbers, Wigner-process moments, the free power
  identity, and readers of each model's moment laws.
- ``rmt``: finite-N symmetric-matrix Monte Carlo oracle with eigenvalue
  histograms and Kolmogorov distances.
- ``cli``: the ``freesde`` command.
"""

from .cauchy import (
    DensityCurve,
    SupportInterval,
    density_moment,
    fokker_planck_residual,
    hilbert_transform,
    semicircle_cauchy,
    semicircle_cdf,
    semicircle_density,
    stieltjes_invert,
)
from .characteristics import (
    CharacteristicSurface,
    MomentFunction,
    PdeRightHandSide,
    Polynomial,
    build_pde,
    divided_difference_expand,
    evaluate_on_surface,
    integrate_characteristics,
    reduce_resolvent_expectation,
)
from .models import (
    Explosive,
    GeometricBrownian1,
    GeometricBrownian2,
    ModelSpec,
    OrnsteinUhlenbeck,
    blowup_time,
    cauchy_evaluator,
    explosive_cauchy,
    explosive_density,
    explosive_support,
    gbm2_moments,
    gbm_boundary,
    gbm_cauchy,
    gbm_support,
    model_from_json,
    model_to_json,
    ou_cauchy,
    ou_euler_law,
    ou_support,
    ou_variance,
)
from .moments import (
    MomentSequence,
    catalan,
    model_moments,
    verify_power_identity,
    wigner_moment,
)
from .rmt import (
    EigenHistogram,
    SimConfig,
    euler_step,
    kolmogorov_distance,
    picard_solve,
    run_ensemble,
    sample_wigner_increment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
