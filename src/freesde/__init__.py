"""Spectral dynamics of free stochastic differential equations.

Library layout; each name is imported from the module that defines it:

- ``cauchy``: density curves, Stieltjes inversion, principal-value Hilbert
  transform, density moments, free Fokker-Planck residual, semicircle
  closed forms.
- ``characteristics``: reduction of resolvent expectations by polynomial
  difference quotients, the quasilinear evolution equation for g(t, z),
  RK4 integration of its characteristics, interpolation on the surface.
- ``models``: one record per worked model (Ornstein-Uhlenbeck, two
  geometric-Brownian variants, and the finite-time explosive model) with
  its moment laws, support, Cauchy transform, density curve, SDE
  polynomials and Monte Carlo step, plus the closed-form transforms,
  supports, densities and blow-up time behind them.
- ``moments``: Catalan numbers, Wigner-process moments, the free power
  identity, and readers of each model's moment laws.
- ``rmt``: finite-N symmetric-matrix Monte Carlo oracle with eigenvalue
  histograms and Kolmogorov distances.
- ``cli``: the ``freesde`` command.
- ``errors``: the exception hierarchy, rooted at ``FreeSdeError``.
"""

__version__ = "0.1.0"
