"""Independent Bayes-factor oracle used by the test suite.

Fixed-grid trapezoid quadrature of the marginal likelihood under a
half-Cauchy effect prior, with the noncentral t density taken from
scipy.stats (the package's own density is an authored series, so the two
routes share no code).

The density is evaluated exactly on a 20 001-node coarse grid and extended
to the declared 1 000 001-node integration grid by cubic-spline
interpolation; 1 000 randomly chosen fine nodes per call are re-checked
against the exact density to confirm the fill is faithful (observed relative
error is around 1e-13, asserted below 1e-8).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.stats import cauchy, nct, t as t_dist

COARSE_NODES = 20_001
FINE_NODES = 1_000_001
SPOT_CHECKS = 1_000
SPOT_RTOL = 1e-8


# Deterministic (the spot checks draw from a fixed seed), so a grid that two
# tests share is computed once per test session.
@functools.cache
def oracle_bf10_a_less(t: float, n: int, prior_scale: float = 0.707) -> float:
    """BF10 for the alternative mean(b - a) > 0, fixed-grid quadrature."""
    df = n - 1
    sqrt_n = math.sqrt(n)
    # integration window: the likelihood peaks near delta = t / sqrt(n) with
    # width on the order of sqrt(1 + t^2 / (2 df)) / sqrt(n); 45 widths out,
    # the integrand is far below double precision
    width = math.sqrt(1.0 + t * t / (2.0 * df))
    hi = (abs(t) + 45.0 * width) / sqrt_n + 6.0 * prior_scale

    coarse = np.linspace(0.0, hi, COARSE_NODES)
    dens_coarse = nct.pdf(t, df, coarse * sqrt_n)
    spline = CubicSpline(coarse, dens_coarse)

    fine = np.linspace(0.0, hi, FINE_NODES)
    dens_fine = spline(fine)

    rng = np.random.default_rng(20250817)
    probe = rng.integers(0, FINE_NODES, size=SPOT_CHECKS)
    exact = nct.pdf(t, df, fine[probe] * sqrt_n)
    scale_floor = max(float(np.max(dens_coarse)), 1e-300)
    err = np.abs(dens_fine[probe] - exact) / np.maximum(np.abs(exact), scale_floor * 1e-12)
    assert float(np.max(err)) < SPOT_RTOL, "spline fill drifted from the exact density"

    integrand = dens_fine * 2.0 * cauchy.pdf(fine, loc=0.0, scale=prior_scale)
    m1 = float(np.trapezoid(integrand, fine))
    m0 = float(t_dist.pdf(t, df))
    return m1 / m0
