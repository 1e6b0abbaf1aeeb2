"""Bayesian paired comparisons: directional t-tests and Bayes factors.

The comparison of two paired score columns ``a`` and ``b`` works on the
differences ``d = b - a``.  The directional alternative "a < b" therefore
claims a positive mean difference, "a > b" a negative one.  Given the
standardized effect ``delta``, the observed t statistic follows a noncentral
t distribution with ``nu = n - 1`` degrees of freedom and noncentrality
``delta * sqrt(n)``.  The null is the point effect zero; the alternative puts
a Cauchy prior of scale ``r`` (0.707 by default) on ``delta``, truncated to
the claimed direction and renormalized.

The Bayes factor is one integral over the prior variance ``g`` of the effect.
The Cauchy prior is a scale mixture of normals, ``delta | g ~ N(0, g)`` with
``g ~ InvGamma(1/2, r^2/2)`` (Rouder, Speckman, Sun, Morey & Iverson 2009,
"Bayesian t tests for accepting and rejecting the null hypothesis",
*Psychon. Bull. Rev.* 16:225, eq. 1).  Given ``g``, the numerator of t is the
unit-variance sampling noise plus ``delta * sqrt(n)``: a normal of variance
``omega^2 = 1 + n g`` for the two-sided prior, and a skew-normal of shape
``+-sqrt(n g)`` for a half-normal effect.  Dividing by the independent
chi-square denominator, t given ``g`` is a scaled Student t or a scaled
Azzalini skew-t (Azzalini & Capitanio 2003, "Distributions generated by
perturbation of symmetry with emphasis on a multivariate skew t-distribution",
*J. R. Stat. Soc. B* 65:367).  With ``z = t / omega``:

    bf10 = integral over g > 0 of
           prior(g) * t_nu(z) / omega * S(g) / t_nu(t)  dg

    S(g) = 2 * T_{nu+1}(s * sqrt(n g) * z * sqrt((nu + 1) / (nu + z^2)))

where ``t_nu`` and ``T_nu`` are the Student t density and distribution
function and ``s`` is +1 for "a < b", -1 for "a > b" and 0 for two-sided
(``S = 1``, and ``T_nu`` is never evaluated).  Every direction takes the
same code path.  ``S`` is a tail probability computed directly, never the
log of a distribution function, so the opposed direction cannot cancel.
Its degrees of freedom ``nu + 1 = n`` are an integer, and up to
_SERIES_MAX_DF of them ``T_n`` has a finite form of non-negative terms.
Where its argument is non-negative that is the series of Abramowitz &
Stegun 26.7.3-4, of ``n/2`` terms whose sum is at least 1/2.  Below zero
the series would give a small tail as a difference of numbers near 1; at
even ``n = 2k`` the tail is instead Beta(k, k)'s distribution function, a
binomial tail of ``k`` positive terms (Abramowitz & Stegun 26.5.24).  Odd
``n`` below zero, and every ``n`` past the cap, call ``stdtr``.  The
p-values call ``stdtr`` too, except at one degree of freedom, where
``T_1(x) = 1/2 + atan(x) / pi`` is taken in closed form.

The integral is taken in ``x = g / split``, where ``split = max(t^2/n,
r^2, 1e-6)`` lies near the integrand's peak.  ``x`` in [0, 1] is cut at a
geometric grid from ``r^2 / (4 split)`` to 1 and at three points below that
grid; ``x >= 1`` is integrated in ``s = 1/x`` on (0, 1], where the integrand
is smooth up to ``s = 0``.  Each piece gets QUADPACK's 21-point Gauss-Kronrod rule
(Piessens et al. 1983, *QUADPACK*, dqk21), evaluated on numpy arrays.  The
columns of one comparison (the total and each domain) are integrated
together, each piece tagged with its column: in a round, one evaluation of
``S`` covers every node of every column.  A piece's error estimate is
dqk21's: ``|K21 - G10|``, scaled by how far the integrand strays from its
mean over the piece, and never below 50 machine epsilons times the piece's
integral.  Each column converges on its own: rounds bisect every piece whose
estimate exceeds its equal share of ``1e-9 * |value|`` of its column, until
the column's estimates sum below that, within a budget of pieces per column;
the reported relative error is that sum over the value.  A column's result,
or its failure, is the one it has when integrated alone.  On ordinary inputs
the first round converges and the estimate reads about 1e-14, the floor.

:func:`nct_logpdf` is an authored noncentral t log-density, kept as a public
building block; the Bayes factor does not use it.  It integrates the defining
mixture over the chi-square denominator on the same adaptive GK21 rule, in
the log of the mixing variable about its closed-form peak, where the log of
the integrand over its peak forms no difference of large numbers at any input.

The evidence-band labels and the star notation read one table of the
conventional BF10 break points (3, 10, 30, 100), each with one ``bisect``.
Note the deliberate asymmetry: bands close their lower edge
(``bisect_right``), while stars are strict (``bisect_left``).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import stdtr

from .jsonio import ErrandlabError

DEFAULT_PRIOR_SCALE = 0.707

# largest natural log a Bayes factor may have and still be a finite double
_LOG_MAX = math.log(sys.float_info.max)

# the grid in g that locates the integrand's peak and breaks the quadrature
# below the split: at most _MAX_GRID_STEPS steps of _GRID_STEP in log g
_GRID_STEP = 0.5
_MAX_GRID_STEPS = 100
# break points below the grid, as fractions of its lowest point
_BELOW_GRID = np.array((0.125, 0.25, 0.5))

# the adaptive rule's target relative error, and its subinterval budget
_EPSREL = 1e-9
_MAX_INTERVALS = 300

# the skew factor's distribution function is a finite sum of at most df/2
# terms up to this many degrees of freedom, on both halves; past it one call
# over a first round's 840 nodes costs more than stdtr: the upper half's
# series from about df 260-290, the lower half's binomial tail from 290-300
_SERIES_MAX_DF = 250

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (dqk21): the Kronrod
# nodes and weights for x >= 0 in falling order, and the weights of the
# 10-point Gauss rule on the odd-numbered nodes it shares
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208796457187, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1:10:2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
# the same rule over all 21 nodes, from -1 to 1
_NODES = np.concatenate((-_XGK[:10], _XGK[::-1]))
_KRONROD = np.concatenate((_WGK[:10], _WGK[::-1]))
_GAUSS = np.concatenate((_WG[:10], _WG[::-1]))


class Direction(str, Enum):
    A_LESS = "less"  # alternative: a < b, i.e. mean(b - a) > 0
    A_GREATER = "greater"  # alternative: a > b
    TWO_SIDED = "two-sided"


# sign of the effect each alternative claims; 0 leaves the prior symmetric
_SKEW_SIGN = {Direction.A_LESS: 1.0, Direction.A_GREATER: -1.0,
              Direction.TWO_SIDED: 0.0}


class DegenerateSample(Exception):
    """All differences are equal; the t statistic is undefined."""


class IntegrationFailure(ErrandlabError):
    """The adaptive integrator could not reach the required accuracy."""
    exit_code = 1


# ---------------------------------------------------------------------------
# Authored noncentral t log-density


# 1/k!, k = 13 to 2: u - expm1(u) = -u^2 (1/2! + u/3! + ...) where |u| < 1/4
_EXPM1_SERIES = tuple(1.0 / math.factorial(k) for k in range(13, 1, -1))


def _u_minus_expm1(u):
    """``u - expm1(u)`` of a float or an array, by its series where it cancels."""
    series = 0.0
    for coefficient in _EXPM1_SERIES:
        series = series * u + coefficient
    return np.where(np.abs(u) < 0.25, -u * u * series, u - np.expm1(u))


# far from its peak the integrand's log overflows to -inf, and its exp to 0
@np.errstate(over="ignore")
def nct_logpdf(x: float, df: float, nc: float) -> float:
    """Log density of the noncentral t distribution at ``x``.

    Exact reflection symmetry holds by construction:
    ``nct_logpdf(-x, df, -nc) == nct_logpdf(x, df, nc)``.
    """
    if not (math.isfinite(x) and math.isfinite(nc)):
        raise ValueError("x and nc must be finite")
    if not (math.isfinite(df) and df > 0):
        raise ValueError("df must be positive and finite")
    # The density is C times the integral over u = log s of s^c exp(h(s)),
    # h(s) = -(x s - nc)^2 / 2 - df s^2 / 2, c = df + 1, with C = 2 m^m /
    # (Gamma(m) sqrt(2 pi)) and m = df / 2.  Its peak solves (x^2 + df) s^2
    # - x nc s = c: in t = q s, q = hypot(x, sqrt(df)), the positive root of
    # t^2 - beta t - c.  Each form of the root adds terms of one sign
    c = df + 1.0
    q = math.hypot(x, math.sqrt(df))
    xi = x / q
    beta = xi * nc
    half = math.hypot(0.5 * beta, math.sqrt(c))
    t = 0.5 * beta + half if beta >= 0.0 else c / (half - 0.5 * beta)
    log_s = math.log(t / q) if 1e-300 < t / q < 1e300 else math.log(t) - math.log(q)
    d = xi * t - nc  # x s - nc
    # log C and the log integrand at the peak, with df (log s - s^2 / 2) as
    # m (v - expm1(v)) - m, v = 2 log s, and m log m - m - lgamma(m) by
    # Stirling's series from m = 30, so that no terms of size df cancel
    m = 0.5 * df
    log_m = math.log(df) - math.log(2.0)
    if m < 30.0:  # lgamma(m) = lgamma(m + 1) - log m, as m may round to 0
        gap = (m + 1.0) * log_m - m - math.lgamma(m + 1.0)
    else:
        y = 1.0 / (m * m)
        gap = (0.5 * (log_m - math.log(2.0 * math.pi))
               - (1 / 12 - y * (1 / 360 - y * (1 / 1260 - y / 1680))) / m)
    log_peak = (0.5 * math.log(2.0 / math.pi) + gap + log_s - 0.5 * (d * d)
                + 0.5 * (df * float(_u_minus_expm1(2.0 * log_s))))
    if log_peak == -math.inf:  # below double range
        return -math.inf
    # The log integrand over its peak is c (u - expm1(u)) - (t expm1(u))^2 / 2,
    # where u is log s less its peak's: in [-inf, 0], curvature c + t^2 at 0.  It
    # is integrated in z = u sqrt(c + t^2), cut at -24, -21, ..., 9.  It is
    # below -z^2 / 2 past z = 9, -z^2 / (2 e^2) from u = -1 to 0, and c (u + 1)
    # below u = -1; so the first piece starts at z = -25, or at u = -1 - 46 / c
    # if that is further and the curvature is below 25^2
    root_a = math.hypot(math.sqrt(c), t)
    lowest = 25.0 if root_a >= 25.0 else max(25.0, (1.0 + 46.0 / c) * root_a)
    edges = np.concatenate(([-lowest], np.arange(-24.0, 10.0, 3.0)))

    def integrand(z: np.ndarray, col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = z / root_a
        te = t * np.expm1(u)
        return np.exp(c * _u_minus_expm1(u) - 0.5 * (te * te)), np.ones(len(z), dtype=bool)

    [value], _, _ = _adaptive_gk21(integrand, edges[:-1], edges[1:],
                                   np.zeros(len(edges) - 1, dtype=int), "")
    return log_peak - math.log(root_a) + math.log(value)


# ---------------------------------------------------------------------------
# Paired t


@dataclass(frozen=True)
class PairedSample:
    """Two paired measurement tuples; differences are taken as b - a.  The
    pairs are checked when made, as every comparison checks its columns
    (:func:`_checked_differences`): a fault is a ``ValueError``."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        _checked_differences({"": (self.a, self.b)})


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float
    direction: Direction


def _t_statistic(d: Sequence[float]) -> Optional[float]:
    """The t statistic of paired differences, or None when they are all
    equal."""
    n = len(d)
    if d.count(d[0]) == n:  # fsum(d) / n need not give back c for n copies of c
        return None
    try:
        mean = math.fsum(d) / n
        var = math.fsum((x - mean) ** 2 for x in d) / (n - 1)
        if 0.0 < var < math.inf:
            t = mean * math.sqrt(n) / math.sqrt(var)
            if math.isfinite(t):
                return t
    except OverflowError:  # a square, or a sum, past double range
        pass
    # Past double range, or squares below it: scaling the differences by a
    # power of two leaves every bit of t unchanged (short of subnormals), and
    # below 2**400 they are in range, so this recursion ends at once.
    shift = 400 - math.frexp(max(map(abs, d)))[1]
    return _t_statistic([math.ldexp(x, shift) for x in d])


def _t_cdf_one_df(x: float) -> float:
    """Student t's distribution function with one degree of freedom, in
    closed form; below zero as ``atan2(1, |x|) / pi``, with no difference."""
    if x < 0.0:
        return math.atan2(1.0, -x) / math.pi
    return 0.5 + math.atan(x) / math.pi


def _p_values(ts: Sequence[float], df: int, direction: Direction) -> list[float]:
    """The direction-matched p of each t statistic, from one ``stdtr`` call,
    or in closed form at one degree of freedom, where ``stdtr`` is off near
    zero."""
    ts = np.asarray(ts, dtype=float)
    sign = _SKEW_SIGN[direction]
    x = -sign * ts if sign else -np.abs(ts)
    p = list(map(_t_cdf_one_df, x.tolist())) if df == 1 else stdtr(df, x).tolist()
    return p if sign else [2.0 * value for value in p]


def paired_t(sample: PairedSample, direction: Direction = Direction.A_LESS) -> TTestResult:
    """Paired t statistic on d = b - a with a direction-matched p-value.

    Raises :class:`DegenerateSample` when the differences have zero
    variance.
    """
    direction = Direction(direction)
    [d] = _checked_differences({"": (sample.a, sample.b)}).values()
    t = _t_statistic(d)
    if t is None:
        raise DegenerateSample("all paired differences are identical")
    df = len(sample.a) - 1
    [p] = _p_values([t], df, direction)
    return TTestResult(t=t, df=df, p=p, direction=direction)


# ---------------------------------------------------------------------------
# Bayes factor


def _gk21(f, lo: np.ndarray, hi: np.ndarray,
          col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK21 estimates of the integral of a non-negative ``f`` over each
    [lo, hi], their QUADPACK error estimates, and whether ``f`` was in range
    at every node.  ``f(u, col)`` maps nodes, one row per interval, and each
    interval's column to the values there and to that flag per row."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values, in_range = f(center[:, None] + half[:, None] * _NODES, col)
    # row sums by einsum, not @: a BLAS product can round a row differently
    # with the number of rows, and no column may depend on the others
    kronrod = np.einsum("ij,j->i", values, _KRONROD)
    error = np.abs(kronrod - np.einsum("ij,j->i", values, _GAUSS))
    # dqk21 scales |K - G| by how far f strays from its mean, and floors the
    # result at 50 eps times the integral of |f|, which is K here
    spread = np.einsum("ij,j->i", np.abs(values - 0.5 * kronrod[:, None]), _KRONROD)
    scaled = spread * np.minimum(
        1.0, (200.0 * error / np.where(spread > 0.0, spread, 1.0)) ** 1.5)
    error = np.maximum(np.where(spread > 0.0, scaled, error),
                       50.0 * sys.float_info.epsilon * kronrod)
    return kronrod * half, error * half, in_range


def _adaptive_gk21(f, lo: np.ndarray, hi: np.ndarray, col: np.ndarray,
                   out_of_range: str) -> tuple[np.ndarray, np.ndarray, list[Optional[str]]]:
    """The integrals of non-negative integrands, one per column, over the
    intervals [lo, hi] of their column ``col`` (0, 1, ...), the integrals'
    error estimates, and each column's failure message or None.

    Each column is refined to a relative error of _EPSREL on its own: each
    round bisects, all at once, every interval of an unconverged column whose
    error estimate exceeds its equal share of that column's allowed error.
    A column fails with ``out_of_range`` once ``f`` is out of range on one of
    its intervals, or past _MAX_INTERVALS intervals, and is then left as it
    is.  A column whose value is NaN counts as converged, for the caller.
    """
    columns = int(col.max()) + 1
    failures: list[Optional[str]] = [None] * columns
    refining = np.ones(columns, dtype=bool)
    parts, errors, in_range = _gk21(f, lo, hi, col)
    new_col = col
    while True:
        if not in_range.all():
            for j in np.unique(new_col[~in_range]):
                failures[j] = out_of_range
                refining[j] = False
        value = np.bincount(col, parts, columns)
        error = np.bincount(col, errors, columns)
        refining &= error > _EPSREL * value
        if not refining.any():
            return value, error, failures
        intervals = np.bincount(col, minlength=columns)
        bisect = refining[col] & (errors > (_EPSREL * value / intervals)[col])
        grown = intervals + np.bincount(col[bisect], minlength=columns)
        for j in np.flatnonzero(refining & (grown > _MAX_INTERVALS)):
            failures[j] = (
                f"quadrature did not converge: {error[j] / value[j]:.3e} relative "
                f"error left after {intervals[j]} subintervals")
            refining[j] = False
            bisect &= col != j
        if not bisect.any():
            return value, error, failures
        keep = ~bisect
        mid = 0.5 * (lo[bisect] + hi[bisect])
        new_lo = np.concatenate((lo[bisect], mid))
        new_hi = np.concatenate((mid, hi[bisect]))
        new_col = np.concatenate((col[bisect], col[bisect]))
        new_parts, new_errors, in_range = _gk21(f, new_lo, new_hi, new_col)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        col = np.concatenate((col[keep], new_col))
        parts = np.concatenate((parts[keep], new_parts))
        errors = np.concatenate((errors[keep], new_errors))


@functools.cache
def _series_coefficients(m: int) -> tuple[float, ...]:
    """The coefficients of the power series in cos^2 of Student t's
    distribution function with ``m`` degrees of freedom, highest power first:
    ``(2k - 1) / 2k`` ratios for even ``m``, ``2k / (2k + 1)`` for odd."""
    coefficients = [1.0] if m > 1 else []
    for k in range(1, m // 2):
        ratio = (2 * k - 1) / (2 * k) if m % 2 == 0 else 2 * k / (2 * k + 1)
        coefficients.append(coefficients[-1] * ratio)
    return tuple(reversed(coefficients))


def _t_cdf_upper(m: int, w: np.ndarray) -> np.ndarray:
    """Student t's distribution function with integer ``m >= 1`` degrees of
    freedom at each ``w >= 0``, by the finite series of Abramowitz & Stegun
    26.7.3-4 in ``theta = atan2(w, sqrt(m))``.  Every term is non-negative and
    the value is at least 1/2, so its rounding error is relative."""
    root_m = math.sqrt(m)
    radius = np.hypot(w, root_m)  # no w^2 to overflow
    sin = w / radius
    cos = root_m / radius
    y = cos * cos
    series = np.zeros_like(w)
    for coefficient in _series_coefficients(m):
        series *= y
        series += coefficient
    series *= sin
    if m % 2:
        series *= cos
        series += np.arctan2(w, root_m)
        series *= 2.0 / math.pi
    series += 1.0
    series *= 0.5
    return series


@functools.cache
def _binomial_tail_terms(k: int) -> tuple[float, tuple[float, ...]]:
    """``log C(2k - 1, k)`` and the ratios ``C(2k - 1, k + j) / C(2k - 1, k)``
    for ``j < k``, highest ``j`` first: the terms of Beta(k, k)'s
    distribution function as a binomial tail."""
    ratios = [1.0]
    for j in range(1, k):
        ratios.append(ratios[-1] * (k - j) / (k + j))
    return math.log(math.comb(2 * k - 1, k)), tuple(reversed(ratios))


def _t_cdf_lower(m: int, w: np.ndarray) -> np.ndarray:
    """Student t's distribution function with even ``m = 2k`` degrees of
    freedom at each ``w < 0``.  There ``p = (1 - |w| / sqrt(m + w^2)) / 2`` is
    Beta(k, k)-distributed, and its distribution function is the binomial
    tail (Abramowitz & Stegun 26.5.24)

        C(2k - 1, k) p^k q^(k-1) * sum over j < k of
            C(2k - 1, k + j) / C(2k - 1, k) * (p / q)^j,  q = 1 - p,

    whose terms are all positive, so its rounding error is relative: about
    ``|log T|`` machine epsilons, from the prefactor's exp."""
    k = m // 2
    log_choose, ratios = _binomial_tail_terms(k)
    radius = np.hypot(w, math.sqrt(m))  # no w^2 to overflow
    # 1 - |w| / r = m / (r (r + |w|)), with no difference of numbers near 1
    p = k / radius
    p /= radius + np.abs(w)
    q = 1.0 - p
    ratio = p / q
    series = np.zeros_like(w)
    for coefficient in ratios:
        series *= ratio
        series += coefficient
    # the prefactor as the exp of a log sum: p^k alone underflows while the
    # value is still a normal double.  p is 0 only far below that
    with np.errstate(divide="ignore"):
        log_prefactor = np.log(p)
    log_prefactor *= k
    log_prefactor += (k - 1) * np.log(q)
    log_prefactor += log_choose
    series *= np.exp(log_prefactor)
    return series


def _t_cdf(m: int, w: np.ndarray) -> np.ndarray:
    """Student t's distribution function with integer ``m`` degrees of freedom
    at each ``w``.  Up to _SERIES_MAX_DF, the finite series where ``w >= 0``,
    and the binomial tail where ``w < 0`` and ``m`` is even; ``stdtr``
    elsewhere: odd ``m``'s lower tail has an arctan term and no finite
    positive-term form.  Each value's branch is chosen by its own ``w``, so
    no value depends on the others."""
    if m > _SERIES_MAX_DF:
        return stdtr(m, w)
    lower = stdtr if m % 2 else _t_cdf_lower
    upper = w >= 0.0
    if upper.all():
        return _t_cdf_upper(m, w)
    if not upper.any():
        return lower(m, w)
    values = np.empty_like(w)
    values[~upper] = lower(m, w[~upper])
    values[upper] = _t_cdf_upper(m, w[upper])
    return values


# the integrand is evaluated quietly near the edge of double range: a value
# that overflows there fails a check below, and no warning escapes
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _bf10_columns(ts: Sequence[float], n: int, prior_scale: float,
                  direction: Direction) -> list[tuple[float, float]]:
    """BF10 and the integrator's relative error estimate for each paired t
    statistic in ``ts`` (at least one), all of ``n`` pairs, integrated
    together.

    Each column's result, or failure, is the one it would have alone; the
    :class:`IntegrationFailure` raised is that of the first failing column.
    A column fails before its integral if t^2 / n or its one-sided tail is
    outside double range; it is then integrated at t = 0, so that the column
    arrays stay whole, and each column's failure, early or from its
    integral, is raised from one loop over the results.
    """
    if not all(map(math.isfinite, ts)):
        raise ValueError("t must be finite")
    # an int or a numpy integer, read as an int; a float or a str is refused
    n = operator.index(n) if hasattr(type(n), "__index__") else 0
    if n < 2:
        raise ValueError("n must be an integer of at least 2")
    if not (math.isfinite(prior_scale) and prior_scale > 0):
        raise ValueError("prior_scale must be positive")
    # the integral over g described in the module docstring
    sign = _SKEW_SIGN[direction]
    nu = n - 1.0
    r2 = prior_scale * prior_scale
    if not sys.float_info.min <= r2 <= sys.float_info.max:
        raise IntegrationFailure(
            f"prior_scale = {prior_scale:g} squared is outside the normal double range")
    t = np.array(ts, dtype=float)
    # the skew factor moves monotonically in g towards this limit, which is
    # its smallest value in the opposed direction; a limit below the normal
    # double range would leave subnormal, imprecise tail values.  Two-sided,
    # there is no skew factor, and the limit is 2 stdtr(nu + 1, 0) = 1
    tail_limit = (2.0 * stdtr(nu + 1.0, sign * t * math.sqrt((nu + 1.0) / nu)) if sign
                  else np.ones_like(t))
    # each column's failure before its integral, or None
    early = [f"t = {column_t:g} is beyond double range" if not math.isfinite(square)
             else f"the one-sided tail at t = {column_t:g} is below double range"
             if limit < sys.float_info.min else None
             for column_t, square, limit in zip(ts, t * t / n, tail_limit)]
    t[[failure is not None for failure in early]] = 0.0
    # the smooth factor peaks in [r^2/4, max(t^2/n, r^2/3)], so this split
    # keeps the adaptive rule from stepping over the mass near the peak
    split = np.maximum(np.maximum(t * t / n, r2), 1e-6)

    # t_nu(z) / t_nu(t) = ((nu + z^2) / (nu + t^2))^-(nu+1)/2, and that ratio
    # is b + a / omega^2 = 1 - a n g / omega^2 with a + b = 1.  Its log is
    # taken from the sum of positive terms when a is near 1, and through
    # log1p when a is small, where the ratio is near 1 and the power large
    a = t * t / (nu + t * t)
    b = nu / (nu + t * t)
    log_norm = math.log(prior_scale) - 0.5 * math.log(2.0 * math.pi)

    def log_smooth(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a and b are those of each g's column
        ng = n * g
        omega2 = 1.0 + ng
        log_ratio = np.where(a > 0.5, np.log(b + a / omega2),
                             np.log1p(-a * ng / omega2))
        return (log_norm - 1.5 * np.log(g) - 0.5 * r2 / g
                - 0.5 * np.log(omega2) - 0.5 * (nu + 1.0) * log_ratio)

    # each column's geometric grid x = g / split over [r^2/4 / split, 1]; its
    # integrand is evaluated relative to the peak of its smooth factor there,
    # and the skew factor lies in [0, 2], so no value can overflow
    grids = []
    for column_split in split:
        span = math.log(column_split) - math.log(0.25 * r2)
        steps = min(int(span / _GRID_STEP) + 1, _MAX_GRID_STEPS)
        grids.append(np.exp(-span / steps * np.arange(steps, -1, -1)))
    sizes = [len(grid) for grid in grids]
    grid_col = np.repeat(np.arange(len(t)), sizes)
    peak = np.maximum.reduceat(
        log_smooth(split[grid_col] * np.concatenate(grids), a[grid_col], b[grid_col]),
        np.cumsum([0] + sizes[:-1]))
    columns = np.array((split, t, a, b, peak))
    limit_ng = 0.5 * sys.float_info.max / n

    def integrand(u: np.ndarray, col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the split, t, a, b and peak of each node's column
        split, t, a, b, peak = columns[:, col, None]
        # u < 1 is x itself; u > 1 is s = 1/x = 2 - u, with dx = ds / s^2
        upper = u > 1.0
        x = np.where(upper, 1.0 / (2.0 - u), u)
        ng = n * split * x
        values = np.exp(log_smooth(split * x, a, b) - peak) * np.where(upper, x * x, 1.0)
        if sign:
            # the skew factor at integer df n: a finite sum of positive
            # terms on each node, or stdtr (see _t_cdf)
            z = t / np.sqrt(1.0 + ng)
            values *= 2.0 * _t_cdf(n, sign * z * np.sqrt(ng * (nu + 1.0) / (nu + z * z)))
        # n g (nu + 1) above must be finite, and n g in log_smooth, which
        # rounds its own product; past that the integral would lose mass
        return values, np.all(ng <= limit_ng, axis=1)

    # the grid's points break [0, 1], and so do three more below it, where
    # the prior's exp(-r^2 / 2g) falls from e^-2 to e^-16 and the rule would
    # otherwise bisect; [1, 2] in u is all of x >= 1.  Near the edge of
    # double range n g overflows in the peak's grid too, quietly: the
    # integrand is then out of range on its first call
    edges = [np.concatenate(([0.0], grid[0] * _BELOW_GRID, grid, [2.0]))
             for grid in grids]
    value, error, failures = _adaptive_gk21(
        integrand, np.concatenate([e[:-1] for e in edges]),
        np.concatenate([e[1:] for e in edges]),
        np.repeat(np.arange(len(t)), [size + 4 for size in sizes]),
        f"prior_scale = {prior_scale:g} is too large for n = {n}: "
        f"n g overflows in the integral")
    results = []
    for j, failure in enumerate(failures):
        if early[j] or failure:
            raise IntegrationFailure(early[j] or failure)
        if value[j] <= 0.0 or not math.isfinite(value[j]):
            raise IntegrationFailure("alternative marginal is not positive")
        log_bf = float(peak[j]) + math.log(split[j]) + math.log(value[j])
        if log_bf > _LOG_MAX:
            raise IntegrationFailure(
                f"bf10 = exp({log_bf:.6g}) is beyond double range")
        rel_err = float(error[j] / value[j])
        if not math.isfinite(rel_err) or rel_err > 1e-6:
            raise IntegrationFailure(
                f"relative error {rel_err:.3e} exceeds 1e-6")
        results.append((math.exp(log_bf), rel_err))
    return results


def bf10_directional(t: float, n: int, prior_scale: float = DEFAULT_PRIOR_SCALE,
                     direction: Direction = Direction.A_LESS) -> float:
    """BF10 for a paired t statistic under a truncated Cauchy effect prior.

    ``n`` is the number of pairs; the sampling density uses ``n - 1``
    degrees of freedom and noncentrality ``delta * sqrt(n)``.  Raises
    :class:`IntegrationFailure` if the integral cannot be trusted to a
    relative error of 1e-6.
    """
    value, _ = bf10_directional_with_error(t, n, prior_scale, direction)
    return value


def bf10_directional_with_error(
        t: float, n: int, prior_scale: float = DEFAULT_PRIOR_SCALE,
        direction: Direction = Direction.A_LESS) -> tuple[float, float]:
    """BF10 plus the integrator's relative error estimate."""
    [result] = _bf10_columns((t,), n, prior_scale, Direction(direction))
    return result


# ---------------------------------------------------------------------------
# Evidence labels


class EvidenceBand(str, Enum):
    NONE = "None"
    ANECDOTAL = "Anecdotal"
    MODERATE = "Moderate"
    STRONG = "Strong"
    VERY_STRONG = "VeryStrong"
    EXTREME = "Extreme"


# bands close their lower edge; stars, from 10 up, are strict
_BF10_EDGES = (3.0, 10.0, 30.0, 100.0)
_BANDS_ABOVE_ONE = tuple(EvidenceBand)[1:]  # one per interval of the edges


def _checked_bf10(bf10: float) -> float:
    if not math.isfinite(bf10) or bf10 <= 0:
        raise ValueError("bf10 must be a positive finite number")
    return bf10


def classify_evidence(bf10: float) -> EvidenceBand:
    """Band a BF10 value: <=1 none, then (1,3), [3,10), [10,30), [30,100), >=100."""
    if _checked_bf10(bf10) <= 1.0:
        return EvidenceBand.NONE
    return _BANDS_ABOVE_ONE[bisect_right(_BF10_EDGES, bf10)]


def evidence_stars(bf10: float) -> str:
    """Footnote stars, strict thresholds: * >10, ** >30, *** >100."""
    return "*" * bisect_left(_BF10_EDGES[1:], _checked_bf10(bf10))


# ---------------------------------------------------------------------------
# Whole comparisons


@dataclass(frozen=True)
class BayesComparison:
    label: str
    direction: Direction
    n: int
    t: float
    df: int
    p: float
    bf10: float
    bf10_rel_err: float
    band: EvidenceBand
    stars: str
    prior_scale: float


def compare_paired(a: Sequence[float], b: Sequence[float], *,
                   direction: Direction = Direction.A_LESS,
                   prior_scale: float = DEFAULT_PRIOR_SCALE,
                   label: str = "") -> BayesComparison:
    """Full paired comparison: t, direction-matched p, BF10, band, stars.

    Raises :class:`DegenerateSample` when the differences have zero
    variance.
    """
    comparison = compare_paired_columns(
        {label: (a, b)}, direction=direction, prior_scale=prior_scale)[label]
    if comparison is None:
        raise DegenerateSample("all paired differences are identical")
    return comparison


def compare_paired_columns(
        columns: Mapping[str, tuple[Sequence[float], Sequence[float]]], *,
        direction: Direction = Direction.A_LESS,
        prior_scale: float = DEFAULT_PRIOR_SCALE) -> dict[str, Optional[BayesComparison]]:
    """:func:`compare_paired` for each labelled ``(a, b)`` column of the same
    pairs, or None for a column whose differences are all equal.

    Each column in turn is converted and checked, so that the first fault
    raises its own ``ValueError``.  The Bayes factors of all columns are
    integrated together, and each keeps its own error estimate.  Raises the
    :class:`IntegrationFailure` of the first column whose Bayes factor fails.
    """
    direction = Direction(direction)
    differences = _checked_differences(columns)
    ts: dict[str, float] = {}
    for label, d in differences.items():
        t = _t_statistic(d)
        if t is not None:
            ts[label] = t
    comparisons: dict[str, Optional[BayesComparison]] = dict.fromkeys(differences)
    if not ts:
        return comparisons
    n = len(next(iter(differences.values())))
    ps = _p_values(list(ts.values()), n - 1, direction)
    factors = _bf10_columns(list(ts.values()), n, prior_scale, direction)
    for (label, t), p, (bf10, rel_err) in zip(ts.items(), ps, factors):
        comparisons[label] = BayesComparison(
            label=label, direction=direction, n=n, t=t, df=n - 1, p=p,
            bf10=bf10, bf10_rel_err=rel_err, band=classify_evidence(bf10),
            stars=evidence_stars(bf10), prior_scale=prior_scale)
    return comparisons


def _checked_differences(
        columns: Mapping[str, tuple[Sequence[float], Sequence[float]]]) -> dict[str, list[float]]:
    """b - a of each column, checked column by column, so that the first
    fault raises its own ``ValueError``: the one check of paired values."""
    differences = {}
    # a b - a that is not finite is looked into here, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for label, (a, b) in columns.items():
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            if a.ndim != 1 or b.ndim != 1:
                raise ValueError("paired samples must be one-dimensional")
            if len(a) != len(b):
                raise ValueError("paired samples must have equal lengths")
            if len(a) < 2:
                raise ValueError("paired samples need at least two pairs")
            d = b - a
            if not np.isfinite(d).all():  # b - a is finite only if a and b are
                if not (np.isfinite(a).all() and np.isfinite(b).all()):
                    raise ValueError("paired samples must be finite")
                # finite pairs past double range: halving is exact short of
                # the subnormals, and leaves t unchanged
                d = b / 2 - a / 2
            differences[label] = d.tolist()
    if len(set(map(len, differences.values()))) > 1:
        raise ValueError("paired columns must have the same number of pairs")
    return differences
