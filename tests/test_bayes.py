from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import random
import sys
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import stdtr

import errandlab.bayes
from errandlab.bayes import (
    BayesComparison,
    DEFAULT_PRIOR_SCALE,
    DegenerateSample,
    Direction,
    EvidenceBand,
    IntegrationFailure,
    PairedSample,
    bf10_directional,
    bf10_directional_with_error,
    classify_evidence,
    compare_paired,
    compare_paired_columns,
    evidence_stars,
    nct_logpdf,
    paired_t,
)
from oracle_bf import oracle_bf10_a_less


class TestPairedT:
    A = (10.0, 11.0, 9.0, 12.0, 10.0, 11.0)
    B = (11.0, 13.0, 12.0, 16.0, 12.0, 14.0)  # b - a = (1, 2, 3, 4, 2, 3)

    def test_statistic_against_high_precision_oracle(self):
        result = paired_t(PairedSample(self.A, self.B))
        with mpmath.workdps(50):
            d = [mpmath.mpf(b) - mpmath.mpf(a) for a, b in zip(self.A, self.B)]
            n = len(d)
            mean = mpmath.fsum(d) / n
            var = mpmath.fsum((x - mean) ** 2 for x in d) / (n - 1)
            expected = float(mean / mpmath.sqrt(var / n))
        assert result.t == pytest.approx(expected, abs=1e-9)
        assert result.df == 5

    def test_p_value_against_mpmath_tail_integral(self):
        # swapping the columns flips the sign of t, so every direction is
        # checked on both the near and the far tail
        with mpmath.workdps(40):
            df = mpmath.mpf(5)
            const = (mpmath.gamma((df + 1) / 2)
                     / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2)))
            pdf = lambda x: const * (1 + x * x / df) ** (-(df + 1) / 2)
            for a, b in ((self.A, self.B), (self.B, self.A)):
                for direction in Direction:
                    result = paired_t(PairedSample(a, b), direction)
                    upper = mpmath.quad(pdf, [result.t, mpmath.inf])
                    lower = mpmath.quad(pdf, [-mpmath.inf, result.t])
                    expected = float({
                        Direction.A_LESS: upper,
                        Direction.A_GREATER: lower,
                        Direction.TWO_SIDED: 2 * min(upper, lower),
                    }[direction])
                    assert result.p == pytest.approx(expected, rel=1e-9), (
                        result.t, direction)

    @pytest.mark.parametrize("magnitude", np.logspace(-300, 300, 61).tolist())
    def test_p_at_one_degree_of_freedom_matches_high_precision(self, monkeypatch, magnitude):
        # n = 2 pairs: p from T_1 in closed form, where scipy's stdtr is off
        # near 0.  No pair of samples has a t this small or large, so the
        # statistic is set, and the Bayes factor, which is not under test,
        # stubbed out
        monkeypatch.setattr(errandlab.bayes, "_bf10_columns",
                            lambda ts, n, prior_scale, direction: [(1.0, 0.0)] * len(ts))
        sample = PairedSample((0.0, 0.0), (1.0, 3.0))
        for t in (magnitude, -magnitude):
            monkeypatch.setattr(errandlab.bayes, "_t_statistic", lambda d, t=t: t)
            with mpmath.workdps(40):
                # P(T > |t|) from the Cauchy density 1 / (pi (1 + x^2)):
                # 1/2 less its integral over [0, |t|], or past 1 its integral
                # over [0, 1/|t|] in 1/x; either one scaled to [0, 1]
                w = mpmath.mpf(abs(t))
                s = w if w <= 1 else 1 / w
                part = s * mpmath.quad(lambda v: 1 / (mpmath.pi * (1 + (s * v) ** 2)), [0, 1])
                upper = 0.5 - part if w <= 1 else part
                # P(T < t) and P(T > t), the smaller one without a difference
                below, above = (upper, 1 - upper) if t < 0 else (1 - upper, upper)
                expected = {Direction.A_LESS: above, Direction.A_GREATER: below,
                            Direction.TWO_SIDED: 2 * upper}
            for direction in Direction:
                ref = float(expected[direction])
                from_sample = paired_t(sample, direction)
                [from_columns] = compare_paired_columns(
                    {"c": (sample.a, sample.b)}, direction=direction).values()
                for result in (from_sample, from_columns):
                    assert (result.t, result.df) == (t, 1)
                    assert abs(result.p - ref) <= 1e-15 * ref, (t, direction, result.p)

    def test_direction_changes_p_not_t(self):
        less = paired_t(PairedSample(self.A, self.B), Direction.A_LESS)
        greater = paired_t(PairedSample(self.A, self.B), Direction.A_GREATER)
        two = paired_t(PairedSample(self.A, self.B), Direction.TWO_SIDED)
        assert less.t == greater.t == two.t
        assert less.p + greater.p == pytest.approx(1.0)
        assert two.p == pytest.approx(2 * min(less.p, greater.p))

    @pytest.mark.parametrize("direction", list(Direction))
    def test_a_direction_given_by_its_value_picks_the_same_tail(self, direction):
        # p reads its tail from the table the Bayes factor reads, which a
        # Direction and its string value key alike
        sample = PairedSample(self.A, self.B)
        assert paired_t(sample, direction.value).p == paired_t(sample, direction).p

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            paired_t(PairedSample((1.0, 2.0, 3.0), (2.0, 3.0, 4.0)))

    # b - a is c in every pair, and a signed zero when c is one
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.lists(st.sampled_from((0.0, -0.0)), min_size=2, max_size=12))
    @example(0.1, [0.0] * 3)
    @example(0.7, [0.0] * 6)
    def test_equal_float_differences_are_degenerate(self, c, a):
        a, b = tuple(a), (c,) * len(a)
        with pytest.raises(DegenerateSample):
            paired_t(PairedSample(a, b))
        with pytest.raises(DegenerateSample):
            compare_paired(a, b)
        assert compare_paired_columns({"c": (a, b)}) == {"c": None}

    # (a, b, scale): pairs whose differences, or their squares, overflow or
    # underflow, and a power of two that brings them into the ordinary range
    @pytest.mark.parametrize("a, b, scale", [
        ((1e308, -1e308, 3.0), (-1e308, 1e308, 3.0), 2.0 ** -700),
        ((1e200, -1e200, 0.0), (-1e200, 1e200, 0.0), 2.0 ** -700),
        ((1e308, -1e308, 3.0), (-1e308, 1e308, 1e307), 2.0 ** -700),
        ((1e-200, 3e-201, 0.0), (-1e-200, 2e-200, 5e-201), 2.0 ** 700),
    ])
    def test_extreme_pairs_have_the_t_of_the_pairs_scaled(self, a, b, scale):
        scaled = PairedSample(tuple(x * scale for x in a), tuple(x * scale for x in b))
        expected = paired_t(scaled).t
        ts = [paired_t(PairedSample(a, b)).t, compare_paired(a, b).t,
              compare_paired_columns({"c": (a, b)})["c"].t]
        assert math.isfinite(expected)
        assert [t.hex() for t in ts] == [expected.hex()] * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PairedSample((1.0,), (2.0,))
        with pytest.raises(ValueError):
            PairedSample((1.0, 2.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            PairedSample((1.0, float("nan")), (2.0, 3.0))


# every public bayes function that takes a direction, called with the given one
_DIRECTED = {
    "paired_t": lambda d: paired_t(PairedSample((1, 2, 3), (2, 4, 7)), d),
    "bf10_directional": lambda d: bf10_directional(2.0, 10, direction=d),
    "bf10_directional_with_error": lambda d: bf10_directional_with_error(2.0, 10, direction=d),
    "compare_paired": lambda d: compare_paired((1, 2, 3), (2, 4, 7), direction=d),
    # every column degenerate, so that nothing else reads the direction
    "compare_paired_columns": lambda d: compare_paired_columns(
        {"x": ((1, 2, 3), (2, 3, 4))}, direction=d),
}


class TestDirectionArgument:
    def test_every_public_function_with_a_direction_is_covered(self):
        public = {name for name, value in vars(errandlab.bayes).items()
                  if not name.startswith("_") and inspect.isfunction(value)
                  and value.__module__ == errandlab.bayes.__name__
                  and "direction" in inspect.signature(value).parameters}
        assert public == set(_DIRECTED)

    @pytest.mark.parametrize("name", sorted(_DIRECTED))
    def test_a_bad_direction_names_the_valid_ones(self, name):
        with pytest.raises(ValueError, match="^'sideways' is not a valid Direction$"):
            _DIRECTED[name]("sideways")

    @pytest.mark.parametrize("name", sorted(_DIRECTED))
    def test_a_direction_given_by_its_value_is_the_direction(self, name):
        for direction in Direction:
            assert _DIRECTED[name](direction.value) == _DIRECTED[name](direction)

    def test_results_carry_the_direction_not_its_value(self):
        sample = PairedSample((1, 2, 3), (2, 4, 7))
        assert paired_t(sample, "greater").direction is Direction.A_GREATER
        assert compare_paired((1, 2, 3), (2, 4, 7),
                              direction="two-sided").direction is Direction.TWO_SIDED


class TestNoncentralTDensity:
    GRID_X = [-8.0, -3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0, 8.0]
    GRID_NC = [-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0]
    GRID_DF = [1.0, 5.0, 11.0, 24.0, 80.0]

    def test_matches_scipy_everywhere(self):
        for df in self.GRID_DF:
            for nc in self.GRID_NC:
                for x in self.GRID_X:
                    mine = math.exp(nct_logpdf(x, df, nc))
                    ref = stats.nct.pdf(x, df, nc)
                    assert mine == pytest.approx(ref, rel=1e-8), (x, df, nc)

    def test_wrong_tail_far_out(self):
        # x opposite in sign to a large noncentrality: the hard regime
        for x, nc in [(-4.0, 12.0), (-2.5, 20.0), (3.0, -15.0)]:
            mine = nct_logpdf(x, 10.0, nc)
            ref = stats.nct.logpdf(x, 10.0, nc)
            assert mine == pytest.approx(ref, rel=1e-7), (x, nc)

    def test_reflection_symmetry_is_exact(self):
        for x in (0.3, 1.7, 4.2):
            for nc in (0.9, 3.3):
                assert nct_logpdf(-x, 7.0, -nc) == nct_logpdf(x, 7.0, nc)

    def test_central_case_reduces_to_student_t(self):
        for x in self.GRID_X:
            for df in self.GRID_DF:
                assert nct_logpdf(x, df, 0.0) == pytest.approx(
                    stats.t.logpdf(x, df), rel=1e-12)

    def test_extreme_underflow_is_finite_or_neg_inf(self):
        value = nct_logpdf(-30.0, 5.0, 40.0)
        assert value == -math.inf or value < -700

    @pytest.mark.parametrize("x, nc", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_a_non_finite_x_or_nc_is_refused(self, x, nc):
        with pytest.raises(ValueError, match="^x and nc must be finite$"):
            nct_logpdf(x, 5.0, nc)

    @pytest.mark.parametrize("df", [0.0, -1.0, math.nan, math.inf])
    def test_df_must_be_positive_and_finite(self, df):
        with pytest.raises(ValueError, match="^df must be positive and finite$"):
            nct_logpdf(1.0, df, 1.0)

    @staticmethod
    def _mp_logpdf(x, df, nc, digits=40):
        # Closed form through Kummer's function 1F1, at 40 digits unless told
        # otherwise; it shares nothing with the integral over the mixture.
        # Where x nc < 0 its two terms cancel, so such points need many more
        # digits
        with mpmath.workdps(digits):
            x, df, nc = mpmath.mpf(x), mpmath.mpf(df), mpmath.mpf(nc)
            s = df + x * x
            z = nc * nc * x * x / (2 * s)
            log_front = (df / 2 * mpmath.log(df) + mpmath.loggamma(df + 1)
                         - nc * nc / 2 - df * mpmath.log(2)
                         - df / 2 * mpmath.log(s) - mpmath.loggamma(df / 2))
            odd = (mpmath.sqrt(2) * nc * x / s
                   * mpmath.hyp1f1(df / 2 + 1, mpmath.mpf(3) / 2, z)
                   / mpmath.gamma((df + 1) / 2))
            even = (mpmath.hyp1f1((df + 1) / 2, mpmath.mpf(1) / 2, z)
                    / (mpmath.sqrt(s) * mpmath.gamma(df / 2 + 1)))
            return float(log_front + mpmath.log(odd + even))

    @pytest.mark.parametrize("x, df, nc", [
        (100.0, 10.0, 1e3),   # |x nc| = 1e5, about 1e6 series terms
        (1e3, 10.0, 1e4),     # |x nc| = 1e7, about 1e8 series terms
        (1e4, 10.0, 1e3),     # |x nc| = 1e7, about 1e6 series terms
        (-1e3, 10.0, -1e4),   # reflection of the second point
        (10.0, 1e4, 10.0),    # df >> q: the largest term sits near sqrt(q df)
        (30.0, 1e6, 30.0),
    ])
    def test_large_arguments_match_high_precision(self, x, df, nc):
        assert nct_logpdf(x, df, nc) == pytest.approx(
            self._mp_logpdf(x, df, nc), rel=1e-8)

    @pytest.mark.parametrize("x, df, nc", [
        (1e3, 10.0, 1e4), (1e4, 10.0, 1e5), (1e6, 3.0, 1e6)])
    def test_memory_stays_bounded(self, x, df, nc):
        tracemalloc.start()
        try:
            value = nct_logpdf(x, df, nc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 10 * 2**20

    def test_product_underflow_reduces_to_student_t(self):
        # x * nc underflows to zero although neither factor is zero
        for x, nc in [(1e-200, 1e-200), (-1e-200, -1e-200), (5e-324, 1e-10)]:
            assert nct_logpdf(x, 5.0, nc) == pytest.approx(
                stats.t.logpdf(x, 5.0), rel=1e-12)

    @pytest.mark.parametrize("x, df, nc", [
        (-4.0, 0.3, 12.0), (-8.0, 1.0, 6.0), (3.0, 1.0, -15.0), (-2.5, 10.0, 20.0),
        (1e3, 10.0, 1e4),     # x s - nc at the peak is about 1e5 times below nc
        (30.0, 1e6, 30.0),    # the peak at s = 1 + 5e-7, with df = 1e6
    ])
    def test_opposite_signs_and_large_df_match_high_precision(self, x, df, nc):
        assert nct_logpdf(x, df, nc) == pytest.approx(
            self._mp_logpdf(x, df, nc, digits=120), rel=1e-12)

    @pytest.mark.parametrize("x, df, nc, expected", [
        # a 60-digit mpmath.quad of the defining integral over the mixture
        (1e200, 10.0, 1.0, -5050.967783244871),
        # x = nc -> inf at df = 10: nc / sqrt(V / df)'s density at nc,
        # 2 m^m e^-m / (Gamma(m) x) with m = df / 2
        (1e150, 10.0, 1e150,
         math.log(2.0) + 5.0 * math.log(5.0) - 5.0 - math.lgamma(5.0) - 150.0 * math.log(10.0)),
        # df -> inf: the unit normal about nc, at its mean
        (5.0, 1e300, 5.0, -0.5 * math.log(2.0 * math.pi)),
    ])
    def test_edge_of_double_range(self, x, df, nc, expected):
        assert nct_logpdf(x, df, nc) == pytest.approx(expected, rel=1e-12)

    def test_every_finite_input_has_a_log_density(self):
        # a log density, or -inf past double range: never an exception, a
        # numpy warning, NaN or +inf
        values = [0.0] + [sign * 10.0 ** k for k in (-300, -10, 0, 2, 10, 100, 300)
                          for sign in (1.0, -1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for df in (1e-300, 1e-8, 1.0, 10.0, 1e6, 1e100, 1e300):
                for x in values:
                    for nc in values:
                        value = nct_logpdf(x, df, nc)
                        assert not math.isnan(value) and value < math.inf, (x, df, nc)


class TestBayesFactor:
    def test_agrees_with_independent_oracle(self):
        for t in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
            for n in (12, 25):
                mine = bf10_directional(t, n, direction=Direction.A_LESS)
                ref = oracle_bf10_a_less(t, n)
                assert mine == pytest.approx(ref, rel=1e-6), (t, n)

    def test_reported_error_bound_is_honest(self):
        bf, rel_err = bf10_directional_with_error(2.5, 12)
        assert rel_err <= 1e-6
        assert bf == pytest.approx(oracle_bf10_a_less(2.5, 12), rel=1e-6)

    def test_less_and_greater_are_mirrors(self):
        for t in (-3.0, -0.7, 0.0, 1.2, 4.0):
            less = bf10_directional(t, 14, direction=Direction.A_LESS)
            greater = bf10_directional(-t, 14, direction=Direction.A_GREATER)
            assert less == pytest.approx(greater, rel=1e-9)

    def test_two_sided_is_average_of_one_sided(self):
        for t in (-2.0, 0.4, 3.1):
            less = bf10_directional(t, 17, direction=Direction.A_LESS)
            greater = bf10_directional(t, 17, direction=Direction.A_GREATER)
            two = bf10_directional(t, 17, direction=Direction.TWO_SIDED)
            assert two == pytest.approx((less + greater) / 2, rel=1e-9)

    def test_monotone_in_evidence_direction(self):
        values = [bf10_directional(t, 12, direction=Direction.A_LESS)
                  for t in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)]
        assert values == sorted(values)
        assert values[0] < 1.0 < values[-1]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bf10_directional(float("inf"), 12)
        with pytest.raises(ValueError):
            bf10_directional(1.0, 1)
        with pytest.raises(ValueError):
            bf10_directional(1.0, 12, prior_scale=0.0)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("function", [
        bf10_directional, lambda *args: bf10_directional_with_error(*args)[0]],
        ids=["bf10_directional", "bf10_directional_with_error"])
    def test_n_is_a_whole_number_of_pairs(self, function, direction):
        # a float, even a whole one, a string or a bool is refused before
        # the quadrature; a numpy integer is read as the int it holds
        for n in (10.0, 10.5, "10", None, True, 1, np.int64(1)):
            with pytest.raises(ValueError, match="^n must be an integer of at least 2$"):
                function(2.0, n, DEFAULT_PRIOR_SCALE, direction)
        assert function(2.0, np.int64(10), DEFAULT_PRIOR_SCALE, direction) == function(
            2.0, 10, DEFAULT_PRIOR_SCALE, direction)

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(min_value=-6, max_value=6, allow_nan=False),
           n=st.integers(min_value=3, max_value=40))
    @example(t=5e-324, n=3)
    def test_all_directions_positive_and_finite(self, t, n):
        for direction in Direction:
            bf = bf10_directional(t, n, direction=direction)
            assert math.isfinite(bf) and bf > 0

    def test_beyond_double_range_raises_integration_failure(self):
        # bf10 near exp(1300), a t whose square overflows, and a one-sided
        # tail probability below the smallest normal double
        for t, n in [(1e4, 200), (-1e4, 200), (1e200, 5), (45.0, 5000)]:
            for direction in Direction:
                with pytest.raises(IntegrationFailure):
                    bf10_directional(t, n, direction=direction)

    def test_a_prior_scale_whose_square_leaves_double_range_is_named(self):
        # the square underflows to zero, is subnormal, or overflows
        for prior_scale in (1e-300, 1e-154, 1.4e154):
            with pytest.raises(IntegrationFailure, match="prior_scale"):
                bf10_directional(3.0, 5, prior_scale=prior_scale)

    @pytest.mark.parametrize("t, n", [(3.0, 5), (-6.0, 3), (2.0, 25), (0.3, 100)])
    def test_a_prior_scale_too_large_for_the_integral_is_named(self, t, n):
        # Far out, bf10 falls as 1 / r, so r * bf10 holds its value at
        # r = 1e140; where n g would overflow it must raise instead.
        for direction in Direction:
            reference = 1e140 * bf10_directional(t, n, 1e140, direction)
            for prior_scale in np.logspace(150, math.log10(1.34e154), 16):
                try:
                    bf = bf10_directional(t, n, float(prior_scale), direction)
                except IntegrationFailure as exc:
                    assert "prior_scale" in str(exc)
                    continue
                assert prior_scale * bf == pytest.approx(reference, rel=1e-6)

    def test_no_numpy_warning_at_the_edge_of_double_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prior_scale in (1e154, 1e150):
                try:
                    bf, _ = bf10_directional_with_error(3.0, 5, prior_scale)
                except IntegrationFailure:
                    continue
                assert math.isfinite(bf) and bf > 0

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
           n=st.integers(min_value=2, max_value=10_000),
           direction=st.sampled_from(Direction))
    @example(t=40.0, n=5000, direction=Direction.A_LESS)
    @example(t=40.0, n=5000, direction=Direction.A_GREATER)
    @example(t=1e6, n=2, direction=Direction.A_GREATER)
    def test_any_t_is_finite_or_integration_failure(self, t, n, direction):
        try:
            bf, rel_err = bf10_directional_with_error(t, n, direction=direction)
        except IntegrationFailure:
            return
        assert math.isfinite(bf) and bf > 0
        assert rel_err <= 1e-6


class TestGoldenBayesFactors:
    # recorded from the earlier implementation, which integrated the
    # authored noncentral t density over the truncated Cauchy prior in
    # delta, with a nested quadrature for the wrong tail and two-sided;
    # no code is shared with the integral over g
    GOLDEN = {
        (-2.0, 17, "less"): 0.09704514535437742,
        (-2.0, 17, "greater"): 2.3728952407495947,
        (-2.0, 17, "two-sided"): 1.2349701930519863,
        (0.5, 12, "less"): 0.43212920139519834,
        (0.5, 12, "greater"): 0.20822179605797755,
        (0.5, 12, "two-sided"): 0.32017549872658807,
        (3.0, 25, "less"): 14.250500175508304,
        (3.0, 25, "greater"): 0.06196360513148579,
        (3.0, 25, "two-sided"): 7.156231890319894,
        (8.7, 100, "less"): 195010652052.32166,
        (8.7, 100, "greater"): 0.013465311647738641,
        (8.7, 100, "two-sided"): 97505326026.16754,
        (12.0, 2, "less"): 4.376482640443445,
        (12.0, 2, "greater"): 0.3108013996135936,
        (12.0, 2, "two-sided"): 2.3436420200285197,
        (30.0, 200, "less"): 2.6308168929379264e+72,
        (30.0, 200, "greater"): 0.004962941179747462,
        (30.0, 200, "two-sided"): 1.3154084464689632e+72,
    }

    @pytest.mark.parametrize("t,n,direction", list(GOLDEN))
    def test_matches_golden(self, t, n, direction):
        bf = bf10_directional(t, n, direction=Direction(direction))
        assert bf == pytest.approx(self.GOLDEN[(t, n, direction)], rel=1e-9)

    # 40-digit mpmath quadrature of the integral over g, with the Student t
    # distribution function from mpmath.betainc; the earlier implementation
    # was off by 0.85% and 6e-5 at the last two
    HIGH_PRECISION = {
        (40.0, 5000, "less"): 5.9800046110537168264681551012890172e+299,
        (40.0, 5000, "greater"): 3.6549120278956163825649273918175351e-4,
        (1e6, 2, "less"): 22.446134550751361443934441165578162,
        (1e6, 2, "greater"): 0.31037169660652693369456977080779890,
        (100.0, 2, "two-sided"): 4.0306404593298350281448989390923229,
        (-7.5, 5000, "greater"): 43953707288.893913129657738265262709,
    }

    @pytest.mark.parametrize("t,n,direction", list(HIGH_PRECISION))
    def test_matches_high_precision_at_extremes(self, t, n, direction):
        bf = bf10_directional(t, n, direction=Direction(direction))
        assert bf == pytest.approx(self.HIGH_PRECISION[(t, n, direction)], rel=1e-9)


@functools.lru_cache(maxsize=None)
def _mp_t_tail(k, x):
    # P(T_k < -|w|) for x = k / (k + w^2); both one-sided directions of one
    # (t, n) meet the same nodes, so each tail is computed once
    return mpmath.betainc(k / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2


def _mp_bf10(t, n, direction, prior_scale=DEFAULT_PRIOR_SCALE):
    """bf10 and the quadrature's error estimate, at 40 digits: the integral
    over g of the ``bayes`` docstring, taken in y = log g by mpmath.quad,
    with the Student t distribution function from mpmath.betainc.  It shares
    no code with ``bayes``."""
    sign = {Direction.A_LESS: 1, Direction.A_GREATER: -1,
            Direction.TWO_SIDED: 0}[direction]
    with mpmath.workdps(40):
        t, r, k = mpmath.mpf(t), mpmath.mpf(prior_scale), mpmath.mpf(n)
        nu = k - 1

        def integrand(y):
            g = mpmath.exp(y)
            omega2 = 1 + n * g
            z2 = t * t / omega2
            # g times the InvGamma(1/2, r^2/2) density, and t_nu(z) / omega
            # over t_nu(t)
            value = (r / mpmath.sqrt(2 * mpmath.pi * g) * mpmath.exp(-r * r / (2 * g))
                     / mpmath.sqrt(omega2) * ((nu + z2) / (nu + t * t)) ** (-k / 2))
            if sign:
                w2 = n * g * z2 * k / (nu + z2)
                tail = _mp_t_tail(k, k / (k + w2))
                value *= 2 * (tail if sign * t < 0 else 1 - tail)
            return value

        # the integrand peaks for g in [r^2/4, max(t^2/n, r^2)]; four e-folds
        # below it exp(-r^2/2g) is under e^-100
        lo = mpmath.log(r * r / 4)
        hi = mpmath.log(max(t * t / n, r * r))
        value, error = mpmath.quad(integrand, [lo - 4, lo, hi + 2, mpmath.inf],
                                   error=True, maxdegree=5)
        return value, error / value


class TestErrorEstimateIsHonest:
    # The reported relative error must bound the true one, except for the
    # rounding of the last steps: log bf = peak + log split + log value, three
    # rounded logs and two additions, each off by at most eps/2 of a term no
    # larger than |log bf| when they do not cancel, and exp adds eps/2 of
    # relative error.  That is 3 eps |log bf|, and C = 4 leaves a margin.
    C = 4
    WORKLOAD = [(t, n, direction) for n in (12, 25, 60, 100)
                for t in (0.3, 3.0, 6.0) for direction in Direction]

    @classmethod
    def _check(cls, t, n, direction, ref):
        bf, rel_err = bf10_directional_with_error(t, n, direction=direction)
        floor = cls.C * sys.float_info.epsilon * max(1.0, abs(math.log(bf)))
        assert float(abs(bf - ref) / ref) <= max(rel_err, floor), (bf, rel_err)

    @pytest.mark.parametrize("t,n,direction", WORKLOAD)
    def test_workload_shaped_grid(self, t, n, direction):
        ref, quad_err = _mp_bf10(t, n, direction)
        assert quad_err < 1e-20  # far below every bound checked here
        self._check(t, n, direction, ref)

    @pytest.mark.parametrize("t,n,direction", list(TestGoldenBayesFactors.HIGH_PRECISION))
    def test_high_precision_cases(self, t, n, direction):
        ref = mpmath.mpf(TestGoldenBayesFactors.HIGH_PRECISION[(t, n, direction)])
        self._check(t, n, Direction(direction), ref)

    def test_reference_reproduces_the_recorded_high_precision_values(self):
        # two recorded values, one per direction kind, from the same integral
        for key in ((1e6, 2, "greater"), (100.0, 2, "two-sided")):
            ref, _ = _mp_bf10(key[0], key[1], Direction(key[2]))
            assert float(abs(ref - TestGoldenBayesFactors.HIGH_PRECISION[key])
                         / ref) < 1e-15


class TestQuadratureShape:
    @pytest.mark.parametrize("t,n,direction", TestErrorEstimateIsHonest.WORKLOAD)
    def test_stdtr_is_called_on_arrays(self, monkeypatch, t, n, direction):
        # stdtr once for the tail limit; then, once per round of the rule
        # over every node at once, the skew factor: the series where its
        # argument is non-negative, which is every node of an aligned t > 0,
        # and where it is negative, every node of an opposed t > 0, the
        # binomial tail at even n and stdtr at odd n.  Two-sided evaluates
        # neither the tail limit nor the skew factor
        calls = {"stdtr": [], "_t_cdf_upper": [], "_t_cdf_lower": []}
        for name, counted in calls.items():
            def counting(*args, original=getattr(errandlab.bayes, name), counted=counted):
                counted.append(args)
                return original(*args)

            monkeypatch.setattr(errandlab.bayes, name, counting)
        bf10_directional(t, n, direction=direction)
        series_rounds, binomial_rounds = calls["_t_cdf_upper"], calls["_t_cdf_lower"]
        if direction is Direction.TWO_SIDED:
            assert calls["stdtr"] == series_rounds == binomial_rounds == []
            return
        tail_limit, *stdtr_rounds = calls["stdtr"]
        assert np.shape(tail_limit[1]) == (1,)
        if direction is Direction.A_LESS:
            assert stdtr_rounds == binomial_rounds == []
            rounds = series_rounds
        else:
            assert series_rounds == []
            assert [stdtr_rounds, binomial_rounds][n % 2] == []
            rounds = stdtr_rounds + binomial_rounds
        assert 1 <= len(rounds) <= 2
        for df, w in rounds:
            assert df == n and w.ndim == 2 and w.shape[1] == 21


def _mp_lower_tail(m, w):
    """Student t's distribution function at -|w|, at 40 digits."""
    with mpmath.workdps(40):
        m, w = mpmath.mpf(m), mpmath.mpf(w)
        return _mp_t_tail(m, m / (m + w * w))


def _mp_t_cdf(m, w):
    """Student t's distribution function at w >= 0, at 40 digits, from
    mpmath.betainc."""
    with mpmath.workdps(40):
        m, w = mpmath.mpf(m), mpmath.mpf(w)
        return 1 - _mp_t_tail(m, m / (m + w * w))


class TestSkewFactorSeries:
    """The skew factor's T_m(w) for integer m, the finite series of
    Abramowitz & Stegun 26.7.3-4 where w >= 0 and m is at most the cap."""

    CAP = errandlab.bayes._SERIES_MAX_DF
    W = np.concatenate(([0.0, 5e-324, 1e154, 1e300], np.logspace(-8, 3, 111)))

    def test_every_series_df_matches_stdtr(self):
        for m in range(2, self.CAP + 1):
            got = errandlab.bayes._t_cdf(m, self.W)
            rel = np.abs(got / stdtr(m, self.W) - 1.0)
            assert rel.max() <= 1e-14, (m, self.W[rel.argmax()], rel.max())

    @pytest.mark.parametrize("m", [1, 2, 3, CAP])
    def test_matches_high_precision(self, m):
        # at m = 1 the series has no term: A = 2 theta / pi.  scipy's stdtr
        # is off by 3e-9 relative there at w = 1e-8, so the reference is
        # mpmath alone
        w = (1e-10, 1e-8, 1e-3, 0.7, 3.0, 40.0, 1e6)
        got = errandlab.bayes._t_cdf_upper(m, np.array(w))
        for value, x in zip(got.tolist(), w):
            ref = _mp_t_cdf(m, x)
            assert float(abs(value - ref) / ref) <= 1e-14, (m, x, value)

    def test_zero_gives_exactly_one_half(self):
        for m in range(1, self.CAP + 1):
            assert errandlab.bayes._t_cdf(m, np.array([0.0, -0.0])).tolist() == [0.5, 0.5]

    def test_lower_half_and_high_df_are_stdtr_bit_for_bit(self):
        # below zero at odd df; even df takes the binomial tail there
        lower = -self.W[1:]
        for m in (3, 13, 101, self.CAP - 1):
            assert np.array_equal(errandlab.bayes._t_cdf(m, lower), stdtr(m, lower))
        both = np.concatenate((lower, self.W))
        for m in (self.CAP + 1, 1000, 10**6):
            assert np.array_equal(errandlab.bayes._t_cdf(m, both), stdtr(m, both))

    def test_each_node_takes_its_own_branch(self):
        w = np.array([[2.0, -2.0, 0.5], [-1e-3, 1e-3, 7.0]])
        upper = w >= 0.0
        for m, lower in ((12, errandlab.bayes._t_cdf_lower), (13, stdtr)):
            got = errandlab.bayes._t_cdf(m, w)
            assert np.array_equal(got[~upper], lower(m, w[~upper]))
            assert np.array_equal(got[upper], errandlab.bayes._t_cdf_upper(m, w[upper]))


class TestSkewFactorBinomialTail:
    """The skew factor's T_m(w) where w < 0 and m is even and at most the
    cap: Beta(m/2, m/2)'s distribution function as a binomial tail."""

    # the lower tail at 40 digits costs about 0.3 ms a point, so this grid
    # is coarser than the series' one: 4 points a decade over [1e-8, 1e3]
    W = np.concatenate(([0.0, 5e-324, 1e154, 1e300], np.logspace(-8, 3, 45)))

    def test_every_even_df_matches_high_precision_and_stdtr(self):
        for m in range(2, errandlab.bayes._SERIES_MAX_DF + 1, 2):
            got = errandlab.bayes._t_cdf_lower(m, -self.W).tolist()
            scipy_values = stdtr(m, -self.W).tolist()
            for value, from_scipy, w in zip(got, scipy_values, self.W.tolist()):
                ref = float(_mp_lower_tail(m, w))
                if ref < sys.float_info.min:
                    assert 0.0 <= value <= 2.0 * sys.float_info.min, (m, w, value)
                    continue
                assert abs(value - ref) <= 1e-12 * ref, (m, w, value, ref)
                assert abs(value - from_scipy) <= 1e-12 * from_scipy, (m, w, value)

    def test_the_branch_is_taken_below_zero_at_even_df_only(self):
        w = -self.W[1:]
        for m in (2, 12, 100, errandlab.bayes._SERIES_MAX_DF):
            assert np.array_equal(errandlab.bayes._t_cdf(m, w),
                                  errandlab.bayes._t_cdf_lower(m, w))


@st.composite
def _integer_columns(draw):
    """Labelled (a, b) integer columns of one size; some have equal
    differences, so their comparison is degenerate.  A drawn seed fills
    the columns: drawing up to ten lists of 200 values costs far more."""
    n = draw(st.integers(min_value=2, max_value=200))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    columns = {}
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        a = [rng.randint(-50, 150) for _ in range(n)]
        kind = draw(st.sampled_from(("free", "shifted", "equal")))
        if kind == "free":
            b = [rng.randint(-50, 150) for _ in range(n)]
        else:
            shift = rng.randint(-3, 3) if kind == "shifted" else 0
            b = [x + shift for x in a]
        columns[f"c{index}"] = (a, b)
    return columns


class TestColumnsIntegratedTogether:
    """A comparison integrates all its columns in one pass; each column's
    result, or the failure raised for it, is the one it has alone."""

    # t values whose Bayes factors fail at each stage for some n
    _EXTREME_T = (45.0, -45.0, 1e4, 1e50, 1e80, 1e100, 1e200, 5e-324)

    @staticmethod
    def _alone(t, n, prior_scale, direction):
        try:
            return bf10_directional_with_error(t, n, prior_scale, direction)
        except IntegrationFailure as exc:
            return exc

    @settings(max_examples=50, deadline=None)
    @given(ts=st.lists(st.one_of(st.floats(min_value=-60, max_value=60),
                                 st.sampled_from(_EXTREME_T)),
                       min_size=1, max_size=5),
           n=st.one_of(st.integers(min_value=2, max_value=200), st.just(5000)),
           direction=st.sampled_from(Direction),
           prior_scale=st.sampled_from((DEFAULT_PRIOR_SCALE, 0.1, 3.0, 1e150, 1.3e154)))
    # at n = 5000, t = 45 leaves the opposed tail below double range, which
    # is found before integrating, and t = -45 leaves bf10 beyond it, which
    # is found after: whichever column comes first names the failure
    @example(ts=[45.0, -45.0, 1.0], n=5000, direction=Direction.A_GREATER,
             prior_scale=DEFAULT_PRIOR_SCALE)
    @example(ts=[-45.0, 45.0, 1.0], n=5000, direction=Direction.A_GREATER,
             prior_scale=DEFAULT_PRIOR_SCALE)
    # two columns that run out of subintervals, with their own error left,
    # beside one that converges
    @example(ts=[2.0, 1e80, 1e100], n=2, direction=Direction.A_LESS,
             prior_scale=DEFAULT_PRIOR_SCALE)
    # two columns whose bf10 leave double range, each naming its own
    @example(ts=[1.0, 1e80, 1e50], n=12, direction=Direction.A_LESS,
             prior_scale=DEFAULT_PRIOR_SCALE)
    # an aligned comparison with t of both signs: one call takes the skew
    # factor's series on some nodes and stdtr on the others; at even n, the
    # series on some and the binomial tail on the others
    @example(ts=[2.5, -1.5, 0.4, -3.0], n=25, direction=Direction.A_LESS,
             prior_scale=DEFAULT_PRIOR_SCALE)
    @example(ts=[2.5, -1.5, 0.4, -3.0], n=24, direction=Direction.A_GREATER,
             prior_scale=DEFAULT_PRIOR_SCALE)
    # n at the series' df cap and one past it
    @example(ts=[3.0, -0.8], n=errandlab.bayes._SERIES_MAX_DF,
             direction=Direction.A_LESS, prior_scale=DEFAULT_PRIOR_SCALE)
    @example(ts=[3.0, -0.8], n=errandlab.bayes._SERIES_MAX_DF + 1,
             direction=Direction.A_LESS, prior_scale=DEFAULT_PRIOR_SCALE)
    def test_each_column_is_what_it_is_alone(self, ts, n, direction, prior_scale):
        alone = [self._alone(t, n, prior_scale, direction) for t in ts]
        failures = [result for result in alone if isinstance(result, IntegrationFailure)]
        if failures:
            with pytest.raises(IntegrationFailure) as info:
                errandlab.bayes._bf10_columns(ts, n, prior_scale, direction)
            assert str(info.value) == str(failures[0])
            return
        together = errandlab.bayes._bf10_columns(ts, n, prior_scale, direction)
        assert len(together) == len(ts)
        for (bf, rel_err), (bf_alone, rel_err_alone) in zip(together, alone):
            assert bf == pytest.approx(bf_alone, rel=1e-12, abs=0.0)
            assert rel_err == rel_err_alone

    def test_columns_match_compare_paired(self):
        rng = np.random.default_rng(5)
        baseline = rng.normal(30, 2, size=(4, 15))
        revised = baseline + rng.normal((0.0, 0.5, -1.0, 1.5), 1.0, size=(15, 4)).T
        columns = {f"c{i}": (baseline[i], revised[i]) for i in range(4)}
        columns["same"] = (baseline[0], baseline[0])
        for direction in Direction:
            together = compare_paired_columns(columns, direction=direction)
            assert list(together) == list(columns)
            assert together["same"] is None
            for label in list(columns)[:-1]:
                alone = compare_paired(*columns[label], direction=direction, label=label)
                assert together[label].bf10 == pytest.approx(alone.bf10, rel=1e-12)
                assert together[label] == dataclasses.replace(
                    alone, bf10=together[label].bf10,
                    bf10_rel_err=together[label].bf10_rel_err)

    def test_columns_must_share_their_pairs(self):
        with pytest.raises(ValueError, match="same number of pairs"):
            compare_paired_columns({"a": ((1.0, 2.0, 4.0), (2.0, 2.0, 5.0)),
                                    "b": ((1.0, 2.0), (3.0, 5.0))})

    @settings(max_examples=30, deadline=None)
    @given(columns=_integer_columns(), direction=st.sampled_from(Direction),
           as_arrays=st.booleans())
    def test_each_comparison_is_bit_identical_to_its_column_alone(self, columns, direction,
                                                                  as_arrays):
        # the columns go in as lists, or as the integer arrays `vrnq compare` pairs
        if as_arrays:
            columns = {label: (np.array(a), np.array(b)) for label, (a, b) in columns.items()}
        together = compare_paired_columns(columns, direction=direction)
        assert list(together) == list(columns)
        for label, pair in columns.items():
            [alone] = compare_paired_columns({label: pair}, direction=direction).values()
            # every field compared exactly: t, p, bf10 and bf10_rel_err included
            assert together[label] == alone

    # (columns, the ValueError message): the first fault in column order is
    # named, whatever the columns after it hold
    _NAN = float("nan")

    @pytest.mark.parametrize("columns, message", [
        pytest.param({"a": ((1, _NAN, 3), (1, 2, 4)), "b": ((1, 2), (1, 2, 3))},
                     "paired samples must be finite", id="nan-before-unequal-lengths"),
        pytest.param({"a": ((1, 2), (1, 2, 3)), "b": ((1, _NAN), (1, 2))},
                     "paired samples must have equal lengths", id="unequal-lengths-before-nan"),
        pytest.param({"a": ((1, 2, 3), (2, 3, 5)), "b": ((1,), (2,))},
                     "paired samples need at least two pairs", id="one-pair-in-a-later-column"),
        pytest.param({"a": ((1,), (2,))}, "paired samples need at least two pairs",
                     id="one-pair-only"),
        pytest.param({"a": ((1, 2, 3), (2, 3, 5)), "b": ((1, 2), (3, 1)),
                      "c": ((1, _NAN), (3, 1))},
                     "paired samples must be finite", id="nan-after-mismatched-n"),
        pytest.param({"a": ((1, _NAN), (1, 2)), "b": ((10 ** 400, 1), (1, 2))},
                     "paired samples must be finite", id="nan-before-int-past-float-range"),
        pytest.param({"a": ((1, 2), (1, 2, 3)), "b": (("x", "y"), (1, 2))},
                     "paired samples must have equal lengths", id="unequal-lengths-before-text"),
        pytest.param({"a": (("x", "y"), (1, 2)), "b": ((1, 2), (1, 2, 3))},
                     "could not convert string to float: 'x'", id="text-before-unequal-lengths"),
        pytest.param({"a": ((1, float("inf")), (1, 2)), "b": ((1, 2), (1, 3))},
                     "paired samples must be finite", id="inf"),
    ])
    def test_the_first_fault_is_named(self, columns, message):
        with pytest.raises(ValueError) as raised:
            compare_paired_columns(columns)
        assert str(raised.value) == message

    @pytest.mark.parametrize("value", [_NAN, float("inf"), -float("inf")])
    def test_a_non_finite_b_is_refused(self, value):
        with pytest.raises(ValueError, match="^paired samples must be finite$"):
            compare_paired_columns({"a": ((1, 2, 3), (2, 3, 5)), "b": ((1, 2, 3), (2, value, 5))})


def _t_and_p_reference(a, b, direction):
    """A column's t and p as paired_t computed them one column at a time:
    a generator of squared deviations and a scalar stdtr, or at one degree
    of freedom the closed form; None when the differences have zero
    variance."""
    d = [float(y) - float(x) for x, y in zip(a, b)]
    n = len(d)
    mean = math.fsum(d) / n
    var = math.fsum((x - mean) ** 2 for x in d) / (n - 1)
    if var == 0.0:
        return None
    t = mean * math.sqrt(n) / math.sqrt(var)
    df = n - 1
    cdf = _cauchy_cdf if df == 1 else functools.partial(stdtr, df)
    if direction is Direction.A_LESS:
        p = float(cdf(-t))
    elif direction is Direction.A_GREATER:
        p = float(cdf(t))
    else:
        p = float(2.0 * cdf(-abs(t)))
    return t, p


def _cauchy_cdf(x):
    # T_1(x) = 1/2 + atan(x) / pi, and 1/2 - atan(|x|) / pi = atan(1/|x|) / pi
    return math.atan2(1.0, -x) / math.pi if x < 0.0 else 0.5 + math.atan(x) / math.pi


class TestTAndPAreBitIdentical:
    @settings(max_examples=40, deadline=None)
    @given(columns=_integer_columns(), direction=st.sampled_from(Direction))
    def test_columns_equal_the_per_column_formula(self, columns, direction):
        # the Bayes factor is stubbed out: only t and p are under test here
        with mock.patch.object(errandlab.bayes, "_bf10_columns",
                               lambda ts, n, prior_scale, direction: [(1.0, 0.0)] * len(ts)):
            comparisons = compare_paired_columns(columns, direction=direction)
        assert list(comparisons) == list(columns)
        for label, (a, b) in columns.items():
            expected = _t_and_p_reference(a, b, direction)
            if expected is None:
                assert comparisons[label] is None
            else:
                assert (comparisons[label].t, comparisons[label].p) == expected
                assert comparisons[label].df == len(a) - 1


class TestEvidenceBands:
    @pytest.mark.parametrize("bf10,band", [
        (0.402, EvidenceBand.NONE),
        (0.988, EvidenceBand.NONE),
        (1.0, EvidenceBand.NONE),
        (1.0000001, EvidenceBand.ANECDOTAL),
        (1.095, EvidenceBand.ANECDOTAL),
        (2.999, EvidenceBand.ANECDOTAL),
        (3.0, EvidenceBand.MODERATE),
        (9.999, EvidenceBand.MODERATE),
        (10.0, EvidenceBand.STRONG),
        (17.597, EvidenceBand.STRONG),
        (29.999, EvidenceBand.STRONG),
        (30.0, EvidenceBand.VERY_STRONG),
        (47.214, EvidenceBand.VERY_STRONG),
        (99.999, EvidenceBand.VERY_STRONG),
        (100.0, EvidenceBand.EXTREME),
        (101.651, EvidenceBand.EXTREME),
        (57974.267, EvidenceBand.EXTREME),
    ])
    def test_band_fixtures(self, bf10, band):
        assert classify_evidence(bf10) is band

    @pytest.mark.parametrize("bf10,stars", [
        (0.402, ""), (1.095, ""), (9.999, ""), (10.0, ""), (10.001, "*"),
        (17.262, "*"), (21.221, "*"), (30.0, "*"), (30.001, "**"),
        (47.214, "**"), (100.0, "**"), (100.001, "***"), (101.651, "***"),
        (1912.328, "***"),
    ])
    def test_star_fixtures(self, bf10, stars):
        assert evidence_stars(bf10) == stars

    @pytest.mark.parametrize("label", [classify_evidence, evidence_stars])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_bf(self, label, bad):
        # both labels accept the same inputs
        with pytest.raises(ValueError, match="^bf10 must be a positive finite number$"):
            label(bad)

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_every_positive_bf_lands_in_one_band(self, bf10):
        assert classify_evidence(bf10) in EvidenceBand
        stars = evidence_stars(bf10)
        assert stars in ("", "*", "**", "***")


class TestComparePaired:
    def test_full_pipeline(self):
        baseline = (25.0, 24.0, 26.0, 23.0, 25.0, 27.0, 24.0, 26.0)
        revised = (31.0, 30.0, 33.0, 29.0, 32.0, 33.0, 30.0, 31.0)
        result = compare_paired(baseline, revised, label="total")
        assert isinstance(result, BayesComparison)
        assert result.label == "total"
        assert result.n == 8
        assert result.df == 7
        assert result.t > 0  # differences are revised - baseline
        assert result.bf10 > 100
        assert result.band is EvidenceBand.EXTREME
        assert result.stars == "***"
        assert result.prior_scale == DEFAULT_PRIOR_SCALE

    def test_no_effect_sample(self):
        rng = np.random.default_rng(11)
        baseline = rng.normal(30, 2, size=20)
        revised = baseline + rng.normal(0, 2, size=20)
        result = compare_paired(baseline, revised)
        assert result.bf10 < 3

    def test_degenerate_pairs(self):
        with pytest.raises(DegenerateSample):
            compare_paired((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                    min_size=4, max_size=20),
           st.floats(min_value=0.5, max_value=5.0))
    def test_t_is_scale_invariant(self, values, factor):
        diffs = np.asarray(values)
        if np.var(diffs, ddof=1) < 1e-12:
            return
        base = np.zeros_like(diffs)
        plain = paired_t(PairedSample(base, diffs))
        scaled = paired_t(PairedSample(base, diffs * factor))
        assert scaled.t == pytest.approx(plain.t, rel=1e-9, abs=1e-12)


# the three entry points that take paired columns, each given one (a, b)
_PAIRED_ENTRIES = {
    "PairedSample": PairedSample,
    "compare_paired": compare_paired,
    "compare_paired_columns": lambda a, b: compare_paired_columns({"c": (a, b)}),
}


class TestOnePairCheck:
    """Every entry point that takes paired columns checks them alike; all
    three accept finite pairs whose differences overflow
    (TestPairedT.test_extreme_pairs_have_the_t_of_the_pairs_scaled)."""

    @pytest.mark.parametrize("entry", _PAIRED_ENTRIES)
    @pytest.mark.parametrize("a, b, message", [
        pytest.param((1.0, 2.0), (1.0, 2.0, 3.0), "paired samples must have equal lengths",
                     id="unequal-lengths"),
        pytest.param((1.0,), (2.0,), "paired samples need at least two pairs",
                     id="one-pair"),
        pytest.param((1.0, float("nan")), (2.0, 3.0), "paired samples must be finite",
                     id="nan"),
        pytest.param(((1, 2), (3, 4), (5, 6)), ((1, 2), (3, 5), (5, 9)),
                     "paired samples must be one-dimensional", id="nested"),
        pytest.param((1.0, 2.0, 3.0), ((1, 2), (3, 5), (5, 9)),
                     "paired samples must be one-dimensional", id="nested-b"),
        pytest.param(1.0, 2.0, "paired samples must be one-dimensional", id="scalars"),
    ])
    def test_each_fault_is_the_same_value_error(self, entry, a, b, message):
        with pytest.raises(ValueError) as excinfo:
            _PAIRED_ENTRIES[entry](a, b)
        assert str(excinfo.value) == message


def test_an_integral_fault_raises_its_own_failure(integral_fault):
    # the integral's two checks that no real column fails
    with pytest.raises(IntegrationFailure) as info:
        compare_paired_columns({"total": ([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 5.0, 7.0])})
    assert str(info.value) == integral_fault
