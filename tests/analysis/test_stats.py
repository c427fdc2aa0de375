"""Unit tests for summary statistics (repro.analysis.stats)."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.analysis.stats import (
    _t_quantile,
    mean_confidence_interval,
    summarize,
)
from repro.errors import ConfigurationError


class TestSummarize:
    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == 2.5

    def test_single_value_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_str_contains_fields(self):
        assert "median" in str(summarize([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])


class TestConfidenceInterval:
    def test_contains_mean(self):
        values = np.random.default_rng(1).normal(10, 2, size=50)
        mean, low, high = mean_confidence_interval(values)
        assert low < mean < high
        assert mean == pytest.approx(values.mean())

    def test_tighter_with_more_data(self):
        rng = np.random.default_rng(2)
        small = rng.normal(0, 1, size=10)
        large = rng.normal(0, 1, size=1000)
        _, low_s, high_s = mean_confidence_interval(small)
        _, low_l, high_l = mean_confidence_interval(large)
        assert (high_l - low_l) < (high_s - low_s)

    def test_single_observation_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)


# Two-sided t quantiles t(dof, p) at upper-tail probability p, as
# (dof, p, value); confidence = 2p - 1. Values from scipy's stdtrit.
T_REFERENCE = [
    (1, 0.975, 12.706204736174694),
    (2, 0.975, 4.302652729749462),
    (3, 0.975, 3.1824463052837078),
    (9, 0.975, 2.262157162798205),
    (29, 0.975, 2.045229642132703),
    (3, 0.995, 5.840909309733355),
    (9, 0.95, 1.833112932656237),
]


class TestTQuantile:
    @pytest.mark.parametrize("dof, p, expected", T_REFERENCE)
    def test_reference_values(self, dof, p, expected):
        got = _t_quantile(2 * p - 1, dof)
        assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_interval_uses_t_not_normal(self):
        values = [1.0, 2.0, 3.0, 5.0]
        _, low, high = mean_confidence_interval(values)
        half = (high - low) / 2
        stderr = np.std(values, ddof=1) / math.sqrt(4)
        assert half == pytest.approx(3.1824463052837078 * stderr,
                                     rel=1e-12, abs=0)
        assert half != pytest.approx(1.959963984540054 * stderr,
                                     rel=1e-3)
        assert (low, high) == pytest.approx((0.0324691, 5.4675309),
                                            abs=1e-6)

    @pytest.mark.parametrize("confidence", [
        1e-9, 1e-3, 0.3, 0.9, 1 - 1e-6, 1 - 1e-12,
    ])
    def test_closed_forms_at_both_ends(self, confidence):
        # dof = 1 is Cauchy, t = tan(pi c / 2) = cot(pi (1 - c) / 2);
        # dof = 2 has P(|T| <= t) = t / sqrt(2 + t**2). Each form is
        # evaluated where it keeps full precision (1 - c is exact for
        # c >= 1/2).
        c = confidence
        if c <= 0.5:
            cauchy = math.tan(math.pi * c / 2)
        else:
            cauchy = 1 / math.tan(math.pi * (1 - c) / 2)
        two = c * math.sqrt(2 / ((1 - c) * (1 + c)))
        assert _t_quantile(confidence, 1) == pytest.approx(
            cauchy, rel=1e-13, abs=0)
        assert _t_quantile(confidence, 2) == pytest.approx(
            two, rel=1e-13, abs=0)

    def test_matches_scipy_stdtrit(self):
        """Oracle sweep against ``scipy.special.stdtrit``.

        Tolerance, per case. Our t solves tail(t) = 1 - c, where
        tail(t) = P(|T| > t) is computed in floating point; the slope
        of the tail is -2 pdf(t), so a relative error r in the tail
        moves the root by ``r * tail / (2 t pdf(t))`` relative.

        r comes from the probability the code computes directly (the
        tail, or the central probability 1 - tail when t**2 (dof + 2)
        <= 3 dof), which is ``exp(E) * fraction``:

        - E = lgamma(a + 1/2) - lgamma(a) - log(pi)/2 - a log1p(t**2
          / dof) + log(t**2 / (dof + t**2))/2 with a = dof/2. Each
          term is within 4 eps of max(1, |term|) (math.lgamma is
          within 2.1 at half-integers up to 1000), so exp(E) carries a
          relative error of at most 4 eps S, S the sum of those
          magnitudes. This is the lgamma cancellation that grows with
          dof.
        - the continued fraction: at most 64 terms over this sweep,
          each with at most 8 roundings, so 512 eps.

        When the central probability is the direct one, the tail's
        relative error is r * central / tail. On top of that, 64 eps
        for the oracle's own rounding. The inputs are aligned: stdtrit
        gets p and we get 2p - 1, which is exact in floating point.
        """
        special = pytest.importorskip("scipy.special")
        eps = sys.float_info.epsilon
        for dof in range(1, 1001):
            a = dof / 2
            lg = (max(1.0, abs(math.lgamma(a + 0.5)))
                  + max(1.0, abs(math.lgamma(a))) + 1.0)
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                p = (1 + confidence) / 2
                expected = float(special.stdtrit(dof, p))
                got = _t_quantile(2 * p - 1, dof)
                t2 = expected * expected
                tail = 2 * (1 - p)
                pdf = math.exp(
                    math.lgamma(a + 0.5) - math.lgamma(a)
                    - 0.5 * math.log(math.pi * dof)
                    - (a + 0.5) * math.log1p(t2 / dof))
                magnitude = (
                    lg + max(1.0, a * math.log1p(t2 / dof))
                    + max(1.0, 0.5 * abs(math.log(t2 / (dof + t2)))))
                r = (4 * magnitude + 512) * eps
                if t2 * (dof + 2) <= 3 * dof:
                    r *= (1 - tail) / tail
                tol = r * tail / (2 * expected * pdf) + 64 * eps
                error = abs(got - expected) / expected
                assert error <= tol, (dof, confidence, got, expected, tol)
