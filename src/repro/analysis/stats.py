"""Summary statistics for experiment outputs.

Small, numpy-only helpers: five-number summaries for per-node vectors,
and mean confidence intervals across Monte-Carlo runs (used when
experiments repeat with different workload seeds). The Student-t
quantile behind those intervals is exact and uses only the standard
library (``math`` and ``statistics``), so the core library keeps numpy
as its only dependency and computing an interval imports nothing more.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Summary",
    "summarize",
    "mean_confidence_interval",
    "bootstrap_gini_interval",
]


@dataclass(frozen=True)
class Summary:
    """Five-number summary plus mean/std."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} std={self.std:.2f} "
            f"min={self.minimum:.2f} p25={self.p25:.2f} "
            f"median={self.median:.2f} p75={self.p75:.2f} "
            f"max={self.maximum:.2f}"
        )


def summarize(values: Sequence[float] | np.ndarray) -> Summary:
    """Five-number summary of *values*."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ConfigurationError("cannot summarize no values")
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        p25=float(np.percentile(array, 25)),
        median=float(np.percentile(array, 50)),
        p75=float(np.percentile(array, 75)),
        maximum=float(array.max()),
    )


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _beta_continued_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b).

    Evaluated by the modified Lentz method; ``I_x(a, b)`` is this value
    times ``x**a (1 - x)**b / (a B(a, b))``. It converges quickly for
    ``x < (a + 1) / (a + b + 2)`` (about sqrt(max(a, b)) terms), which
    the caller guarantees by using the symmetry
    ``I_x(a, b) = 1 - I_{1-x}(b, a)``.
    """
    def guard(value: float) -> float:
        return value if abs(value) >= _TINY else _TINY

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    m = 0
    while True:
        m += 1
        two_m = 2 * m
        # Even term d_{2m}, then odd term d_{2m+1}, of the fraction.
        even = m * (b - m) * x / ((a + two_m - 1.0) * (a + two_m))
        d = 1.0 / guard(1.0 + even * d)
        c = guard(1.0 + even / c)
        fraction *= d * c
        odd = (-(a + m) * (a + b + m) * x
               / ((a + two_m) * (a + two_m + 1.0)))
        d = 1.0 / guard(1.0 + odd * d)
        c = guard(1.0 + odd / c)
        delta = d * c
        fraction *= delta
        if abs(delta - 1.0) <= 4.0 * _EPS:
            return fraction
        if m > 1000 + 10 * math.sqrt(max(a, b)):
            raise ArithmeticError(
                f"incomplete beta fraction did not converge at "
                f"x={x!r}, a={a!r}, b={b!r}"
            )


def _t_tail(t: float, dof: int, log_norm: float
            ) -> tuple[float, float, float]:
    """(P(|T| > t), P(|T| <= t), pdf(t)) for Student's t, t >= 0.

    The two-sided tail is I_x(dof/2, 1/2) with x = dof / (dof + t**2).
    Whichever of the tail and the central probability the continued
    fraction converges for is computed directly, the other as its
    complement; *log_norm* is log(Gamma((dof+1)/2) / (Gamma(dof/2)
    sqrt(pi))), shared by the beta prefactor and the density.
    """
    if t == 0.0:
        return 1.0, 0.0, math.exp(log_norm - 0.5 * math.log(dof))
    a = dof / 2.0
    t2 = t * t
    log1p_t2 = math.log1p(t2 / dof)  # -log x
    log_y = math.log(t2 / (dof + t2))  # log(1 - x)
    prefactor = math.exp(log_norm - a * log1p_t2 + 0.5 * log_y)
    pdf = math.exp(log_norm - 0.5 * math.log(dof) - (a + 0.5) * log1p_t2)
    if t2 * (dof + 2.0) > 3.0 * dof:  # x < (a + 1) / (a + b + 2)
        tail = prefactor * _beta_continued_fraction(
            dof / (dof + t2), a, 0.5) / a
        return tail, 1.0 - tail, pdf
    central = prefactor * _beta_continued_fraction(
        t2 / (dof + t2), 0.5, a) / 0.5
    return 1.0 - central, central, pdf


def _t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t quantile: the t with P(|T| <= t) = confidence.

    Exact and standard library only, with no approximate fallback:
    Newton's method solves tail(t) = 1 - confidence, where the tail is
    the regularized incomplete beta of :func:`_t_tail` and its slope is
    -2 pdf(t). It starts from the normal quantile, which lies below the
    t quantile; the tail is convex for t > 0, so the iterates rise
    monotonically to the root. The only error left is rounding, and it
    grows with *dof* through the cancellation in lgamma(dof/2 + 1/2) -
    lgamma(dof/2): the relative error is about 1e-15 for a few dof and
    stays below 3e-12 up to dof = 1000.
    """
    # Imported here: statistics pulls in fractions and decimal, a few
    # milliseconds on every start of a process that never needs them.
    from statistics import NormalDist

    a = dof / 2.0
    log_norm = (math.lgamma(a + 0.5) - math.lgamma(a)
                - 0.5 * math.log(math.pi))
    t = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    for _ in range(500):
        tail, central, pdf = _t_tail(t, dof, log_norm)
        # Take the difference on the smaller probability: it is the
        # one computed directly whenever it is small.
        if tail <= central:
            excess = tail - (1.0 - confidence)
        else:
            excess = confidence - central
        step = excess / (2.0 * pdf)
        t += step
        # Quadratic convergence: once a step is below 1e-9 relative,
        # the error left after it is far below one ulp.
        if abs(step) <= 1e-9 * t:
            return t
    raise ArithmeticError(
        f"t quantile did not converge for confidence={confidence!r}, "
        f"dof={dof!r}"
    )


def mean_confidence_interval(values: Sequence[float] | np.ndarray,
                             confidence: float = 0.95
                             ) -> tuple[float, float, float]:
    """(mean, low, high) of the mean at the given confidence level.

    Requires at least two observations; with exactly one there is no
    variance estimate and the call raises.
    """
    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    array = np.asarray(values, dtype=np.float64)
    if array.size < 2:
        raise ConfigurationError(
            "a confidence interval needs at least two observations"
        )
    mean = float(array.mean())
    stderr = float(array.std(ddof=1) / np.sqrt(array.size))
    margin = _t_quantile(confidence, array.size - 1) * stderr
    return (mean, mean - margin, mean + margin)


def bootstrap_gini_interval(values: Sequence[float] | np.ndarray,
                            *, confidence: float = 0.95,
                            n_resamples: int = 1000,
                            seed: int = 0) -> tuple[float, float, float]:
    """(gini, low, high): percentile-bootstrap CI for a Gini coefficient.

    The Gini of a single simulation run is a point estimate over the
    sampled per-node values; the bootstrap quantifies how much it
    would wobble under resampling of the node population. Used to
    decide whether two configurations' Ginis are distinguishable
    without rerunning the simulation.
    """
    from ..core.fairness import gini

    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if n_resamples < 10:
        raise ConfigurationError(
            f"n_resamples must be >= 10, got {n_resamples}"
        )
    array = np.asarray(values, dtype=np.float64)
    if array.size < 2:
        raise ConfigurationError(
            "a bootstrap interval needs at least two observations"
        )
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_resamples, dtype=np.float64)
    for i in range(n_resamples):
        resample = rng.choice(array, size=array.size, replace=True)
        estimates[i] = gini(resample)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return (gini(array), float(low), float(high))
