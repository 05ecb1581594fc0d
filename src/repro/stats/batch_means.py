"""Confidence intervals by the method of batch means [Lave83].

A long run is divided into ``b`` consecutive batches; each batch yields
one (approximately independent) estimate of the steady-state quantity,
and the sample mean of the batch estimates carries a Student-t
confidence interval with ``b - 1`` degrees of freedom.  The paper uses
10 batches of 8000 samples and 90% confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

from repro.errors import StatisticsError

__all__ = ["BatchMeansEstimate", "batch_means", "t_quantile"]


def _central_probability(t: float, df: int) -> float:
    """``P(|T| <= t)`` for ``t >= 0``: the finite series of Abramowitz &
    Stegun 26.7.3 (odd ``df``) and 26.7.4 (even ``df``) in powers of
    ``cos θ``, ``θ = atan(t / √df)``.

    Each power is taken as ``exp(k/2 · log cos²θ)`` from one ``log1p``,
    so a rounded ``cos²θ`` is not raised to the ``k``-th power: the
    sum stays accurate to ~1e-13 relative even at ``df = 10⁴``.
    """
    log_cos2 = -math.log1p(t * t / df)
    sin_theta = t / math.sqrt(df + t * t)
    odd = df % 2
    coeff, total = 1.0, 0.0
    for power in range(odd, df - 1, 2):
        total += coeff * math.exp(power / 2 * log_cos2)
        coeff *= (power + 1) / (power + 2)
    if odd:
        return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + sin_theta * total)
    return sin_theta * total


def t_quantile(p: float, df: int) -> float:
    """Student-t quantile ``t_{p, df}``, computed the same way on every host.

    Inverts the exact cdf for integer ``df`` (the finite series of
    Abramowitz & Stegun 26.7.3/26.7.4) with Newton steps kept inside a
    bisection bracket.  The start is the normal quantile, which lies
    below ``|t_{p, df}|``; the density comes from :func:`math.lgamma`.
    Pure standard library and valid for every ``p`` in (0, 1) and every
    ``df >= 1``.  The relative error is ~1e-13 while ``min(p, 1 - p) >=
    1e-3`` (checked against mpmath up to ``df = 10⁴``); further out the
    tail mass is formed as ``1 - P(|T| <= t)`` and the error grows like
    ``1e-16 / min(p, 1 - p)``.
    """
    if df < 1:
        raise StatisticsError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise StatisticsError(f"quantile probability must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    target = abs(2.0 * p - 1.0)  # P(|T| <= |t_p|); symmetric in p <-> 1 - p
    log_norm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    low, high = 0.0, math.inf
    t = abs(NormalDist().inv_cdf(p))
    for _ in range(200):
        excess = _central_probability(t, df) - target
        if excess == 0.0:
            break
        if excess < 0.0:
            low = t
        else:
            high = t
        density = 2.0 * math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))  # of |T|
        step = t - excess / density
        if not low < step < high:
            step = 2.0 * t if high == math.inf else (low + high) / 2.0
        converged = abs(step - t) <= 4.0 * math.ulp(t)
        t = step
        if converged:
            break
    return t if p > 0.5 else -t


@dataclass(frozen=True)
class BatchMeansEstimate:
    """A point estimate with its batch-means confidence interval.

    Attributes
    ----------
    mean:
        Sample mean of the per-batch estimates.
    halfwidth:
        Confidence-interval half width; the interval is
        ``mean ± halfwidth``.
    std_between:
        Sample standard deviation of the per-batch estimates.
    batches:
        Number of batches contributing.
    confidence:
        Two-sided confidence level of the interval.
    """

    mean: float
    halfwidth: float
    std_between: float
    batches: int
    confidence: float = 0.90

    @property
    def relative_halfwidth(self) -> float:
        """Half width as a fraction of the mean (inf for mean 0)."""
        if self.mean == 0.0:
            return math.inf
        return abs(self.halfwidth / self.mean)

    def covers(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return abs(value - self.mean) <= self.halfwidth

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.halfwidth:.3f}"


def batch_means(
    values: Sequence[float],
    confidence: float = 0.90,
) -> BatchMeansEstimate:
    """Confidence interval for the mean of per-batch estimates.

    Parameters
    ----------
    values:
        One estimate per batch (at least two).
    confidence:
        Two-sided confidence level (the paper uses 0.90).
    """
    clean = [value for value in values if not math.isnan(value)]
    if len(clean) < 2:
        raise StatisticsError(
            f"batch means needs >= 2 usable batch values, got {len(clean)}"
        )
    if not 0.0 < confidence < 1.0:
        raise StatisticsError(f"confidence must be in (0, 1), got {confidence}")
    count = len(clean)
    mean = sum(clean) / count
    variance = sum((value - mean) ** 2 for value in clean) / (count - 1)
    std = math.sqrt(variance)
    critical = t_quantile(0.5 + confidence / 2.0, count - 1)
    halfwidth = critical * std / math.sqrt(count)
    return BatchMeansEstimate(
        mean=mean,
        halfwidth=halfwidth,
        std_between=std,
        batches=count,
        confidence=confidence,
    )
