"""Inter-request time distributions, parameterised by mean and CV.

The paper (§4.1) specifies inter-request times by their mean and
coefficient of variation (CV = standard deviation / mean), with CV swept
between 0 (deterministic) and 1 (exponential) and the Erlang family used
in between.  :func:`from_mean_cv` reproduces that parameterisation; a
two-phase hyperexponential extends it to CV > 1 for sensitivity studies
beyond the paper.
"""

from __future__ import annotations

import abc
import math
import random
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Erlang",
    "Hyperexponential",
    "from_mean_cv",
]


class Distribution(abc.ABC):
    """A non-negative random variable with known mean and CV."""

    #: Whether sampling mutates the distribution object itself (trace
    #: replay cursors, MMPP phases).  Engines that run several
    #: simulations from one scenario object only need private copies
    #: when this is set — renewal distributions are pure functions of
    #: the passed-in rng.  The copy is shallow
    #: (:func:`~repro.workload.scenarios.fresh_scenario`), so sampling
    #: may rebind the object's attributes but not mutate their values.
    stateful: bool = False

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @property
    @abc.abstractmethod
    def cv(self) -> float:
        """Coefficient of variation (standard deviation / mean)."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one variate using the provided generator."""

    def sample_batch(self, rng: random.Random, count: int) -> List[float]:
        """Draw ``count`` variates — the same sequence ``count`` calls to
        :meth:`sample` would produce, amortising per-draw dispatch.

        Hot-path consumers (the bus agents) draw think times in blocks;
        subclasses override with a tight loop where it pays.  Stateful
        distributions inherit this default, which preserves their state
        progression exactly.
        """
        sample = self.sample
        return [sample(rng) for _ in range(count)]

    @abc.abstractmethod
    def survival(self, x: float) -> float:
        """P(X > x) — used by the analytical models of :mod:`repro.analysis`."""

    def spec_key(self) -> Tuple[object, ...]:
        """A stable, hashable description of this distribution.

        Used by the experiment result cache to key cells by workload
        content; two distributions with equal keys must generate identical
        variate sequences from identical generators.  Subclasses whose
        behaviour is not captured by (type, mean, CV) — e.g. trace
        replay — must override.
        """
        return (type(self).__name__, self.mean, self.cv)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(mean={self.mean:.6g}, cv={self.cv:.3g})"


class Deterministic(Distribution):
    """A constant: CV = 0."""

    def __init__(self, value: float) -> None:
        if value < 0.0:
            raise ConfigurationError(f"deterministic value must be >= 0, got {value}")
        self._value = float(value)

    @property
    def mean(self) -> float:
        return self._value

    @property
    def cv(self) -> float:
        return 0.0

    def sample(self, rng: random.Random) -> float:
        return self._value

    def sample_batch(self, rng: random.Random, count: int) -> List[float]:
        return [self._value] * count

    def survival(self, x: float) -> float:
        """P(X > x): a step at the constant value."""
        return 1.0 if x < self._value else 0.0


class Exponential(Distribution):
    """Exponential with the given mean: CV = 1, the paper's peak contention."""

    def __init__(self, mean: float) -> None:
        if mean <= 0.0:
            raise ConfigurationError(f"exponential mean must be > 0, got {mean}")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def cv(self) -> float:
        return 1.0

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def sample_batch(self, rng: random.Random, count: int) -> List[float]:
        # Bit-identical inline of ``rng.expovariate(rate)`` (CPython
        # computes ``-log(1.0 - random()) / lambd``): the bound-method
        # call per draw is measurable on the lane engine's hot path.
        random_ = rng.random
        log = math.log
        rate = 1.0 / self._mean
        return [-log(1.0 - random_()) / rate for _ in range(count)]

    def survival(self, x: float) -> float:
        """P(X > x) = exp(-x / mean)."""
        if x <= 0.0:
            return 1.0
        return math.exp(-x / self._mean)


class Erlang(Distribution):
    """Erlang-k with the given mean: CV = 1/sqrt(k).

    The sum of k independent exponentials; the paper uses it for
    0 < CV < 1.
    """

    def __init__(self, mean: float, shape: int) -> None:
        if mean <= 0.0:
            raise ConfigurationError(f"Erlang mean must be > 0, got {mean}")
        if shape < 1:
            raise ConfigurationError(f"Erlang shape must be >= 1, got {shape}")
        self._mean = float(mean)
        self.shape = int(shape)
        self._phase_mean = self._mean / self.shape

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def cv(self) -> float:
        return 1.0 / math.sqrt(self.shape)

    def sample(self, rng: random.Random) -> float:
        # gammavariate(k, theta) is the Erlang when k is integral.
        return rng.gammavariate(self.shape, self._phase_mean)

    def sample_batch(self, rng: random.Random, count: int) -> List[float]:
        gammavariate = rng.gammavariate
        shape, phase_mean = self.shape, self._phase_mean
        return [gammavariate(shape, phase_mean) for _ in range(count)]

    def survival(self, x: float) -> float:
        """P(X > x): the Erlang-k survival (truncated Poisson sum)."""
        if x <= 0.0:
            return 1.0
        rate_x = x / self._phase_mean
        term = math.exp(-rate_x)
        total = term
        for j in range(1, self.shape):
            term *= rate_x / j
            total += term
        return min(1.0, total)


class Hyperexponential(Distribution):
    """Two-phase hyperexponential with balanced means: CV > 1.

    An extension beyond the paper's CV <= 1 sweep, used by the
    variability-sensitivity benches.  Phase probabilities follow the
    standard balanced-means construction for a target CV.
    """

    def __init__(self, mean: float, cv: float) -> None:
        if mean <= 0.0:
            raise ConfigurationError(f"mean must be > 0, got {mean}")
        if cv <= 1.0:
            raise ConfigurationError(
                f"hyperexponential requires CV > 1, got {cv}; use Erlang/Exponential"
            )
        self._mean = float(mean)
        self._cv = float(cv)
        squared = cv * cv
        # Balanced means: p1 * mean1 == p2 * mean2 == mean / 2, with p1
        # chosen so the squared CV comes out right.
        self._p1 = 0.5 * (1.0 + math.sqrt((squared - 1.0) / (squared + 1.0)))
        self._mean1 = self._mean / (2.0 * self._p1)
        self._mean2 = self._mean / (2.0 * (1.0 - self._p1))

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def cv(self) -> float:
        return self._cv

    def sample(self, rng: random.Random) -> float:
        phase_mean = self._mean1 if rng.random() < self._p1 else self._mean2
        return rng.expovariate(1.0 / phase_mean)

    def sample_batch(self, rng: random.Random, count: int) -> List[float]:
        uniform, expovariate = rng.random, rng.expovariate
        p1, mean1, mean2 = self._p1, self._mean1, self._mean2
        return [
            expovariate(1.0 / (mean1 if uniform() < p1 else mean2))
            for _ in range(count)
        ]

    def survival(self, x: float) -> float:
        """P(X > x): probability-weighted exponential survivals."""
        if x <= 0.0:
            return 1.0
        return self._p1 * math.exp(-x / self._mean1) + (1.0 - self._p1) * math.exp(
            -x / self._mean2
        )


def from_mean_cv(mean: float, cv: float) -> Distribution:
    """Build the paper's distribution for a given mean and CV.

    CV = 0 gives a constant, CV = 1 the exponential, 0 < CV < 1 the
    Erlang with shape ``round(1 / CV**2)`` (so the realised CV is the
    nearest achievable ``1/sqrt(k)``), and CV > 1 the balanced-means
    hyperexponential extension.
    """
    if mean < 0.0:
        raise ConfigurationError(f"mean must be >= 0, got {mean}")
    if cv < 0.0:
        raise ConfigurationError(f"cv must be >= 0, got {cv}")
    if cv == 0.0 or mean == 0.0:
        return Deterministic(mean)
    if cv == 1.0:
        return Exponential(mean)
    if cv < 1.0:
        squared = cv * cv
        if squared == 0.0 or 1.0 / squared > 2**31:
            # CV too small to represent as an Erlang shape: a constant is
            # indistinguishable at this precision.
            return Deterministic(mean)
        shape = max(1, round(1.0 / squared))
        return Erlang(mean, shape)
    return Hyperexponential(mean, cv)
