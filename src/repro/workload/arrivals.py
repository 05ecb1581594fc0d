"""Open-loop arrival processes and the scenario builders that use them.

The paper's experiments (§4) all run the closed processor loop: an agent
computes for a think time, requests, stalls until served, repeats.  Its
§5 priority-integration options and the fairness comparisons they enable
only become interesting under *open-loop* and *multi-class* traffic —
arrival clocks that keep running during service, bursty sources, and
urgent/normal request classes.  This module supplies that vocabulary:

- :class:`MarkovModulatedPoisson` — a two-state MMPP: Poisson arrivals
  whose rate is modulated by a two-state continuous-time Markov chain.
  With one rate zero it degenerates to the classic on-off (interrupted
  Poisson) source, built by :func:`on_off_poisson`.  Grounding: Nikolov
  & Lerato's cache-miss-driven shared-bus traffic is bursty precisely
  because private caches alternate hit runs (no bus traffic) with miss
  bursts — an on-off modulation of the request stream.
- :func:`bursty_equal_load` — N identical on-off sources at a target
  average load (open loop by default).
- :func:`heterogeneous_load` — per-agent arrival rates on a linear ramp
  (agent N offers ``skew`` times agent 1's load), the open-loop analogue
  of the paper's Table 4.4 asymmetry.
- :func:`two_class_priority_load` — every request is urgent with
  probability ``urgent_fraction``, exercising the paper's §5
  fixed-priority overlay (RR impls 1/3 and FCFS strategies 1/2 all
  arbitrate the priority bit above their own number).

The MMPP is *stateful* (the modulating phase persists across draws, so
consecutive inter-arrival times are correlated — the whole point of the
model); like :class:`~repro.workload.traces.TraceDistribution` it
carries ``stateful = True`` so every run copies it
(:func:`~repro.workload.scenarios.fresh_scenario`) instead of sharing
one object across replications.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.workload.distributions import Distribution, from_mean_cv
from repro.workload.scenarios import AgentSpec, ScenarioSpec, mean_interrequest_for_load

__all__ = [
    "MarkovModulatedPoisson",
    "on_off_poisson",
    "bursty_equal_load",
    "heterogeneous_load",
    "two_class_priority_load",
]


class MarkovModulatedPoisson(Distribution):
    """Two-state Markov-modulated Poisson process (MMPP-2).

    A continuous-time Markov chain with states 0 and 1 switches at rates
    ``switch_rates = (r0, r1)`` (state i leaves at rate ``ri``); while in
    state i, arrivals occur at Poisson rate ``rates[i]``.  Inter-arrival
    times are sampled exactly by competing exponentials: from the current
    phase the next event happens after Exp(rate + switch) time and is an
    arrival with probability rate / (rate + switch), else a phase change.
    In a zero-rate phase no uniform is drawn — the only event is the
    switch — which keeps RNG consumption minimal and reproducible.

    Mean and CV are the stationary inter-arrival moments of the
    phase-type distribution PH(phi, D0) seen from an arrival epoch
    (phi is the arrival-weighted stationary phase vector), so analytical
    consumers see the long-run process, independent of the initial
    ``phase``.  Burstiness shows up as CV > 1 whenever the two rates
    differ.

    Parameters
    ----------
    rates:
        Arrival rates (lambda0, lambda1), each >= 0, not both 0.
    switch_rates:
        Phase-leaving rates (r0, r1), each > 0.
    phase:
        Initial modulating phase, 0 or 1.
    """

    stateful = True

    def __init__(
        self,
        rates: Tuple[float, float],
        switch_rates: Tuple[float, float],
        phase: int = 0,
    ) -> None:
        lam0, lam1 = (float(rates[0]), float(rates[1]))
        r0, r1 = (float(switch_rates[0]), float(switch_rates[1]))
        if lam0 < 0.0 or lam1 < 0.0:
            raise ConfigurationError(f"arrival rates must be >= 0, got {rates}")
        if lam0 == 0.0 and lam1 == 0.0:
            raise ConfigurationError("at least one MMPP phase must have rate > 0")
        if r0 <= 0.0 or r1 <= 0.0:
            raise ConfigurationError(f"switch rates must be > 0, got {switch_rates}")
        if phase not in (0, 1):
            raise ConfigurationError(f"phase must be 0 or 1, got {phase}")
        self.rates = (lam0, lam1)
        self.switch_rates = (r0, r1)
        self.phase = int(phase)

        # Time-stationary phase probabilities of the modulating chain and
        # the long-run arrival rate lambda* they induce.
        pi0 = r1 / (r0 + r1)
        pi1 = r0 / (r0 + r1)
        lam_star = pi0 * lam0 + pi1 * lam1
        self._mean = 1.0 / lam_star
        # Arrival-epoch phase vector phi = pi D1 / (pi D1 . 1): the phase
        # an arbitrary arrival finds the chain in.
        self._phi = (pi0 * lam0 / lam_star, pi1 * lam1 / lam_star)
        # Inter-arrival moments of PH(phi, D0) with
        # D0 = [[-(l0+r0), r0], [r1, -(l1+r1)]]: E[T^k] = k! phi (-D0)^-k 1.
        det = lam0 * lam1 + lam0 * r1 + lam1 * r0
        inv = (
            ((lam1 + r1) / det, r0 / det),
            (r1 / det, (lam0 + r0) / det),
        )
        v1 = (inv[0][0] + inv[0][1], inv[1][0] + inv[1][1])  # (-D0)^-1 . 1
        v2 = (
            inv[0][0] * v1[0] + inv[0][1] * v1[1],
            inv[1][0] * v1[0] + inv[1][1] * v1[1],
        )
        m1 = self._phi[0] * v1[0] + self._phi[1] * v1[1]
        m2 = 2.0 * (self._phi[0] * v2[0] + self._phi[1] * v2[1])
        variance = max(0.0, m2 - m1 * m1)
        self._cv = math.sqrt(variance) / m1
        # Eigenvalues of D0 for the closed-form survival; the discriminant
        # (a - d)^2 + 4 r0 r1 is strictly positive, so they are real and
        # distinct — no degenerate branch needed.
        a, d = -(lam0 + r0), -(lam1 + r1)
        half_gap = 0.5 * math.sqrt((a - d) * (a - d) + 4.0 * r0 * r1)
        mid = 0.5 * (a + d)
        self._eigs = (mid + half_gap, mid - half_gap)

    @property
    def mean(self) -> float:
        """Stationary mean inter-arrival time, 1 / lambda*."""
        return self._mean

    @property
    def cv(self) -> float:
        """Stationary inter-arrival CV (> 1 whenever the rates differ)."""
        return self._cv

    def sample(self, rng: random.Random) -> float:
        """Time to the next arrival from the current modulating phase."""
        rates, switch = self.rates, self.switch_rates
        phase = self.phase
        expovariate, uniform = rng.expovariate, rng.random
        elapsed = 0.0
        while True:
            lam = rates[phase]
            total = lam + switch[phase]
            elapsed += expovariate(total)
            if lam > 0.0 and uniform() * total < lam:
                self.phase = phase
                return elapsed
            phase = 1 - phase

    def sample_batch(self, rng: random.Random, count: int) -> List[float]:
        """``count`` calls of :meth:`sample` in one loop.

        Both engines draw MMPP think times here.  The phase lives in a
        local and each phase's rates in their own names, and
        ``expovariate(total)`` is inlined as CPython computes it,
        ``-log(1.0 - random()) / total``, as ``Exponential`` does: the
        same variates, final phase and generator state as the loop of
        :meth:`sample`, without its per-draw calls and lookups.
        """
        rate0, rate1 = self.rates
        total0 = rate0 + self.switch_rates[0]
        total1 = rate1 + self.switch_rates[1]
        random_ = rng.random
        log = math.log
        phase = self.phase
        values: List[float] = []
        append = values.append
        for _ in range(count):
            elapsed = 0.0
            while True:
                if phase:
                    elapsed += -log(1.0 - random_()) / total1
                    if rate1 > 0.0 and random_() * total1 < rate1:
                        break
                    phase = 0
                else:
                    elapsed += -log(1.0 - random_()) / total0
                    if rate0 > 0.0 and random_() * total0 < rate0:
                        break
                    phase = 1
            append(elapsed)
        self.phase = phase
        return values

    def survival(self, x: float) -> float:
        """P(T > x) = phi exp(D0 x) 1, via the 2x2 spectral form."""
        if x <= 0.0:
            return 1.0
        mu1, mu2 = self._eigs
        # phi D0 1 = -(phi0 l0 + phi1 l1); Lagrange-Sylvester on D0 gives
        # survival = [e^(mu1 x)(s - mu2) - e^(mu2 x)(s - mu1)] / (mu1 - mu2).
        s = -(self._phi[0] * self.rates[0] + self._phi[1] * self.rates[1])
        value = (
            math.exp(mu1 * x) * (s - mu2) - math.exp(mu2 * x) * (s - mu1)
        ) / (mu1 - mu2)
        return min(1.0, max(0.0, value))

    def spec_key(self) -> Tuple[object, ...]:
        """Parameters plus the current phase (sampling depends on it)."""
        return (
            type(self).__name__,
            self.rates[0],
            self.rates[1],
            self.switch_rates[0],
            self.switch_rates[1],
            self.phase,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MarkovModulatedPoisson(rates={self.rates}, "
            f"switch_rates={self.switch_rates}, phase={self.phase})"
        )


def on_off_poisson(
    rate: float,
    mean_on: float,
    mean_off: float,
    phase: int = 0,
) -> MarkovModulatedPoisson:
    """An on-off (interrupted Poisson) source as a degenerate MMPP.

    Phase 0 is *on* — Poisson arrivals at ``rate`` for Exp(``mean_on``)
    time — and phase 1 is *off* — silent for Exp(``mean_off``) time.
    The long-run arrival rate is ``rate * mean_on / (mean_on + mean_off)``.
    """
    if rate <= 0.0:
        raise ConfigurationError(f"on-rate must be > 0, got {rate}")
    if mean_on <= 0.0 or mean_off <= 0.0:
        raise ConfigurationError(
            f"phase durations must be > 0, got on={mean_on}, off={mean_off}"
        )
    return MarkovModulatedPoisson(
        rates=(rate, 0.0),
        switch_rates=(1.0 / mean_on, 1.0 / mean_off),
        phase=phase,
    )


def bursty_equal_load(
    num_agents: int,
    total_load: float,
    on_fraction: float = 0.5,
    cycle_time: float = 20.0,
    urgent_fraction: float = 0.0,
    open_loop: bool = True,
    max_outstanding: int = 1,
    transaction_time: float = 1.0,
) -> ScenarioSpec:
    """N identical on-off bursty sources at a target average load.

    Each agent is an :func:`on_off_poisson` source spending
    ``on_fraction`` of an average ``cycle_time`` in the on phase, with
    the on-rate chosen so the *long-run* per-agent load is
    ``total_load / num_agents`` — during a burst the instantaneous load
    is ``1 / on_fraction`` times that.  Every agent gets its own
    distribution instance (the modulating phase is per-agent state).

    ``urgent_fraction`` > 0 adds the §5 two-class overlay on top of the
    bursty arrivals.
    """
    if num_agents < 1:
        raise ConfigurationError(f"num_agents must be >= 1, got {num_agents}")
    if not 0.0 < total_load < 1.0:
        raise ConfigurationError(
            f"open-loop total load must be in (0, 1) for stability, got {total_load}"
        )
    if not 0.0 < on_fraction < 1.0:
        raise ConfigurationError(f"on_fraction must be in (0, 1), got {on_fraction}")
    if cycle_time <= 0.0:
        raise ConfigurationError(f"cycle_time must be > 0, got {cycle_time}")
    per_agent_rate = total_load / num_agents / transaction_time
    on_rate = per_agent_rate / on_fraction
    mean_on = on_fraction * cycle_time
    mean_off = (1.0 - on_fraction) * cycle_time
    agents = tuple(
        AgentSpec(
            agent_id=i,
            interrequest=on_off_poisson(on_rate, mean_on, mean_off),
            priority_fraction=urgent_fraction,
            open_loop=open_loop,
            max_outstanding=max_outstanding,
        )
        for i in range(1, num_agents + 1)
    )
    return ScenarioSpec(
        name=(
            f"bursty-n{num_agents}-L{total_load:g}-on{on_fraction:g}"
            f"-c{cycle_time:g}"
            + (f"-u{urgent_fraction:g}" if urgent_fraction > 0.0 else "")
        ),
        agents=agents,
        notes=(
            f"{num_agents} on-off sources, average load {total_load:g}, "
            f"burst rate {on_rate:g}/S over {on_fraction:g} of a "
            f"{cycle_time:g}-unit cycle"
        ),
    )


def heterogeneous_load(
    num_agents: int,
    total_load: float,
    skew: float = 2.0,
    cv: float = 1.0,
    open_loop: bool = True,
    max_outstanding: int = 1,
    transaction_time: float = 1.0,
) -> ScenarioSpec:
    """Per-agent arrival rates on a linear ramp summing to ``total_load``.

    Agent N offers ``skew`` times agent 1's load; intermediate agents
    interpolate linearly.  ``skew`` = 1 recovers the equal-load
    population.  Open loop by default (rates are true arrival rates);
    with ``open_loop=False`` the same ramp is applied to closed-loop
    think times via :func:`mean_interrequest_for_load`.
    """
    if num_agents < 1:
        raise ConfigurationError(f"num_agents must be >= 1, got {num_agents}")
    if skew <= 0.0:
        raise ConfigurationError(f"skew must be > 0, got {skew}")
    if open_loop and not 0.0 < total_load < 1.0:
        raise ConfigurationError(
            f"open-loop total load must be in (0, 1) for stability, got {total_load}"
        )
    if num_agents == 1:
        weights = [1.0]
    else:
        weights = [
            1.0 + (skew - 1.0) * (i - 1) / (num_agents - 1)
            for i in range(1, num_agents + 1)
        ]
    scale = total_load / sum(weights)
    agents = []
    for i, weight in enumerate(weights, start=1):
        per_agent_load = weight * scale
        if open_loop:
            mean = transaction_time / per_agent_load
        else:
            mean = mean_interrequest_for_load(per_agent_load, transaction_time)
        agents.append(
            AgentSpec(
                agent_id=i,
                interrequest=from_mean_cv(mean, cv),
                open_loop=open_loop,
                max_outstanding=max_outstanding if open_loop else 1,
            )
        )
    loop = "open" if open_loop else "closed"
    return ScenarioSpec(
        name=f"hetero-n{num_agents}-L{total_load:g}-skew{skew:g}-{loop}",
        agents=tuple(agents),
        notes=(
            f"{num_agents} {loop}-loop agents on a linear rate ramp, "
            f"agent {num_agents} at {skew:g}x agent 1, total load {total_load:g}"
        ),
    )


def two_class_priority_load(
    num_agents: int,
    total_load: float,
    urgent_fraction: float = 0.2,
    cv: float = 1.0,
    open_loop: bool = False,
    max_outstanding: int = 1,
    transaction_time: float = 1.0,
) -> ScenarioSpec:
    """Two traffic classes: each request is urgent with fixed probability.

    Exercises the paper's §5 priority-integration options — all the
    distributed protocols arbitrate a priority bit above their own
    number field, so urgent requests always beat normal ones and
    compete among themselves under the underlying discipline (RR
    impls 1/3 keep their round-robin state; FCFS strategies 1/2 keep
    arrival order within the class).
    """
    if num_agents < 1:
        raise ConfigurationError(f"num_agents must be >= 1, got {num_agents}")
    if not 0.0 < urgent_fraction < 1.0:
        raise ConfigurationError(
            f"urgent_fraction must be in (0, 1) for two classes, got {urgent_fraction}"
        )
    per_agent = total_load / num_agents
    if open_loop:
        if not 0.0 < total_load < 1.0:
            raise ConfigurationError(
                f"open-loop total load must be in (0, 1) for stability, got {total_load}"
            )
        mean = transaction_time / per_agent
    else:
        mean = mean_interrequest_for_load(per_agent, transaction_time)
    agents = tuple(
        AgentSpec(
            agent_id=i,
            interrequest=from_mean_cv(mean, cv),
            priority_fraction=urgent_fraction,
            open_loop=open_loop,
            max_outstanding=max_outstanding if open_loop else 1,
        )
        for i in range(1, num_agents + 1)
    )
    loop = "open" if open_loop else "closed"
    return ScenarioSpec(
        name=(
            f"two-class-n{num_agents}-L{total_load:g}"
            f"-u{urgent_fraction:g}-{loop}"
        ),
        agents=agents,
        notes=(
            f"{num_agents} {loop}-loop agents, total load {total_load:g}, "
            f"each request urgent with probability {urgent_fraction:g} (§5 overlay)"
        ),
    )
