"""Scenario builders for the paper's experiments.

A :class:`ScenarioSpec` describes the agent population: one
:class:`AgentSpec` per agent, each with its inter-request time
distribution and loop mode.  Builders construct the exact populations of
the paper's §4:

- :func:`equal_load` — N statistically identical agents (Tables 4.1/4.2,
  Figure 4.1, Table 4.3);
- :func:`unequal_load` — one agent with a rate multiple of the rest
  (Table 4.4);
- :func:`worst_case_rr` — the contrived §4.5 scenario where a slow agent
  deterministically "just misses" its round-robin turn (Table 4.5);
- :func:`open_loop_equal_load` — an extension with non-blocking sources
  and multiple outstanding requests per agent (§3.2's r > 1).

Offered load follows the paper's definition: an agent's offered load is
its transaction time divided by (transaction time + mean inter-request
time), i.e. the bus fraction it would consume with zero interference.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.workload.distributions import Distribution, from_mean_cv

__all__ = [
    "AgentSpec",
    "ScenarioSpec",
    "fresh_scenario",
    "mean_interrequest_for_load",
    "equal_load",
    "unequal_load",
    "worst_case_rr",
    "open_loop_equal_load",
]


def mean_interrequest_for_load(load: float, transaction_time: float = 1.0) -> float:
    """Mean inter-request time giving one agent the requested offered load.

    Inverts ``load = S / (S + mean)``; an offered load of 1 means the
    agent re-requests immediately (mean 0).
    """
    if not 0.0 < load <= 1.0:
        raise ConfigurationError(
            f"per-agent offered load must be in (0, 1], got {load}"
        )
    return transaction_time * (1.0 - load) / load


@dataclass(frozen=True)
class AgentSpec:
    """Workload of one agent.

    Attributes
    ----------
    agent_id:
        Static identity (1..N); also the agent's fixed arbitration
        priority in the protocols that fall back to static order.
    interrequest:
        Distribution of the time the agent computes between completing
        one bus transaction and issuing the next request.
    priority_fraction:
        Probability that a request is urgent-class (extension; the
        paper's experiments use 0).
    open_loop:
        If true, the agent keeps issuing requests while earlier ones are
        pending (up to ``max_outstanding``); if false it stalls, the
        paper's closed-loop processor model.
    max_outstanding:
        Maximum simultaneously pending requests (r of §3.2).
    """

    agent_id: int
    interrequest: Distribution
    priority_fraction: float = 0.0
    open_loop: bool = False
    max_outstanding: int = 1

    def __post_init__(self) -> None:
        if self.agent_id < 1:
            raise ConfigurationError(f"agent_id must be >= 1, got {self.agent_id}")
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ConfigurationError(
                f"priority_fraction must be in [0, 1], got {self.priority_fraction}"
            )
        if self.max_outstanding < 1:
            raise ConfigurationError(
                f"max_outstanding must be >= 1, got {self.max_outstanding}"
            )
        if not self.open_loop and self.max_outstanding != 1:
            raise ConfigurationError(
                "a closed-loop agent stalls on its request; max_outstanding "
                "must be 1 (use open_loop=True for r > 1)"
            )

    def offered_load(self, transaction_time: float = 1.0) -> float:
        """The paper's offered load: S / (S + mean inter-request time)."""
        return transaction_time / (transaction_time + self.interrequest.mean)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete agent population plus a descriptive name."""

    name: str
    agents: Tuple[AgentSpec, ...]
    notes: str = ""

    def __post_init__(self) -> None:
        ids = [agent.agent_id for agent in self.agents]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate agent ids in scenario {self.name!r}")
        if not self.agents:
            raise ConfigurationError("a scenario needs at least one agent")

    @property
    def num_agents(self) -> int:
        """Population size (identities are 1..num_agents)."""
        return max(agent.agent_id for agent in self.agents)

    def total_offered_load(self, transaction_time: float = 1.0) -> float:
        """Sum of per-agent offered loads (the tables' "Load" column)."""
        return sum(agent.offered_load(transaction_time) for agent in self.agents)

    def agent(self, agent_id: int) -> AgentSpec:
        """Spec of one agent by identity."""
        for spec in self.agents:
            if spec.agent_id == agent_id:
                return spec
        raise ConfigurationError(f"no agent {agent_id} in scenario {self.name!r}")


def fresh_scenario(scenario: ScenarioSpec) -> ScenarioSpec:
    """A scenario one run may use, and advance, on its own.

    Renewal distributions are stateless (sampling is a pure function of
    the rng), so a scenario without a stateful distribution is returned
    as it is.  Otherwise each distinct stateful distribution (an MMPP
    phase, a trace cursor) is ``copy.copy``'d once, so agents that
    shared one object share its copy, and only the agents carrying one
    get a new :class:`AgentSpec`.  Sampling must therefore only rebind a
    stateful distribution's attributes, never mutate what they refer to.
    The new specs are shallow copies with one field changed: the specs
    they copy are already valid, so they are not validated again.
    """
    copies: Dict[int, Distribution] = {}
    agents: List[AgentSpec] = []
    for agent in scenario.agents:
        dist = agent.interrequest
        if dist.stateful:
            private = copies.get(id(dist))
            if private is None:
                private = copies[id(dist)] = copy.copy(dist)
            agent = _with_field(agent, "interrequest", private)
        agents.append(agent)
    if not copies:
        return scenario
    return _with_field(scenario, "agents", tuple(agents))


def _with_field(spec, name: str, value):
    """A shallow copy of the frozen dataclass ``spec`` with field ``name``
    set to ``value``, made without running ``__init__``.  Its fields keep
    their order, so it pickles as ``dataclasses.replace`` would build it."""
    clone = object.__new__(type(spec))
    state = clone.__dict__
    state.update(spec.__dict__)
    state[name] = value
    return clone


def equal_load(
    num_agents: int,
    total_load: float,
    cv: float = 1.0,
    transaction_time: float = 1.0,
) -> ScenarioSpec:
    """N identical agents sharing ``total_load`` equally (Tables 4.1/4.2)."""
    if num_agents < 1:
        raise ConfigurationError(f"num_agents must be >= 1, got {num_agents}")
    per_agent = total_load / num_agents
    mean = mean_interrequest_for_load(per_agent, transaction_time)
    agents = tuple(
        AgentSpec(agent_id=i, interrequest=from_mean_cv(mean, cv))
        for i in range(1, num_agents + 1)
    )
    return ScenarioSpec(
        name=f"equal-load-n{num_agents}-L{total_load:g}-cv{cv:g}",
        agents=agents,
        notes=f"{num_agents} identical agents, total offered load {total_load:g}, CV {cv:g}",
    )


def unequal_load(
    num_agents: int,
    regular_load: float,
    factor: float,
    cv: float = 1.0,
    hot_agent: int = 1,
    transaction_time: float = 1.0,
) -> ScenarioSpec:
    """One agent at ``factor`` times the others' offered load (Table 4.4).

    ``regular_load`` is the offered load of each regular agent; the hot
    agent (identity ``hot_agent``, agent 1 in the paper) gets
    ``factor * regular_load``.
    """
    if factor <= 0.0:
        raise ConfigurationError(f"factor must be > 0, got {factor}")
    if not 1 <= hot_agent <= num_agents:
        raise ConfigurationError(f"hot_agent {hot_agent} outside 1..{num_agents}")
    regular_mean = mean_interrequest_for_load(regular_load, transaction_time)
    hot_mean = mean_interrequest_for_load(factor * regular_load, transaction_time)
    agents = tuple(
        AgentSpec(
            agent_id=i,
            interrequest=from_mean_cv(hot_mean if i == hot_agent else regular_mean, cv),
        )
        for i in range(1, num_agents + 1)
    )
    return ScenarioSpec(
        name=f"unequal-n{num_agents}-x{factor:g}-l{regular_load:g}-cv{cv:g}",
        agents=agents,
        notes=(
            f"agent {hot_agent} at {factor:g}x the offered load "
            f"({factor * regular_load:g}) of the other {num_agents - 1} agents "
            f"({regular_load:g} each)"
        ),
    )


def worst_case_rr(
    num_agents: int,
    cv: float = 0.0,
    slow_agent: int = 1,
) -> ScenarioSpec:
    """The §4.5 contrived worst case for the RR protocol (Table 4.5).

    The slow agent's inter-request time is (n - 0.5); everyone else's is
    (n - 3.6).  With CV = 0 the slow agent deterministically "just
    misses" its turn in the round-robin order and waits a full round;
    any inter-request variability destroys the phase-lock.
    """
    if num_agents < 5:
        raise ConfigurationError(
            f"worst-case scenario needs n - 3.6 > 0, so num_agents >= 5; got {num_agents}"
        )
    if not 1 <= slow_agent <= num_agents:
        raise ConfigurationError(f"slow_agent {slow_agent} outside 1..{num_agents}")
    slow_mean = num_agents - 0.5
    other_mean = num_agents - 3.6
    agents = tuple(
        AgentSpec(
            agent_id=i,
            interrequest=from_mean_cv(slow_mean if i == slow_agent else other_mean, cv),
        )
        for i in range(1, num_agents + 1)
    )
    return ScenarioSpec(
        name=f"worst-case-rr-n{num_agents}-cv{cv:g}",
        agents=agents,
        notes=(
            f"slow agent {slow_agent}: mean inter-request {slow_mean:g}; "
            f"others: {other_mean:g}; CV {cv:g}"
        ),
    )


def open_loop_equal_load(
    num_agents: int,
    total_load: float,
    cv: float = 1.0,
    max_outstanding: int = 4,
    transaction_time: float = 1.0,
) -> ScenarioSpec:
    """Extension: non-blocking sources with r outstanding requests each.

    The inter-request clock keeps running while requests are pending, so
    ``total_load`` here is a true arrival-rate load (requests per
    transaction time); it must stay below 1 for stability.
    """
    if not 0.0 < total_load < 1.0:
        raise ConfigurationError(
            f"open-loop total load must be in (0, 1) for stability, got {total_load}"
        )
    # Open loop: offered load per agent = (arrival rate) * S, so the mean
    # inter-arrival time is S / per-agent load (no "minus service time" —
    # the clock does not stop during service).
    per_agent_load = total_load / num_agents
    mean = transaction_time / per_agent_load
    agents = tuple(
        AgentSpec(
            agent_id=i,
            interrequest=from_mean_cv(mean, cv),
            open_loop=True,
            max_outstanding=max_outstanding,
        )
        for i in range(1, num_agents + 1)
    )
    return ScenarioSpec(
        name=f"open-loop-n{num_agents}-L{total_load:g}-r{max_outstanding}",
        agents=agents,
        notes=(
            f"{num_agents} open-loop agents, r={max_outstanding} outstanding "
            f"requests each, total load {total_load:g}"
        ),
    )
