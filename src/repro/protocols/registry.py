"""Protocol registry: every arbiter as a declarative :class:`ProtocolSpec`.

The paper's whole evaluation is a grid of independent ``(scenario,
protocol, settings)`` cells, so protocols are *data*: each entry declares
its name, a factory with one uniform calling convention
``factory(num_agents, max_outstanding)``, and its capabilities —

- whether it supports ``r > 1`` outstanding requests per agent (only the
  FCFS arbiters do, §3.2);
- the extra bus lines it consumes beyond the k arbitration lines and the
  shared request line (RR priority bit / low-request line / a-incr);
- the arbitration-number width as a function of N (and r);
- the paper section that introduces it;
- whether it participates in common-random-number protocol comparisons
  (the central oracles exist to check winner sequences, not to be
  compared for throughput).

:func:`make_arbiter` validates a scenario's needs against these declared
capabilities at configuration time, so an RR run over an ``r = 4``
open-loop scenario fails with a precise error before the simulation
starts instead of a :class:`~repro.errors.ProtocolError` deep inside it.

Ad-hoc protocols (tests, notebooks) can still be registered by assigning
a bare callable to :data:`PROTOCOLS`; it is wrapped into a spec with
conservative capabilities.
"""

from __future__ import annotations

import difflib
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, MutableMapping, Optional, Tuple

from repro.baselines.assured_access import BatchingAssuredAccess, FuturebusAssuredAccess
from repro.baselines.central import CentralFCFS, CentralRoundRobin
from repro.baselines.fixed_priority import FixedPriorityArbiter
from repro.baselines.rotating import RotatingPriorityRR
from repro.baselines.ticket import TicketFCFS
from repro.core.adaptive import AdaptiveArbiter
from repro.core.base import Arbiter, identity_bits
from repro.core.fcfs import DistributedFCFS
from repro.core.hybrid import HybridArbiter
from repro.core.round_robin import DistributedRoundRobin
from repro.errors import ConfigurationError
from repro.faults.arbiters import FaultyWinnerRegisterRR, GlitchableFCFS
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultKind

__all__ = [
    "ProtocolSpec",
    "ProtocolRegistry",
    "PROTOCOLS",
    "register",
    "unregister",
    "get_spec",
    "protocol_names",
    "make_arbiter",
]

#: Width of the effective arbitration number, in bits, as a function of
#: the agent count (and, where the protocol supports it, of r).
WidthFn = Callable[..., int]


def _width_static(num_agents: int, max_outstanding: int = 1) -> int:
    """k bits: the bare static identity (central oracles, rotating, ticket)."""
    return identity_bits(num_agents)


def _width_static_plus_priority(num_agents: int, max_outstanding: int = 1) -> int:
    """k + 1 bits: priority bit over the static identity."""
    return identity_bits(num_agents) + 1


def _width_rr(num_agents: int, max_outstanding: int = 1) -> int:
    """k + 2 bits: priority bit + RR bit + static identity (impl 1 layout)."""
    return identity_bits(num_agents) + 2


def _width_fcfs(num_agents: int, max_outstanding: int = 1) -> int:
    """2k + 1 (+ ceil(log2 r)) bits: priority + waiting counter + identity."""
    k = identity_bits(num_agents)
    extra = math.ceil(math.log2(max_outstanding)) if max_outstanding > 1 else 0
    return 2 * k + 1 + extra


def _width_hybrid(num_agents: int, max_outstanding: int = 1) -> int:
    """2k + 1 bits: age counter + RR bit + static identity."""
    return 2 * identity_bits(num_agents) + 1


def _width_adaptive(num_agents: int, max_outstanding: int = 1) -> int:
    """2k bits: age counter + static identity (no RR bit)."""
    return 2 * identity_bits(num_agents)


@dataclass(frozen=True)
class ProtocolSpec:
    """Declarative description of one registered arbitration protocol.

    Attributes
    ----------
    name:
        Registry key, as used by experiments, the CLI and the cache.
    factory:
        ``factory(num_agents, max_outstanding) -> Arbiter``.  Every
        registered factory sees the same two arguments; protocols that
        do not support ``r > 1`` simply never receive it above 1 because
        :meth:`build` validates first.
    summary:
        One-line human description (CLI listing, docs table).
    paper_section:
        Where the paper (or cited prior work) introduces the protocol.
    supports_outstanding:
        Whether the protocol handles ``r > 1`` outstanding requests per
        agent (§3.2: only the FCFS arbiters do).
    extra_lines:
        Declared extra bus lines beyond the k arbitration lines and the
        shared request line; ``None`` for ad-hoc specs (probe the
        instance instead).
    number_width:
        Declared arbitration-number width ``f(N[, r])`` in bits; ``None``
        for ad-hoc specs.
    common_random_numbers:
        Whether the protocol participates in common-random-number
        comparisons (same seed, identical arrivals).  False for the
        central oracles, which exist to verify winner sequences.
    injectable_faults:
        The :class:`~repro.faults.plan.FaultKind` classes the protocol
        can meaningfully absorb: bus-level line faults for everything
        that arbitrates on shared wired-OR lines, plus protocol-specific
        faults (dropped winner broadcasts where a winner register is
        replicated, counter upsets where waiting-time counters exist).
        Empty for ad-hoc specs: fault plans are refused at config time.
    supports_batch:
        Whether the batch lane engine (:mod:`repro.engine.batch`)
        has an exact kernel for the protocol.  Only the paper's core
        protocols qualify; everything else transparently
        falls back to the event-driven engine.
    supports_batch_faults:
        Whether that batch kernel also exposes the exact per-agent
        arbitration numbers the fault injector perturbs, extending the
        kernel's verified domain to bus-level fault plans (line
        glitches, stuck lines, agent dropout) plus watchdog recovery.
        Never true without ``supports_batch``.
    """

    name: str
    factory: Callable[[int, int], Arbiter]
    summary: str = ""
    paper_section: str = ""
    supports_outstanding: bool = False
    extra_lines: Optional[int] = None
    number_width: Optional[WidthFn] = None
    common_random_numbers: bool = True
    injectable_faults: FrozenSet[FaultKind] = field(default_factory=frozenset)
    supports_batch: bool = False
    supports_batch_faults: bool = False

    def check_outstanding(self, max_outstanding: int) -> None:
        """Reject a per-agent capacity the protocol cannot serve."""
        if max_outstanding < 1:
            raise ConfigurationError(
                f"max_outstanding must be >= 1, got {max_outstanding}"
            )
        if max_outstanding > 1 and not self.supports_outstanding:
            raise ConfigurationError(
                f"protocol {self.name!r} supports one outstanding request per "
                f"agent, but the scenario needs r={max_outstanding}; only the "
                f"FCFS arbiters extend to r > 1 (§3.2) — use 'fcfs' or "
                f"'fcfs-aincr', or set max_outstanding=1"
            )

    def check_faults(self, kinds: Iterable[FaultKind]) -> None:
        """Reject fault kinds the protocol cannot meaningfully absorb."""
        unsupported = sorted(
            kind.value for kind in set(kinds) - self.injectable_faults
        )
        if unsupported:
            supported = sorted(kind.value for kind in self.injectable_faults)
            raise ConfigurationError(
                f"protocol {self.name!r} does not support fault injection of "
                f"{unsupported}; it supports {supported or 'no fault kinds'}"
            )

    def build(self, num_agents: int, max_outstanding: int = 1) -> Arbiter:
        """Instantiate the protocol after validating the scenario's needs."""
        self.check_outstanding(max_outstanding)
        return self.factory(num_agents, max_outstanding)

    @classmethod
    def from_callable(cls, name: str, factory: Callable) -> "ProtocolSpec":
        """Wrap a bare ``callable(num_agents[, r])`` as an ad-hoc spec.

        Single-argument callables are adapted to the uniform two-argument
        convention and declared incapable of ``r > 1``; callables that
        accept a second argument are trusted to honour it.
        """
        try:
            params = inspect.signature(factory).parameters
            takes_r = len(params) >= 2 or any(
                p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in params.values()
            )
        except (TypeError, ValueError):
            takes_r = True
        if takes_r:
            wrapped = factory
        else:
            def wrapped(num_agents: int, max_outstanding: int = 1) -> Arbiter:
                return factory(num_agents)
        return cls(
            name=name,
            factory=wrapped,
            summary="ad-hoc protocol (registered at runtime)",
            supports_outstanding=takes_r,
        )


#: The registry proper: name -> spec, in registration order.
_SPECS: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec, overwrite: bool = False) -> ProtocolSpec:
    """Add ``spec`` to the registry; returns it for chaining."""
    if not overwrite and spec.name in _SPECS:
        raise ConfigurationError(f"protocol {spec.name!r} is already registered")
    _SPECS[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registered protocol (ad-hoc test entries, mostly)."""
    try:
        del _SPECS[name]
    except KeyError:
        raise ConfigurationError(f"unknown protocol {name!r}") from None


def get_spec(name: str) -> ProtocolSpec:
    """The spec registered under ``name``; precise error when unknown."""
    try:
        return _SPECS[name]
    except KeyError:
        hint = ""
        close = difflib.get_close_matches(name, _SPECS, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        raise ConfigurationError(
            f"unknown protocol {name!r}{hint}; choose one of {sorted(_SPECS)}"
        ) from None


def protocol_names() -> Tuple[str, ...]:
    """All registered protocol names, sorted."""
    return tuple(sorted(_SPECS))


def make_arbiter(protocol: str, num_agents: int, max_outstanding: int = 1) -> Arbiter:
    """Instantiate a registered protocol for ``num_agents`` agents.

    Scenario needs are validated against the spec's declared capabilities
    here, at configuration time — an unknown name or an ``r > 1``
    scenario against a single-outstanding protocol raises
    :class:`~repro.errors.ConfigurationError` before any event runs.
    """
    return get_spec(protocol).build(num_agents, max_outstanding)


class ProtocolRegistry(MutableMapping):
    """Backward-compatible ``name -> factory`` view of the registry.

    Reading yields each spec's uniform two-argument factory; assigning a
    bare callable registers an ad-hoc :class:`ProtocolSpec`
    (single-argument callables are adapted); deleting unregisters.  The
    historical ``PROTOCOLS`` dict-of-lambdas API keeps working on top of
    the spec registry.
    """

    def __getitem__(self, name: str) -> Callable[[int, int], Arbiter]:
        return get_spec(name).factory

    def __setitem__(self, name: str, factory: Callable) -> None:
        if isinstance(factory, ProtocolSpec):
            spec = factory
            if spec.name != name:
                raise ConfigurationError(
                    f"spec name {spec.name!r} does not match registry key {name!r}"
                )
        else:
            spec = ProtocolSpec.from_callable(name, factory)
        register(spec, overwrite=True)

    def __delitem__(self, name: str) -> None:
        unregister(name)

    def __iter__(self) -> Iterator[str]:
        return iter(_SPECS)

    def __len__(self) -> int:
        return len(_SPECS)

    def spec(self, name: str) -> ProtocolSpec:
        """The full :class:`ProtocolSpec` behind a registry key."""
        return get_spec(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProtocolRegistry({sorted(_SPECS)})"


#: Mapping view used by experiments, the CLI and tests.
PROTOCOLS: ProtocolRegistry = ProtocolRegistry()


# ---------------------------------------------------------------------------
# Built-in protocols.  Factories all take (num_agents, max_outstanding);
# protocols without r-support never see max_outstanding > 1 (build()
# validates first), so they ignore the argument.
# ---------------------------------------------------------------------------

#: Protocols whose replicated winner register is exposed for injection.
_BROADCAST_FAULTS = BUS_LEVEL_FAULTS | {FaultKind.DROPPED_BROADCAST}
#: Central/ticket oracles arbitrate off-bus: only dropout reaches them.
_DROPOUT_ONLY = frozenset({FaultKind.AGENT_DROPOUT})

_BUILTIN_SPECS: Tuple[ProtocolSpec, ...] = (
    # the paper's contributions
    ProtocolSpec(
        name="rr",
        factory=lambda n, r: DistributedRoundRobin(n, implementation=1),
        summary="distributed round-robin, RR-priority-bit implementation",
        paper_section="§3.1",
        extra_lines=1,
        number_width=_width_rr,
        injectable_faults=BUS_LEVEL_FAULTS,
        supports_batch=True,
        supports_batch_faults=True,
    ),
    ProtocolSpec(
        name="rr-impl2",
        factory=lambda n, r: DistributedRoundRobin(n, implementation=2),
        summary="distributed round-robin, low-request-line implementation",
        paper_section="§3.1",
        extra_lines=1,
        number_width=_width_rr,
        injectable_faults=BUS_LEVEL_FAULTS,
        supports_batch=True,
        supports_batch_faults=True,
    ),
    ProtocolSpec(
        name="rr-impl3",
        factory=lambda n, r: DistributedRoundRobin(n, implementation=3),
        summary="distributed round-robin, no extra line (occasional 2nd pass)",
        paper_section="§3.1",
        extra_lines=0,
        number_width=_width_rr,
        injectable_faults=BUS_LEVEL_FAULTS,
        supports_batch=True,
        supports_batch_faults=True,
    ),
    # the frozen-pointer amendment studied in extension Table E4
    ProtocolSpec(
        name="rr-frozen",
        factory=lambda n, r: DistributedRoundRobin(n, record_priority_winners=False),
        summary="round-robin with the pointer frozen across urgent wins",
        paper_section="§3.1",
        extra_lines=1,
        number_width=_width_rr,
        injectable_faults=BUS_LEVEL_FAULTS,
    ),
    ProtocolSpec(
        name="fcfs",
        factory=lambda n, r: DistributedFCFS(n, strategy=1, max_outstanding=r),
        summary="distributed FCFS, lost-arbitration counting",
        paper_section="§3.2",
        supports_outstanding=True,
        extra_lines=0,
        number_width=_width_fcfs,
        injectable_faults=BUS_LEVEL_FAULTS,
        supports_batch=True,
        supports_batch_faults=True,
    ),
    ProtocolSpec(
        name="fcfs-aincr",
        factory=lambda n, r: DistributedFCFS(n, strategy=2, max_outstanding=r),
        summary="distributed FCFS, a-incr arrival-tick counting",
        paper_section="§3.2",
        supports_outstanding=True,
        extra_lines=1,
        number_width=_width_fcfs,
        injectable_faults=BUS_LEVEL_FAULTS,
        supports_batch=True,
        supports_batch_faults=True,
    ),
    # §5 future-work extensions
    ProtocolSpec(
        name="hybrid",
        factory=lambda n, r: HybridArbiter(n),
        summary="FCFS across arrival ticks, RR within a coincident cohort",
        paper_section="§5",
        extra_lines=2,
        number_width=_width_hybrid,
        injectable_faults=BUS_LEVEL_FAULTS,
    ),
    ProtocolSpec(
        name="adaptive",
        factory=lambda n, r: AdaptiveArbiter(n),
        summary="schedules RR under coincident arrivals, FCFS otherwise",
        paper_section="§5",
        extra_lines=2,
        number_width=_width_adaptive,
        injectable_faults=BUS_LEVEL_FAULTS,
    ),
    # baselines
    ProtocolSpec(
        name="fixed",
        factory=lambda n, r: FixedPriorityArbiter(n),
        summary="raw parallel contention: highest identity always wins",
        paper_section="§2.1",
        extra_lines=0,
        number_width=_width_static_plus_priority,
        injectable_faults=BUS_LEVEL_FAULTS,
        supports_batch=True,
        supports_batch_faults=True,
    ),
    ProtocolSpec(
        name="aap1",
        factory=lambda n, r: BatchingAssuredAccess(n),
        summary="assured access by batching (Fastbus/NuBus/Multibus II)",
        paper_section="§2.2",
        extra_lines=0,
        number_width=_width_static_plus_priority,
        injectable_faults=BUS_LEVEL_FAULTS,
    ),
    ProtocolSpec(
        name="aap2",
        factory=lambda n, r: FuturebusAssuredAccess(n),
        summary="assured access by inhibition until release (Futurebus)",
        paper_section="§2.2",
        extra_lines=0,
        number_width=_width_static_plus_priority,
        injectable_faults=BUS_LEVEL_FAULTS,
    ),
    ProtocolSpec(
        name="central-rr",
        factory=lambda n, r: CentralRoundRobin(n),
        summary="central round-robin oracle (defines the true RR schedule)",
        paper_section="oracle",
        extra_lines=0,
        number_width=_width_static,
        common_random_numbers=False,
        injectable_faults=_DROPOUT_ONLY,
    ),
    ProtocolSpec(
        name="central-fcfs",
        factory=lambda n, r: CentralFCFS(n),
        summary="central FCFS oracle (defines the true FCFS schedule)",
        paper_section="oracle",
        extra_lines=0,
        number_width=_width_static,
        common_random_numbers=False,
        injectable_faults=_DROPOUT_ONLY,
    ),
    ProtocolSpec(
        name="rotating-rr",
        factory=lambda n, r: RotatingPriorityRR(n),
        summary="RR via rotated arbitration numbers (rejected prior art)",
        paper_section="§2.2",
        extra_lines=0,
        number_width=_width_static,
        injectable_faults=_BROADCAST_FAULTS,
    ),
    ProtocolSpec(
        name="ticket-fcfs",
        factory=lambda n, r: TicketFCFS(n),
        summary="central ticket-dispenser FCFS [ShAh81]",
        paper_section="[ShAh81]",
        extra_lines=0,
        number_width=_width_static,
        injectable_faults=_DROPOUT_ONLY,
    ),
    # fault-observable variants (repro.faults.arbiters)
    ProtocolSpec(
        name="rr-faulty-register",
        factory=lambda n, r: FaultyWinnerRegisterRR(n),
        summary="RR impl 1 with per-agent winner registers (fault target)",
        paper_section="§3.1",
        extra_lines=1,
        number_width=_width_rr,
        injectable_faults=_BROADCAST_FAULTS,
    ),
    ProtocolSpec(
        name="fcfs-glitchable",
        factory=lambda n, r: GlitchableFCFS(n, max_outstanding=r),
        summary="distributed FCFS with corruptible waiting counters",
        paper_section="§3.2",
        supports_outstanding=True,
        extra_lines=0,
        number_width=_width_fcfs,
        injectable_faults=BUS_LEVEL_FAULTS | {FaultKind.COUNTER_UPSET},
    ),
)

for _spec in _BUILTIN_SPECS:
    register(_spec)
del _spec
