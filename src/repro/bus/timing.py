"""Bus timing parameters (§4.1 of the paper).

The paper's model: bus transaction times are deterministic (cache-block
or I/O-block transfers) and define the unit of time; arbitration overhead
is half a transaction time and is completely overlapped with bus service
whenever requests are waiting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["BusTiming"]


@dataclass(frozen=True)
class BusTiming:
    """Deterministic bus timing.

    Attributes
    ----------
    transaction_time:
        Duration of one bus tenure; the paper's unit of time.
    arbitration_time:
        Duration of one arbitration pass (the settle plus handover
        overhead); the paper uses half a transaction time.
    clock_period:
        §2.1: arbitration control is "synchronized by the clock in
        synchronous buses, or occurs in a self-timed fashion in
        asynchronous buses."  0.0 (default) models the self-timed bus
        the paper evaluates; a positive period aligns arbitration
        starts and idle-bus grants to clock edges, adding the expected
        half-period of synchronisation latency per idle dispatch.
        Choose a period dividing both the transaction and arbitration
        times (e.g. 0.25) so tenure boundaries stay edge-aligned.
    """

    transaction_time: float = 1.0
    arbitration_time: float = 0.5
    clock_period: float = 0.0

    def __post_init__(self) -> None:
        if self.transaction_time <= 0.0:
            raise ConfigurationError(
                f"transaction_time must be positive, got {self.transaction_time}"
            )
        if self.arbitration_time < 0.0:
            raise ConfigurationError(
                f"arbitration_time must be non-negative, got {self.arbitration_time}"
            )
        if self.clock_period < 0.0:
            raise ConfigurationError(
                f"clock_period must be non-negative, got {self.clock_period}"
            )

    @property
    def synchronous(self) -> bool:
        """Whether arbitration control is clock-aligned."""
        return self.clock_period > 0.0

    def delay_to_next_edge(self, now: float) -> float:
        """Time from ``now`` to the next clock edge (0 when on-edge or async).

        ``now`` is on an edge when its phase, or the rest of the period,
        is within a relative tolerance of ``1e-9 * max(1.0, now)``.  The
        event engine calls this on every kick of a synchronous bus, so it
        is written out without the ``synchronous`` property or ``max``;
        the lane engine computes the same float operations inline.
        """
        period = self.clock_period
        if not period > 0.0:
            return 0.0
        phase = now % period
        tolerance = 1e-9 * now if now > 1.0 else 1e-9
        if phase <= tolerance or period - phase <= tolerance:
            return 0.0
        return period - phase
