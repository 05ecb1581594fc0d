"""Deterministic jittered exponential backoff, shared by every retrier.

Two kinds of retry must both happen *deterministically*: a raising
cell's one in-process retry and a crashed worker's respawn/replay, both
in :class:`~repro.service.shards.ShardPool`, which backs the
:class:`~repro.session.session.Session` per-cell path and the service
alike.  A :class:`BackoffPolicy` gives them one vocabulary:
exponential growth from ``base`` by ``multiplier`` per attempt, capped
at ``cap``, with a *seeded* jitter so repeated runs of the same failure
sequence wait the same amounts — reproducibility is this repository's
core discipline, and "retry timing" is not exempt.

The jitter derives from SHA-256 over ``(seed, token, attempt)`` rather
than a shared :mod:`random` stream, so concurrent retriers (several
shards, several sweep cells) cannot perturb each other's delays, and a
delay can be recomputed after the fact from the diagnostic log alone.
Full jitter over ``[1 - jitter, 1]`` of the capped delay keeps herds of
clients from synchronising their retries (the same thundering-herd
argument the paper makes for randomised bus re-arbitration).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["BackoffPolicy"]


def _fraction(seed: int, token: str, attempt: int) -> float:
    """A reproducible uniform draw in ``[0, 1)`` for one retry decision."""
    digest = hashlib.sha256(
        f"{seed}:{token}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic full jitter.

    Parameters
    ----------
    base:
        Delay before the first retry (seconds), pre-jitter.
    cap:
        Upper bound on any delay (seconds); growth saturates here.
    multiplier:
        Geometric growth factor per attempt (``>= 1``).
    jitter:
        Fraction of the capped delay the jitter may remove: attempt
        ``a`` with token ``t`` waits ``capped * (1 - jitter * u)`` for
        the deterministic draw ``u = u(seed, t, a)``.  ``0`` disables
        jitter entirely.
    seed:
        Root of every jitter draw; two policies with equal fields
        produce byte-equal delay sequences.
    """

    base: float = 0.05
    cap: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0.0:
            raise ConfigurationError(f"backoff base must be >= 0, got {self.base}")
        if self.cap < self.base:
            raise ConfigurationError(
                f"backoff cap must be >= base ({self.base}), got {self.cap}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"backoff jitter must be within [0, 1], got {self.jitter}"
            )

    @classmethod
    def none(cls) -> "BackoffPolicy":
        """A zero-delay policy (tests, and callers that must not sleep)."""
        return cls(base=0.0, cap=0.0, jitter=0.0)

    def delay(self, attempt: int, token: str = "") -> float:
        """The deterministic delay before retry number ``attempt`` (0-based).

        ``token`` names the retrying context (a cell tag, a shard id) so
        distinct retriers draw independent jitter from one seed.
        """
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        raw = min(self.cap, self.base * self.multiplier**attempt)
        if raw <= 0.0 or self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter * _fraction(self.seed, token, attempt))

    def sleep(self, attempt: int, token: str = "") -> float:
        """Sleep the attempt's delay; returns the seconds actually slept."""
        delay = self.delay(attempt, token)
        if delay > 0.0:
            time.sleep(delay)
        return delay
