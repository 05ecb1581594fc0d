"""Reproducible random-number streams.

Every stochastic entity in a simulation (each bus agent, mainly) draws from
its own :class:`random.Random` stream, derived deterministically from one
master seed and a stable stream name.  Independent streams mean that adding
an agent, or changing how often one agent samples, does not perturb the
variate sequences seen by the others — the standard variance-reduction
hygiene for comparing arbitration protocols on *identical* arrival
processes (common random numbers).

Because a stream is a pure function of ``(master seed, name)``, every
protocol run at one seed sees the same think times.  The lane engine
uses that: the lanes of one pack that share a seed, an agent and a
distribution read one tape of the agent's stream, seeded and drawn
once (:mod:`repro.engine.batch`).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(master_seed: int, stream_name: str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream name.

    The derivation hashes ``"<master_seed>/<stream_name>"`` with SHA-256,
    so it is stable across Python versions and processes (unlike
    ``hash()``, which is salted).
    """
    digest = hashlib.sha256(f"{master_seed}/{stream_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A family of named, independent :class:`random.Random` generators.

    Parameters
    ----------
    master_seed:
        Seed from which every named stream is derived.  Two
        ``RandomStreams`` built with the same master seed hand out
        identical streams for identical names.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = generator
        return generator

    def agent_stream(self, agent_id: int) -> random.Random:
        """Convenience accessor for the per-agent arrival stream."""
        return self.stream(f"agent/{agent_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomStreams(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
