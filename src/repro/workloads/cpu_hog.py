"""CPU hog.

"For simplicity, the load corresponded to a miscellaneous job (no
progress-metric) that tries to consume as much CPU as it can."  The hog
never blocks and never registers a symbiotic interface, so the
controller classifies it as miscellaneous and drives it with the
constant-pressure heuristic; under overload it is squished.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.taxonomy import ThreadSpec
from repro.sim.requests import Compute
from repro.sim.thread import SimThread, ThreadEnv
from repro.system import RealRateSystem


class CpuHog:
    """A thread that consumes every cycle it is given."""

    def __init__(
        self,
        burst_us: int = 5_000,
        importance: float = 1.0,
        seed: Optional[int] = None,
    ) -> None:
        if burst_us <= 0:
            raise ValueError(f"burst must be positive, got {burst_us}")
        self.burst_us = burst_us
        self.importance = importance
        self.thread: Optional[SimThread] = None
        self._rng = random.Random(seed) if seed is not None else None

    def body(self, env: ThreadEnv):
        """Loop forever burning CPU in bursts.

        Bursts are fixed-size unless a seed was given, in which case
        each burst length is drawn (reproducibly) from ±50% of the
        nominal size.
        """
        while True:
            burst = self.burst_us
            if self._rng is not None:
                burst = max(1, int(round(burst * self._rng.uniform(0.5, 1.5))))
            yield Compute(burst)

    @classmethod
    def attach(
        cls,
        system: RealRateSystem,
        name: str = "cpu.hog",
        *,
        burst_us: int = 5_000,
        importance: float = 1.0,
        seed: Optional[int] = None,
    ) -> "CpuHog":
        """Create a hog thread under control of ``system``'s allocator."""
        hog = cls(burst_us=burst_us, importance=importance, seed=seed)
        hog.thread = system.spawn_controlled(
            name,
            hog.body,
            spec=ThreadSpec(importance=importance),
            importance=importance,
        )
        return hog


__all__ = ["CpuHog"]
