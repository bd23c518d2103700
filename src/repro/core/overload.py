"""Overload handling: admission control and squishing.

"When the sum of the desired [allocations] is greater than the amount
of available CPU, the controller must somehow reduce the allocations to
the threads."  Two mechanisms, as in the paper:

* **Admission control** for real-time reservations: a new request is
  rejected if it would push the real-time total over the admission
  threshold (:func:`check_admission`).
* **Squishing** for real-rate and miscellaneous threads: their proposed
  allocations are scaled down so that, together with the protected
  real-time reservations, the total fits under the overload threshold.
  :class:`FairShareSquish` scales each proposal proportionally to its
  size, which "results in equal allocation of the CPU to all competing
  jobs over time"; :class:`WeightedFairShareSquish` additionally weights
  each proposal by the thread's importance — a more important job gets
  a larger share of the shortfall absorbed by others, but (unlike a
  priority) it can never starve a less important job because every job
  keeps at least the minimum proportion.
"""

# float-order: exact — squish shares feed the golden-verified
# allocations; the weight total is an explicit left fold.

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional

from repro.core.config import ControllerConfig
from repro.core.errors import AdmissionError


class SquishPolicy(ABC):
    """Strategy for distributing a limited budget over proposals.

    Proposals are index-aligned lists: ``desired[i]`` is one squishable
    thread's desired proportion and ``importance[i]`` its weight.
    """

    def __init__(self, min_proportion_ppt: int = 1) -> None:
        if min_proportion_ppt < 0:
            raise ValueError(
                f"minimum proportion cannot be negative, got {min_proportion_ppt}"
            )
        self.min_proportion_ppt = min_proportion_ppt

    @abstractmethod
    def weights(self, desired: list[int], importance: list[float]) -> list[float]:
        """Relative weights used to share the available budget."""

    def squish(
        self, desired: list[int], importance: list[float], available_ppt: int
    ) -> list[int]:
        """Scale the proposals down into ``available_ppt``.

        Returns the granted proportions, index-aligned with ``desired``.
        If the proposals already fit, they are returned unchanged.  Each
        grant is capped at its proposal (squishing never gives a thread
        more than it asked for) and floored at the minimum proportion
        (starvation freedom), even if the floor technically exceeds the
        budget — the overload threshold's reserve capacity absorbs that.
        """
        if len(importance) != len(desired):
            raise ValueError(
                f"{len(desired)} proposals but {len(importance)} importances"
            )
        if not desired:
            return []
        if min(desired) < 0:
            raise ValueError(f"desired proportions cannot be negative: {desired}")
        if min(importance) <= 0:
            raise ValueError(f"importances must be positive: {importance}")
        total_desired = sum(desired)  # repro-lint: disable=float-order -- integer ppt sum; exact in any order
        if total_desired <= available_ppt:
            return list(desired)

        available = max(0, available_ppt)
        # A proposal's weight depends on nothing but the proposal, so it
        # is computed once, not once per water-filling round.
        weights = self.weights(desired, importance)
        grants = [0] * len(desired)
        remaining = list(range(len(desired)))
        # Iterative water-filling: grant proportionally to weight, cap at
        # the proposal, and redistribute leftover budget from capped
        # proposals to the rest.
        while remaining and available > 0:
            total_weight = 0.0
            for i in remaining:
                total_weight += weights[i]
            if total_weight <= 0:
                break
            next_round: list[int] = []
            shares: list[int] = []
            used = 0
            for i in remaining:
                share = int(available * weights[i] / total_weight)
                want = desired[i]
                if share >= want:
                    grants[i] = want
                    used += want
                else:
                    next_round.append(i)
                    shares.append(share)
            if len(next_round) == len(remaining):
                # Nobody capped: hand out the proportional shares directly.
                for i, share in zip(remaining, shares):
                    grants[i] = share
                break
            available -= used
            remaining = next_round
        # Starvation freedom: every thread keeps at least the minimum.
        floor = self.min_proportion_ppt
        for i, want in enumerate(desired):
            minimum = floor if floor < want else want
            if grants[i] < minimum:
                grants[i] = minimum
        return grants


class FairShareSquish(SquishPolicy):
    """Scale every proposal by the same factor (plain fair share)."""

    def weights(self, desired: list[int], importance: list[float]) -> list[float]:
        return [float(d) for d in desired]


class WeightedFairShareSquish(SquishPolicy):
    """Scale proposals by importance-weighted size (weighted fair share)."""

    def weights(self, desired: list[int], importance: list[float]) -> list[float]:
        return [float(d) * w for d, w in zip(desired, importance)]


def check_admission(
    config: ControllerConfig,
    existing_real_time_ppt: int,
    requested_ppt: int,
    thread_name: str,
) -> None:
    """Admission control for a new real-time reservation (one CPU).

    Raises :class:`AdmissionError` if accepting the request would push
    the total of real-time reservations above the admission threshold.
    """
    available = config.admission_threshold_ppt - existing_real_time_ppt
    if requested_ppt > available:
        raise AdmissionError(
            requested_ppt=requested_ppt,
            available_ppt=max(0, available),
            thread_name=thread_name,
        )


def check_admission_smp(
    config: ControllerConfig,
    existing: Iterable[tuple[int, Optional[int]]],
    requested_ppt: int,
    requested_affinity: Optional[int],
    thread_name: str,
    *,
    n_cpus: int = 1,
) -> None:
    """Partitioned admission control for a multiprocessor.

    A sum test against ``n_cpus * threshold`` is not sufficient on an
    SMP: five unpinned 640 ppt reservations total 3200 ppt on four CPUs
    yet cannot be packed without some CPU exceeding its 1000 ppt
    capacity.  Admission therefore replays the placement policy's own
    greedy packing (heaviest first, pinned reservations on their CPU,
    unpinned on the least-loaded CPU) over the ``existing``
    reservations — ``(proportion_ppt, affinity-or-None)`` pairs — and
    admits the request only if it still fits under the per-CPU
    admission threshold on some (or, when pinned, its) CPU.  This is a
    sufficient test: the schedule it certifies is the one the
    least-loaded placement actually produces.  With ``n_cpus=1`` it
    reduces exactly to :func:`check_admission`.
    """
    bins = [0] * n_cpus
    items = sorted(existing, key=lambda item: -item[0])
    for ppt, affinity in items:
        if affinity is not None:
            cpu = min(affinity, n_cpus - 1)
        else:
            cpu = min(range(n_cpus), key=lambda c: (bins[c], c))
        bins[cpu] += ppt
    threshold = config.admission_threshold_ppt
    if requested_affinity is not None:
        available = threshold - bins[min(requested_affinity, n_cpus - 1)]
    else:
        available = threshold - min(bins)
    if requested_ppt > available:
        raise AdmissionError(
            requested_ppt=requested_ppt,
            available_ppt=max(0, available),
            thread_name=thread_name,
        )


__all__ = [
    "FairShareSquish",
    "SquishPolicy",
    "WeightedFairShareSquish",
    "check_admission",
    "check_admission_smp",
]
