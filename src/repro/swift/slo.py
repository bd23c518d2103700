# float-order: exact — window percentile and AIMD math must stay
# bit-identical across releases.
"""SLO-driven second-level reservation control.

The paper's feedback loop converts *progress pressure* into
proportions: a thread that falls behind its symbiotic queue gets more
CPU.  Production systems are judged on a different error signal — the
tail of the sojourn-time distribution against a latency objective.
:class:`SLOController` closes that outer loop: it periodically
measures an exact-rank percentile (p99 by default) over a sliding
window of the most recent completed jobs of a
:class:`~repro.workloads.engine.JobStream`, compares it with the
objective, and actuates the *job class's* reservation by mutating the
shared :class:`~repro.core.taxonomy.ThreadSpec` the stream's template
registers every arrival with.

One mutation moves the whole class: the allocator re-reads the spec on
its next tick (live jobs are re-actuated to the new proportion) and
admission-on-arrival prices future jobs at the new size.  The control
law is deliberately asymmetric, like TCP's: **additive increase** of
the per-job reservation while the objective is violated (latency must
come down promptly), **multiplicative decrease** once the observed
tail sits comfortably below the objective (reclaim capacity slowly so
the tail does not bounce).  Raising the per-job reservation also
tightens admission — under overload the SLO is defended by shedding
arrivals rather than degrading admitted jobs, exactly the paper's
admission philosophy transplanted to a latency objective.

Determinism: the controller runs as a periodic entry in the kernel's
unified event calendar and computes only from virtual-time observables
(completion records), so a fixed seed yields a bit-identical dispatch
log — the same contract every other churn transition obeys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.analysis.sojourn import exact_rank_percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.taxonomy import ThreadSpec
    from repro.sim.kernel import Kernel
    from repro.workloads.engine import JobStream


@dataclass(frozen=True)
class SLOPolicy:
    """The latency objective and the gains used to chase it.

    ``target_us`` is the objective on the ``percentile``-th sojourn
    percentile.  While the observed percentile exceeds the target the
    per-job reservation grows by ``step_up_ppt`` per controller period
    (additive increase, clamped to ``max_ppt``); once it drops below
    ``headroom * target_us`` the reservation decays by ``decay``
    (multiplicative decrease, clamped to ``min_ppt``).  Between the
    two thresholds the controller holds — the dead band keeps a
    near-target tail from oscillating the allocation.  ``window`` is
    how many of the most recent completions the percentile is taken
    over.
    """

    target_us: float
    percentile: float = 99.0
    window: int = 64
    min_ppt: int = 10
    max_ppt: int = 400
    step_up_ppt: int = 10
    decay: float = 0.9
    headroom: float = 0.6

    def __post_init__(self) -> None:
        if self.target_us <= 0:
            raise ValueError(f"target_us must be positive, got {self.target_us}")
        if not 0 < self.percentile <= 100:
            raise ValueError(
                f"percentile must be in (0, 100], got {self.percentile}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0 < self.min_ppt <= self.max_ppt:
            raise ValueError(
                f"need 0 < min_ppt <= max_ppt, got {self.min_ppt}, {self.max_ppt}"
            )
        if self.step_up_ppt < 1:
            raise ValueError(f"step_up_ppt must be >= 1, got {self.step_up_ppt}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not 0 < self.headroom <= 1:
            raise ValueError(f"headroom must be in (0, 1], got {self.headroom}")


class SLOController:
    """Adjusts a job class's reservation from its observed tail latency.

    Parameters
    ----------
    kernel:
        The simulation kernel; the controller ticks as a periodic
        calendar event every ``period_us`` (default 50 ms — five of
        the paper controller's 10 ms periods, because a percentile
        over a completion window moves far slower than a queue fill
        level).
    stream:
        The :class:`~repro.workloads.engine.JobStream` whose completion
        records are the sensor.
    spec:
        The shared :class:`~repro.core.taxonomy.ThreadSpec` to actuate
        (normally ``template.spec``); it must specify a proportion.
    policy:
        The :class:`SLOPolicy` objective and gains.
    """

    def __init__(
        self,
        kernel: "Kernel",
        stream: "JobStream",
        spec: "ThreadSpec",
        policy: SLOPolicy,
        *,
        period_us: int = 50_000,
        start_us: int = 0,
    ) -> None:
        if spec.proportion_ppt is None:
            raise ValueError(
                "SLOController needs a spec with a proportion to actuate"
            )
        if period_us < 1:
            raise ValueError(f"period_us must be >= 1, got {period_us}")
        self.kernel = kernel
        self.stream = stream
        self.spec = spec
        self.policy = policy
        self.invocations = 0
        self.violations = 0
        #: (virtual time, observed percentile us, actuated ppt) per
        #: tick that changed the allocation.
        self.adjustments: list[tuple[int, float, int]] = []
        self._periodic = kernel.add_periodic(
            period_us, self._tick, start_us=start_us, label="slo"
        )

    def stop(self) -> None:
        """Stop ticking (the last actuated reservation persists)."""
        self._periodic.stop()

    def observed_tail_us(self) -> Optional[float]:
        """The windowed percentile the next tick would act on.

        ``None`` until the stream has at least one completion.
        """
        window = self.stream.records.latest_completed_sojourns_us(
            self.policy.window
        )
        if not window:
            return None
        window.sort()
        return float(exact_rank_percentile(window, self.policy.percentile))

    def _tick(self, now: int) -> None:
        self.invocations += 1
        observed = self.observed_tail_us()
        if observed is None:
            return
        policy = self.policy
        current = self.spec.proportion_ppt
        if observed > policy.target_us:
            self.violations += 1
            new_ppt = min(policy.max_ppt, current + policy.step_up_ppt)
        elif observed < policy.headroom * policy.target_us:
            new_ppt = max(policy.min_ppt, int(current * policy.decay))
        else:
            new_ppt = current
        if new_ppt != current:
            # The one actuation: every live job registered with this
            # spec is re-granted by the allocator's next tick, and
            # every future arrival is admitted (or rejected) at the
            # new price.
            self.spec.proportion_ppt = new_ppt
            self.adjustments.append((now, observed, new_ppt))
        # Traces, for the readers that watch them: the per-job
        # reservation and the tail it was decided on.
        watched = self.kernel.tracer.watched
        series = watched.get("slo:ppt")
        if series is not None:
            series.append(now, new_ppt)
        series = watched.get("slo:tail_us")
        if series is not None:
            series.append(now, observed)


__all__ = ["SLOController", "SLOPolicy"]
