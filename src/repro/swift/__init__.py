"""Second-level feedback control.

The paper's controller "is implemented using the SWiFT software
feedback toolkit [6]", in which a controller is a *circuit* of small
feedback components.  Here that circuit — the PID block over progress
pressure, the reclaim rule and the clamps of Figure 4 — is realised as
one function, the allocator's tick
(:meth:`repro.core.allocator.ProportionAllocator.update`).

This package holds the feedback loop layered on top of it: the
:class:`~repro.swift.slo.SLOController`, which drives a job class's
reservation from its observed tail latency (windowed exact-rank p99
vs an SLO target) instead of progress pressure.
"""

from repro.swift.slo import SLOController, SLOPolicy

__all__ = ["SLOController", "SLOPolicy"]
