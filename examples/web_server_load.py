#!/usr/bin/env python3
"""A web server tracking its offered load (a real-rate application).

The paper's definition of a real-rate application is one "with specific
rate or throughput requirements in which the rate is driven by
real-world demands" — its canonical examples are web servers and
multimedia.  Here the offered request rate steps up and down over time;
the server's socket buffer is its symbiotic interface, so the
controller re-derives the server's CPU allocation as the load changes,
while two background hogs soak up whatever is left.

Run with::

    python examples/web_server_load.py
"""

from repro import build_real_rate_system
from repro.analysis.series import sparkline
from repro.sim.clock import seconds
from repro.workloads.cpu_hog import CpuHog
from repro.workloads.webserver import WebServer

#: Offered load (requests/second) as a step function of time.
LOAD_STEPS = (
    (0.0, 100.0),
    (5.0, 300.0),
    (10.0, 150.0),
    (15.0, 400.0),
)


def offered_load(now_us: int) -> float:
    """The request rate in force at virtual time ``now_us``."""
    now_s = now_us / 1_000_000
    rate = LOAD_STEPS[0][1]
    for start_s, step_rate in LOAD_STEPS:
        if now_s >= start_s:
            rate = step_rate
    return rate


def main() -> None:
    system = build_real_rate_system()
    server = WebServer.attach(
        system, requests_per_second=offered_load, service_cpu_us=1_500
    )
    hogs = [CpuHog.attach(system, name=f"batch{i}") for i in range(2)]

    tracer = system.kernel.tracer
    alloc = tracer.watch(f"alloc:{server.server.name}")
    tracer.add_sampler(
        system.kernel.events, 250_000, "backlog",
        lambda now: server.backlog_requests(),
    )

    print("simulating 20 seconds of stepped load ...")
    system.run_for(seconds(20))

    backlog = tracer.series("backlog")

    print()
    print("offered load steps     :", ", ".join(
        f"{rate:.0f} req/s @ t={start:.0f}s" for start, rate in LOAD_STEPS))
    print(f"requests sent / served : {server.requests_sent} / "
          f"{server.requests_served}")
    print(f"final backlog          : {server.backlog_requests():.0f} requests")
    print(f"server allocation now  : "
          f"{system.allocator.current_allocation_ppt(server.server)} ppt "
          f"(needs ≈ {server.required_fraction(offered_load(system.now)) * 1000:.0f} "
          "ppt for the current load)")
    print(f"hog CPU shares         : "
          + ", ".join(f"{h.thread.accounting.total_us / system.now:.1%}" for h in hogs))
    print()
    print("server allocation over time (ppt):")
    print("  " + sparkline(alloc.values(), 72))
    print("request backlog over time:")
    print("  " + sparkline(backlog.values(), 72))
    print()
    print("Each load step shows up as a step in the server's allocation a "
          "fraction of a second later — the feedback loop is doing the "
          "capacity planning that a human would otherwise encode as a "
          "priority or a hand-tuned reservation.")


if __name__ == "__main__":
    main()
