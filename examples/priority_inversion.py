#!/usr/bin/env python3
"""The Mars Pathfinder scenario: priority inversion vs. real-rate scheduling.

Recreates the task set from Section 2 of the paper — a high-priority
periodic task sharing a mutex with a low-priority task, plus
medium-priority CPU-bound tasks — and runs it under three schedulers:

1. fixed priorities (the inversion is unbounded: the high task simply
   stops making its deadlines once the interleaving goes wrong),
2. fixed priorities with priority inheritance (the deployed fix), and
3. the feedback-driven proportion allocator, which needs no
   mutex-aware mechanism because it never starves the lock holder.

Run with::

    python examples/priority_inversion.py
"""

import repro.experiments  # noqa: F401 — importing populates the registry
from repro.experiments.registry import REGISTRY


def main() -> None:
    print("running the three-scheduler comparison (10 simulated seconds each) ...")
    result = REGISTRY.run("inversion")
    print()
    print(result.summary())
    print()
    deadline_ms = result.metric("deadline_s") * 1000
    rows = (
        ("fixed priorities", "fixed_priority"),
        ("priorities + inheritance", "priority_inheritance"),
        ("real-rate (this paper)", "real_rate"),
    )
    print(f"high task period/deadline: {deadline_ms:.0f} ms")
    print(f"{'scheduler':28s} {'iterations':>10s} {'worst latency':>14s} "
          f"{'missed deadlines':>17s}")
    for label, key in rows:
        worst_ms = result.metric(f"{key}_worst_latency_s") * 1000
        iterations = int(result.metric(f"{key}_iterations"))
        miss = result.metric(f"{key}_miss_rate")
        print(f"{label:28s} {iterations:10d} {worst_ms:11.1f} ms {miss:16.1%}")
    print()
    print("Under plain fixed priorities the high task completes one iteration "
          "and then blocks forever behind a starved lock holder.  The "
          "real-rate allocator keeps every thread progressing, so the lock is "
          "always released promptly and the deadlines are all met.")


if __name__ == "__main__":
    main()
