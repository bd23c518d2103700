"""Pinned end-to-end behaviour of the feedback controller.

The golden corpora never build a :class:`ProportionAllocator`, and the
determinism tests only compare two runs of the same code with each
other.  This file pins what the controller *decides* to literal
digests, so any change to the tick — the Figure 4 law, the reclaim
rule, the period heuristic, the squish or the quality-exception check —
that moves a single allocation, pressure sample or dispatch fails here.

One scenario exercises every branch of the tick under overload:

* miscellaneous CPU hogs with importances {0.5, 1, 1.5, 3}, plus one
  that exits part-way and one that mostly sleeps (so the reclaim rule
  fires);
* a pulse pipeline whose consumer falls behind a 3x rate pulse while
  squished, raising quality exceptions;
* a real-rate producer/consumer pair with no specified period (the
  period heuristic's input when ``adapt_period`` is on);
* one real-time, one aperiodic real-time and one interactive thread.

It runs on 1 and 4 CPUs, once with :class:`WeightedFairShareSquish`
and once with :class:`FairShareSquish` plus ``adapt_period=True``.  On
4 CPUs the per-CPU overload threshold is lowered so the real-rate tier
is squished too.

The literals were generated with the tick as it stood before the
one-pass rewrite; they must only change with a deliberate change of
controller behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.config import ControllerConfig
from repro.core.overload import FairShareSquish, WeightedFairShareSquish
from repro.core.taxonomy import ThreadSpec
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.sim.clock import seconds
from repro.sim.requests import Compute, Sleep
from repro.system import build_real_rate_system
from repro.workloads.cpu_hog import CpuHog
from repro.workloads.engine import dispatch_fingerprint
from repro.workloads.interactive import InteractiveJob
from repro.workloads.pulse import (
    PulseParameters,
    PulsePipeline,
    PulseSchedule,
    RateSegment,
)

from tests.conftest import consumer_body, finite_body, producer_body, spin_body

IMPORTANCES = (0.5, 1.0, 1.5, 3.0)

#: (n_cpus, policy) -> (tracer fingerprint, dispatch fingerprint,
#: quality exceptions, reclaims summed over the surviving estimators).
PINNED = {
    (1, "weighted"): (
        "4e8a94d68bc806f7fd7a947a5e52f56cc9bc93aa52c4ce958e0c941bc7c8f4f6",
        "2f5ee56fa3402bf7e21ecbff3dc88c7e98a985e1ca1d6f9437347e3777af5c2b",
        9,
        124,
    ),
    (1, "fair"): (
        "2ba2ebe9ea54f359473ca62c1628795095c2cb5e145b9bdf77d58e6678b82c49",
        "f357bd88c98e40b9e2f0e453e0e9d3438160ee4f5eeb0c66da7d77d5c1aab1f3",
        10,
        64,
    ),
    (4, "weighted"): (
        "bb951b62fda727c0b3243d37d2c5533feb9eb943fcdbeff3aaa9186e30a5df8d",
        "9c7d69ae1e7665c645c7361bce0482a728b769e0905c39d5e47ee5bff2da4daa",
        11,
        2,
    ),
    (4, "fair"): (
        "63b6b47c0eeb69db1e9ead46e556ec238117143b8d06daa19c2174632e7d4bcd",
        "2512cb1d18867ef5b89fa6c85b978bf60d1b12c0c5ca7200c92c693e2d7f7193",
        7,
        2,
    ),
}


def run_scenario(n_cpus: int, policy: str):
    fair = policy == "fair"
    config = ControllerConfig(
        adapt_period=fair,
        overload_threshold_ppt=850 if n_cpus == 1 else 250,
    )
    squish = (
        FairShareSquish(config.min_proportion_ppt)
        if fair
        else WeightedFairShareSquish(config.min_proportion_ppt)
    )
    system = build_real_rate_system(
        config, n_cpus=n_cpus, squish_policy=squish, record_dispatches=True
    )
    for i in range(4 * n_cpus + 4):
        CpuHog.attach(
            system, name=f"hog{i}", burst_us=3_000,
            importance=IMPORTANCES[i % 4],
        )
    system.spawn_controlled(
        "hog.finite", finite_body(200_000), spec=ThreadSpec(importance=1.5)
    )

    def sleeper(env):
        while True:
            yield Compute(500)
            yield Sleep(20_000)

    system.spawn_controlled("sleeper", sleeper)

    params = PulseParameters()
    base = params.base_rate_bytes_per_cpu_us
    schedule = PulseSchedule(
        [RateSegment(seconds(0.2), seconds(0.8), 4.0 * base)], default_rate=base
    )
    PulsePipeline.attach(system, schedule=schedule, params=params)

    queue = BoundedBuffer("pair.queue", 4_000)
    producer = system.spawn_controlled("pair.producer", producer_body(queue, 200, 1_000))
    consumer = system.spawn_controlled("pair.consumer", consumer_body(queue, 200, 1_500))
    system.registry.register_pair(producer, consumer, queue)

    system.spawn_controlled(
        "rt", spin_body(), spec=ThreadSpec(proportion_ppt=100, period_us=20_000)
    )
    system.spawn_controlled("aperiodic", spin_body(), spec=ThreadSpec(proportion_ppt=80))
    InteractiveJob.attach(
        system, "editor", mean_think_time_us=100_000, burst_cpu_us=300, seed=3
    )

    system.run_for(seconds(1.0))
    allocator = system.allocator
    reclaims = 0
    for state in allocator._controlled.values():
        reclaims += state.estimator.reclaim_count
    return (
        system.kernel.tracer.fingerprint(),
        dispatch_fingerprint(system.kernel),
        len(allocator.quality_exceptions),
        reclaims,
    )


@pytest.mark.parametrize("n_cpus,policy", sorted(PINNED))
def test_controller_decisions_are_pinned(n_cpus, policy):
    assert run_scenario(n_cpus, policy) == PINNED[(n_cpus, policy)]
