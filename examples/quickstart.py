#!/usr/bin/env python3
"""Quickstart: a producer/consumer pipeline under feedback control.

Builds the smallest interesting real-rate system:

* a producer with a fixed real-time reservation (it models a device or
  network source whose rate the scheduler must not disturb),
* a consumer that declares nothing except its shared queue — the
  symbiotic interface — and whose CPU allocation is therefore chosen
  entirely by the feedback controller, and
* the controller itself, sampling the queue fill level at 100 Hz.

Run it and watch the controller discover the consumer's required
allocation without anyone ever specifying it::

    python examples/quickstart.py
"""

from repro import build_real_rate_system
from repro.analysis.series import sparkline
from repro.sim.clock import seconds
from repro.workloads.pulse import PulseParameters, PulsePipeline, PulseSchedule


def main() -> None:
    # A fully wired system: kernel + reservation scheduler + symbiotic
    # registry + adaptive controller (10 ms period, paper defaults).
    system = build_real_rate_system()

    # A constant-rate producer (no pulses) feeding a consumer through a
    # 3 KB bounded buffer.
    schedule = PulseSchedule([], default_rate=0.01)
    pipeline = PulsePipeline.attach(system, schedule=schedule,
                                    params=PulseParameters())

    # Watch the consumer's allocation and sample the queue fill level
    # for the report.
    tracer = system.kernel.tracer
    alloc = tracer.watch(f"alloc:{pipeline.consumer.name}")
    tracer.add_sampler(
        system.kernel.events, 100_000, "fill",
        lambda now: pipeline.queue.fill_level(),
    )

    print("simulating 5 seconds of virtual time ...")
    system.run_for(seconds(5))

    consumer_ppt = system.allocator.current_allocation_ppt(pipeline.consumer)
    expected = pipeline.expected_consumer_fraction(schedule.default_rate)
    fill = tracer.series("fill")

    print()
    print("producer reservation : "
          f"{pipeline.params.producer_proportion_ppt} ppt "
          f"(period {pipeline.params.producer_period_us / 1000:.0f} ms, fixed)")
    print(f"consumer allocation  : {consumer_ppt} ppt "
          f"(controller-chosen; ideal ≈ {expected * 1000:.0f} ppt + "
          "quantisation overrun)")
    print(f"queue fill level     : {pipeline.fill_level():.2f} "
          "(set point is 0.50)")
    print(f"bytes produced       : {pipeline.queue.total_put_bytes}")
    print(f"bytes consumed       : {pipeline.queue.total_get_bytes}")
    print()
    print("consumer allocation over time (ppt):")
    print("  " + sparkline(alloc.values(), 72))
    print("queue fill level over time:")
    print("  " + sparkline(fill.values(), 72))
    print()
    print("The controller pushed the consumer's allocation up from the "
          "5 ppt floor until the queue settled at its half-full set point — "
          "no human supplied a proportion or a period for it.")


if __name__ == "__main__":
    main()
