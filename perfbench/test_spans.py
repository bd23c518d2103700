"""The traced run observes without changing what it observes."""

import inspect
import json
import re

import pytest

from perfbench.harness import SPEC_PATH
from perfbench.spans import LAYERS, ROOT_SPAN, SpanRecorder, instrument, layer_metrics
from perfbench.workloads import WORKLOADS
from repro.sim.kernel import Kernel
from repro.workloads.engine import dispatch_fingerprint

SIM_US = 300_000


def traced_run(name: str):
    built = WORKLOADS[name].build(1)
    recorder = SpanRecorder()
    instrument(recorder, built)(SIM_US)
    return built, recorder


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_keeps_fingerprint_and_self_times_sum_to_root(name):
    plain = WORKLOADS[name].build(1)
    plain.kernel.run_for(SIM_US)
    built, recorder = traced_run(name)
    assert dispatch_fingerprint(built.kernel) == dispatch_fingerprint(plain.kernel)

    root = recorder.names.index(ROOT_SPAN)
    roots = [i for i, nid in enumerate(recorder.name_id) if nid == root]
    assert roots == [0]
    root_ns = recorder.end[0] - recorder.start[0]
    assert abs(sum(recorder.self_ns()) - root_ns) <= 0.01 * root_ns
    assert all(own >= 0 for own in recorder.self_ns())


def test_every_scheduler_method_the_kernel_calls_is_wrapped():
    built = WORKLOADS["rbs_overload"].build(1)
    instrument(SpanRecorder(), built)
    called = set(re.findall(r"scheduler\.([a-z]\w*)\(", inspect.getsource(Kernel)))
    # attach runs while the kernel is built, before any wrapping.
    assert called - set(vars(built.kernel.scheduler)) == {"attach"}


def test_layer_metrics_match_benchmark_json():
    with open(SPEC_PATH) as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    built, recorder = traced_run("open_churn")
    metrics = layer_metrics(recorder, built, built.kernel.dispatch_count)
    # The overhead ratio compares a traced with an untraced child, so
    # the parent computes it.
    assert set(metrics) | {"trace.overhead_ratio"} == declared
    shares = [metrics[f"{layer}.self_share"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0)


def test_layer_shape():
    """Which layers each workload exercises (the benchmark's reasons)."""
    metrics = {}
    for name in WORKLOADS:
        built, recorder = traced_run(name)
        metrics[name] = layer_metrics(recorder, built, built.kernel.dispatch_count)
    assert metrics["rbs_overload"]["core.allocator.update.calls"] == 0
    assert metrics["controller_hogs"]["core.allocator.update.self_share"] >= 0.35
    for name, m in metrics.items():
        placed = m["sched.placement.place_threads.calls"] > 0
        assert placed == (name == "smp_webfarm"), name
    assert metrics["open_churn"]["workloads.arrival.calls"] > 0
    assert metrics["open_churn"]["workloads.jobs_completed"] > 0
