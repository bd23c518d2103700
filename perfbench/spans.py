"""Outside-in span tracing for the benchmark's traced run.

The traced run measures where host time goes without touching the
simulator's source: after a workload is built, :func:`instrument`
replaces public methods of the built kernel, scheduler, event calendar
and allocator *instances* with timing wrappers (instance attributes
shadow the class methods, and the simulator calls them through
``self``/held references, so every call is seen).  Every scheduler
method the kernel calls after construction is wrapped.  Three hooks are
bound at construction and cannot be reached this way —
``events.add_source(scheduler.next_wakeup)``, ``Kernel._on_dispatch``
and the kernel's request-handler table — so their time shows up in
``sim.events.next_transition`` and in the kernel's own self time.
Event callbacks are timed by swapping ``event.callback`` on each event
``pop_due`` hands out.

A span is ``(name, start, end, parent)``; spans stay in memory in
parallel arrays and can be written out as JSON lines.  A span's self
time is its duration minus its children's, so the self times of every
span under the root ``run_for`` spans sum to the roots' duration.
"""

from __future__ import annotations

import gc
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

#: Layers, most specific prefix first: a span belongs to the first
#: layer its name starts with.
LAYERS = ("sched.placement", "sched", "sim.kernel", "sim.events", "core", "workloads")

#: Per-layer operations reported with ``.calls``, ``.ns_per_call`` (self
#: time) and ``.self_share``; each aggregates one or more span names.
OPS: dict[str, tuple[str, ...]] = {
    "sim.kernel.add_thread": ("sim.kernel.add_thread",),
    "sched.pick_next": ("sched.pick_next",),
    "sched.charge": ("sched.charge",),
    "sched.time_slice": ("sched.time_slice",),
    "sched.state_hooks": (
        "sched.on_ready", "sched.on_block", "sched.on_preempt", "sched.on_yield",
        "sched.on_mutex_block", "sched.on_mutex_release", "sched.on_mutex_unblock",
        "sched.note_affinity_change", "sched.note_capacity_change",
    ),
    "sched.membership": ("sched.add_thread", "sched.remove_thread"),
    "sched.set_reservation": ("sched.set_reservation",),
    "sched.horizon": ("sched.preemption_horizon", "sched.note_batched_picks"),
    "sched.refresh": ("sched.refresh",),
    "sched.placement.place_threads": ("sched.placement.place_threads",),
    "sim.events.pop_due": ("sim.events.pop_due",),
    "sim.events.next_time": ("sim.events.next_time",),
    "sim.events.next_transition": ("sim.events.next_transition",),
    "sim.events.schedule": ("sim.events.schedule",),
    "core.allocator.update": ("core.allocator.update",),
    "core.driver.tick": ("core.driver.tick",),
    "workloads.arrival": ("workloads.arrival",),
}

ROOT_SPAN = "sim.kernel.run_for"


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        #: Plain counters kept at the same boundaries (no span).
        self.counts: dict[str, int] = {}
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_started = 0

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        A call made directly inside a span of the same name (the base
        ``pick_next_cpu`` delegating to ``pick_next``) is not recorded
        again, so it counts once.
        """
        nid = self._intern(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(top)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return span

    def patch(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a span-recording instance attribute."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def count(self, obj: Any, attr: str, key: str,
              amount: Callable[[Any], int] = lambda result: 1) -> None:
        """Shadow ``obj.attr`` with a wrapper adding ``amount(result)`` to
        ``counts[key]`` per call."""
        fn = getattr(obj, attr)
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            counts[key] += amount(result)
            return result

        setattr(obj, attr, counted)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_started

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its children."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def write_jsonl(self, path: Path) -> None:
        """One ``{"name", "start_ns", "end_ns", "parent"}`` line per span,
        times relative to the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self) else 0
        names = self.names
        with path.open("w") as out:
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                out.write(
                    f'{{"name":"{names[nid]}","start_ns":{s - origin},'
                    f'"end_ns":{e - origin},"parent":{p}}}\n'
                )


def instrument(recorder: SpanRecorder, built: Any) -> Callable[[int], None]:
    """Wrap the public methods of ``built``'s instances; returns the
    traced ``run_for`` (the root span)."""
    kernel = built.kernel
    scheduler = kernel.scheduler
    events = kernel.events
    patch = recorder.patch

    patch(kernel, "add_thread", "sim.kernel.add_thread")
    recorder.count(kernel, "_dispatch_round", "rounds")
    patch(scheduler, "pick_next", "sched.pick_next")
    patch(scheduler, "pick_next_cpu", "sched.pick_next")
    for hook in ("charge", "time_slice", "on_ready", "on_block", "on_preempt",
                 "on_yield", "on_mutex_block", "on_mutex_release", "on_mutex_unblock",
                 "note_affinity_change", "note_capacity_change", "add_thread",
                 "remove_thread", "set_reservation", "preemption_horizon",
                 "note_batched_picks", "refresh"):
        patch(scheduler, hook, f"sched.{hook}")
    patch(scheduler, "place_threads", "sched.placement.place_threads")
    for method in ("next_time", "next_transition", "schedule"):
        patch(events, method, f"sim.events.{method}")

    if built.system is not None:
        allocator = built.system.allocator
        patch(allocator, "update", "core.allocator.update")
        recorder.count(allocator, "update", "thread_ticks", len)

    pop_due = recorder.wrap("sim.events.pop_due", events.pop_due)
    wrap = recorder.wrap

    def pop_due_tagged(now: int) -> Optional[Any]:
        event = pop_due(now)
        if event is not None:
            label = event.label
            if label == "controller":
                event.callback = wrap("core.driver.tick", event.callback)
            elif label.startswith("arrival:"):
                event.callback = wrap("workloads.arrival", event.callback)
        return event

    events.pop_due = pop_due_tagged
    root = recorder.wrap(ROOT_SPAN, kernel.run_for)

    def traced_run_for(duration_us: int) -> None:
        gc.callbacks.append(recorder._on_gc)
        try:
            root(duration_us)
        finally:
            gc.callbacks.remove(recorder._on_gc)

    return traced_run_for


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def layer_metrics(recorder: SpanRecorder, built: Any, dispatches: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by metric name."""
    names = recorder.names
    root_id = names.index(ROOT_SPAN)
    calls = dict.fromkeys(names, 0)
    self_by_name = dict.fromkeys(names, 0)
    total_ns = 0
    for nid, own, s, e in zip(recorder.name_id, recorder.self_ns(),
                              recorder.start, recorder.end):
        name = names[nid]
        calls[name] += 1
        self_by_name[name] += own
        if nid == root_id:
            total_ns += e - s
    total = float(total_ns)

    metrics: dict[str, float] = {}
    for op, span_names in OPS.items():
        op_calls = sum(calls.get(n, 0) for n in span_names)
        op_self = sum(self_by_name.get(n, 0) for n in span_names)
        metrics[f"{op}.calls"] = op_calls
        metrics[f"{op}.ns_per_call"] = op_self / op_calls if op_calls else 0.0
        metrics[f"{op}.self_share"] = op_self / total
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, own in self_by_name.items():
        layer_self[layer_of(name)] += own
    for layer, own in layer_self.items():
        metrics[f"{layer}.self_share"] = own / total

    per_dispatch = 1.0 / dispatches if dispatches else 0.0
    kernel = built.kernel
    metrics["sim.kernel.dispatches"] = dispatches
    metrics["sim.kernel.migrations"] = kernel.migrations
    metrics["sim.kernel.self_ns_per_dispatch"] = layer_self["sim.kernel"] * per_dispatch
    metrics["sched.picks_per_dispatch"] = metrics["sched.pick_next.calls"] * per_dispatch
    metrics["sched.batched_pick_ratio"] = (
        calls.get("sched.note_batched_picks", 0) * per_dispatch
    )
    rounds = recorder.counts.get("rounds", 0)
    metrics["sched.placement.recompute_ratio"] = (
        metrics["sched.placement.place_threads.calls"] / rounds if rounds else 0.0
    )
    thread_ticks = recorder.counts.get("thread_ticks", 0)
    metrics["core.allocator.ns_per_thread_tick"] = (
        self_by_name.get("core.allocator.update", 0) / thread_ticks
        if thread_ticks else 0.0
    )
    metrics["workloads.jobs_completed"] = (
        built.engine.completed_total() if built.engine is not None else 0
    )
    metrics["gc.collections"] = recorder.gc_collections
    metrics["gc.pause_share"] = recorder.gc_pause_ns / total
    metrics["trace.spans"] = len(recorder)
    return metrics
