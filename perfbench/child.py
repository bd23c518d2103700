"""One benchmark repeat, in a fresh interpreter.

Usage: ``python -m perfbench.child WORKLOAD SEED SIM_US [--traced]
[--spans PATH]``, run from the repository root.  Builds the workload
from ``src/`` (never from an installed copy), runs it for ``SIM_US``
simulated microseconds and prints one JSON object.  The run raises —
and the process exits non-zero — if the conservation identity breaks
or the clock stops short of ``SIM_US``.

Host time is reported in *reference seconds*.  The host this benchmark
runs on is shared, and its speed drifts by 10-20% over tens of seconds;
a fixed pure-Python calibration loop, timed right before and right
after each part of the run, tracks that drift.  A part's reference time
is its wall time times ``(CAL_REF_S / loop time) ** CAL_EXPONENT``,
with the loop time averaged around the part: roughly the time the part
would have taken on the reference host.  The run is timed as ``CHUNKS``
equal ``run_for`` calls, and its throughput is the median over them,
which also keeps a stall that hits one chunk out of the result.  The
printed JSON keeps the raw timings (``chunks``: simulated us, wall
seconds and loop seconds per chunk; ``setup_wall_s``, ``setup_cal_s``).
"""

import time

#: Child start, taken before anything from the simulator is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: A run is timed as this many equal ``run_for`` chunks.
CHUNKS = 20

#: Iterations of the calibration loop, and the seconds it takes on the
#: reference host (a 2-vCPU Xeon VM at 2.1 GHz running CPython 3.11).
CAL_LOOPS = 200_000
CAL_REF_S = 0.025

#: The simulator slows down less than the loop when the host is busy:
#: log chunk speed regressed on log loop speed gives slopes of 0.6-0.8
#: (flattened by the loop's own noise).  ``python -m perfbench
#: calibrate`` replays the recorded timings in ``calibration_study.json``
#: at each candidate exponent; README.md explains the choice.
CAL_EXPONENT = 0.9


def to_reference_s(wall_s: float, loop_s: float, exponent: float = CAL_EXPONENT) -> float:
    """``wall_s`` measured while the loop took ``loop_s``, in reference
    seconds."""
    return wall_s * (CAL_REF_S / loop_s) ** exponent


class _Counter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value


def calibrate() -> float:
    """Seconds this host takes right now for a fixed pure-Python loop of
    dict reads and writes, method calls and integer arithmetic (it
    creates no object the garbage collector tracks)."""
    table = dict.fromkeys(range(256), 1)
    counter = _Counter()
    start = time.perf_counter()
    for i in range(CAL_LOOPS):
        key = i & 255
        counter.add(table[key])
        table[key] = i
    return time.perf_counter() - start


class RunCheckError(Exception):
    """A run finished with an inconsistent simulation state."""


def import_simulator() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {src}")


def check_run(kernel, sim_us: int) -> None:
    # The clock may end a little past the target: stolen time (dispatch
    # overhead, a controller tick) is charged whole even at the end.
    if kernel.now < sim_us:
        raise RunCheckError(f"clock at {kernel.now}us after running to {sim_us}us")
    accounted = (
        kernel.total_thread_cpu_us() + kernel.idle_us + kernel.stolen_us
        + kernel.offline_us
    )
    if accounted != kernel.n_cpus * kernel.now:
        raise RunCheckError(
            f"conservation broken: thread_cpu + idle + stolen + offline = "
            f"{accounted}, n_cpus * now = {kernel.n_cpus * kernel.now}"
        )


def main(argv: list) -> dict:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("sim_us", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.sim_us % CHUNKS:
        raise ValueError(f"SIM_US must be a multiple of {CHUNKS}")

    import_simulator()
    from perfbench.workloads import WORKLOADS

    built = WORKLOADS[args.workload].build(args.seed)
    setup_wall_s = time.perf_counter() - T0
    kernel = built.kernel
    run_for = kernel.run_for
    recorder = None
    if args.traced:
        from perfbench.spans import SpanRecorder, instrument

        recorder = SpanRecorder()
        run_for = instrument(recorder, built)

    setup_cal_s = loop_before = calibrate()
    chunks = []
    for _ in range(CHUNKS):
        now = kernel.now
        start = time.perf_counter()
        run_for(args.sim_us // CHUNKS)
        elapsed = time.perf_counter() - start
        loop_after = calibrate()
        chunks.append((kernel.now - now, elapsed, (loop_before + loop_after) / 2))
        loop_before = loop_after
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from repro.workloads.engine import dispatch_fingerprint

    check_run(kernel, args.sim_us)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "sim_us": args.sim_us,
        "sim_us_per_ref_s": statistics.median(
            simulated / to_reference_s(wall, loop) for simulated, wall, loop in chunks
        ),
        "setup_s": to_reference_s(setup_wall_s, setup_cal_s),
        "peak_rss_mib": peak_rss_mib,
        "wall_s": sum(wall for _, wall, _ in chunks),
        "setup_wall_s": setup_wall_s,
        "setup_cal_s": setup_cal_s,
        "chunks": chunks,
        "fingerprint": dispatch_fingerprint(kernel),
    }
    if recorder is not None:
        from perfbench.spans import layer_metrics

        result["layers"] = layer_metrics(recorder, built, kernel.dispatch_count)
        if args.spans is not None:
            recorder.write_jsonl(args.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
