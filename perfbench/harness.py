"""Running repeats in fresh processes, checking them, and summarising.

Every repeat runs in its own child interpreter (``perfbench.child``),
one at a time, so no repeat inherits another's heap, caches or garbage.
A repeat *fails* if the child raises (a broken conservation identity
raises there), or if its dispatch fingerprint differs from the other
repeats of the same workload, seed and length — or, at seed 1, from the
value committed in ``expected_fingerprints.json`` for that workload and
length.

``measure`` (one workload for a time budget) and ``run`` (every
workload a fixed number of times, interleaved) both fill one
:class:`Measurement` per workload and write the same artifact, which
``compare`` reads.

Metric names, units, directions and regression bounds live in the
repository's ``BENCHMARK.json``; each child reports every end-to-end
metric of its repeat under its name, and this module takes medians.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench.workloads import WORKLOADS

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = PACKAGE / "expected_fingerprints.json"
OUT_DIR = PACKAGE / "out"

ARTIFACT_KIND = "perfbench-run"
ARTIFACT_VERSION = 1

#: A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0

#: ``run`` repeats every workload this many times (once with ``--quick``).
REPEATS = 9

#: ``measure`` always takes at least this many rounds of repeats.
MIN_ROUNDS = 3

#: ``measure`` starts no round after this many seconds, whatever
#: ``--seconds`` says, so one invocation stays well inside 180 s.
MAX_MEASURE_S = 120.0

#: The raw timings each repeat keeps in the artifact (``calibrate`` reads
#: them).
RAW_KEYS = ("chunks", "setup_wall_s", "setup_cal_s")


class ChildFailed(Exception):
    """A repeat's child process exited non-zero or timed out."""


def load_spec() -> dict:
    with SPEC_PATH.open() as handle:
        return json.load(handle)


def load_expected() -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    with EXPECTED_PATH.open() as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, sim_us: int, *, traced: bool = False,
              spans: Optional[Path] = None) -> dict:
    """Run one repeat in a fresh interpreter; returns its result dict."""
    command = [sys.executable, "-m", "perfbench.child", workload, str(seed), str(sim_us)]
    if traced:
        command.append("--traced")
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{workload}: repeat timed out after {error.timeout}s") from None
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-5:]
        raise ChildFailed(
            f"{workload}: repeat exited {completed.returncode}: " + " | ".join(tail)
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(p25, median, p75)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, median, p75 = statistics.quantiles(values, n=4)
    return p25, median, p75


def fingerprint_failures(samples: list[dict], expected: Optional[str]) -> list[str]:
    """Why each disagreeing repeat failed (empty when all agree).

    The reference is the committed fingerprint when one applies, else
    the first repeat's.
    """
    if not samples:
        return []
    reference = expected if expected is not None else samples[0]["fingerprint"]
    return [
        f"{s['workload']}: fingerprint {s['fingerprint'][:16]} != {reference[:16]}"
        + (" (committed)" if expected is not None else "")
        for s in samples
        if s["fingerprint"] != reference
    ]


def expected_for(expected: dict, workload: str, seed: int, sim_us: int) -> Optional[str]:
    """The committed seed-1 fingerprint for ``(workload, sim_us)``, if any.

    At seed 1 a full- or quick-length run without a committed value is
    an error: the file must be regenerated with ``--write-expected``.
    """
    if seed != 1:
        return None
    w = WORKLOADS[workload]
    if sim_us not in (w.sim_us, w.quick_sim_us):
        return None
    value = expected.get(workload, {}).get(str(sim_us))
    if value is None:
        raise SystemExit(
            f"no committed fingerprint for {workload} at {sim_us}us; "
            "run `python -m perfbench run --seed 1 --write-expected` "
            "(and with --quick)"
        )
    return value


@dataclass
class Measurement:
    """The repeats of one workload at one seed, and why any failed.

    ``samples`` are plain repeats of ``sim_us`` simulated microseconds;
    ``pairs`` are an untraced and a traced repeat of ``trace_us``, which
    give the per-layer metrics and the tracing overhead.
    """

    workload: str
    seed: int
    sim_us: int
    trace_us: int
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)
    pairs: list[tuple[dict, dict]] = field(default_factory=list)

    def _child(self, sim_us: int, **kwargs) -> Optional[dict]:
        self.attempted += 1
        try:
            return run_child(self.workload, self.seed, sim_us, **kwargs)
        except ChildFailed as error:
            self.failures.append(str(error))
            return None

    def repeat(self) -> bool:
        """Run one plain repeat; False if it failed."""
        result = self._child(self.sim_us)
        if result is not None:
            self.samples.append(result)
        return result is not None

    def traced_pair(self) -> bool:
        """Run one untraced and one traced repeat; False if either failed.

        The first pair's spans go to ``out/<workload>.trace.jsonl``.
        """
        plain = self._child(self.trace_us)
        if plain is None:
            return False
        spans = None if self.pairs else OUT_DIR / f"{self.workload}.trace.jsonl"
        traced = self._child(self.trace_us, traced=True, spans=spans)
        if traced is None:
            return False
        self.pairs.append((plain, traced))
        return True

    def check_fingerprints(self, expected: Optional[dict]) -> None:
        """Fail every repeat whose fingerprint differs from its length's
        reference; ``expected`` None means no committed reference."""
        groups = (
            (self.sim_us, self.samples),
            (self.trace_us, [run for pair in self.pairs for run in pair]),
        )
        for sim_us, runs in groups:
            committed = (
                None if expected is None or not runs
                else expected_for(expected, self.workload, self.seed, sim_us)
            )
            self.failures += fingerprint_failures(runs, committed)

    def end_to_end(self, spec: dict) -> dict[str, list[float]]:
        """Every end-to-end metric's value in each plain repeat."""
        return {
            m["name"]: [s[m["name"]] for s in self.samples] for m in spec["end_to_end"]
        }

    def per_layer(self, spec: dict) -> dict[str, float]:
        """Every per-layer metric's median over the traced pairs."""
        out = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_ratio":
                # How many times slower the traced repeat simulates.
                values = [
                    plain["sim_us_per_ref_s"] / traced["sim_us_per_ref_s"]
                    for plain, traced in self.pairs
                ]
            else:
                values = [traced["layers"][name] for _, traced in self.pairs]
            out[name] = statistics.median(values)
        return out


# ----------------------------------------------------------------------
# measure: one workload, time-budgeted (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, traced: bool) -> Measurement:
    """Repeat ``workload`` in fresh children for about ``seconds``.

    Untraced rounds are one full-length repeat; traced rounds are one
    traced pair at 1/5 length.  Rounds continue while the next one is
    expected to end within ``seconds``; a failed child ends the
    measurement.
    """
    w = WORKLOADS[workload]
    m = Measurement(workload, seed, w.sim_us, w.trace_sim_us)
    step = m.traced_pair if traced else m.repeat
    began = last = time.perf_counter()
    round_s: list[float] = []
    while step():
        now = time.perf_counter()
        round_s.append(now - last)
        last = now
        elapsed = now - began
        if len(round_s) >= MIN_ROUNDS and (
            elapsed + statistics.median(round_s) > seconds or elapsed > MAX_MEASURE_S
        ):
            break
    m.check_fingerprints(load_expected())
    return m


def contract_metrics(spec: dict, m: Measurement, traced: bool) -> dict:
    """The ``metrics`` object of ``measure``'s last line: every end-to-end
    metric as a median over the repeats or, traced, every per-layer
    metric."""
    if traced:
        kinds, values = spec["per_layer"], m.per_layer(spec)
    else:
        kinds = spec["end_to_end"]
        values = {name: statistics.median(v) for name, v in m.end_to_end(spec).items()}
    return {k["name"]: {"value": values[k["name"]], "unit": k["unit"]} for k in kinds}


# ----------------------------------------------------------------------
# run: all workloads, fixed repeat count, interleaved
# ----------------------------------------------------------------------
def run_all(spec: dict, workloads: list[str], seed: int, *, quick: bool,
            trace: bool, write_expected: bool) -> dict:
    """Run ``REPEATS`` rounds (one with ``quick``), each one repeat of
    every workload in turn, then (with ``trace``) one traced pair per
    workload.  Returns the artifact."""
    measurements = []
    for name in workloads:
        w = WORKLOADS[name]
        length = w.quick_sim_us if quick else w.sim_us
        measurements.append(
            Measurement(name, seed, length, length if quick else w.trace_sim_us)
        )
    for _ in range(1 if quick else REPEATS):
        for m in measurements:
            m.repeat()
    if trace:
        for m in measurements:
            m.traced_pair()
    expected = None if write_expected else load_expected()
    for m in measurements:
        m.check_fingerprints(expected)
    artifact = make_artifact(spec, measurements, seed, quick)
    if write_expected:
        write_expected_fingerprints(artifact)
    return artifact


def make_artifact(spec: dict, measurements: list[Measurement], seed: int,
                  quick: bool) -> dict:
    """What ``measure`` and ``run`` write and ``compare`` reads."""
    artifact = {
        "kind": ARTIFACT_KIND,
        "schema_version": ARTIFACT_VERSION,
        "seed": seed,
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workloads": {},
    }
    for m in measurements:
        entry = {
            "sim_us": m.sim_us,
            "attempted": m.attempted,
            "fingerprint": m.samples[0]["fingerprint"] if m.samples else None,
            "samples": m.end_to_end(spec),
            "raw": [{key: s[key] for key in RAW_KEYS} for s in m.samples],
            "failures": m.failures,
            "run_failure_ratio": len(m.failures) / m.attempted,
        }
        if m.pairs:
            entry["per_layer"] = m.per_layer(spec)
        artifact["workloads"][m.workload] = entry
    return artifact


def write_artifact(artifact: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=1) + "\n")


def write_expected_fingerprints(artifact: dict) -> None:
    if artifact["seed"] != 1:
        raise SystemExit("--write-expected records seed-1 fingerprints; pass --seed 1")
    expected = load_expected()
    for name, entry in artifact["workloads"].items():
        if entry["failures"] or entry["fingerprint"] is None:
            raise SystemExit(f"not writing fingerprints: {name} had failed repeats")
        expected.setdefault(name, {})[str(entry["sim_us"])] = entry["fingerprint"]
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def format_run(spec: dict, artifact: dict) -> str:
    """Every end-to-end metric per workload as median, p25/p75 and n,
    then (if traced) every per-layer metric per workload."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lines = [
        f"{'workload':<16} {'metric':<18} {'unit':<6} {'median':>14} "
        f"{'p25':>14} {'p75':>14} {'n':>3}"
    ]
    for name, entry in artifact["workloads"].items():
        for metric, values in entry["samples"].items():
            if values:
                p25, median, p75 = quartiles(values)
                lines.append(
                    f"{name:<16} {metric:<18} {units[metric]:<6} {median:>14.6g} "
                    f"{p25:>14.6g} {p75:>14.6g} {len(values):>3}"
                )
        lines.append(
            f"{name:<16} {'run_failure_ratio':<18} {'ratio':<6} "
            f"{entry['run_failure_ratio']:>14.6g} {'':>14} {'':>14} {entry['attempted']:>3}"
        )
        for failure in entry["failures"]:
            lines.append(f"  FAILED {failure}")
    traced = [n for n, e in artifact["workloads"].items() if "per_layer" in e]
    if traced:
        lines.append("")
        lines.append(f"{'per-layer metric':<42} {'unit':<6} " + " ".join(
            f"{n:>15}" for n in traced))
        for metric in spec["per_layer"]:
            row = " ".join(
                f"{artifact['workloads'][n]['per_layer'][metric['name']]:>15.6g}"
                for n in traced
            )
            lines.append(f"{metric['name']:<42} {metric['unit']:<6} {row}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare: two artifacts, row per workload x end-to-end metric
# ----------------------------------------------------------------------
def incomparable(base: dict, new: dict) -> Optional[str]:
    """Why two artifacts cannot be compared, or None if they can: both
    must be perfbench artifacts, both quick or both not, and every
    shared workload must have run the same simulated length."""
    for artifact in (base, new):
        if artifact.get("kind") != ARTIFACT_KIND:
            return "not a perfbench artifact"
    if base["quick"] != new["quick"]:
        return "a --quick artifact cannot be compared with a full one"
    for name in base["workloads"].keys() & new["workloads"].keys():
        lengths = base["workloads"][name]["sim_us"], new["workloads"][name]["sim_us"]
        if lengths[0] != lengths[1]:
            return f"{name} ran {lengths[0]}us in one artifact and {lengths[1]}us in the other"
    return None


def compare_rows(spec: dict, base: dict, new: dict) -> list[dict]:
    """Verdict per workload x end-to-end metric.

    ``worse`` when the new median is worse than the base median by
    more than the metric's bound; ``unresolved`` when either side's
    quartile spread (IQR / median) is wider than the bound, so no
    verdict is possible; ``better`` when the median improved by more
    than both sides' spreads; else ``within bound``.  A base workload
    or metric missing from ``new`` is ``missing``.
    """
    rows = []
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            row = {"workload": name, "metric": key, "bound": bound}
            rows.append(row)
            base_values = base_entry["samples"].get(key) or []
            new_values = (new_entry or {}).get("samples", {}).get(key) or []
            if not base_values or not new_values:
                row["verdict"] = "missing"
                continue
            b25, b50, b75 = quartiles(base_values)
            n25, n50, n75 = quartiles(new_values)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            row["base"], row["new"] = b50, n50
            row["worse_by"] = worse_by = sign * (n50 - b50) / b50
            row["spread"] = spread = max((b75 - b25) / b50, (n75 - n25) / n50)
            if spread > bound:
                row["verdict"] = "unresolved"
            elif worse_by > bound:
                row["verdict"] = "worse"
            elif -worse_by > spread:
                row["verdict"] = "better"
            else:
                row["verdict"] = "within bound"
    return rows


def format_compare(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<18} {'base':>14} {'new':>14} "
        f"{'worse_by':>9} {'spread':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<16} {row['metric']:<18} {'':>14} {'':>14} "
                         f"{'':>9} {'':>8} {row['bound']:>6.0%}  missing")
            continue
        lines.append(
            f"{row['workload']:<16} {row['metric']:<18} {row['base']:>14.6g} "
            f"{row['new']:>14.6g} {row['worse_by']:>+9.2%} {row['spread']:>8.2%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)
