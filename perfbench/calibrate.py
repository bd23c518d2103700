"""How the host-speed correction's exponent was chosen, replayable.

Usage: ``python -m perfbench calibrate [FILE ...]``.  Each FILE is a
``measure`` or ``run`` artifact (one invocation per workload; its
``raw`` timings are used) or a recorded study like the committed
``calibration_study.json``, which is read when no FILE is given.

A child converts each chunk's wall time to reference seconds with
``child.to_reference_s``, whose exponent is ``child.CAL_EXPONENT``.
This replays the recorded chunk timings at other exponents and prints,
per workload:

- ``slope`` and ``corr``: log chunk speed regressed on log loop speed,
  over every recorded chunk.  A slope of 1 would mean the simulator
  slows exactly as much as the loop;
- for each exponent, the spread (IQR / median, in %) over invocations
  of the throughput each invocation would have reported: the median
  chunk throughput of each child, then the median over the children;
- a ``setup`` row, the same spread for ``setup_s``, where recorded.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from perfbench.child import to_reference_s
from perfbench.harness import ARTIFACT_KIND, PACKAGE

STUDY_PATH = PACKAGE / "calibration_study.json"

EXPONENTS = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: study name -> workload -> invocations -> each child's raw timings
Studies = dict[str, dict[str, list[list[dict]]]]


def load_studies(paths: list[Path]) -> Studies:
    """Recorded studies by name; artifacts pool into one ``artifacts`` study."""
    studies: Studies = {}
    for path in paths or [STUDY_PATH]:
        data = json.loads(path.read_text())
        if data.get("kind") == ARTIFACT_KIND:
            pooled = studies.setdefault("artifacts", {})
            for name, entry in data["workloads"].items():
                if entry["raw"]:
                    pooled.setdefault(name, []).append(entry["raw"])
        else:
            studies.update(data["studies"])
    return studies


def throughput(child: dict, exponent: float) -> float:
    return statistics.median(
        sim_us / to_reference_s(wall, loop, exponent) for sim_us, wall, loop in child["chunks"]
    )


def spread_pct(values: list[float]) -> float:
    p25, median, p75 = statistics.quantiles(values, n=4)
    return (p75 - p25) / median * 100


def report(studies: Studies) -> str:
    lines = []
    header = f"{'workload':<22} {'slope':>6} {'corr':>6} " + " ".join(
        f"{'a=' + str(a):>7}" for a in EXPONENTS)
    #: exponent -> throughput spread of every workload of every study
    spreads: dict[float, list[float]] = {a: [] for a in EXPONENTS}
    for study, workloads in studies.items():
        lines += ["", f"study {study}: spread over invocations, %", header]
        for name, invocations in workloads.items():
            chunks = [c for children in invocations for child in children
                      for c in child["chunks"]]
            x = [math.log(1 / loop) for _, _, loop in chunks]
            y = [math.log(sim_us / wall) for sim_us, wall, _ in chunks]
            fit = statistics.linear_regression(x, y)
            cells = [f"{name:<22} {fit.slope:>6.2f} {statistics.correlation(x, y):>6.2f}"]
            if len(invocations) < 2:
                lines.append(" ".join(cells) + "  (one invocation: no spread)")
                continue
            for a in EXPONENTS:
                values = [
                    statistics.median(throughput(child, a) for child in children)
                    for children in invocations
                ]
                spreads[a].append(spread_pct(values))
                cells.append(f"{spreads[a][-1]:>7.2f}")
            lines.append(" ".join(cells))
            if all("setup_wall_s" in child for children in invocations for child in children):
                cells = [f"{name + ' setup':<22} {'':>6} {'':>6}"]
                for a in EXPONENTS:
                    values = [
                        statistics.median(
                            to_reference_s(child["setup_wall_s"], child["setup_cal_s"], a)
                            for child in children)
                        for children in invocations
                    ]
                    cells.append(f"{spread_pct(values):>7.2f}")
                lines.append(" ".join(cells))
    if spreads[EXPONENTS[0]]:
        lines += ["", "throughput spread over every workload row above, %"]
        for label, summary in (("mean", statistics.fmean), ("worst", max)):
            lines.append(f"{label:<36} " + " ".join(
                f"{summary(spreads[a]):>7.2f}" for a in EXPONENTS))
    return "\n".join(lines[1:])
