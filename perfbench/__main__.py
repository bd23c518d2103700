"""Command line: ``python -m perfbench measure|run|compare|calibrate``.

``measure`` is the command ``BENCHMARK.json`` names: one workload,
repeated for ``--seconds``, ending with one JSON line of the metrics.
``run`` repeats every workload a fixed number of times, interleaved.
Both write an artifact that ``compare`` reads.  ``calibrate`` shows how
the host-speed correction's exponent was chosen.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import harness
from perfbench.workloads import WORKLOADS


def cmd_measure(args: argparse.Namespace) -> int:
    spec = harness.load_spec()
    traced = args.trace == 1
    m = harness.measure(args.workload, args.seed, args.seconds, traced)
    for failure in m.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not (m.pairs if traced else m.samples):
        print("no repeat completed; no result", file=sys.stderr)
        return 1
    out = harness.OUT_DIR / (
        f"measure-{args.workload}-seed{args.seed}{'-trace' if traced else ''}.json"
    )
    harness.write_artifact(harness.make_artifact(spec, [m], args.seed, False), out)
    print(f"wrote {out}")
    metrics = harness.contract_metrics(spec, m, traced)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }))
    return 0 if not m.failures else 1


def cmd_run(args: argparse.Namespace) -> int:
    spec = harness.load_spec()
    artifact = harness.run_all(
        spec, args.workload or list(WORKLOADS), args.seed,
        quick=args.quick, trace=args.trace, write_expected=args.write_expected,
    )
    print(harness.format_run(spec, artifact))
    out = args.out or harness.OUT_DIR / (
        f"run-seed{args.seed}{'-quick' if args.quick else ''}.json"
    )
    harness.write_artifact(artifact, out)
    print(f"wrote {out}")
    failed = any(entry["failures"] for entry in artifact["workloads"].values())
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    base, new = (json.loads(path.read_text()) for path in (args.base, args.new))
    reason = harness.incomparable(base, new)
    if reason is not None:
        print(f"cannot compare {args.base} with {args.new}: {reason}", file=sys.stderr)
        return 2
    rows = harness.compare_rows(harness.load_spec(), base, new)
    print(harness.format_compare(rows))
    return 1 if any(r["verdict"] in ("worse", "missing") for r in rows) else 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from perfbench import calibrate

    print(calibrate.report(calibrate.load_studies(args.files)))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser(
        "measure", help="time one workload for --seconds; last line is JSON")
    measure.add_argument("--workload", required=True, choices=list(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0,
                         help="1: report per-layer metrics from traced repeats")
    measure.set_defaults(func=cmd_measure)

    run = commands.add_parser(
        "run", help="repeat every workload, interleaved, and write an artifact")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="limit to this workload (repeatable)")
    run.add_argument("--quick", action="store_true",
                     help="one repeat at 1/20 of the full length")
    run.add_argument("--trace", action="store_true",
                     help="also run one traced pair per workload")
    run.add_argument("--out", type=Path, default=None, help="artifact path")
    run.add_argument("--write-expected", action="store_true",
                     help="record this run's seed-1 fingerprints as the expected ones")
    run.set_defaults(func=cmd_run)

    compare = commands.add_parser(
        "compare", help="compare two artifacts metric by metric")
    compare.add_argument("base", type=Path)
    compare.add_argument("new", type=Path)
    compare.set_defaults(func=cmd_compare)

    calibrate = commands.add_parser(
        "calibrate", help="host-speed correction spread per exponent")
    calibrate.add_argument(
        "files", type=Path, nargs="*",
        help="artifacts or recorded studies (default: the committed study)")
    calibrate.set_defaults(func=cmd_calibrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
