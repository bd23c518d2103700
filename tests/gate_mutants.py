"""Gate mutants: each row breaks the code one way and names the gate
that must refuse it.

A gate that can no longer fail checks nothing, so every gate this repo
relies on (``repro lint``, the registry's fingerprint contract, the
RBS differential, the lifecycle and dispatch-log tests, the behaviour
corpus) is proven able to fail here.  Run from the repo root::

    python -m tests.gate_mutants

The runner copies the tree once into a temporary directory.  For each
row it applies the row's literal ``(anchor, replacement)`` edits to
``path`` in the copy (each anchor must occur exactly once when it is
applied), runs ``python -m <gate>`` there with ``PYTHONPATH`` set to
the copy's ``src``, and writes the pristine bytes back.  A row is
caught only if its gate exits exactly 1 and prints ``expect``: a
collection error, a usage error or a crash elsewhere is not a catch.
It prints one line per row and exits 1 if any row has a stale anchor
or is not caught.  It writes nothing to the working tree (the
interpreter may still cache this module's bytecode there).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

Edits = list[tuple[str, str]]
Row = tuple[str, str, Edits, tuple[str, ...], str]

#: Every pytest gate stops at its first failure, writes no cache into
#: the tree, and does not shrink hypothesis counterexamples.
PYTEST_FLAGS = ("-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=no-shrink")
LINT = ("repro", "lint")
GOLDEN = ("repro", "golden")
DIFFERENTIAL = "tests/test_sched_rbs_differential.py"
#: Either CPU count's case of the scan-oracle differential.
ORACLE = f"FAILED {DIFFERENTIAL}::test_optimized_matches_reference["
RBS = "src/repro/sched/rbs.py"
KERNEL = "src/repro/sim/kernel.py"
ALLOCATOR = "src/repro/core/allocator.py"
DISPATCH_LOG = "src/repro/sim/dispatch_log.py"
TICK = "            desired_fraction = k_scale * cumulative\n"
PICK = "    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:\n"
FUTURE = "from __future__ import annotations\n"
LIFECYCLE = "tests/test_thread_lifecycle.py"
STORAGE = "tests/test_dispatch_log.py::test_storage_is_packed_bytes_with_no_object_per_dispatch"
NAMES = "tests/test_dispatch_log.py::test_name_table_edge_cases"
TRACE_MEMORY = "tests/test_sim_cpu_trace.py::TestTraceMemory"

ROWS: list[Row] = [
    # A wall-clock read in the reservation scheduler's pick.
    ("lint-wall-clock-in-pick", RBS, [
        (PICK, PICK + "        now += int(time.time()) % 2\n"),
        (FUTURE, FUTURE + "\nimport time\n"),
    ], LINT, "repro lint: 1 finding(s)"),
    # A builtin sum() (compensated on CPython 3.12) in modules annotated
    # `# float-order: exact`: the controller tick, then the period fold.
    ("lint-sum-in-tick", ALLOCATOR, [
        (TICK, TICK + "            desired_fraction = sum((desired_fraction, 0.0))\n"),
    ], LINT, "repro lint: 1 finding(s)"),
    ("lint-sum-in-period", "src/repro/core/period.py", [
        ("        return total / len(swings)\n",
         "        total = sum(swings)\n        return total / len(swings)\n"),
    ], LINT, "repro lint: 1 finding(s)"),
    # The registry owns the reproducibility contract: an unstamped run fails.
    ("registry-unstamped-figure8", "src/repro/experiments/figure8.py", [
        ("    stamp_reproducibility(result, *kernels)\n", ""),
    ], ("repro", "run", "figure8", "--quick"), "RegistryError"),
    # Every SMP round re-reads the previous round's plan.
    ("rbs-stale-smp-plan", RBS, [
        ("        self._plan = None\n        return super().place_threads(now)\n",
         "        return super().place_threads(now)\n"),
    ], ("pytest", DIFFERENTIAL, "tests/test_golden.py"), ORACLE),
    # A batch's re-keyed threads never reach the ready heap.
    ("rbs-actuate-skips-heap-rebuild", RBS, [
        ("            rm_heap.rebuild()\n", "            pass\n"),
    ], ("pytest", DIFFERENTIAL), ORACLE),
    # An exited thread keeps its body and generator.
    ("exit-keeps-generator", KERNEL, [
        ("        thread._body = None\n"
         "        thread._generator = None\n"
         "        thread._pending_send = None\n", ""),
    ], ("pytest", LIFECYCLE), f"FAILED {LIFECYCLE}::TestExitReleasesGenerator::test_natural_exit"),
    # Exited threads stay in the kernel's thread table (kill and natural exit).
    ("exit-skips-retire", KERNEL, [
        ("        self._exit_thread(thread, status)\n        self._retire(thread)\n",
         "        self._exit_thread(thread, status)\n"),
        ("            # Retired only now: the slice's CPU was charged just before.\n"
         "            self._retire(thread)\n",
         "            # Retired only now: the slice's CPU was charged just before.\n"),
    ], ("pytest", LIFECYCLE), f"FAILED {LIFECYCLE}::TestExitReleasesGenerator::test_natural_exit"),
    # Every dispatch records a migration penalty of 0.
    ("log-drops-migration-penalty", KERNEL, [
        ("OUTCOME_CODE[outcome], consumed, migration_us,\n", "OUTCOME_CODE[outcome], consumed, 0,\n"),
    ], ("pytest", "tests/test_dispatch_log.py", "tests/test_golden.py"),
        "FAILED tests/test_dispatch_log.py::test_penalised_dispatches_read_back_as_six_fields"),
    # Trace samples kept in plain lists instead of typed columns.
    ("trace-in-plain-lists", "src/repro/sim/trace.py", [
        ('        self._times: array[int] = array("q")\n'
         '        self._values: array[float] = array("d")\n',
         "        self._times: list[int] = []\n        self._values: list[float] = []\n"),
    ], ("pytest", TRACE_MEMORY), f"FAILED {TRACE_MEMORY}::test_controller_trace_bytes_per_sample"),
    # Chunks folded at zlib level 0 keep every record's raw bytes.
    ("log-folds-raw-bytes", DISPATCH_LOG, [
        ("zlib.compress(self.records, FOLD_LEVEL)", "zlib.compress(self.records, 0)"),
    ], ("pytest", STORAGE), f"FAILED {STORAGE}"),
    # An out-of-order name leaves the later names' end offsets unshifted.
    ("names-skip-offset-shift", DISPATCH_LOG, [
        ('        ends[at:] = array("I", map(len(data).__add__, ends[at:]))\n', ""),
    ], ("pytest", NAMES), f"FAILED {NAMES}"),
    # A tid named twice is accepted.
    ("names-accept-duplicate-tid", DISPATCH_LOG, [
        ("        if tids[at] == tid:\n"
         '            raise ValueError(f"tid {tid} is already named {self[tid]!r}")\n', ""),
    ], ("pytest", NAMES), f"FAILED {NAMES}"),
    # The corpus digests pin every payload's field set...
    ("corpus-sojourn-payload", "src/repro/analysis/sojourn.py", [
        ('            "p999_us": self.p999_us,\n',
         '            "p999_us": self.p999_us,\n            "doctored": 0,\n'),
    ], GOLDEN, "golden mismatch"),
    ("corpus-fault-payload", "src/repro/faults/plan.py", [
        ('{"at_us": self.at_us, "kind": self.kind}',
         '{"at_us": self.at_us, "kind": self.kind, "doctored": 0}'),
    ], GOLDEN, "golden mismatch"),
    # ...and the fingerprints every allocation and every slice.
    ("corpus-controller-tick", ALLOCATOR, [
        (TICK, "            desired_fraction = k_scale * cumulative * 1.001\n"),
    ], GOLDEN, "golden mismatch"),
    ("corpus-slice-ignores-events", KERNEL, [
        ("                cap = next_time()\n"
         "                if cap is None or cap > t_end:\n"
         "                    cap = t_end\n", "                cap = t_end\n"),
    ], GOLDEN, "golden mismatch"),
]


def mutate(text: str, edits: Edits) -> str:
    """Apply ``edits`` in order; each anchor must occur exactly once."""
    for anchor, replacement in edits:
        count = text.count(anchor)
        if count != 1:
            raise ValueError(f"stale anchor, found {count} times: {anchor!r}")
        text = text.replace(anchor, replacement)
    return text


def check(tree: Path, row: Row) -> tuple[bool, str]:
    """Run one row in ``tree`` and restore its file; return whether the
    gate caught the mutant, and the line that reports it."""
    name, path, edits, gate, expect = row
    target = tree / path
    pristine = target.read_bytes()
    try:
        mutant = mutate(pristine.decode(), edits)
    except ValueError as error:
        return False, f"NOT CAUGHT  {name}: {error}"
    command = [sys.executable, "-m", *gate, *(PYTEST_FLAGS if gate[0] == "pytest" else ())]
    # No bytecode cache: a restored file could otherwise load its mutant's .pyc.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    target.write_bytes(mutant.encode())
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
    finally:
        target.write_bytes(pristine)
    caught = done.returncode == 1 and expect in done.stdout
    last = (done.stdout.strip().splitlines() or [""])[-1]
    verdict = "caught" if caught else "NOT CAUGHT"
    seconds = time.monotonic() - start
    return caught, f"{verdict:10s}  {name}  exit {done.returncode}  {seconds:.1f}s  {last}"


def _skip(directory: str, names: list[str]) -> list[str]:
    caches = {".git", "__pycache__", ".pytest_cache", ".mypy_cache", ".ruff_cache",
              ".hypothesis", ".benchmarks"}
    if Path(directory).name == "perfbench":
        caches.add("out")
    return [name for name in names if name in caches]


def run(rows: list[Row], root: Path) -> int:
    """Check every row on one copy of ``root``; 1 if any row is not caught."""
    missed = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=_skip)
        for row in rows:
            caught, line = check(tree, row)
            missed += not caught
            print(line, flush=True)
    print(f"{len(rows) - missed} of {len(rows)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(run(ROWS, Path(__file__).resolve().parent.parent))
