"""The gate-mutant table and its runner, without running a real gate.

``python -m tests.gate_mutants`` runs every row's gate (about a
minute); here the rows are only checked against the tree, and the
runner is driven on a tiny tree whose gate is the mutated module
itself.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.gate_mutants import ROWS, check, mutate, run

ROOT = Path(__file__).resolve().parent.parent
PROBE = 'import sys\nprint("probe ran")\nsys.exit(0)\n'


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_every_anchor_occurs_once_in_the_tree(row):
    name, path, edits, gate, expect = row
    text = (ROOT / path).read_text()
    assert mutate(text, edits) != text


def test_row_names_are_unique():
    names = [row[0] for row in ROWS]
    assert len(set(names)) == len(names) == 17


def test_a_repeated_anchor_is_stale():
    with pytest.raises(ValueError, match="found 2 times"):
        mutate("a\na\n", [("a\n", "b\n")])


def probe_row(name, anchor, replacement):
    return (name, "src/probe.py", [(anchor, replacement)], ("probe",), "boom")


MISSES = [
    probe_row("stale anchor", "sys.exit(3)", "sys.exit(1)"),
    probe_row("exits 0", 'print("probe ran")', 'print("boom")'),
    probe_row("exits 2", "sys.exit(0)", 'print("boom"); sys.exit(2)'),
    probe_row("exits 1 silently", "sys.exit(0)", "sys.exit(1)"),
]
CATCH = probe_row("caught", "sys.exit(0)", 'print("boom"); sys.exit(1)')


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text(PROBE)
    return tmp_path


@pytest.mark.parametrize("row", MISSES + [CATCH], ids=lambda row: row[0])
def test_a_row_is_caught_only_on_exit_1_with_expect(tree, row):
    caught, line = check(tree, row)
    assert caught is (row is CATCH)
    assert (tree / "src" / "probe.py").read_bytes() == PROBE.encode()
    assert row[0] in line


@pytest.mark.parametrize("row", MISSES, ids=lambda row: row[0])
def test_the_runner_fails_on_a_miss_and_leaves_the_tree_alone(tree, row, capsys):
    assert run([CATCH, row, CATCH], tree) == 1
    assert capsys.readouterr().out.endswith("2 of 3 mutants caught\n")
    assert sorted(p.name for p in tree.rglob("*")) == ["probe.py", "src"]
    assert (tree / "src" / "probe.py").read_bytes() == PROBE.encode()


def test_the_runner_passes_when_every_row_is_caught(tree):
    assert run([CATCH, CATCH], tree) == 0
