"""The wire-format checker: versioned, round-trippable serialisation.

Every persisted artifact in the repo — experiment results, golden
traces, sweep manifests — travels as a dict from a ``to_dict`` method
and is re-read (possibly releases later) by a ``from_dict``.  The contract, established by
:class:`repro.analysis.results.ExperimentResult`, has three legs:

1. every ``to_dict`` class has a ``from_dict`` (no write-only formats
   that silently rot);
2. the module carries a ``*_SCHEMA_VERSION`` integer constant stamped
   into the payload;
3. when the *field set* of a ``to_dict`` changes, the version must be
   bumped — detected by diffing against a committed snapshot
   (``wire_snapshot.json``, refreshed via
   ``python -m repro lint --update-wire-snapshot`` and reviewed like a
   lockfile).  A snapshot entry whose class is gone is drift too; it is
   reported when its file lies under the scanned paths.

Field sets are extracted statically: string keys of dict literals
returned from (or built inside) ``to_dict``, plus ``out["key"] = ...``
subscript stores.  A ``to_dict`` whose keys cannot be determined
statically records ``null`` fields in the snapshot and is only checked
for legs 1 and 2.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Optional

from repro.staticcheck.core import Checker, Finding, Project

#: Wire format of the snapshot file itself.
SNAPSHOT_SCHEMA_VERSION = 1

DEFAULT_SNAPSHOT_PATH = Path(__file__).parent / "wire_snapshot.json"

VERSION_SUFFIX = "_SCHEMA_VERSION"


def _module_version_consts(tree: ast.Module) -> dict[str, int]:
    """Module-level ``*_SCHEMA_VERSION = <int>`` assignments."""
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.endswith(VERSION_SUFFIX):
                if isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, int
                ):
                    out[target.id] = node.value.value
    return out


def _to_dict_fields(method: ast.FunctionDef) -> Optional[list[str]]:
    """Statically-visible payload keys of a ``to_dict`` body.

    Union of constant string keys in dict literals and ``x["key"] =``
    stores.  ``None`` when nothing string-keyed is visible (dynamic
    construction) — the drift check is then skipped for this class.
    """
    keys: set[str] = set()
    saw_dynamic = False
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                elif key is not None:
                    saw_dynamic = True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    index = target.slice
                    if isinstance(index, ast.Constant) and isinstance(
                        index.value, str
                    ):
                        keys.add(index.value)
    if not keys and saw_dynamic:
        return None
    if not keys:
        return None
    return sorted(keys)


def _resolve_version_const(
    class_name: str, consts: dict[str, int]
) -> Optional[tuple[str, int]]:
    """Which ``*_SCHEMA_VERSION`` const covers ``class_name``.

    A module with exactly one const covers every wire class in it;
    with several, the const whose prefix (text before the suffix)
    appears in the upper-cased class name wins.
    """
    if len(consts) == 1:
        name, value = next(iter(consts.items()))
        return name, value
    upper = class_name.upper()
    for name, value in sorted(consts.items()):
        prefix = name[: -len(VERSION_SUFFIX)]
        if prefix and prefix in upper:
            return name, value
    return None


def collect_wire_classes(
    project: Project,
) -> list[dict]:
    """Every class with a ``to_dict``, with its statically-derived shape.

    Returns dicts with keys: ``key`` (``path::Class``), ``path``,
    ``line``, ``class_name``, ``fields``, ``has_from_dict``,
    ``version_const``/``version`` (``None`` when unresolvable), and
    ``module`` (the :class:`ModuleSource`, for suppression mapping).
    """
    out: list[dict] = []
    for module in project.modules:
        if module.tree is None:
            continue
        consts = _module_version_consts(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                s.name: s for s in node.body if isinstance(s, ast.FunctionDef)
            }
            to_dict = methods.get("to_dict")
            if to_dict is None:
                continue
            resolved = _resolve_version_const(node.name, consts)
            out.append(
                {
                    "key": f"{module.rel_path}::{node.name}",
                    "path": module.rel_path,
                    "line": to_dict.lineno,
                    "class_name": node.name,
                    "fields": _to_dict_fields(to_dict),
                    "has_from_dict": "from_dict" in methods,
                    "version_const": resolved[0] if resolved else None,
                    "version": resolved[1] if resolved else None,
                    "module": module,
                }
            )
    out.sort(key=lambda c: c["key"])
    return out


def build_snapshot(project: Project) -> dict:
    """The snapshot payload for ``--update-wire-snapshot``."""
    classes = {}
    for info in collect_wire_classes(project):
        if info["module"].suppression_for(WireFormatChecker.name, info["line"]):
            continue
        classes[info["key"]] = {
            "fields": info["fields"],
            "version_const": info["version_const"],
            "version": info["version"],
        }
    return {"schema_version": SNAPSHOT_SCHEMA_VERSION, "classes": classes}


def _under_scan_roots(project: Project, rel_path: str) -> bool:
    """Whether the file a snapshot key names lies under the scanned paths."""
    path = Path(rel_path)
    if project.display_root is not None:
        path = project.display_root / path
    path = path.resolve()
    return any(path == root or root in path.parents for root in project.roots)


def load_snapshot(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


class WireFormatChecker(Checker):
    name = "wire-format"
    description = (
        "every to_dict has a from_dict and a *_SCHEMA_VERSION const, "
        "bumped whenever the field set drifts from wire_snapshot.json"
    )

    def __init__(self, snapshot_path: Optional[Path] = None) -> None:
        self.snapshot_path = snapshot_path or DEFAULT_SNAPSHOT_PATH

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        snapshot = load_snapshot(self.snapshot_path)
        known = (snapshot or {}).get("classes", {})
        classes = collect_wire_classes(project)

        for info in classes:
            path, line = info["path"], info["line"]
            symbol = info["class_name"]

            if not info["has_from_dict"]:
                findings.append(
                    Finding(
                        check=self.name,
                        path=path,
                        line=line,
                        symbol=symbol,
                        message=(
                            f"{symbol}.to_dict has no matching from_dict; "
                            "wire formats must round-trip (or suppress for "
                            "one-way diagnostic output)"
                        ),
                    )
                )
            if info["version_const"] is None:
                findings.append(
                    Finding(
                        check=self.name,
                        path=path,
                        line=line,
                        symbol=symbol,
                        message=(
                            f"no *_SCHEMA_VERSION constant covers {symbol}; "
                            "add one at module level and stamp it into the "
                            "payload"
                        ),
                    )
                )
                continue

            entry = known.get(info["key"])
            if entry is None:
                if snapshot is not None:
                    findings.append(
                        Finding(
                            check=self.name,
                            path=path,
                            line=line,
                            symbol=symbol,
                            message=(
                                f"{symbol} is not in the committed wire "
                                "snapshot; run 'python -m repro lint "
                                "--update-wire-snapshot' and commit the diff"
                            ),
                        )
                    )
                continue

            fields_now = info["fields"]
            fields_then = entry.get("fields")
            version_then = entry.get("version")
            drifted = (
                fields_now is not None
                and fields_then is not None
                and fields_now != fields_then
            )
            if drifted and info["version"] == version_then:
                added = sorted(set(fields_now) - set(fields_then))
                removed = sorted(set(fields_then) - set(fields_now))
                delta = []
                if added:
                    delta.append(f"added {', '.join(added)}")
                if removed:
                    delta.append(f"removed {', '.join(removed)}")
                findings.append(
                    Finding(
                        check=self.name,
                        path=path,
                        line=line,
                        symbol=symbol,
                        message=(
                            f"{symbol}.to_dict fields changed "
                            f"({'; '.join(delta)}) without bumping "
                            f"{info['version_const']}; bump it and refresh "
                            "the snapshot"
                        ),
                    )
                )
            elif drifted or info["version"] != version_then:
                findings.append(
                    Finding(
                        check=self.name,
                        path=path,
                        line=line,
                        symbol=symbol,
                        message=(
                            f"{symbol} drifted from the committed wire "
                            "snapshot (version bumped or shape changed); "
                            "run 'python -m repro lint "
                            "--update-wire-snapshot' and commit the diff"
                        ),
                    )
                )

        present = {info["key"] for info in classes}
        for key in sorted(known):
            path, _, symbol = key.rpartition("::")
            if key in present or not _under_scan_roots(project, path):
                continue
            findings.append(
                Finding(
                    check=self.name,
                    path=path,
                    line=1,
                    symbol=symbol,
                    message=(
                        f"the committed wire snapshot lists {symbol}, but "
                        f"{path} no longer defines it; run 'python -m repro "
                        "lint --update-wire-snapshot' and commit the diff"
                    ),
                )
            )
        return findings


__all__ = [
    "DEFAULT_SNAPSHOT_PATH",
    "SNAPSHOT_SCHEMA_VERSION",
    "WireFormatChecker",
    "build_snapshot",
    "collect_wire_classes",
    "load_snapshot",
]
