"""The atomic-write checker: no raw file writes outside the helper.

Artifacts in this repo are contracts — experiment results, golden
corpora, sweep results and their journals — and a raw
``open(path, "w")`` torn by a crash (or by two concurrent runs) leaves
a half-written file that *parses as damage* somewhere downstream,
often much later.
:mod:`repro.core.artifacts` exists so every durable byte goes through
one audited path: ``write_atomic`` (temp file + fsync + ``os.replace``)
for whole-file writes, ``DurableAppender`` for append-only logs and
journals.

This pass flags the two ways Python code sidesteps that helper:

* ``open(...)`` with a write-capable mode — a constant mode string
  containing ``w``, ``a``, ``x`` or ``+``, whether passed as the
  second positional argument or as ``mode=``;
* ``<path>.write_text(...)`` — pathlib's one-shot write, which is a
  plain truncate-then-write underneath.

Read-mode opens are untouched, and non-constant modes are given the
benefit of the doubt (the pass is flow-free).  The helper module
itself (``repro/core/artifacts.py``) is exempt by construction — it is
the single intentional home of raw write-mode ``open()``.  Anything
else that genuinely must bypass the helper (e.g. diagnostics whose
torn remains are harmless) carries a justified ``atomic-write``
suppression comment, so the argument is written down at the call site.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.staticcheck.core import (
    Checker,
    Finding,
    ModuleSource,
    Project,
    call_name,
)

#: Mode-string characters that make an ``open()`` write-capable.
WRITE_MODE_CHARS = frozenset("wax+")

#: Modules allowed to hold raw write-mode opens (the helper itself).
EXEMPT_SUFFIXES = ("core/artifacts.py",)


def _write_mode(node: ast.Call) -> Optional[str]:
    """The constant mode string of a write-capable ``open()``, if any."""
    mode_node: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if (
        isinstance(mode_node, ast.Constant)
        and isinstance(mode_node.value, str)
        and WRITE_MODE_CHARS.intersection(mode_node.value)
    ):
        return mode_node.value
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, checker_name: str, module: ModuleSource) -> None:
        self.check = checker_name
        self.module = module
        self.findings: list[Finding] = []
        self._scope: list[str] = []

    def _symbol(self) -> str:
        return ".".join(self._scope)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                check=self.check,
                path=self.module.rel_path,
                line=getattr(node, "lineno", 1),
                symbol=self._symbol(),
                message=message,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name in ("open", "os.fdopen", "io.open"):
            mode = _write_mode(node)
            if mode is not None:
                self._flag(
                    node,
                    f"raw {name}(..., {mode!r}) can tear on crash; route "
                    "the write through repro.core.artifacts (write_atomic "
                    "for whole files, DurableAppender for logs)",
                )
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "write_text":
            self._flag(
                node,
                ".write_text() truncates in place and can tear on crash; "
                "use repro.core.artifacts.write_atomic instead",
            )
        self.generic_visit(node)


class AtomicWriteChecker(Checker):
    name = "atomic-write"
    description = (
        "durable writes go through repro.core.artifacts (write_atomic / "
        "DurableAppender), not raw open()/write_text()"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if module.tree is None:
                continue
            if module.rel_path.endswith(EXEMPT_SUFFIXES):
                continue
            visitor = _Visitor(self.name, module)
            visitor.visit(module.tree)
            findings.extend(visitor.findings)
        return findings


__all__ = ["AtomicWriteChecker", "EXEMPT_SUFFIXES", "WRITE_MODE_CHARS"]
