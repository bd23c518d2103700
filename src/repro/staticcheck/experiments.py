"""The experiment-registry checker: every experiment is reproducible.

The declarative registry (``@experiment`` + ``Param``) is the repo's
only entry point for paper figures and ablations.  Every experiment
must (a) be seeded and (b) stamp the dispatch fingerprint into its
result metadata so any run can be compared bit-for-bit against any
other.  This checker enforces both statically:

* the ``params=`` tuple of every ``@experiment`` must contain a Param
  named ``seed`` — resolved through module-level ``Param(...)``
  assignments and project-local imports, so the shared ``SEED_PARAM``
  constant counts;
* the experiment body — or a helper it (transitively) calls, resolved
  through the project-local call graph — must stamp
  ``dispatch_fingerprint`` (a call to ``dispatch_fingerprint(...)`` or
  a ``metadata["dispatch_fingerprint"] = ...`` store).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.staticcheck.core import Checker, Finding, ModuleSource, Project, call_name

REQUIRED_PARAMS = ("seed",)
FINGERPRINT = "dispatch_fingerprint"


def _decorator_call(node: ast.FunctionDef) -> Optional[ast.Call]:
    """The ``@experiment(...)`` decorator call, if present."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            name = call_name(decorator)
            if name is not None and name.rsplit(".", 1)[-1] == "experiment":
                return decorator
    return None


class _ModuleIndex:
    """Per-module symbol tables for static resolution."""

    def __init__(self, module: ModuleSource) -> None:
        self.module = module
        self.functions: dict[str, ast.FunctionDef] = {}
        self.assignments: dict[str, ast.AST] = {}
        #: local name -> (source module suffix, original name)
        self.imports: dict[str, tuple[str, str]] = {}
        if module.tree is None:
            return
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.assignments[target.id] = node.value
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )


class _Resolver:
    """Project-wide resolution of names to Param values and functions."""

    def __init__(self, project: Project) -> None:
        self.indexes = {m.rel_path: _ModuleIndex(m) for m in project.modules}
        self.by_suffix: dict[str, list[_ModuleIndex]] = {}
        for index in self.indexes.values():
            # repro/experiments/params.py -> repro.experiments.params
            dotted = index.module.rel_path[:-3].replace("/", ".")
            self.by_suffix.setdefault(dotted, []).append(index)

    def _imported_index(
        self, index: _ModuleIndex, name: str
    ) -> Optional[tuple[_ModuleIndex, str]]:
        imported = index.imports.get(name)
        if imported is None:
            return None
        source_module, original = imported
        for dotted, candidates in self.by_suffix.items():
            if dotted == source_module or dotted.endswith("." + source_module):
                return candidates[0], original
        # absolute import whose path is a suffix of the dotted name
        for dotted, candidates in self.by_suffix.items():
            if source_module.endswith(dotted.rsplit(".", 1)[-1]) and dotted.endswith(
                source_module.rsplit(".", 1)[-1]
            ):
                return candidates[0], original
        return None

    def resolve_value(
        self, index: _ModuleIndex, name: str, depth: int = 0
    ) -> Optional[ast.AST]:
        """The AST expression a module-level name is bound to, following
        project-local imports."""
        if depth > 4:
            return None
        if name in index.assignments:
            value = index.assignments[name]
            # follow alias chains (``_SEED_PARAM = SEED_PARAM``) in
            # the module that owns the assignment, not the caller's
            if isinstance(value, ast.Name):
                resolved = self.resolve_value(index, value.id, depth + 1)
                return resolved if resolved is not None else value
            return value
        imported = self._imported_index(index, name)
        if imported is not None:
            target_index, original = imported
            return self.resolve_value(target_index, original, depth + 1)
        return None

    def resolve_function(
        self, index: _ModuleIndex, name: str, depth: int = 0
    ) -> Optional[tuple[_ModuleIndex, ast.FunctionDef]]:
        if depth > 4:
            return None
        if name in index.functions:
            return index, index.functions[name]
        imported = self._imported_index(index, name)
        if imported is not None:
            target_index, original = imported
            return self.resolve_function(target_index, original, depth + 1)
        return None


def _param_name(node: ast.AST) -> Optional[str]:
    """The declared name of a ``Param("name", ...)`` call."""
    if not isinstance(node, ast.Call):
        return None
    name = call_name(node)
    if name is None or name.rsplit(".", 1)[-1] != "Param":
        return None
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    for keyword in node.keywords:
        if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            if isinstance(value, str):
                return value
    return None


def _collect_param_names(
    resolver: _Resolver,
    index: _ModuleIndex,
    node: ast.AST,
    out: set[str],
    unresolved: list[str],
    depth: int = 0,
) -> None:
    """Names of every Param in a ``params=`` expression, following
    Name references, starred expansions, and tuple concatenation."""
    if depth > 6:
        unresolved.append("<depth limit>")
        return
    direct = _param_name(node)
    if direct is not None:
        out.add(direct)
        return
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            _collect_param_names(resolver, index, element, out, unresolved, depth + 1)
        return
    if isinstance(node, ast.Starred):
        _collect_param_names(resolver, index, node.value, out, unresolved, depth + 1)
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        _collect_param_names(resolver, index, node.left, out, unresolved, depth + 1)
        _collect_param_names(resolver, index, node.right, out, unresolved, depth + 1)
        return
    if isinstance(node, ast.Name):
        value = resolver.resolve_value(index, node.id)
        if value is not None:
            _collect_param_names(resolver, index, value, out, unresolved, depth + 1)
        else:
            unresolved.append(node.id)
        return
    unresolved.append(ast.dump(node)[:40])


def _stamps_fingerprint(fn: ast.FunctionDef) -> bool:
    """Does this body stamp the fingerprint directly?"""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and name.rsplit(".", 1)[-1] == FINGERPRINT:
                return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    index = target.slice
                    if (
                        isinstance(index, ast.Constant)
                        and index.value == FINGERPRINT
                    ):
                        return True
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and key.value == FINGERPRINT:
                    return True
    return False


def _called_function_names(fn: ast.FunctionDef) -> set[str]:
    """Bare-name calls (project-local helpers) made by this body."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.add(node.func.id)
    return out


def _stamps_transitively(
    resolver: _Resolver,
    index: _ModuleIndex,
    fn: ast.FunctionDef,
    depth: int = 0,
    seen: Optional[set[str]] = None,
) -> bool:
    if seen is None:
        seen = set()
    key = f"{index.module.rel_path}::{fn.name}"
    if key in seen or depth > 5:
        return False
    seen.add(key)
    if _stamps_fingerprint(fn):
        return True
    for name in sorted(_called_function_names(fn)):
        resolved = resolver.resolve_function(index, name)
        if resolved is not None:
            helper_index, helper = resolved
            if _stamps_transitively(resolver, helper_index, helper, depth + 1, seen):
                return True
    return False


class ExperimentRegistryChecker(Checker):
    name = "experiment-registry"
    description = (
        "every @experiment exposes a 'seed' param and "
        "stamps dispatch_fingerprint into its result metadata"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        resolver = _Resolver(project)
        for module in project.modules:
            if module.tree is None:
                continue
            index = resolver.indexes[module.rel_path]
            for node in module.tree.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                decorator = _decorator_call(node)
                if decorator is None:
                    continue
                params_expr = None
                for keyword in decorator.keywords:
                    if keyword.arg == "params":
                        params_expr = keyword.value
                names: set[str] = set()
                unresolved: list[str] = []
                if params_expr is not None:
                    _collect_param_names(
                        resolver, index, params_expr, names, unresolved
                    )
                for required in REQUIRED_PARAMS:
                    if required in names:
                        continue
                    hint = (
                        f" (could not statically resolve: "
                        f"{', '.join(sorted(set(unresolved)))})"
                        if unresolved
                        else ""
                    )
                    findings.append(
                        Finding(
                            check=self.name,
                            path=module.rel_path,
                            line=node.lineno,
                            symbol=node.name,
                            message=(
                                f"experiment does not expose a '{required}' "
                                f"param{hint}; reuse the shared "
                                "SEED_PARAM declaration"
                            ),
                        )
                    )
                if not _stamps_transitively(resolver, index, node):
                    findings.append(
                        Finding(
                            check=self.name,
                            path=module.rel_path,
                            line=node.lineno,
                            symbol=node.name,
                            message=(
                                "experiment never stamps "
                                "dispatch_fingerprint into its result "
                                "metadata; build the system with "
                                "record_dispatches=True and stamp "
                                "dispatch_fingerprint(kernel)"
                            ),
                        )
                    )
        return findings


__all__ = ["ExperimentRegistryChecker", "REQUIRED_PARAMS"]
