"""The determinism checker: no hidden entropy in the simulator.

Every result in this repo is defined by ``(workload, seed, scheduler)``
— the golden-trace corpus, the stamped dispatch fingerprints, and
the perf-gate comparisons all assume a fixed seed reproduces the exact
dispatch log.  Three classes of code break that silently:

* **wall-clock reads** (``time.time``, ``datetime.now``, monotonic and
  perf counters) leaking into charged costs or traces;
* **ambient entropy**: module-level ``random.*`` (the shared unseeded
  global), ``random.Random()`` with no seed argument, ``os.urandom``,
  ``uuid.uuid4``, ``secrets``, ``numpy.random`` module-level calls;
* **order-dependent iteration over unordered containers**: a ``for``
  over a set literal / ``set()`` result / a ``self`` attribute
  initialised as a set, where the loop's visitation order can leak
  into heaps, traces, or tie-breaks.  ``sorted(...)``-wrapped
  iteration is exempt; order-insensitive folds (``sum``/``min``/
  ``max`` over the set) still get flagged and should carry a
  ``repro-lint: disable=determinism`` suppression comment so the
  insensitivity argument is written down next to the loop.
* **identity in ordering**: ``id(...)`` inside a ``key=`` of
  ``sorted``/``min``/``max``/``list.sort`` — address-order ties differ
  across runs.
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

#: Dotted call targets that read ambient time or entropy.
FORBIDDEN_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "time.process_time_ns": "wall-clock read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "ambient entropy",
    "uuid.uuid1": "ambient entropy",
    "uuid.uuid4": "ambient entropy",
    "secrets.token_bytes": "ambient entropy",
    "secrets.token_hex": "ambient entropy",
    "secrets.randbelow": "ambient entropy",
    "numpy.random.rand": "unseeded global RNG",
    "numpy.random.randn": "unseeded global RNG",
    "numpy.random.randint": "unseeded global RNG",
    "numpy.random.random": "unseeded global RNG",
    "numpy.random.choice": "unseeded global RNG",
    "numpy.random.shuffle": "unseeded global RNG",
    "np.random.rand": "unseeded global RNG",
    "np.random.randn": "unseeded global RNG",
    "np.random.randint": "unseeded global RNG",
    "np.random.random": "unseeded global RNG",
    "np.random.choice": "unseeded global RNG",
    "np.random.shuffle": "unseeded global RNG",
}

#: ``random.<fn>`` module-level functions (the shared global RNG).
GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "uniform",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "expovariate",
        "normalvariate",
        "betavariate",
        "getrandbits",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "lognormvariate",
        "seed",
    }
)

#: Order-insensitive consumers a set may legitimately feed (still
#: flagged — the suppression documents the insensitivity argument —
#: but named in the message so the fix is obvious).
_SET_SOURCES = ("set", "frozenset")


def _is_set_expr(node: ast.AST, set_attrs: set[str]) -> bool:
    """Is ``node`` statically known to produce an unordered set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in _SET_SOURCES:
            return True
        if name in ("list", "tuple", "iter", "reversed", "enumerate") and node.args:
            # list(self._members) over a set iterates in its hash order too
            return _is_set_expr(node.args[0], set_attrs)
        return False
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in set_attrs
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: s1 | s2, s1 - s2 ... unordered if either side is
        return _is_set_expr(node.left, set_attrs) or _is_set_expr(
            node.right, set_attrs
        )
    return False


def _set_attrs_of_module(tree: ast.Module) -> set[str]:
    """``self.<attr>`` names initialised as sets anywhere in the module.

    Collected module-wide rather than per-class: a false attribution
    across classes in one file is possible but harmless in practice,
    and it keeps the pass flow-free.
    """
    attrs: set[str] = set()
    for node in ast.walk(tree):
        target: Optional[ast.AST] = None
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if target is None or value is None:
            continue
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if isinstance(value, (ast.Set, ast.SetComp)):
                attrs.add(target.attr)
            elif isinstance(value, ast.Call) and call_name(value) in _SET_SOURCES:
                attrs.add(target.attr)
    return attrs


class _Visitor(ast.NodeVisitor):
    def __init__(self, checker_name: str, module: ModuleSource) -> None:
        self.check = checker_name
        self.module = module
        self.findings: list[Finding] = []
        self.set_attrs = (
            _set_attrs_of_module(module.tree) if module.tree is not None else set()
        )
        self._scope: list[str] = []

    # -- scope bookkeeping so findings carry a useful symbol ------------
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

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            reason = FORBIDDEN_CALLS.get(name)
            if reason is not None:
                self._flag(
                    node,
                    f"{name}() is a {reason}; derive the value from virtual "
                    "time or a seeded RNG (suppress only for diagnostics "
                    "that never feed charged costs or traces)",
                )
            elif name.startswith("random.") and name.split(".", 1)[1] in (
                GLOBAL_RANDOM_FNS
            ):
                self._flag(
                    node,
                    f"{name}() uses the shared global RNG; construct a "
                    "random.Random(seed) owned by the component instead",
                )
            elif name in ("random.Random", "Random") and not node.args:
                has_seed_kw = any(k.arg == "seed" for k in node.keywords)
                if not has_seed_kw:
                    self._flag(
                        node,
                        "random.Random() without a seed draws from OS "
                        "entropy; pass an explicit seed",
                    )
        # id() in sort keys
        if name in ("sorted", "min", "max") or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        ):
            for keyword in node.keywords:
                if keyword.arg == "key" and self._mentions_id(keyword.value):
                    self._flag(
                        keyword.value,
                        "id() in a sort key orders by object address, which "
                        "differs across runs; use a stable field (tid, "
                        "registration order) instead",
                    )
        self.generic_visit(node)

    @staticmethod
    def _mentions_id(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
        return False

    # -- iteration over unordered containers ----------------------------
    def _flag_iteration(self, iterable: ast.AST, context: str) -> None:
        if _is_set_expr(iterable, self.set_attrs):
            self._flag(
                iterable,
                f"{context} iterates a set in hash order; wrap in "
                "sorted(...) if order can reach a heap/trace/tie-break, "
                "or suppress with the order-insensitivity argument",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_iteration(node.iter, "for loop")
        self.generic_visit(node)

    def visit_comprehension_iter(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            self._flag_iteration(generator.iter, "comprehension")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iter(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iter(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iter(node)
        self.generic_visit(node)


class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "no wall-clock reads, ambient entropy, set-order iteration, or "
        "id()-based ordering under src/repro/"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if module.tree is None:
                continue
            visitor = _Visitor(self.name, module)
            tree = _strip_sorted_sets(module.tree)
            visitor.visit(tree)
            findings.extend(visitor.findings)
        return findings


def _strip_sorted_sets(tree: ast.Module) -> ast.Module:
    """Replace ``sorted(<set-expr>, ...)`` arguments with a placeholder
    so set-iteration checks don't fire inside the approved idiom.

    Only the *iterable argument position* of ``sorted``/``list``/
    ``tuple``/``len``/``sum``/``min``/``max`` wrapping is neutral for
    ``sorted``; ``list(set_expr)``/``sum``/``min``/``max`` stay flagged
    when the set feeds a ``for`` — but direct one-shot wrapping of a
    set in ``sorted()`` is exempted here.
    """

    class Strip(ast.NodeTransformer):
        def visit_Call(self, node: ast.Call) -> ast.AST:
            self.generic_visit(node)
            if call_name(node) == "sorted" and node.args:
                first = node.args[0]
                placeholder = ast.copy_location(
                    ast.Name(id="__repro_lint_sorted__", ctx=ast.Load()), first
                )
                node.args[0] = placeholder
            return node

    import copy

    return ast.fix_missing_locations(Strip().visit(copy.deepcopy(tree)))


__all__ = ["DeterminismChecker", "FORBIDDEN_CALLS", "GLOBAL_RANDOM_FNS"]
