"""The float-order checker: exact arithmetic order in annotated modules.

The controller tick (the Figure 4 law in the allocator), the period
heuristic's swing average and the SLO window math are verified
against goldens bit-for-bit: floating-point addition is not
associative, so "harmless" refactors — replacing an explicit left-fold
with ``sum()``, compensated summation via ``math.fsum``, hoisting a
numpy reduction, or rewriting ``a += b; a += c`` as ``a += b + c`` —
change the low bits and break golden-trace equality across machines
and releases.

Modules opt in with a header comment in the first 30 lines::

    # float-order: exact

Inside an annotated module the checker flags:

* builtin ``sum(...)`` and ``math.fsum(...)`` — both reorder or
  compensate relative to an explicit loop;
* numpy reductions (``np.sum``/``np.dot``/``np.cumsum``/``.sum()``
  etc.) and any numpy import at all — SIMD reductions pick their own
  association;
* reassociated accumulation: ``x += a + b`` (and ``x -= a - b`` ...),
  where the parenthesisation of the right-hand side chose an
  association the original serial updates did not have.

``statistics.fsum``-style helpers are treated like ``math.fsum``.  The
fix is an explicit loop in the intended order, or a suppression with
the argument for why association cannot matter (integer arithmetic,
single operand, ...).
"""

from __future__ import annotations

import ast

from repro.staticcheck.core import Checker, Finding, ModuleSource, Project, call_name

#: Call targets that reorder/compensate floating-point accumulation.
REORDERING_CALLS = frozenset(
    {
        "sum",
        "math.fsum",
        "statistics.fsum",
        "statistics.mean",
        "statistics.fmean",
        "np.sum",
        "np.dot",
        "np.cumsum",
        "np.mean",
        "np.average",
        "np.prod",
        "np.einsum",
        "numpy.sum",
        "numpy.dot",
        "numpy.cumsum",
        "numpy.mean",
        "numpy.average",
        "numpy.prod",
        "numpy.einsum",
    }
)

#: Method names that are numpy-style reductions when called on anything.
REDUCTION_METHODS = frozenset({"cumsum", "einsum"})

NUMPY_MODULES = ("numpy",)


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

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root in NUMPY_MODULES:
                self._flag(
                    node,
                    "numpy import in a float-order: exact module; SIMD "
                    "reductions choose their own association — keep this "
                    "module pure-python",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".", 1)[0]
        if root in NUMPY_MODULES:
            self._flag(
                node,
                "numpy import in a float-order: exact module; SIMD "
                "reductions choose their own association — keep this "
                "module pure-python",
            )

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name in REORDERING_CALLS:
            self._flag(
                node,
                f"{name}() reorders/compensates accumulation; use an "
                "explicit loop in the intended order (float addition is "
                "not associative)",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in REDUCTION_METHODS
        ):
            self._flag(
                node,
                f".{node.func.attr}() is a reduction with unspecified "
                "association; use an explicit loop",
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # x += a + b  — the RHS association (a + b first) differs from
        # the serial x += a; x += b the goldens were produced with.
        if isinstance(node.op, (ast.Add, ast.Sub)) and isinstance(
            node.value, ast.BinOp
        ):
            if isinstance(node.value.op, (ast.Add, ast.Sub)):
                self._flag(
                    node,
                    "reassociated accumulation (augmented +=/-= with an "
                    "additive right-hand side); split into serial updates "
                    "so the evaluation order is explicit",
                )
        self.generic_visit(node)


class FloatOrderChecker(Checker):
    name = "float-order"
    description = (
        "modules annotated '# float-order: exact' must not introduce "
        "sum()/fsum/numpy reductions or reassociated accumulation"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if module.tree is None or not module.float_order_exact:
                continue
            visitor = _Visitor(self.name, module)
            visitor.visit(module.tree)
            findings.extend(visitor.findings)
        return findings


__all__ = ["FloatOrderChecker", "REORDERING_CALLS"]
