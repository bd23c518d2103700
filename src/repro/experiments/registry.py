"""Declarative experiment registry.

Experiments declare themselves once with the :func:`experiment`
decorator::

    @experiment(
        name="figure8",
        description="Dispatch overhead vs. dispatcher frequency",
        tags=("figure", "overhead"),
        params=(
            Param("sim_seconds", kind="float", default=2.0, minimum=0.05),
            Param("seed", kind="int", default=None),
        ),
        quick={"sim_seconds": 0.4},
    )
    def figure8_experiment(*, sim_seconds, seed):
        ...

The decorator builds an :class:`ExperimentSpec` — name, description,
tags, a typed parameter schema with defaults/bounds and quick-mode
overrides — and registers it in the module-level :data:`REGISTRY`.
The function's keywords carry no defaults: each :class:`Param` is the
one place its default lives, and :meth:`ExperimentSpec.run` passes
every value.
:meth:`ExperimentSpec.run` is the one way to run an experiment:
the ``python -m repro`` CLI, the sweep runner, the benchmarks, the
examples and the tests all go through it.

The spec also owns the reproducibility contract.  Registration fails
unless the schema declares a ``seed`` parameter, and every run stamps
the resolved seed into the result's metadata, then fails unless the
experiment stamped a non-empty dispatch fingerprint (see
:func:`repro.experiments.params.stamp_reproducibility`).

Parameter values arriving from the command line are strings; each
:class:`Param` knows how to parse its ``kind`` (``int``, ``float``,
``bool``, ``str`` and their ``*_list`` forms) and to validate bounds
and choices, so a spec can be driven identically from Python and from
``--param name=value`` flags.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.analysis.results import ExperimentResult

#: Parameter kinds understood by :meth:`Param.parse`.
SCALAR_KINDS = ("int", "float", "bool", "str")
LIST_KINDS = ("int_list", "float_list", "str_list")


class RegistryError(Exception):
    """Base class for experiment-registry failures."""


class DuplicateExperimentError(RegistryError):
    """Two experiments tried to register under the same name."""


class UnknownExperimentError(RegistryError, KeyError):
    """Lookup of a name no experiment registered."""


class ParameterError(RegistryError, ValueError):
    """A parameter value failed parsing or validation."""


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}

_SCALAR_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": lambda text: int(text, 0),
    "float": float,
    "str": str,
}

_SCALAR_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


@dataclass(frozen=True)
class Param:
    """One typed parameter of an experiment.

    ``kind`` names the value type; ``*_list`` kinds accept tuples of
    the element type.  ``minimum``/``maximum`` bound scalars and every
    element of a list; ``choices`` restricts to an explicit set.  A
    ``default`` of ``None`` means "not set" and skips validation.
    """

    name: str
    kind: str = "float"
    default: Any = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[tuple[Any, ...]] = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SCALAR_KINDS + LIST_KINDS:
            raise ValueError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {SCALAR_KINDS + LIST_KINDS}"
            )

    # ------------------------------------------------------------------
    @property
    def element_kind(self) -> str:
        """The scalar kind of this parameter's values/elements."""
        return self.kind.removesuffix("_list")

    def _parse_scalar(self, text: str) -> Any:
        text = text.strip()
        if self.element_kind == "bool":
            try:
                return _BOOL_WORDS[text.lower()]
            except KeyError:
                raise ParameterError(
                    f"parameter {self.name!r}: {text!r} is not a boolean "
                    f"(use true/false)"
                ) from None
        try:
            return _SCALAR_PARSERS[self.element_kind](text)
        except ValueError:
            raise ParameterError(
                f"parameter {self.name!r}: {text!r} is not a valid "
                f"{self.element_kind}"
            ) from None

    def _coerce_element(self, element: Any) -> Any:
        """One value of this parameter's element kind, from a string or
        an already-typed value (with a clean error on a type mismatch)."""
        if isinstance(element, str):
            return self._parse_scalar(element)
        is_bool = isinstance(element, bool)
        type_ok = isinstance(element, _SCALAR_TYPES[self.element_kind]) and (
            self.element_kind == "bool" or not is_bool
        )
        if not type_ok:
            raise ParameterError(
                f"parameter {self.name!r}: {element!r} is not a valid "
                f"{self.element_kind}"
            )
        if self.element_kind == "float":
            return float(element)
        return element

    def parse(self, raw: Any) -> Any:
        """Coerce ``raw`` (a CLI string or an already-typed value).

        List kinds accept ``","`` or ``":"`` as element separators so a
        list-valued point can be written inside a comma-separated sweep
        grid (``--param n_cpus=1:2:4,8``); a typed sequence is coerced
        element-wise, and a bare scalar becomes a one-element list.
        """
        if raw is None:
            value: Any = None
        elif self.kind in LIST_KINDS:
            if isinstance(raw, str):
                tokens = [t for t in raw.replace(":", ",").split(",") if t.strip()]
                value = tuple(self._coerce_element(t) for t in tokens)
            elif isinstance(raw, Sequence):
                value = tuple(self._coerce_element(e) for e in raw)
            else:
                value = (self._coerce_element(raw),)
        else:
            value = self._coerce_element(raw)
        self.validate(value)
        return value

    def validate(self, value: Any) -> None:
        """Check bounds/choices, and that a list is non-empty with no
        repeated element; raise :class:`ParameterError` on violation."""
        if value is None:
            return
        elements = value if self.kind in LIST_KINDS else (value,)
        if self.kind in LIST_KINDS:
            if len(elements) == 0:
                raise ParameterError(f"parameter {self.name!r}: empty list")
            repeated = [e for i, e in enumerate(elements) if e in elements[:i]]
            if repeated:
                raise ParameterError(
                    f"parameter {self.name!r}: {repeated[0]!r} repeated in "
                    f"{tuple(elements)}"
                )
        for element in elements:
            if self.choices is not None and element not in self.choices:
                raise ParameterError(
                    f"parameter {self.name!r}: {element!r} not in "
                    f"choices {self.choices}"
                )
            if self.minimum is not None and element < self.minimum:
                raise ParameterError(
                    f"parameter {self.name!r}: {element!r} below "
                    f"minimum {self.minimum}"
                )
            if self.maximum is not None and element > self.maximum:
                raise ParameterError(
                    f"parameter {self.name!r}: {element!r} above "
                    f"maximum {self.maximum}"
                )

    def describe(self) -> str:
        """One-line schema description for ``describe``/``--help`` output."""
        parts = [self.kind, f"default={self.default!r}"]
        if self.minimum is not None:
            parts.append(f"min={self.minimum}")
        if self.maximum is not None:
            parts.append(f"max={self.maximum}")
        if self.choices is not None:
            parts.append(f"choices={list(self.choices)}")
        text = f"{self.name} ({', '.join(parts)})"
        if self.help:
            text += f" — {self.help}"
        return text


def _jsonable(value: Any) -> Any:
    """Tuples become lists so parameter values survive a JSON round-trip."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def point_key(params: Mapping[str, Any]) -> str:
    """Canonical identity of one grid point's parameter assignment.

    Sorted keys and compact separators make the key independent of
    axis declaration order and whitespace, and ``_jsonable`` folds
    tuples into lists so a point keyed before a JSON round-trip equals
    the same point keyed after one.  The orchestration journal uses
    this as the resume identity: a journaled key matches exactly the
    points whose parameters are identical.
    """
    return json.dumps(
        {name: _jsonable(value) for name, value in params.items()},
        sort_keys=True,
        separators=(",", ":"),
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: metadata, parameter schema, entry point."""

    name: str
    description: str
    func: Callable[..., ExperimentResult]
    params: tuple[Param, ...] = ()
    tags: tuple[str, ...] = ()
    quick: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not any(param.name == "seed" for param in self.params):
            raise RegistryError(
                f"experiment {self.name!r} declares no 'seed' parameter"
            )
        seen: set[str] = set()
        normalized: list[Param] = []
        for param in self.params:
            if param.name in seen:
                raise RegistryError(
                    f"experiment {self.name!r}: duplicate parameter "
                    f"{param.name!r}"
                )
            seen.add(param.name)
            # Defaults go through the same parse/validate path as user
            # values, so e.g. integer literals in a float_list default
            # normalise to floats and bad defaults fail at registration.
            default = param.parse(param.default)
            if default != param.default:
                param = dataclasses.replace(param, default=default)
            normalized.append(param)
        object.__setattr__(self, "params", tuple(normalized))
        quick: dict[str, Any] = {}
        for key, value in self.quick.items():
            if key not in seen:
                raise RegistryError(
                    f"experiment {self.name!r}: quick override for unknown "
                    f"parameter {key!r}"
                )
            quick[key] = self.param(key).parse(value)
        object.__setattr__(self, "quick", quick)

    # ------------------------------------------------------------------
    def param(self, name: str) -> Param:
        """Look up one parameter's schema by name."""
        for param in self.params:
            if param.name == name:
                return param
        raise ParameterError(
            f"experiment {self.name!r} has no parameter {name!r}; "
            f"available: {[p.name for p in self.params]}"
        )

    def defaults(self) -> dict[str, Any]:
        """The full default parameter assignment."""
        return {p.name: p.default for p in self.params}

    def coerce(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Parse and validate a partial assignment (CLI strings allowed)."""
        return {
            name: self.param(name).parse(raw) for name, raw in overrides.items()
        }

    def resolve(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        quick: bool = False,
    ) -> dict[str, Any]:
        """Defaults, overlaid with quick-mode values, overlaid with
        explicit overrides (which always win)."""
        values = self.defaults()
        if quick:
            values.update(self.quick)
        if overrides:
            values.update(self.coerce(overrides))
        return values

    def run(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        quick: bool = False,
    ) -> ExperimentResult:
        """Run the experiment with the resolved parameter assignment.

        The assignment, its seed and the quick-mode flag are stamped
        into the result's ``metadata`` so every artifact records how it
        was produced.  A result without a dispatch fingerprint breaks
        the reproducibility contract and raises :class:`RegistryError`.
        """
        values = self.resolve(overrides, quick=quick)
        result = self.func(**values)
        if not result.metadata.get("dispatch_fingerprint"):
            raise RegistryError(
                f"experiment {self.name!r} stamped no dispatch_fingerprint"
            )
        result.metadata.setdefault("experiment", self.name)
        result.metadata.update(
            params={name: _jsonable(value) for name, value in values.items()},
            seed=values["seed"],
        )
        if quick:
            result.metadata["quick"] = True
        return result


class ExperimentRegistry:
    """Name → :class:`ExperimentSpec` mapping with duplicate detection."""

    def __init__(self) -> None:
        self._specs: dict[str, ExperimentSpec] = {}

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        if spec.name in self._specs:
            raise DuplicateExperimentError(
                f"experiment {spec.name!r} is already registered "
                f"(by {self._specs[spec.name].func.__module__})"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ExperimentSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownExperimentError(
                f"no experiment named {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._specs)

    def specs(self) -> list[ExperimentSpec]:
        return [self._specs[name] for name in self.names()]

    def run(
        self,
        name: str,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        quick: bool = False,
    ) -> ExperimentResult:
        return self.get(name).run(overrides, quick=quick)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.specs())

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry; populated by importing
#: :mod:`repro.experiments`.
REGISTRY = ExperimentRegistry()


def experiment(
    name: str,
    *,
    description: Optional[str] = None,
    params: Sequence[Param] = (),
    tags: Sequence[str] = (),
    quick: Optional[Mapping[str, Any]] = None,
    registry: Optional[ExperimentRegistry] = None,
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Register the decorated function as an experiment.

    The function is returned unchanged (so it stays directly callable);
    its spec is attached as ``func.spec`` and recorded in ``registry``
    (default: the module-level :data:`REGISTRY`).  ``description``
    defaults to the first line of the function's docstring.
    """

    def decorate(func: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        desc = description
        if desc is None:
            doc = (func.__doc__ or "").strip()
            desc = doc.splitlines()[0] if doc else name
        spec = ExperimentSpec(
            name=name,
            description=desc,
            func=func,
            params=tuple(params),
            tags=tuple(tags),
            quick=dict(quick or {}),
        )
        (registry if registry is not None else REGISTRY).register(spec)
        func.spec = spec  # type: ignore[attr-defined]
        return func

    return decorate


__all__ = [
    "DuplicateExperimentError",
    "ExperimentRegistry",
    "ExperimentSpec",
    "Param",
    "ParameterError",
    "REGISTRY",
    "RegistryError",
    "UnknownExperimentError",
    "experiment",
    "point_key",
]
