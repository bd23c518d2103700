"""Tests for the declarative experiment registry."""

import inspect

import pytest

import repro.experiments  # noqa: F401 — importing populates the registry
from repro.analysis.results import ExperimentResult
from repro.experiments.params import SEED_PARAM
from repro.experiments.registry import (
    REGISTRY,
    DuplicateExperimentError,
    ExperimentRegistry,
    Param,
    ParameterError,
    RegistryError,
    UnknownExperimentError,
    experiment,
)

ALL_EXPERIMENTS = (
    "ablation_period",
    "ablation_pid",
    "ablation_squish",
    "churn_smoke",
    "churn_webfarm",
    "cpu_failover",
    "fault_smoke",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "flash_crowd_rt",
    "inversion",
    "response_curve",
    "runaway_quarantine",
    "sensor_dropout",
    "slo_flash_crowd",
    "smp_scaling",
    "taxonomy",
    "thundering_herd",
    "tidal_pipeline",
    "topology_placement",
    "trace_replay",
)


def _stub(name="stub", params=(), quick=None, registry=None,
          fingerprint="stub-fingerprint"):
    """Register a spec whose func records the kwargs it was called with.

    The stub declares the shared ``seed`` parameter and stamps a
    placeholder fingerprint (``fingerprint=None`` stamps none), so it
    meets the registry's reproducibility contract.
    """
    calls = []

    @experiment(name=name, description="a stub", params=(*params, SEED_PARAM),
                quick=quick, registry=registry)
    def stub_experiment(**kwargs):
        calls.append(kwargs)
        result = ExperimentResult(experiment_id=name, title="stub")
        if fingerprint is not None:
            result.metadata["dispatch_fingerprint"] = fingerprint
        return result

    return stub_experiment.spec, calls


class TestRegistryContents:
    def test_exactly_the_23_experiments_registered(self):
        assert REGISTRY.names() == sorted(ALL_EXPERIMENTS)

    def test_every_spec_declares_a_seed_parameter(self):
        # Registration itself refuses a schema without ``seed`` ...
        with pytest.raises(RegistryError, match="no 'seed' parameter"):
            experiment(
                name="seedless", params=(Param("x", kind="int", default=1),),
                registry=ExperimentRegistry(),
            )(lambda **kwargs: None)
        # ... so every registered spec carries one.
        for spec in REGISTRY:
            assert "seed" in {p.name for p in spec.params}, spec.name

    def test_specs_carry_descriptions_and_defaults(self):
        for spec in REGISTRY:
            assert spec.description
            for param in spec.params:
                # Defaults satisfy their own schema.
                param.validate(param.default)

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownExperimentError, match="figure5"):
            REGISTRY.get("nope")

    def test_duplicate_name_rejected(self):
        registry = ExperimentRegistry()
        _stub("dup", registry=registry)
        with pytest.raises(DuplicateExperimentError):
            _stub("dup", registry=registry)

    def test_experiment_keywords_are_exactly_the_schema(self):
        # No keyword escapes the schema: the registry is the only way in,
        # and the Param is the one place a default lives.
        for spec in REGISTRY:
            parameters = inspect.signature(spec.func).parameters
            assert set(parameters) == {p.name for p in spec.params}, spec.name
            for name, parameter in parameters.items():
                assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                    spec.name, name,
                )
                assert parameter.default is inspect.Parameter.empty, (
                    spec.name, name,
                )

    def test_attached_spec_matches_lookup(self):
        from repro.experiments.figure8 import figure8_experiment

        assert figure8_experiment.spec is REGISTRY.get("figure8")


class TestParam:
    def test_scalar_parsing(self):
        assert Param("x", kind="int").parse("42") == 42
        assert Param("x", kind="float").parse("2.5") == 2.5
        assert Param("x", kind="bool").parse("true") is True
        assert Param("x", kind="bool").parse("0") is False
        assert Param("x", kind="str").parse("abc") == "abc"

    def test_list_parsing_accepts_comma_and_colon(self):
        param = Param("x", kind="int_list")
        assert param.parse("1,2,4") == (1, 2, 4)
        assert param.parse("1:2:4") == (1, 2, 4)
        assert param.parse([1, 2]) == (1, 2)

    def test_bad_values_raise_parameter_error(self):
        with pytest.raises(ParameterError):
            Param("x", kind="int").parse("two")
        with pytest.raises(ParameterError):
            Param("x", kind="bool").parse("maybe")

    def test_bounds_and_choices(self):
        bounded = Param("x", kind="int", minimum=1, maximum=8)
        assert bounded.parse("8") == 8
        with pytest.raises(ParameterError):
            bounded.parse("0")
        with pytest.raises(ParameterError):
            bounded.parse("9")
        listed = Param("x", kind="int_list", minimum=1)
        with pytest.raises(ParameterError):
            listed.parse("1,0")
        choosy = Param("x", kind="str", choices=("a", "b"))
        with pytest.raises(ParameterError):
            choosy.parse("c")

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            Param("x", kind="int_list").parse(())

    def test_repeated_list_element_rejected(self):
        with pytest.raises(ParameterError, match="'x': 2 repeated"):
            Param("x", kind="int_list").parse("1,2,2")
        with pytest.raises(ParameterError, match="'x': 1.0 repeated"):
            Param("x", kind="float_list").parse((1, 1.0))
        with pytest.raises(ParameterError, match="'x': 'a' repeated"):
            Param("x", kind="str_list").parse("a:b:a")

    def test_scalar_promotes_to_one_element_list(self):
        assert Param("x", kind="int_list").parse(4) == (4,)

    def test_typed_sequence_elements_are_coerced(self):
        assert Param("x", kind="int_list", minimum=0).parse(("1", 2)) == (1, 2)
        assert Param("x", kind="float_list").parse((1, 2)) == (1.0, 2.0)
        with pytest.raises(ParameterError):
            Param("x", kind="int_list").parse((1.5,))

    def test_wrong_scalar_type_rejected_cleanly(self):
        with pytest.raises(ParameterError):
            Param("x", kind="int").parse(2.5)
        with pytest.raises(ParameterError):
            Param("x", kind="bool").parse(1)
        # bool is an int subclass but is not a valid int value.
        with pytest.raises(ParameterError):
            Param("x", kind="int").parse(True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Param("x", kind="complex")


class TestSpecRun:
    def test_defaults_quick_and_overrides_layering(self):
        registry = ExperimentRegistry()
        spec, calls = _stub(
            "layered",
            params=(
                Param("a", kind="int", default=1),
                Param("b", kind="int", default=2),
                Param("c", kind="int", default=3),
            ),
            quick={"a": 10, "b": 20},
            registry=registry,
        )
        spec.run()
        assert calls[-1] == {"a": 1, "b": 2, "c": 3, "seed": None}
        spec.run(quick=True)
        assert calls[-1] == {"a": 10, "b": 20, "c": 3, "seed": None}
        # Explicit overrides (CLI strings) beat quick mode.
        spec.run({"b": "99"}, quick=True)
        assert calls[-1] == {"a": 10, "b": 99, "c": 3, "seed": None}

    def test_run_stamps_metadata(self):
        registry = ExperimentRegistry()
        spec, _ = _stub(
            "stamped",
            params=(Param("xs", kind="int_list", default=(1, 2)),),
            registry=registry,
        )
        result = spec.run({"seed": "7"}, quick=True)
        assert result.metadata["experiment"] == "stamped"
        assert result.metadata["params"] == {"xs": [1, 2], "seed": 7}
        assert result.metadata["seed"] == 7
        assert result.metadata["dispatch_fingerprint"] == "stub-fingerprint"
        assert result.metadata["quick"] is True

    @pytest.mark.parametrize("fingerprint", [None, ""], ids=["none", "empty"])
    def test_run_without_fingerprint_fails(self, fingerprint):
        spec, _ = _stub(
            "unstamped", fingerprint=fingerprint, registry=ExperimentRegistry()
        )
        with pytest.raises(RegistryError, match="'unstamped'.*fingerprint"):
            spec.run()

    def test_unknown_override_rejected(self):
        spec = REGISTRY.get("figure8")
        with pytest.raises(ParameterError, match="no parameter"):
            spec.coerce({"bogus": "1"})

    def test_scalar_override_for_list_param_runs(self):
        # The acceptance-path shape: sweeping smp_scaling's n_cpus axis
        # hands the experiment a bare int per point.
        spec = REGISTRY.get("smp_scaling")
        assert spec.coerce({"n_cpus": 4}) == {"n_cpus": (4,)}

    def test_quick_values_are_parsed_and_validated(self):
        registry = ExperimentRegistry()
        spec, _ = _stub(
            "quickparse",
            params=(Param("xs", kind="float_list", default=(1.0,)),),
            quick={"xs": (1, 2)},
            registry=registry,
        )
        assert spec.quick["xs"] == (1.0, 2.0)
        with pytest.raises(ParameterError):
            _stub(
                "quickbad",
                params=(Param("n", kind="int", minimum=1, default=1),),
                quick={"n": 0},
                registry=registry,
            )

    def test_defaults_are_normalised_at_registration(self):
        registry = ExperimentRegistry()
        spec, _ = _stub(
            "defaultnorm",
            params=(Param("xs", kind="float_list", default=(1, 2)),),
            registry=registry,
        )
        assert spec.param("xs").default == (1.0, 2.0)

    def test_quick_override_for_unknown_param_rejected_at_registration(self):
        registry = ExperimentRegistry()
        with pytest.raises(RegistryError, match="quick override"):
            _stub("badquick", quick={"nope": 1}, registry=registry)

    def test_duplicate_param_names_rejected_at_registration(self):
        registry = ExperimentRegistry()
        with pytest.raises(RegistryError, match="duplicate parameter"):
            _stub(
                "dupparam",
                params=(Param("a", kind="int"), Param("a", kind="int")),
                registry=registry,
            )



class TestReproducibilityContract:
    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_quick_run_stamps_seed_and_fingerprint(self, name):
        result = REGISTRY.run(name, quick=True)
        metadata = result.metadata
        assert metadata["experiment"] == name
        assert metadata["quick"] is True
        assert metadata["seed"] == metadata["params"]["seed"]
        fingerprints = metadata["dispatch_fingerprint"].split("+")
        assert all(len(f) == 64 for f in fingerprints), fingerprints
