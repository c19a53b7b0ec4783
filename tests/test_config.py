"""The ``pde`` and ``coefficient`` sections map onto their dataclass fields, key for key."""

from dataclasses import fields
from itertools import permutations

import numpy as np
import pytest

from epriccati.coefficients import ConstantCoefficient, ExponentialEnvelope, TabulatedCoefficient
from epriccati.config import CONFIG_SCHEMA, coefficient_model, scenario_config, validate_config
from epriccati.errors import ConfigError
from epriccati.riccati import PhysicalParams
from epriccati.simulate import Blob, ScenarioConfig, example_config
from epriccati.spectral import Grid

PDE_KEYS = set(CONFIG_SCHEMA["properties"]["pde"]["properties"])
CUSTOM_KEYS = {"k", "c_b", "blobs"}
# every key but the example's name and the custom ones, set away from its default
SHARED = {
    "N": 32,
    "L": 7.5,
    "t_end": 1.5,
    "dt_max": 0.02,
    "norm_cadence": 0.25,
    "snapshot_times": [0.0, 0.75],
}


def _expected(params, blobs):
    return ScenarioConfig(
        grid=Grid(N=32, L=7.5), params=params, blobs=blobs, t_end=1.5, dt_max=0.02,
        norm_cadence=0.25, snapshot_times=(0.0, 0.75),
    )


def test_pde_keys_are_the_grid_and_scenario_fields():
    not_settable = {"grid", "params", "blobs", "store_history"}
    settable = {f.name for f in fields(ScenarioConfig)} - not_settable
    grid = {f.name for f in fields(Grid)}
    assert PDE_KEYS == {"example"} | CUSTOM_KEYS | grid | settable
    assert PDE_KEYS == {"example"} | CUSTOM_KEYS | set(SHARED)


def test_example_section_sets_every_shared_key():
    cfg = scenario_config({"pde": {"example": "5.2", **SHARED}})
    base = example_config("5.2")
    assert cfg == _expected(base.params, base.blobs)


def test_custom_section_sets_every_key():
    blob = {"kind": "sech", "amplitude": 0.02, "center": [1.0, -2.0], "rate": 0.5}
    cfg = scenario_config({"pde": {"example": "custom", "k": 2.0, "c_b": 0.1, "blobs": [blob], **SHARED}})
    assert cfg == _expected(PhysicalParams(k=2.0, c_b=0.1), (Blob("sech", 0.02, (1.0, -2.0), 0.5),))


COEFFICIENT = CONFIG_SCHEMA["properties"]["coefficient"]
# the schema key of each model field
KEY_OF_FIELD = {"value_const": "value", "alpha": "alpha", "beta": "beta", "times": "times", "values_table": "values"}
# per kind: a section setting every key the kind reads, away from defaults, and its model
SECTIONS = {
    "constant": ({"value": -0.25}, ConstantCoefficient(-0.25)),
    "exponential_envelope": ({"alpha": 0.5, "beta": 2.0}, ExponentialEnvelope(0.5, 2.0)),
    "tabulated": (
        {"times": [0.0, 1.0, 3.0], "values": [-0.5, 0.25, -1.0]},
        TabulatedCoefficient([0.0, 1.0, 3.0], [-0.5, 0.25, -1.0]),
    ),
}


def test_coefficient_keys_are_the_model_fields():
    keys = set(COEFFICIENT["properties"])
    assert keys == {"kind", "value", "alpha", "beta", "times", "values"}
    assert keys == {"kind"} | set(KEY_OF_FIELD.values())
    assert set(COEFFICIENT["properties"]["kind"]["enum"]) == set(SECTIONS)
    model_fields = {f.name for _, model in SECTIONS.values() for f in fields(model)}
    assert model_fields == set(KEY_OF_FIELD)


def test_each_coefficient_section_sets_every_field_of_its_model():
    for kind, (section, expected) in SECTIONS.items():
        assert set(section) == {KEY_OF_FIELD[f.name] for f in fields(expected)}, kind
        model = coefficient_model({"coefficient": {"kind": kind, **section}})
        assert type(model) is type(expected), kind
        for f in fields(expected):
            assert np.array_equal(getattr(model, f.name), getattr(expected, f.name)), (kind, f.name)


def test_each_coefficient_kind_allows_exactly_the_keys_of_its_model():
    allowed = {
        branch["if"]["properties"]["kind"]["const"]: set(branch["then"]["properties"])
        for branch in COEFFICIENT["allOf"]
    }
    assert set(allowed) == set(SECTIONS)
    for kind, (_, expected) in SECTIONS.items():
        assert allowed[kind] == {"kind"} | {KEY_OF_FIELD[f.name] for f in fields(expected)}, kind


@pytest.mark.parametrize("kind, other", permutations(SECTIONS, 2))
def test_a_key_of_another_coefficient_kind_is_a_schema_error(kind, other):
    section = {"kind": kind, **SECTIONS[kind][0]}
    validate_config({"coefficient": section})
    with pytest.raises(ConfigError, match=r"^at \$\.coefficient: Additional properties are not allowed"):
        validate_config({"coefficient": {**section, **SECTIONS[other][0]}})
