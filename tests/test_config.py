"""The ``pde`` section maps onto the scenario's dataclass fields, key for key."""

from dataclasses import fields

from epriccati.config import CONFIG_SCHEMA, scenario_config
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
    "cfl": 0.3,
    "dt_max": 0.02,
    "norm_cadence": 0.25,
    "snapshot_times": [0.0, 0.75],
}


def _expected(params, blobs):
    return ScenarioConfig(
        grid=Grid(N=32, L=7.5), params=params, blobs=blobs, t_end=1.5, cfl=0.3, dt_max=0.02,
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
