"""Run-configuration schema and builders.

One JSON document configures every CLI command; unknown keys are errors at
every level, and violations are reported with their JSON paths, as are the
value checks the builders make beyond the schema.  The schema is embedded
here as the single source of truth and published in
``docs/config.schema.json``; regenerate that file with
``python -m epriccati.config > docs/config.schema.json``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields, replace
from pathlib import Path

from .coefficients import (
    CoefficientModel,
    ConstantCoefficient,
    ExponentialEnvelope,
    TabulatedCoefficient,
)
from .errors import ConfigError
from .integrate import IntegratorOptions
from .riccati import PhysicalParams
from .simulate import EXAMPLE_NAMES, Blob, ScenarioConfig, example_config
from .spectral import Grid

__all__ = [
    "CONFIG_SCHEMA",
    "load_config",
    "validate_config",
    "integrator_options",
    "physical_params",
    "coefficient_model",
    "scenario_config",
]

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_SAMPLES = {"type": "array", "items": _NUMBER, "minItems": 2}
# per coefficient kind: the schemas of the keys it reads beside ``kind``, and those it requires
_COEFFICIENT_KINDS = {
    "constant": ({"value": _NUMBER}, ["value"]),
    "exponential_envelope": ({"alpha": _POSITIVE, "beta": _POSITIVE}, []),
    "tabulated": ({"times": _SAMPLES, "values": _SAMPLES}, ["times", "values"]),
}
_COEFFICIENT_KEYS = {k: v for keys, _ in _COEFFICIENT_KINDS.values() for k, v in keys.items()}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "epriccati run configuration",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rel_tol": _POSITIVE,
                "abs_tol": _POSITIVE,
                "dt_init": _POSITIVE,
                "dt_min": _POSITIVE,
                "dt_max": _POSITIVE,
                "blowup_magnitude": _POSITIVE,
                "t_end": _POSITIVE,
            },
        },
        "physics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k": {"type": "number", "not": {"const": 0}},
                "c_b": {"type": "number", "minimum": 0},
            },
        },
        "coefficient": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"type": "string", "enum": list(_COEFFICIENT_KINDS)},
                **_COEFFICIENT_KEYS,
            },
            "required": ["kind"],
            "allOf": [
                {
                    "if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
                    "then": {
                        "properties": dict.fromkeys(["kind", *keys], True),
                        "additionalProperties": False,
                        "required": required,
                    },
                }
                for kind, (keys, required) in _COEFFICIENT_KINDS.items()
            ],
        },
        "ode": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"rho0": {"type": "number", "minimum": 0}, "d0": _NUMBER},
            "required": ["rho0", "d0"],
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rho_min": _NUMBER,
                "rho_max": _NUMBER,
                "rho_count": {"type": "integer", "minimum": 2},
                "d_min": _NUMBER,
                "d_max": _NUMBER,
                "d_count": {"type": "integer", "minimum": 2},
            },
            "required": ["rho_min", "rho_max", "rho_count", "d_min", "d_max", "d_count"],
        },
        "pde": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "example": {"type": "string", "enum": [*EXAMPLE_NAMES, "custom"]},
                "N": {"type": "integer", "enum": [2**p for p in range(4, 15)]},
                "L": _POSITIVE,
                "t_end": _POSITIVE,
                "dt_max": _POSITIVE,
                "norm_cadence": _POSITIVE,
                "snapshot_times": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "k": {"type": "number", "not": {"const": 0}},
                "c_b": {"type": "number", "minimum": 0},
                "blobs": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"type": "string", "enum": ["gaussian", "sech"]},
                            "amplitude": _POSITIVE,
                            "center": {
                                "type": "array",
                                "items": _NUMBER,
                                "minItems": 2,
                                "maxItems": 2,
                            },
                            "rate": _POSITIVE,
                        },
                        "required": ["kind", "amplitude"],
                    },
                },
            },
        },
        "trace": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x0": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
            },
            "required": ["x0"],
        },
    },
}


def validate_config(doc: dict) -> None:
    """Raise :class:`ConfigError` listing every schema violation with its JSON path."""
    import jsonschema  # here, as only a loaded config needs its 0.1 s import
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    problems = [
        f"at {err.json_path}: {err.message}"
        for err in sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    ]
    if problems:
        raise ConfigError(problems)


def _reject_constant(name: str):
    raise ConfigError([f"at $: non-finite number {name} is not allowed"])


def _float64(literal: str, kind=float):
    """A JSON number literal as ``kind``, refused when no finite float64 holds it."""
    if not math.isfinite(float(literal)):
        shown = literal if len(literal) <= 24 else literal[:20] + "..."
        raise ConfigError([f"at $: number {shown} is beyond the float64 range"])
    return kind(literal)


def load_config(path) -> dict:
    """Read, parse and validate a JSON run configuration.

    ``NaN`` and ``Infinity``, which Python's JSON parser accepts but JSON does
    not define, are config errors, as is a number beyond the float64 range.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError([f"at $: cannot read {path} ({exc.strerror})"]) from exc
    try:
        doc = json.loads(
            raw,
            parse_constant=_reject_constant,
            parse_float=_float64,
            parse_int=functools.partial(_float64, kind=int),
        )
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError([f"at $: invalid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["at $: top level must be an object"])
    validate_config(doc)
    return doc


def _reported_at(path: str):
    """Decorate a builder so its ``ValueError`` is a :class:`ConfigError` at ``path``."""

    def decorate(build):
        @functools.wraps(build)
        def builder(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except ValueError as exc:
                raise ConfigError([f"at {path}: {exc}"]) from exc

        return builder

    return decorate


@_reported_at("$.integrator")
def integrator_options(doc: dict) -> IntegratorOptions:
    return IntegratorOptions(**doc.get("integrator", {}))


@_reported_at("$.physics")
def physical_params(doc: dict) -> PhysicalParams:
    return PhysicalParams(**doc.get("physics", {}))


@_reported_at("$.coefficient")
def coefficient_model(doc: dict) -> CoefficientModel:
    """Coefficient from config; defaults to the unit exponential envelope."""
    section = doc.get("coefficient")
    if section is None:
        return ExponentialEnvelope(1.0, 1.0)
    kind = section["kind"]
    if kind == "constant":
        return ConstantCoefficient(section["value"])
    if kind == "exponential_envelope":
        return ExponentialEnvelope(section.get("alpha", 1.0), section.get("beta", 1.0))
    times = section["times"]
    if not times[0] <= 0.0 <= times[-1]:  # every run starts at t = 0
        raise ValueError(f"tabulated times must cover t = 0, got [{times[0]}, {times[-1]}]")
    return TabulatedCoefficient(times, section["values"])


@_reported_at("$.pde")
def scenario_config(doc: dict) -> ScenarioConfig:
    """PDE scenario from the ``pde`` section (built-in example or custom blobs).

    The ``Grid`` keys set the grid; every other key but the custom ones
    (``k``, ``c_b``, ``blobs``) is the :class:`ScenarioConfig` field of its name.
    """
    section = dict(doc.get("pde", {}))
    example = section.pop("example", "5.1")
    grid = {f.name: section.pop(f.name) for f in fields(Grid) if f.name in section}
    k = section.pop("k", None)
    c_b = section.pop("c_b", None)
    blobs = section.pop("blobs", None)

    if example == "custom":
        if blobs is None:
            raise ConfigError(["at $.pde.blobs: required when example is 'custom'"])
        params = PhysicalParams(
            k=k if k is not None else -1.0, c_b=c_b if c_b is not None else 0.0
        )
        base = ScenarioConfig(
            params=params,
            blobs=tuple(
                Blob(
                    kind=b["kind"],
                    amplitude=b["amplitude"],
                    center=tuple(b.get("center", (0.0, 0.0))),
                    rate=b.get("rate", 1.0),
                )
                for b in blobs
            ),
        )
    else:
        if blobs is not None or k is not None or c_b is not None:
            raise ConfigError(
                ["at $.pde: k/c_b/blobs may only be set when example is 'custom'"]
            )
        base = example_config(example)
    return replace(base, grid=replace(base.grid, **grid), **section)


if __name__ == "__main__":
    print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
