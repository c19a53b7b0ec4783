import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epriccati import cli, simulate, spectral
from epriccati.cli import main
from epriccati.config import CONFIG_SCHEMA, validate_config
from epriccati.errors import EpriccatiError
from epriccati.fieldio import read_scalar_field

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# --- classify ---


def test_classify_certified_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "0.25", "0.75")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"region": "OmegaT", "certified": True, "epsilon": 0.125}


def test_classify_outside_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "0.5", "0.1")
    payload = json.loads(out)
    assert code == 3
    assert payload["region"] == "Outside"
    assert payload["certified"] is False


def test_classify_bottom_lobe_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "0.1", "-0.1")
    assert code == 0
    assert json.loads(out)["region"] == "OmegaB"


@pytest.mark.parametrize("physics", [{"k": 1.0, "c_b": 0.0}, {"k": -2.0, "c_b": 1.0}])
def test_classify_refuses_unnormalized_physics(tmp_path, capsys, physics):
    cfg = write_json(tmp_path, "phys.json", {"physics": physics})
    code, out, err = run_cli(capsys, "classify", "0.25", "0.75", "--config", str(cfg))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: certification ")


@pytest.mark.parametrize("rho, d", [("0.3", "1e16"), ("0.3", "1e300"), ("0.49999999999999994", "0.6")])
def test_classify_point_whose_shift_rounds_away_is_not_certified(capsys, rho, d):
    code, out, err = run_cli(capsys, "classify", rho, d)
    assert code == 3 and err == ""
    assert json.loads(out) == {"region": "OmegaT", "certified": False, "epsilon": None}


def test_classify_reads_negative_numbers_in_exponent_form(capsys):
    code, out, err = run_cli(capsys, "classify", "1e-05", "-1e-05")
    assert code == 0 and err == ""
    assert json.loads(out)["region"] == "OmegaB"


def test_classify_usage_errors(capsys):
    assert run_cli(capsys, "classify", "abc", "0.1")[0] == 1
    assert run_cli(capsys, "classify", "nan", "0.1")[0] == 1
    assert run_cli(capsys, "classify", "0.1")[0] == 1


# --- simulate-ode ---


def test_simulate_ode_blow_up_status(tmp_path, capsys):
    cfg = write_json(tmp_path, "c.json", {"ode": {"rho0": 0.5, "d0": 0.1}})
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate-ode", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp"
    )
    assert code == 0
    assert out.startswith("status blowup[")
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,rho,d"
    assert lines[-1].startswith("# status: blowup[")


def test_simulate_ode_global_status_and_attractor(tmp_path, capsys):
    cfg = write_json(
        tmp_path,
        "c.json",
        {"ode": {"rho0": 0.25, "d0": 0.75}, "integrator": {"t_end": 20.0}},
    )
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate-ode", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp"
    )
    assert code == 0 and "global-to-horizon" in out
    rows = [ln for ln in out_csv.read_text().splitlines() if ln and not ln.startswith(("#", "t,"))]
    t, rho, d = (np.array(col) for col in zip(*(map(float, r.split(",")) for r in rows)))
    assert t[-1] == 20.0
    assert abs(d[-1] - math.sqrt(2.0)) < 0.05
    assert rho[-1] < 1e-4


def test_simulate_ode_constant_columns(tmp_path, capsys):
    cfg = write_json(
        tmp_path,
        "c.json",
        {
            "ode": {"rho0": 1.0, "d0": 0.0},
            "coefficient": {"kind": "constant", "value": 0.0},
            "integrator": {"t_end": 5.0},
        },
    )
    out_csv = tmp_path / "traj.csv"
    assert run_cli(capsys, "simulate-ode", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp")[0] == 0
    rows = [ln for ln in out_csv.read_text().splitlines() if ln and not ln.startswith(("#", "t,"))]
    assert all(r.endswith(",1.0,0.0") for r in rows)


def test_simulate_ode_requires_section(tmp_path, capsys):
    cfg = write_json(tmp_path, "c.json", {})
    assert run_cli(capsys, "simulate-ode", "--config", str(cfg))[0] == 1


@pytest.mark.parametrize("times", [[1, 2], [-2, -1]])
@pytest.mark.parametrize("argv", [["simulate-ode"], ["classify", "0.2", "0.3"]])
def test_tabulated_times_must_cover_the_start(tmp_path, capsys, argv, times):
    # every run starts at t = 0, which such a table cannot be queried at
    coefficient = {"kind": "tabulated", "times": times, "values": [0, 0]}
    doc = {"coefficient": coefficient, "ode": {"rho0": 0.2, "d0": 0.3}}
    cfg = write_json(tmp_path, "c.json", doc)
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert err.startswith("config error: at $.coefficient: tabulated times must cover t = 0")
    assert err.count("\n") == 1


def _integrate_module():
    # the package re-exports the function ``integrate`` under the module's name
    return importlib.import_module("epriccati.integrate")


def test_step_budget_is_one_line_solver_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_integrate_module(), "_MAX_STEPS", 100)
    doc = {
        "ode": {"rho0": 0.1, "d0": 0.6},
        "integrator": {"t_end": 2, "dt_init": 1e-6, "dt_max": 1e-6},
    }
    code, out, err = run_cli(capsys, "simulate-ode", "--config", str(write_json(tmp_path, "c.json", doc)))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: step budget")


# --- the exit-code contract over schema-valid configs ---

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_SAMPLES = st.lists(_FINITE, min_size=2, max_size=5)


@st.composite
def _tables(draw):
    """Arbitrary (mostly unsorted or mismatched) arrays, or a sorted table from t = 0."""
    if draw(st.booleans()):
        return draw(_SAMPLES), draw(_SAMPLES)
    knots = st.lists(st.floats(0.0, 20.0, exclude_min=True), min_size=1, max_size=4, unique=True)
    times = [0.0, *sorted(draw(knots))]
    return times, draw(st.lists(st.floats(-2.0, 2.0), min_size=len(times), max_size=len(times)))


@st.composite
def _coefficient_sections(draw):
    # each kind takes only its own keys; another kind's key is a schema error
    kind = draw(st.sampled_from(["constant", "exponential_envelope", "tabulated"]))
    section = {"kind": kind}
    if kind == "constant":
        section["value"] = draw(_FINITE)
    if kind == "exponential_envelope":
        section.update(draw(st.fixed_dictionaries({}, optional={"alpha": _POSITIVE, "beta": _POSITIVE})))
    if kind == "tabulated":
        section["times"], section["values"] = draw(_tables())
    return section


_STEP_KEYS = ("dt_min", "dt_init", "dt_max")


@st.composite
def _integrator_sections(draw):
    keys = ("rel_tol", "abs_tol", *_STEP_KEYS, "blowup_magnitude")
    optional = {**dict.fromkeys(keys, _POSITIVE), "t_end": st.floats(0.0, 2.0, exclude_min=True)}
    section = draw(st.fixed_dictionaries({}, optional=optional))
    if draw(st.booleans()):  # ordered step bounds, so that the run gets past their check
        section.update(zip(_STEP_KEYS, sorted(draw(st.lists(_POSITIVE, min_size=3, max_size=3)))))
    return section


CONFIG_DOCS = st.fixed_dictionaries(
    {
        "ode": st.fixed_dictionaries(
            {
                "rho0": st.one_of(st.floats(0.0, 1.0), st.floats(min_value=0.0, allow_infinity=False)),
                "d0": st.one_of(st.floats(-2.0, 3.0), _FINITE),
            }
        )
    },
    optional={
        "integrator": _integrator_sections(),
        "physics": st.fixed_dictionaries(
            {},
            optional={
                "k": _FINITE.filter(lambda k: k != 0.0),
                "c_b": st.floats(min_value=0.0, allow_infinity=False),
            },
        ),
        "coefficient": _coefficient_sections(),
    },
)


# each example rewrites the config file, so sharing tmp_path across examples is safe
@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=CONFIG_DOCS)
@example(doc={"ode": {"rho0": 0.1, "d0": 0.6}, "integrator": {"t_end": 2, "dt_init": 1e-6, "dt_max": 1e-6}})
def test_schema_valid_configs_end_in_a_documented_exit_code(tmp_path, doc):
    validate_config(doc)  # the strategy makes only schema-valid documents
    cfg = write_json(tmp_path, "c.json", doc)
    point = [repr(doc["ode"]["rho0"]), repr(doc["ode"]["d0"])]
    with mock.patch.object(_integrate_module(), "_MAX_STEPS", 2_000):
        for argv in (["simulate-ode", "--config", str(cfg)], ["classify", *point, "--config", str(cfg)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue(), argv


_BLOBS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["gaussian", "sech"]), "amplitude": _POSITIVE},
    optional={"center": st.lists(_FINITE, min_size=2, max_size=2), "rate": _POSITIVE},
)


@st.composite
def _pde_docs(draw):
    """A built-in or custom scenario; N stays at 16 or 32, as larger grids
    test the host's memory rather than the exit codes."""
    optional = {
        "L": _POSITIVE,
        "t_end": st.one_of(st.floats(0.0, 2.0, exclude_min=True), _POSITIVE),
        "dt_max": _POSITIVE,
        "norm_cadence": _POSITIVE,
    }
    section = {"N": draw(st.sampled_from([16, 32])), **draw(st.fixed_dictionaries({}, optional=optional))}
    section["example"] = draw(st.sampled_from([*simulate.EXAMPLE_NAMES, "custom"]))
    if section["example"] == "custom":
        section["k"] = draw(_FINITE.filter(lambda k: k != 0.0))
        section["c_b"] = draw(st.floats(min_value=0.0, allow_infinity=False))
        section["blobs"] = draw(st.lists(_BLOBS, min_size=1, max_size=2))
    return {"pde": section}


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_pde_docs())
@example(doc={"pde": {"example": "5.3", "N": 16, "t_end": 1e-13}})
def test_schema_valid_pde_configs_end_in_a_documented_exit_code(tmp_path, doc):
    validate_config(doc)  # the strategy makes only schema-valid documents
    cfg = str(write_json(tmp_path, "c.json", doc))
    runs = (
        ["simulate-pde", "--config", cfg, "--out", str(tmp_path / "o")],
        ["trace", "--x0", "0,0", "--config", cfg],
    )
    with mock.patch.object(simulate, "_MAX_STEPS", 300):
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue(), argv


# --- sweep ---


SWEEP_DOC = {
    "sweep": {"rho_min": 0.1, "rho_max": 0.6, "rho_count": 5, "d_min": -0.3, "d_max": 0.9, "d_count": 4},
    "integrator": {"t_end": 15.0},
}


def test_sweep_is_deterministic(tmp_path, capsys):
    cfg = write_json(tmp_path, "s.json", SWEEP_DOC)
    outputs = []
    for name in ("a.csv", "b.csv"):
        out_csv = tmp_path / name
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp")
        assert code == 0
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]


def test_readme_sweep_is_byte_identical(tmp_path, capsys):
    """The README's 60x60 certified-region sweep to t = 20 writes the same bytes.

    The digest was measured once and pins the whole batched ODE path. A change
    that moves it is explained in CHANGES.md with its cause; the digest is never
    silently regenerated.
    """
    doc = {
        "sweep": {"rho_min": 0.01, "rho_max": 1.2, "rho_count": 60, "d_min": -1.0, "d_max": 2.0, "d_count": 60},
        "integrator": {"t_end": 20.0},
    }
    cfg = write_json(tmp_path, "sweep.json", doc)
    out_csv = tmp_path / "phase_sweep.csv"
    assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp")[0] == 0
    digest = hashlib.sha256(out_csv.read_bytes()).hexdigest()
    assert digest == "b1549e2ce49b561ae62d56aeb87595440dd63dc694ec802056cd6228db05fa8a"


@pytest.mark.parametrize(
    "example, digest",
    [
        ("5.1", "586889580e97b410b6d4cb9ab23faee59ea2abf5aa57c2a82d344b402451d0a2"),
        ("5.2", "c0599584c9a9bd91f4c3d0d8fbaf3a16a7b94f7cf10000d018b6811fc1b12ac5"),
        ("5.3", "5d4f197640236210b5251ebb74d180da0b5217df31218e3839c6b674509c4b0f"),
    ],
)
def test_readme_pde_scenarios_are_byte_identical(tmp_path, capsys, example, digest):
    """The README's ``simulate-pde --example`` runs write the same files, byte for byte.

    The digest covers every file's name and its sha256, in name order.  As with
    the sweep digest, a move is explained in CHANGES.md, never silently regenerated.
    """
    out_dir = tmp_path / "out"
    argv = ("simulate-pde", "--example", example, "--out", str(out_dir), "--no-timestamp")
    assert run_cli(capsys, *argv)[0] == 0
    tree = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        tree.update(path.name.encode() + b"\0")
        tree.update(hashlib.sha256(path.read_bytes()).digest())
    assert tree.hexdigest() == digest


@pytest.mark.parametrize(
    "x0, digest",
    [
        ("2.5,2.5", "3036fe88ae5b6d6693ffb9ca090edb1c6838e0f314660aef30e24d0a49620eb4"),
        ("1.0,2.0", "e8ad627ccf2dffb0052250d30aff2b57f0a315fdca8e038cbc59bf46106b3751"),
        ("-2.0,1.0", "699fd1d9d6b1c41ccb35aa1b609fd36cfca5130c887b73d1a46edee7be50f21f"),
    ],
)
def test_readme_traces_are_byte_identical(tmp_path, capsys, x0, digest):
    """The README's ``trace --example 5.2`` seeds write the same CSV, byte for byte.

    As with the sweep digest, a move is explained in CHANGES.md, never silently
    regenerated.
    """
    out_csv = tmp_path / "tracer.csv"
    argv = ("trace", "--example", "5.2", f"--x0={x0}", "--out", str(out_csv), "--no-timestamp")
    assert run_cli(capsys, *argv)[0] == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest


def test_sweep_grid_order_and_exact_corner_blow_up(tmp_path, capsys):
    # grid chosen so (0.5, 0.1) is an exact grid point; that row must be a blow-up
    doc = {
        "sweep": {"rho_min": 0.5, "rho_max": 0.6, "rho_count": 2, "d_min": 0.1, "d_max": 0.5, "d_count": 3},
        "integrator": {"t_end": 20.0},
    }
    cfg = write_json(tmp_path, "s.json", doc)
    out_csv = tmp_path / "s.csv"
    assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp")[0] == 0
    rows = out_csv.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.5", "0.5", "0.5", "0.6", "0.6", "0.6"]
    first = rows[0].split(",")
    assert first[:2] == ["0.5", "0.1"]
    assert first[3] == "blowup"
    assert float(first[4]) > 0


def test_sweep_rejects_single_point_grid(tmp_path, capsys):
    doc = {"sweep": {**SWEEP_DOC["sweep"], "rho_count": 1}}
    cfg = write_json(tmp_path, "s.json", doc)
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert "$.sweep.rho_count" in err


def test_unknown_config_keys_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path, "s.json", {**SWEEP_DOC, "junk": True})
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and "junk" in err


def _run_subprocess(tmp_path, *argv):
    """The CLI as a user runs it, so an uncaught exception shows as a traceback."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    cmd = [sys.executable, "-m", "epriccati", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)


@pytest.mark.parametrize(
    "command, doc, path",
    [
        ("simulate-pde", {"pde": {"N": 100}}, "$.pde.N"),
        ("sweep", {**SWEEP_DOC, "integrator": {"dt_min": 0.5, "dt_max": 0.1}}, "$.integrator"),
        # json.dumps writes these as the non-JSON constants NaN and Infinity
        ("simulate-ode", {"ode": {"rho0": math.nan, "d0": 0}}, "$:"),
        ("simulate-pde", {"pde": {"example": "5.3", "t_end": math.inf}}, "$:"),
        # there is no clamp on the coefficient
        (
            "simulate-ode",
            {"ode": {"rho0": 0.2, "d0": 0.5}, "coefficient": {"kind": "constant", "value": -0.5, "upper_clamp": 0}},
            "$.coefficient",
        ),
    ],
)
def test_unbuildable_config_is_one_line_config_error(tmp_path, command, doc, path):
    cfg = write_json(tmp_path, "c.json", doc)
    proc = _run_subprocess(tmp_path, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: at {path}")


@pytest.mark.parametrize(
    "argv, doc, path",
    [
        # the constant model is certified here; the table outside the envelope must not pass unread
        (
            ["classify", "0.25", "0.75"],
            {"coefficient": {"kind": "constant", "value": -0.5, "alpha": 7, "times": [0, 1], "values": [-100, -100]}},
            "$.coefficient",
        ),
        # the CFL fraction is fixed
        (["simulate-pde"], {"pde": {"example": "5.3", "cfl": 0.3}}, "$.pde"),
        # the envelope is decided on the model's whole domain, so no horizon can certify this one
        (
            ["classify", "0.25", "0.75"],
            {"coefficient": {"kind": "exponential_envelope", "alpha": 0.5, "beta": 3.0}, "certify": {"t_verify": 0.3}},
            "$",
        ),
    ],
    ids=["coefficient-keys-of-other-kinds", "pde-cfl", "certify-section"],
)
def test_keys_outside_the_schema_are_one_line_config_errors(tmp_path, capsys, monkeypatch, argv, doc, path):
    monkeypatch.chdir(tmp_path)  # simulate-pde writes to the working directory by default
    write_json(tmp_path, "c.json", doc)
    code, out, err = run_cli(capsys, *argv, "--config", "c.json")
    assert (code, out) == (1, "")
    assert err.startswith(f"config error: at {path}: Additional properties are not allowed")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("module", ["jsonschema", "concurrent.futures", "multiprocessing"])
def test_cli_import_leaves_module_unloaded(module):
    # only loading a config validates it, so the 0.1 s jsonschema import waits for one;
    # the sweep is one serial batch, so no process-pool machinery is imported at all
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = f"import sys, epriccati.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


_DIPPING_PDE = {"pde": {"example": "5.1", "N": 32, "t_end": 1}}


@pytest.mark.parametrize(
    "argv, doc, code, err",
    [
        (["classify", "0.3", "1e15"], None, 3, None),
        (["classify", "0.3"], None, 1, r"error: epriccati classify: .*"),
        (
            ["classify", "0.25", "0.75", "--config", "missing.json"],
            None,
            1,
            r"config error: at \$: cannot read missing\.json \(No such file or directory\)",
        ),
        (["classify", "0.25", "0.75", "--config", "c.json"], b'{"ode": \xff}', 1, r"config error: at \$: invalid JSON \(.*\)"),
        (["simulate-pde", "--config", "c.json"], _DIPPING_PDE, 0, r"warning: density dipped below -1e-08"),
        (
            ["simulate-pde", "--config", "c.json"],
            {"pde": {**_DIPPING_PDE["pde"], "t_end": 10}},
            2,
            r"solver error: density reached -\S+",
        ),
        (
            ["classify", "0.25", "0.75", "--config", "c.json"],
            {"coefficient": {"kind": "exponential_envelope", "alpha": 0.5, "beta": 3.0}},
            1,
            r"error: coefficient violates the exponential envelope from t=0\.346574 on: .*",
        ),
        (["sweep", "--config", "c.json"], {}, 1, r"error: config must provide a 'sweep' section"),
        (
            ["sweep", "--config", "c.json", "--workers", "2"],
            SWEEP_DOC,
            1,
            r"error: epriccati: unrecognized arguments: --workers 2",
        ),
        (
            ["sweep", "--config", "c.json"],
            {"sweep": {**SWEEP_DOC["sweep"], "rho_min": 0.5, "rho_max": 0.5}},
            1,
            r"error: sweep ranges must be ordered min < max",
        ),
        (
            ["simulate-pde", "--example", "5.1", "--config", "c.json"],
            {"pde": {"example": "5.1"}},
            1,
            r"error: give the example via --example or config, not both",
        ),
        (["simulate-pde"], None, 1, r"error: choose a scenario via --example or a 'pde' config section"),
        (["trace", "--example", "5.2"], None, 1, r"error: give a seed via --x0 or a 'trace' config section"),
        (["classify", "0.2", "0.3", "--config", "c.json"], [1], 1, r"config error: at \$: top level must be an object"),
        (
            ["simulate-pde", "--config", "c.json"],
            {"pde": {"example": "custom"}},
            1,
            r"config error: at \$\.pde\.blobs: required when example is 'custom'",
        ),
        (
            ["simulate-pde", "--config", "c.json"],
            {"pde": {"example": "5.1", "k": 1}},
            1,
            r"config error: at \$\.pde: k/c_b/blobs may only be set when example is 'custom'",
        ),
    ],
    ids=[
        "overflow", "argparse", "missing-config", "non-utf8-config", "warning", "error-after-warning",
        "envelope-outgrown", "no-sweep-section", "unknown-workers-flag", "unordered-sweep", "example-twice",
        "no-scenario", "no-seed", "non-object-config", "custom-without-blobs", "blobs-on-built-in",
    ],
)
def test_stderr_is_at_most_one_line(tmp_path, argv, doc, code, err):
    if isinstance(doc, bytes):
        (tmp_path / "c.json").write_bytes(doc)
    elif doc is not None:
        write_json(tmp_path, "c.json", doc)
    proc = _run_subprocess(tmp_path, *argv)
    assert proc.returncode == code, proc.stderr
    if err is None:
        assert proc.stderr == ""
    else:
        assert re.fullmatch(err + "\n", proc.stderr), proc.stderr


def _warn_then(failure):
    def command(args):
        warnings.warn("first", RuntimeWarning)
        warnings.warn("second", UserWarning)
        if failure is not None:
            raise failure
        return 0

    return command


@pytest.mark.parametrize(
    "failure, code, line",
    [
        (None, 0, "warning: first (and 1 more)"),
        (EpriccatiError("stub failure"), 2, "solver error: stub failure"),
    ],
    ids=["warnings", "error-after-warnings"],
)
def test_main_writes_the_error_else_the_first_warning(capsys, monkeypatch, failure, code, line):
    monkeypatch.setitem(cli._COMMANDS, "classify", _warn_then(failure))
    assert run_cli(capsys, "classify", "0", "0") == (code, "", line + "\n")


@pytest.mark.parametrize(
    "failure, line",
    [
        (MemoryError("Unable to allocate 4.00 GiB for an array"), "error: Unable to allocate 4.00 GiB for an array"),
        (MemoryError(), "error: out of memory"),
    ],
    ids=["numpy-message", "bare"],
)
def test_out_of_memory_is_one_line_internal_error(tmp_path, capsys, monkeypatch, failure, line):
    # a schema-valid pde.N can be too large to allocate; the stub allocates nothing
    def run_example(cfg):
        raise failure

    monkeypatch.setattr(cli, "run_example", run_example)
    argv = ("simulate-pde", "--example", "5.3", "--out", str(tmp_path / "out"))
    assert run_cli(capsys, *argv) == (2, "", line + "\n")


def test_published_schema_matches_embedded_schema():
    published = json.loads((SRC.parent / "docs" / "config.schema.json").read_text())
    # regenerate with: python -m epriccati.config > docs/config.schema.json
    assert published == CONFIG_SCHEMA


# --- simulate-pde / trace ---


PDE_DOC = {
    "pde": {
        "example": "custom",
        "N": 32,
        "L": 10.0,
        "t_end": 0.4,
        "norm_cadence": 0.2,
        "snapshot_times": [0.0, 0.4],
        "k": -1,
        "c_b": 0.03,
        "blobs": [{"kind": "gaussian", "amplitude": 0.015, "center": [0, 0], "rate": 1.0}],
    },
    "trace": {"x0": [0.0, 0.0]},
}


def test_simulate_pde_writes_snapshots_and_norms(tmp_path, capsys):
    cfg = write_json(tmp_path, "p.json", PDE_DOC)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate-pde", "--config", str(cfg), "--out", str(out_dir), "--no-timestamp"
    )
    assert code == 0
    assert out.startswith("final norms:")
    names = sorted(p.name for p in out_dir.iterdir())
    assert "norms.csv" in names
    assert "snapshot_0000_rho.epf" in names and "snapshot_0001_rho.epf" in names
    assert "snapshot_0000.json" in names
    header = (out_dir / "norms.csv").read_text().splitlines()[0]
    assert header == "t,rho_sup,phi_sup,dphi_dx_sup"


def test_simulate_pde_manifest_carries_the_frame(tmp_path, capsys):
    cfg = write_json(tmp_path, "p.json", PDE_DOC)
    out_dir = tmp_path / "out"
    run_cli(capsys, "simulate-pde", "--config", str(cfg), "--out", str(out_dir), "--no-timestamp")
    manifest = json.loads((out_dir / "snapshot_0001.json").read_text())
    s = math.sqrt(0.5 * 0.03)  # gamma = -k c_b / 2
    assert manifest["a"] == pytest.approx(math.cosh(0.4 * s), rel=1e-14)
    assert manifest["H"] == pytest.approx(s * math.tanh(0.4 * s), rel=1e-14)
    sigma, _ = read_scalar_field(out_dir / "snapshot_0001_rho.epf")
    assert manifest["norms"]["rho_sup"] == pytest.approx(np.max(sigma) / manifest["a"] ** 2, rel=1e-14)


def test_simulate_pde_collapsing_frame_is_solver_error(tmp_path, capsys):
    # k c_b > 0: the background collapses at t_c = pi / sqrt(2 k c_b) ~ 11.1
    doc = {"pde": {**PDE_DOC["pde"], "k": 1, "c_b": 0.04, "t_end": 12.0}}
    cfg = write_json(tmp_path, "p.json", doc)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate-pde", "--config", str(cfg), "--out", str(out_dir))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "t_c = 11.107" in err and "Traceback" not in err
    assert not out_dir.exists()  # refused before stepping


_BUDGET_ERROR = "config error: at $.pde: t_end / {} exceeds the {} budget of 1000000"


@pytest.mark.parametrize(
    "section, code, line",
    [
        # k c_b < 0: a = cosh(t sqrt(gamma)) with gamma = 5e5 leaves float range by t = 2
        (
            {"example": "custom", "t_end": 2.0, "k": -1, "c_b": 1e6, "blobs": [{"kind": "gaussian", "amplitude": 0.01}]},
            2,
            "solver error: the frame's scale factor a overflows by t_end = 2 (k c_b < 0)",
        ),
        # s t_end = 1e10 * 1e300 is inf, and cosh(inf) returns inf rather than raising
        (
            {
                "example": "custom",
                "t_end": 1e300,
                "dt_max": 1e295,
                "norm_cadence": 1e295,
                "k": -1,
                "c_b": 2e20,
                "blobs": [{"kind": "gaussian", "amplitude": 0.01}],
            },
            2,
            "solver error: the frame's scale factor a overflows by t_end = 1e+300 (k c_b < 0)",
        ),
        # gamma = -k c_b / 2 is inf, so a is inf at every t > 0
        (
            {"example": "custom", "t_end": 1.0, "k": -1e308, "c_b": 1e308, "blobs": [{"kind": "gaussian", "amplitude": 0.01}]},
            2,
            "solver error: the frame's scale factor a overflows by t_end = 1 (k c_b < 0)",
        ),
        # the only step, from a finite state, overflows
        (
            {"example": "custom", "t_end": 0.01, "k": -1, "c_b": 0, "blobs": [{"kind": "gaussian", "amplitude": 1e300}]},
            2,
            "solver error: the step produced non-finite values",
        ),
        ({"example": "5.3", "t_end": 0.2, "dt_max": 1e-300}, 1, _BUDGET_ERROR.format("dt_max", "step")),
        ({"example": "5.3", "t_end": 0.2, "norm_cadence": 1e-12}, 1, _BUDGET_ERROR.format("norm_cadence", "record")),
        # below the schedule's 1e-12 resolution the run would take no step
        ({"example": "5.3", "t_end": 1e-13}, 1, "config error: at $.pde: t_end must be positive after rounding to 1e-12"),
    ],
    ids=[
        "overflowing-frame",
        "infinite-frame-argument",
        "infinite-gamma",
        "non-finite-step",
        "dt_max-budget",
        "norm_cadence-budget",
        "t_end-rounds-to-0",
    ],
)
def test_simulate_pde_refusals_write_nothing(tmp_path, capsys, section, code, line):
    cfg = write_json(tmp_path, "p.json", {"pde": {"N": 16, **section}})
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "simulate-pde", "--config", str(cfg), "--out", str(out_dir)) == (code, "", line + "\n")
    assert not out_dir.exists()


def test_pde_step_budget_bounds_the_requested_steps():
    with pytest.raises(ValueError, match="exceeds the step budget of 1000000"):
        simulate.example_config("5.3", dt_max=1e-300)


def test_pde_step_budget_exhausted_is_solver_error(tmp_path, capsys, monkeypatch):
    # 2 steps at dt_max, but the CFL bound at a fraction of 1e-4 takes about 100
    monkeypatch.setattr(simulate, "_MAX_STEPS", 50)
    monkeypatch.setattr(spectral, "_CFL", 1e-4)
    doc = {"pde": {"example": "5.3", "N": 16, "t_end": 1.0}}
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "simulate-pde", "--config", str(write_json(tmp_path, "p.json", doc)), "--out", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert err == "solver error: step budget of 50 steps exhausted before t_end\n"
    assert not out_dir.exists()


def test_simulate_pde_unknown_example_is_usage_error(capsys):
    assert run_cli(capsys, "simulate-pde", "--example", "9.9")[0] == 1


def test_trace_still_fluid_keeps_position(tmp_path, capsys):
    doc = dict(PDE_DOC)
    doc["pde"] = {**PDE_DOC["pde"], "blobs": [{"kind": "gaussian", "amplitude": 1e-308, "center": [0, 0]}], "c_b": 0.0}
    doc["trace"] = {"x0": [1.5, -0.5]}
    cfg = write_json(tmp_path, "p.json", doc)
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "trace", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,rho,d,omega,eta,xi,f1,f2,A,envelope_ok"
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[1] == "1.5" and cells[2] == "-0.5"


def test_trace_center_of_radial_scenario(tmp_path, capsys):
    cfg = write_json(tmp_path, "p.json", PDE_DOC)
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "trace", "--config", str(cfg), "--out", str(out_csv), "--no-timestamp")
    assert code == 0
    rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
    omega = np.array([float(r[5]) for r in rows])
    flag = [r[11] for r in rows]
    assert np.max(np.abs(omega)) < 1e-9
    assert set(flag) == {"1"}


def test_trace_rejects_outside_seed(tmp_path, capsys):
    cfg = write_json(tmp_path, "p.json", PDE_DOC)
    code, _, err = run_cli(capsys, "trace", "--config", str(cfg), "--x0", "40,0")
    assert code == 1 and "outside the domain" in err


@pytest.mark.parametrize(
    "x0, code, err",
    [("10,0", 0, ""), ("-10,10", 0, ""), ("10.5,0", 1, "error: x0 (10.5, 0.0) outside the domain [-L, L]^2\n")],
    ids=["right-edge", "corner", "past-the-edge"],
)
def test_trace_seed_box_is_closed(tmp_path, capsys, x0, code, err):
    # x = L is the periodic image of x = -L, so the seed box includes both edges
    cfg = write_json(tmp_path, "p.json", {"pde": {"N": 16, "L": 10.0, "t_end": 0.2}})
    argv = ["trace", "--example", "5.3", "--config", str(cfg), "--x0", x0, "--no-timestamp"]
    assert run_cli(capsys, *argv)[::2] == (code, err)


def test_trace_x0_parse_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "p.json", PDE_DOC)
    assert run_cli(capsys, "trace", "--config", str(cfg), "--x0", "1.0")[0] == 1


@pytest.mark.parametrize(
    "x0, first",
    [("-2.5,2.5", ["-2.5", "2.5"]), ("-1e-05,2", ["-1e-05", "2.0"]), ("-1,-2E-1", ["-1.0", "-0.2"])],
)
def test_trace_reads_a_negative_first_seed_coordinate(tmp_path, capsys, x0, first):
    cfg = write_json(tmp_path, "p.json", {"pde": {"N": 16, "t_end": 0.2}})
    code, out, err = run_cli(
        capsys, "trace", "--example", "5.3", "--config", str(cfg), "--x0", x0, "--no-timestamp"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[1:3] == first


@pytest.mark.parametrize(
    "section",
    [{"t_end": 1e-11, "norm_cadence": 1e-13}, {"t_end": 0.1, "snapshot_times": [1e-13]}],
    ids=["norm-cadence", "snapshot-time"],
)
def test_times_that_round_to_zero_repeat_no_row(tmp_path, capsys, section):
    cfg = write_json(tmp_path, "p.json", {"pde": {"example": "5.3", "N": 16, **section}})
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate-pde", "--config", str(cfg), "--out", str(out_dir), "--no-timestamp")
    assert (code, err) == (0, "")
    t = [row.split(",")[0] for row in (out_dir / "norms.csv").read_text().splitlines()[1:]]
    assert t[0] == "0.0" and len(t) > 1 and len(set(t)) == len(t)
    manifests = sorted(out_dir.glob("snapshot_*.json"))
    assert [json.loads(m.read_text())["time"] for m in manifests] == [0.0]


def test_snapshot_time_beyond_t_end_is_config_error(tmp_path, capsys):
    doc = {"pde": {"example": "5.3", "N": 16, "t_end": 0.2, "snapshot_times": [0.5]}}
    cfg = write_json(tmp_path, "p.json", doc)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate-pde", "--config", str(cfg), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == "config error: at $.pde: snapshot_times must lie in [0, t_end]\n"
    assert not out_dir.exists()
