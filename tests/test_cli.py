import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epriccati.cli import main
from epriccati.config import CONFIG_SCHEMA, validate_config
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
    optional = {
        "value": _FINITE,
        "alpha": _POSITIVE,
        "beta": _POSITIVE,
        "times": _SAMPLES,
        "values": _SAMPLES,
        "upper_clamp": _FINITE,
    }
    kind = draw(st.sampled_from(["constant", "exponential_envelope", "tabulated"]))
    section = {"kind": kind, **draw(st.fixed_dictionaries({}, optional=optional))}
    if kind == "constant" and "value" not in section:
        section["value"] = draw(_FINITE)
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
        "certify": st.fixed_dictionaries({}, optional={"t_verify": st.floats(0.0, 10.0, exclude_min=True)}),
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


# --- sweep ---


SWEEP_DOC = {
    "sweep": {"rho_min": 0.1, "rho_max": 0.6, "rho_count": 5, "d_min": -0.3, "d_max": 0.9, "d_count": 4},
    "integrator": {"t_end": 15.0},
}


def test_sweep_deterministic_and_worker_invariant(tmp_path, capsys):
    cfg = write_json(tmp_path, "s.json", SWEEP_DOC)
    outputs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out_csv = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "sweep", "--config", str(cfg), "--out", str(out_csv),
            "--workers", workers, "--no-timestamp",
        )
        assert code == 0
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_pool_has_one_worker_per_rho_line(tmp_path, capsys, monkeypatch):
    import epriccati.cli as cli

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    doc = {**SWEEP_DOC, "sweep": {**SWEEP_DOC["sweep"], "rho_count": 3}}
    cfg = write_json(tmp_path, "s.json", doc)
    outputs = []
    for workers in ("1", "8"):
        out_csv = tmp_path / f"w{workers}.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--config", str(cfg), "--out", str(out_csv),
            "--workers", workers, "--no-timestamp",
        )
        assert code == 0
        outputs.append(out_csv.read_bytes())
    assert asked == [3]
    assert outputs[0] == outputs[1]


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
    ],
)
def test_unbuildable_config_is_one_line_config_error(tmp_path, command, doc, path):
    cfg = write_json(tmp_path, "c.json", doc)
    proc = _run_subprocess(tmp_path, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: at {path}")


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


def test_trace_x0_parse_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "p.json", PDE_DOC)
    assert run_cli(capsys, "trace", "--config", str(cfg), "--x0", "1.0")[0] == 1
