"""The benchmark's three seeded workloads: inputs, fixed job and output checks.

Every workload offers the same four functions:

* ``inputs(seed)`` builds the inputs; the same seed gives the same inputs and
  the program sees nothing else.
* ``warm_up(inputs)`` runs one small op during set-up, so lazily built state
  (FFT plans, cached grid arrays) is not charged to the first timed job.
* ``job(inputs, latencies)`` runs the workload's fixed job once, appends the
  latency of each op in seconds and returns the outputs.
* ``check(inputs, outputs)`` returns ``(attempted, failed, notes)``: an op
  fails when it raised or its output check failed.

Program functions are called through their module (``ep.classify``, not a
name imported from it), so the traced run sees the calls it wraps.
"""

from __future__ import annotations

import io
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import epriccati as ep
import epriccati.fieldio as fieldio

PARAMS = ep.PhysicalParams(k=-1.0, c_b=1.0)


def _run_op(fn, *args):
    """Run one op; an exception it raises is reported and becomes its output."""
    try:
        return fn(*args)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        traceback.print_exc(file=sys.stderr)
        return exc


def _timed_op(latencies, fn, *args):
    start = time.perf_counter()
    out = _run_op(fn, *args)
    latencies.append(time.perf_counter() - start)
    return out


# --- sweep: batched phase-plane maps, the path of the CLI's sweep command ---

SWEEP_BOX = (0.01, 1.2, -1.0, 2.0)  # rho_min, rho_max, d_min, d_max
SWEEP_COUNT = 60  # grid lines per axis
SWEEP_OPTS = ep.IntegratorOptions(t_end=20.0)
SWEEP_KNOT_STEP = 0.5
SWEEP_HEADER = "rho0,d0,region,status,t_blow_mid"


@dataclass
class SweepInputs:
    inits: np.ndarray  # (SWEEP_COUNT**2, 2) rows (rho0, d0)
    models: tuple  # ((name, CoefficientModel), ...)


@dataclass
class SweepMap:
    model: str
    rows: list  # (rho0, d0, region, status, t_blow_mid or None)
    csv: str


def sweep_inputs(seed: int) -> SweepInputs:
    rng = np.random.default_rng(seed)
    rho_min, rho_max, d_min, d_max = SWEEP_BOX
    # The CLI's inclusive grid; the seed picks the tabulated coefficient.
    grid_r, grid_d = np.meshgrid(
        np.linspace(rho_min, rho_max, SWEEP_COUNT),
        np.linspace(d_min, d_max, SWEEP_COUNT),
        indexing="ij",
    )
    inits = np.stack([grid_r.ravel(), grid_d.ravel()], axis=1)
    # Knot values in [-0.9 e^t, -0.5 e^t]; the linear interpolant stays above -e^t.
    knots = np.arange(0.0, SWEEP_OPTS.t_end + 1e-9, SWEEP_KNOT_STEP)
    values = -np.exp(knots) * rng.uniform(0.5, 0.9, knots.size)
    models = (
        ("envelope", ep.ExponentialEnvelope()),
        ("tabulated", ep.TabulatedCoefficient(knots, values)),
    )
    return SweepInputs(inits=inits, models=models)


def _sweep_map(name, model, inits) -> SweepMap:
    result = ep.integrate_batch(ep.ep_system(model, PARAMS), inits, SWEEP_OPTS)
    rows = []
    for i, (rho0, d0) in enumerate(inits):
        status = result.terminal_status(i)
        t_mid = None
        if status is ep.TerminalStatus.BLOW_UP:
            t_mid = 0.5 * (result.blow_lo[i] + result.blow_hi[i])
        rows.append((rho0, d0, ep.classify(rho0, d0).value, status.value, t_mid))
    out = io.StringIO()
    fieldio.write_sweep_csv(out, rows, timestamp=False)
    return SweepMap(model=name, rows=rows, csv=out.getvalue())


def sweep_warm_up(inputs: SweepInputs) -> None:
    for name, model in inputs.models:
        _sweep_map(name, model, inputs.inits[:SWEEP_COUNT])


def sweep_job(inputs: SweepInputs, latencies: list) -> list:
    start = time.perf_counter()
    maps = [_run_op(_sweep_map, name, model, inputs.inits) for name, model in inputs.models]
    latencies.append(time.perf_counter() - start)
    return maps


def sweep_check(inputs: SweepInputs, maps: list):
    """Rows inside the certified union must reach the horizon (criterion 2)."""
    failed = len(inputs.models) - len(maps)
    notes = {}
    for m in maps:
        if isinstance(m, Exception):
            failed += 1
            continue
        lines = m.csv.splitlines()
        ok = lines[0] == SWEEP_HEADER and len(lines) == 1 + len(inputs.inits)
        counts = {}
        for _, _, region, status, _ in m.rows:
            counts[status] = counts.get(status, 0) + 1
            if region != ep.Region.OUTSIDE.value and status != "reached-horizon":
                ok = False
        notes[m.model] = counts
        failed += not ok
    return len(inputs.models), failed, notes


# --- certify: one certification decision per op, as the CLI's classify runs it ---

CERT_POINTS = 50
CERT_T_VERIFY = 10.0
CERT_KNOTS = np.arange(0.0, CERT_T_VERIFY + 1e-9, 0.1)


@dataclass
class CertPoint:
    rho0: float
    d0: float
    model: object  # TabulatedCoefficient
    gamma: float  # upper bound of the coefficient, for the divergence cap


def certify_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    points = []
    # One point per rho stratum, rejection-sampled into the certified union:
    # every seed spreads its points over the same rho range.
    for i in range(CERT_POINTS):
        while True:
            rho0 = (i + rng.uniform(0.0, 1.0)) * 0.5 / CERT_POINTS
            d0 = rng.uniform(-0.5, 2.0)
            if rho0 > 0.0 and ep.classify(rho0, d0) is not ep.Region.OUTSIDE:
                break
        # shaped like acceptance criterion 4: rough knots in [-0.9 e^t, 0.3]
        values = -0.9 * np.exp(CERT_KNOTS) * rng.uniform(0.0, 1.0, CERT_KNOTS.size)
        values += rng.uniform(0.0, 0.3, CERT_KNOTS.size)
        model = ep.TabulatedCoefficient(CERT_KNOTS, values)
        points.append(CertPoint(rho0, d0, model, max(0.0, float(values.max()))))
    return points


def _certify(p: CertPoint):
    region = ep.classify(p.rho0, p.d0)
    if region is ep.Region.OUTSIDE:
        return None
    return ep.certify_global(p.rho0, p.d0, p.model, t_verify=CERT_T_VERIFY)


def certify_warm_up(points: list) -> None:
    _certify(points[0])


def certify_job(points: list, latencies: list) -> list:
    return [_timed_op(latencies, _certify, p) for p in points]


def certify_check(points: list, certs: list):
    """Each op yields a certificate whose shifted point is certified-interior
    and whose trajectory respects the density and divergence caps."""
    failed = len(points) - len(certs)
    for p, cert in zip(points, certs):
        ok = isinstance(cert, ep.Certificate) and (
            ep.in_certified_interior(p.rho0 + cert.epsilon, p.d0 - cert.epsilon)
            and cert.rho_sup < 0.5
            and cert.d_max <= ep.d_upper_bound(0.5, p.gamma, p.d0)
        )
        failed += not ok
    return len(points), failed, {}


# --- pde_trace: spectral run with stored history, then traced characteristics ---

PDE_T_END = 5.0
PDE_TRACERS = 6
PDE_SEED_BOX = 4.0
MASS_DRIFT_TOL = 1e-12
VORTICITY_RATIO_TOL = 1e-3


@dataclass
class PdeInputs:
    config: object  # ScenarioConfig
    seeds: np.ndarray  # (PDE_TRACERS, 2) tracer start points


@dataclass
class PdeOutputs:
    result: object  # PdeRunResult, or the error the run raised
    tracers: list  # (TracerSeries, csv text), or the error a tracer raised


def pde_inputs(seed: int) -> PdeInputs:
    rng = np.random.default_rng(seed)
    config = ep.example_config(
        "5.2", grid=ep.Grid(N=128, L=10.0), t_end=PDE_T_END, store_history=True
    )
    seeds = rng.uniform(-PDE_SEED_BOX, PDE_SEED_BOX, (PDE_TRACERS, 2))
    return PdeInputs(config=config, seeds=seeds)


def _trace_and_write(result, x0):
    series = ep.trace_characteristic(result, tuple(x0))
    out = io.StringIO()
    fieldio.write_tracer_csv(out, series, timestamp=False)
    return series, out.getvalue()


def pde_warm_up(inputs: PdeInputs) -> None:
    short = ep.example_config(
        "5.2", grid=inputs.config.grid, t_end=0.1, store_history=True
    )
    _trace_and_write(ep.run_example(short), inputs.seeds[0])


def pde_job(inputs: PdeInputs, latencies: list) -> PdeOutputs:
    result = _run_op(ep.run_example, inputs.config)
    if isinstance(result, Exception):
        return PdeOutputs(result=result, tracers=[])
    tracers = [_timed_op(latencies, _trace_and_write, result, x0) for x0 in inputs.seeds]
    return PdeOutputs(result=result, tracers=tracers)


def pde_check(inputs: PdeInputs, out: PdeOutputs):
    """Mass is conserved and each tracer conserves omega/rho to its end."""
    attempted = 1 + len(inputs.seeds)
    if isinstance(out.result, Exception):
        return attempted, attempted, {}
    mass0 = float(out.result.history[0].rho.mean())
    drift = abs(float(out.result.final.rho.mean()) - mass0) / mass0
    failed = int(not drift < MASS_DRIFT_TOL) + len(inputs.seeds) - len(out.tracers)
    envelope_ok = True
    for traced in out.tracers:
        if isinstance(traced, Exception):
            failed += 1
            continue
        series, csv = traced
        ratio = series.omega / series.rho
        ok = (
            series.status == "complete"
            and float(np.max(np.abs(ratio - ratio[0]))) < VORTICITY_RATIO_TOL
            and len(csv.splitlines()) == 1 + len(series.t)
        )
        failed += not ok
        envelope_ok &= bool(np.all(series.A >= -np.exp(series.t)))
    return attempted, failed, {"mass_drift": drift, "envelope_ok": envelope_ok}


@dataclass(frozen=True)
class Workload:
    inputs: object
    warm_up: object
    job: object
    check: object


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_warm_up, sweep_job, sweep_check),
    "certify": Workload(certify_inputs, certify_warm_up, certify_job, certify_check),
    "pde_trace": Workload(pde_inputs, pde_warm_up, pde_job, pde_check),
}
