"""Tests of the benchmark itself: seeded inputs, tracing and output checks.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
Jobs run on cut-down inputs so the tests stay quick; the checks and the
tracer are the ones the benchmark uses.
"""

import dataclasses

import numpy as np
import pytest

import workloads as wl
from spans import Tracer


def small_inputs(name, seed=3):
    """The workload's seeded inputs, cut down to a few ops."""
    inputs = wl.WORKLOADS[name].inputs(seed)
    if name == "sweep":
        return dataclasses.replace(inputs, inits=inputs.inits[::37])
    if name == "certify":
        return inputs[:3]
    config = dataclasses.replace(inputs.config, t_end=0.3)
    return dataclasses.replace(inputs, config=config, seeds=inputs.seeds[:2])


def run_job(name, inputs, tracer=None):
    latencies = []
    if tracer is None:
        return wl.WORKLOADS[name].job(inputs, latencies)
    tracer.reset()
    with tracer:
        return wl.WORKLOADS[name].job(inputs, latencies)


def comparable(name, outputs):
    """The outputs as plain values, for exact comparison."""
    if name == "sweep":
        return [(m.model, m.rows, m.csv) for m in outputs]
    if name == "certify":
        return outputs
    return (
        outputs.result.final.rho.tobytes(),
        outputs.result.final.u.tobytes(),
        [csv for _, csv in outputs.tracers],
    )


def same_inputs(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_inputs(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_inputs(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = wl.WORKLOADS[name].inputs
    assert same_inputs(make(11), make(11))
    assert not same_inputs(make(11), make(12))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_job_gives_untraced_outputs(name):
    inputs = small_inputs(name)
    plain = run_job(name, inputs)
    traced = run_job(name, inputs, Tracer())
    assert comparable(name, traced) == comparable(name, plain)
    assert wl.WORKLOADS[name].check(inputs, plain)[1] == 0


@pytest.mark.parametrize(
    "name, counts",
    [
        ("sweep", ["riccati.rhs_calls", "riccati.rhs_rows"]),
        ("certify", ["riccati.rhs_calls", "integrate.accepted_steps", "regions.interior_tests"]),
        ("pde_trace", ["spectral.ffts_per_step", "tracing.eval_point_calls"]),
    ],
)
def test_exact_counts_repeat(name, counts):
    inputs = small_inputs(name)
    tracer = Tracer()
    first = (run_job(name, inputs, tracer), tracer.layer_metrics())[1]
    second = (run_job(name, inputs, tracer), tracer.layer_metrics())[1]
    for key in counts:
        assert first[key] > 0
        assert first[key] == second[key]
    if name == "pde_trace":
        assert first["spectral.ffts_per_step"] == 68  # four RHS stages of 17 FFTs


def test_tracer_restores_the_program():
    import epriccati
    import epriccati.comparison as comparison

    before = (epriccati.integrate_batch, comparison.run_coupled, np.fft.rfft2)
    with Tracer():
        assert epriccati.integrate_batch is not before[0]
    assert (epriccati.integrate_batch, comparison.run_coupled, np.fft.rfft2) == before


def failed(name, inputs, outputs):
    return wl.WORKLOADS[name].check(inputs, outputs)[1]


def test_sweep_check_catches_corruption():
    inputs = small_inputs("sweep")
    maps = run_job("sweep", inputs)
    inside = next(i for i, r in enumerate(maps[0].rows) if r[2] != "Outside")
    rows = list(maps[0].rows)
    rows[inside] = rows[inside][:3] + ("blow-up", 1.0)
    assert failed("sweep", inputs, [dataclasses.replace(maps[0], rows=rows), maps[1]]) == 1
    truncated = maps[1].csv.rsplit("\n", 2)[0] + "\n"
    assert failed("sweep", inputs, [maps[0], dataclasses.replace(maps[1], csv=truncated)]) == 1
    assert failed("sweep", inputs, maps[:1]) == 1


def test_certify_check_catches_corruption():
    inputs = small_inputs("certify")
    certs = run_job("certify", inputs)
    assert failed("certify", inputs, [None] + certs[1:]) == 1
    assert failed("certify", inputs, certs[:-1]) == 1
    assert failed("certify", inputs, [RuntimeError("boom")] + certs[1:]) == 1
    too_dense = dataclasses.replace(certs[1], rho_sup=0.5)
    assert failed("certify", inputs, [certs[0], too_dense, certs[2]]) == 1
    too_fast = dataclasses.replace(certs[2], d_max=1e3)
    assert failed("certify", inputs, certs[:2] + [too_fast]) == 1
    outside = dataclasses.replace(certs[0], epsilon=10.0)
    assert failed("certify", inputs, [outside] + certs[1:]) == 1


def test_pde_check_catches_corruption():
    inputs = small_inputs("pde_trace")
    out = run_job("pde_trace", inputs)
    assert failed("pde_trace", inputs, out) == 0

    final = out.result.final
    heavier = dataclasses.replace(final, rho=final.rho * (1.0 + 1e-9))
    result = dataclasses.replace(out.result, final=heavier)
    assert failed("pde_trace", inputs, dataclasses.replace(out, result=result)) == 1

    series, csv = out.tracers[0]
    other = out.tracers[1]

    def with_tracers(*tracers):
        return dataclasses.replace(out, tracers=list(tracers))

    cut = dataclasses.replace(series, status="truncated")
    assert failed("pde_trace", inputs, with_tracers((cut, csv), other)) == 1
    drift = 1e-2 * series.rho * np.arange(len(series.t))
    spun = dataclasses.replace(series, omega=series.omega + drift)
    assert failed("pde_trace", inputs, with_tracers((spun, csv), other)) == 1
    assert failed("pde_trace", inputs, with_tracers(out.tracers[0])) == 1
    assert failed("pde_trace", inputs, with_tracers(ValueError(), other)) == 1


def test_times_scale_by_the_gauge_around_the_job(monkeypatch):
    import run

    readings = iter([0.1, 0.2])  # before the job, after it
    monkeypatch.setattr(run, "read_gauge", lambda: next(readings))

    def job(inputs, latencies):
        latencies.extend([0.01, 0.03])
        return "out"

    fake = wl.Workload(None, None, job, lambda inputs, outputs: (2, 0, {}))
    raw, jobs, ops = run.plain_run(fake, None, 0.0, run.Tally())
    scale = run.REF_S / 0.15
    assert jobs == pytest.approx([scale * raw[0]])
    assert ops == pytest.approx([scale * 0.01, scale * 0.03])
