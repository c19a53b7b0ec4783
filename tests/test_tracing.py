import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from epriccati import tracing
from epriccati.errors import InvalidStateError, NonVacuumError
from epriccati.fieldio import write_tracer_csv
from epriccati.riccati import PhysicalParams
from epriccati.simulate import PdeRunResult, ScenarioConfig, SpectralFrame, example_config, run_example
from epriccati.spectral import Grid
from epriccati.tracing import trace_characteristic


def _still_fluid_run(grid, rho, times=(0.0, 0.5, 1.0)):
    """Hand-built run output: the given density, zero velocity, a frame per time."""
    cfg = ScenarioConfig(grid=grid, params=PhysicalParams(k=-1.0, c_b=0.03), store_history=True)
    hat = np.fft.rfft2(np.stack([rho, np.zeros_like(rho), np.zeros_like(rho)]))
    frames = [SpectralFrame(t, hat.copy()) for t in times]
    return PdeRunResult(config=cfg, norms=None, snapshots=[], history=frames, final=frames[-1])


def test_tracer_stationary_in_still_fluid():
    grid = Grid(N=32, L=10.0)
    X, Y = grid.mesh
    rho = 0.02 + 0.01 * np.cos(np.pi * X / 10.0) * np.cos(np.pi * Y / 10.0)
    series = trace_characteristic(_still_fluid_run(grid, rho), (1.3, -2.1))
    assert_allclose(series.x, np.tile([1.3, -2.1], (3, 1)), atol=1e-14)
    assert_allclose(series.d, 0.0, atol=1e-14)
    assert series.status == "complete"


@pytest.mark.parametrize("bad, kept", [(2, 1), (5, 4)], ids=["in-first-window", "in-fourth-window"])
def test_tracer_truncates_at_a_non_finite_frame(bad, kept):
    # frame ``bad`` enters the Lagrange window of step ``kept - 1`` first, so
    # that step's midpoint velocity is non-finite and the series stops before it
    grid = Grid(N=16, L=10.0)
    run = _still_fluid_run(grid, np.full((16, 16), 0.02), times=np.linspace(0.0, 2.5, 6))
    run.history[bad].hat[:] = np.nan
    series = trace_characteristic(run, (1.0, -1.0))
    assert series.status == "truncated"
    assert np.array_equal(series.t, np.linspace(0.0, 2.5, 6)[:kept])
    assert np.array_equal(series.x, np.tile([1.0, -1.0], (kept, 1)))
    assert all(np.all(np.isfinite(v)) for v in (series.rho, series.d, series.f1, series.f2, series.A))
    out = io.StringIO()
    write_tracer_csv(out, series, timestamp=False)
    assert len(out.getvalue().splitlines()) == 1 + kept


def test_tracer_step_interpolates_only_its_midpoint(monkeypatch):
    # the stages at the step's two frame times read those frames; only the
    # midpoint stages evaluate the four-frame window, with one weight vector,
    # and the force quadrature weighs each interval at its two Gauss nodes
    calls = {"weights": 0, "window": 0}

    def weights(nodes, tq):
        calls["weights"] += 1
        return lagrange_weights(nodes, tq)

    def evaluate(spec, *args, **kwargs):
        calls["window"] += spec.shape[:2] == (4, 2)
        return eval_point(spec, *args, **kwargs)

    lagrange_weights, eval_point = tracing._lagrange_weights, tracing.eval_point
    monkeypatch.setattr(tracing, "_lagrange_weights", weights)
    monkeypatch.setattr(tracing, "eval_point", evaluate)
    grid = Grid(N=16, L=10.0)
    run = _still_fluid_run(grid, np.full((16, 16), 0.02), times=np.linspace(0.0, 2.5, 6))
    assert len(trace_characteristic(run, (1.0, -1.0)).t) == 6
    assert calls == {"weights": 5 + 2 * 5, "window": 10}


def test_tracer_step_reuses_the_sampled_velocity(monkeypatch):
    # a frame's sample evaluates the velocity at the new position, and the
    # next step takes it as k1: one sample per frame and k2, k3, k4 per step
    calls = []

    def evaluate(*args, **kwargs):
        calls.append(1)
        return eval_point(*args, **kwargs)

    eval_point = tracing.eval_point
    monkeypatch.setattr(tracing, "eval_point", evaluate)
    run = _still_fluid_run(Grid(N=16, L=10.0), np.full((16, 16), 0.02), times=np.linspace(0.0, 2.5, 6))
    trace_characteristic(run, (1.0, -1.0))
    assert len(calls) == 6 + 3 * 5


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_force_quadrature_is_exact_for_cubics(n):
    # with fewer than four frames the interpolant has degree n - 1, and the
    # quadrature is exact for polynomials of that degree
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(0.05, 0.5, n))
    p = np.polynomial.Polynomial(rng.normal(size=min(n, 4)))
    exact = p.integ()(t) - p.integ()(t[0])
    got = tracing._cumquad(np.stack([p(t), -2.0 * p(t)]), t)
    assert_allclose(got, [exact, -2.0 * exact], rtol=0.0, atol=1e-14 * np.max(np.abs(exact)))


def test_force_quadrature_is_fourth_order():
    errors = []
    for n in (40, 80):
        t = np.linspace(0.0, 3.0, n + 1)
        errors.append(np.max(np.abs(tracing._cumquad(np.sin(t), t) - (1.0 - np.cos(t)))))
    assert errors[0] >= 14.0 * errors[1]


def test_default_step_traces_A_as_a_fine_step_run():
    # the default run steps by 0.5 and stores frames at the 0.1 norm cadence
    # from its continuous extension; its traced A stays within 2e-8 of the
    # run's maximum |A| of a run stepping and storing frames every 0.0125
    # (measured 3.9e-9; a trapezoid quadrature at a step of 0.05 was 6.8e-6 off)
    grid = Grid(N=64, L=10.0)
    coarse = run_example(example_config("5.2", grid=grid, t_end=1.5, store_history=True))
    fine = run_example(
        example_config(
            "5.2", grid=grid, t_end=1.5, store_history=True, dt_max=0.0125, norm_cadence=0.0125
        )
    )
    assert len(coarse.history) == 16 and len(fine.history) == 121
    for seed in [(2.5, 2.5), (1.0, 2.0), (-2.0, 1.0), (3.0, -1.5)]:
        a, ref = trace_characteristic(coarse, seed), trace_characteristic(fine, seed)
        assert np.array_equal(a.t, ref.t[::8])
        assert np.max(np.abs(a.A - ref.A[::8])) <= 2e-8 * np.max(np.abs(ref.A))


def test_tracer_requires_history():
    cfg = example_config("5.1", grid=Grid(N=32, L=10.0), t_end=0.2)
    res = run_example(cfg)
    with pytest.raises(ValueError):
        trace_characteristic(res, (0.0, 0.0))
    one_frame = _still_fluid_run(Grid(N=16, L=10.0), np.full((16, 16), 0.02))
    one_frame.history = one_frame.history[:1]
    with pytest.raises(ValueError, match="tracing needs two history frames, the run stored 1"):
        trace_characteristic(one_frame, (0.0, 0.0))


def test_tracer_rejects_vacuum_seed():
    grid = Grid(N=32, L=10.0)
    series_rho = np.zeros((grid.N, grid.N))
    with pytest.raises(NonVacuumError):
        trace_characteristic(_still_fluid_run(grid, series_rho), (0.0, 0.0))


def test_tracer_rejects_a_path_through_vacuum():
    # the seed frame has density, a later frame has none where the still tracer sits
    run = _still_fluid_run(Grid(N=16, L=10.0), np.full((16, 16), 0.02))
    run.history[-1].hat[0] = 0.0
    with pytest.raises(InvalidStateError, match="tracer crossed a vacuum region"):
        trace_characteristic(run, (1.0, -1.0))


def test_center_tracer_of_radial_scenario():
    cfg = example_config("5.1", grid=Grid(N=64, L=10.0), t_end=1.5, store_history=True)
    res = run_example(cfg)
    series = trace_characteristic(res, (0.0, 0.0))
    assert np.max(np.abs(series.x)) < 1e-12  # stationary point of the flow
    assert np.max(np.abs(series.omega)) < 1e-12
    assert np.max(np.abs(series.f1)) < 1e-12
    assert np.max(np.abs(series.f2)) < 1e-12
    # with all deviators zero the reconstructed coefficient stays at its
    # initial value (zero for fluid started from rest)
    assert np.max(np.abs(series.A - series.A[0])) < 1e-15
    assert series.A[0] == 0.0


def test_vorticity_density_ratio_conserved_along_tracers():
    cfg = example_config("5.2", grid=Grid(N=64, L=10.0), t_end=1.5, store_history=True)
    res = run_example(cfg)
    for seed in [(1.0, 2.0), (2.5, 2.5), (-2.0, 1.0)]:
        series = trace_characteristic(res, seed)
        ratio0 = series.omega[0] / series.rho[0]
        assert np.max(np.abs(series.omega / series.rho - ratio0)) < 1e-3


def test_deviator_reconstruction_matches_sampled_fields():
    # eta and xi admit closed forms in terms of the force-kernel integrals;
    # the sampled fields must agree with those reconstructions
    cfg = example_config("5.2", grid=Grid(N=64, L=10.0), t_end=1.5, store_history=True)
    res = run_example(cfg)
    for seed in [(1.0, 2.0), (3.0, 2.5)]:
        s = trace_characteristic(res, seed)
        dt = np.diff(s.t)
        i1 = np.concatenate([[0.0], np.cumsum(0.5 * (s.f1[1:] / s.rho[1:] + s.f1[:-1] / s.rho[:-1]) * dt)])
        i2 = np.concatenate([[0.0], np.cumsum(0.5 * (s.f2[1:] / s.rho[1:] + s.f2[:-1] / s.rho[:-1]) * dt)])
        eta_rec = (s.eta[0] / s.rho[0] + i1) * s.rho
        xi_rec = (s.xi[0] / s.rho[0] + i2) * s.rho
        scale = max(np.max(np.abs(s.eta)), np.max(np.abs(s.xi)), 1e-6)
        assert np.max(np.abs(eta_rec - s.eta)) < 1e-4 + 1e-2 * scale
        assert np.max(np.abs(xi_rec - s.xi)) < 1e-4 + 1e-2 * scale


def test_reconstructed_coefficient_respects_envelope():
    cfg = example_config("5.2", grid=Grid(N=64, L=10.0), t_end=1.5, store_history=True)
    res = run_example(cfg)
    series = trace_characteristic(res, (2.5, 2.5))
    assert np.all(series.A >= -np.exp(series.t))
    assert np.all(np.diff(series.t) > 0)


def test_center_divergence_obeys_whole_plane_riccati():
    # At the centre of the radial scenario A = 0, so the divergence obeys
    # d' = -d^2/2 + k (rho - c_b) with the configured background c_b.  What is
    # left is |k| times the fluid's mean density (about 1.2e-4 here), which
    # the periodic box still neutralizes; dropping the background would leave
    # |k| (c_b - mean rho), about 0.03.
    cfg = example_config("5.1", grid=Grid(N=64, L=10.0), t_end=1.5, store_history=True)
    s = trace_characteristic(run_example(cfg), (0.0, 0.0))
    p = cfg.params
    residual = np.gradient(s.d, s.t) - (-0.5 * s.d**2 + p.k * (s.rho - p.c_b))
    assert np.max(np.abs(residual)) < 0.01 * p.c_b
