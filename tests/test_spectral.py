import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from epriccati.errors import PositivityError, PositivityWarning, StepSizeError
from epriccati.riccati import PhysicalParams
from epriccati.simulate import Blob, example_config, run_example
from epriccati.spectral import (
    ComovingFrame,
    Grid,
    diagnostics,
    eval_point,
    f1_f2_eval,
    f1_field,
    f2_field,
    make_density,
    poisson_inverse,
    riesz_apply,
    step_ep,
)

PI_GRID = Grid(N=64, L=math.pi)
ATTRACTIVE_UNIT = PhysicalParams(k=-1.0, c_b=1.0)


def _mesh(grid):
    return grid.mesh


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(N=48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(N=8)
    with pytest.raises(ValueError):
        Grid(N=64, L=0.0)


def test_poisson_on_laplacian_eigenfunctions():
    X, Y = _mesh(PI_GRID)
    assert_allclose(poisson_inverse(np.cos(X), PI_GRID), -np.cos(X), atol=1e-13)
    assert_allclose(poisson_inverse(np.zeros_like(X), PI_GRID), 0.0, atol=0)
    assert_allclose(
        poisson_inverse(np.sin(X) + np.sin(Y), PI_GRID), -np.sin(X) - np.sin(Y), atol=1e-13
    )


def test_poisson_round_trip_on_band_limited_field():
    grid = Grid(N=128, L=10.0)
    rng = np.random.default_rng(1)
    spec = np.zeros((grid.N, grid.N // 2 + 1), dtype=complex)
    sel = np.zeros_like(spec, dtype=bool)
    m = np.fft.fftfreq(grid.N, 1.0 / grid.N)
    sel[(np.abs(m[:, None]) <= 20) & (m[None, : grid.N // 2 + 1] <= 20)] = True
    spec[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    f = np.fft.irfft2(spec, s=(grid.N, grid.N))
    f -= f.mean()
    phi = poisson_inverse(f, grid)
    k2 = grid._kx**2 + grid._ky**2
    lap = np.fft.irfft2(-k2 * np.fft.rfft2(phi), s=(grid.N, grid.N))
    assert np.max(np.abs(lap - f)) < 1e-10 * max(1.0, np.max(np.abs(f)))


def test_riesz_single_mode():
    X, Y = _mesh(PI_GRID)
    h = np.cos(X)
    assert_allclose(riesz_apply(1, 1, h, PI_GRID), np.cos(X), atol=1e-13)
    assert_allclose(riesz_apply(1, 2, h, PI_GRID), 0.0, atol=1e-13)
    assert_allclose(riesz_apply(2, 2, h, PI_GRID), 0.0, atol=1e-13)
    assert_allclose(riesz_apply(1, 2, np.cos(X + Y), PI_GRID), 0.5 * np.cos(X + Y), atol=1e-13)
    with pytest.raises(ValueError):
        riesz_apply(0, 1, h, PI_GRID)


def test_riesz_trace_identity():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((64, 64))
    h -= h.mean()
    total = riesz_apply(1, 1, h, PI_GRID) + riesz_apply(2, 2, h, PI_GRID)
    assert np.max(np.abs(total - h)) < 1e-12


def test_force_kernels_on_single_mode():
    X, _ = _mesh(PI_GRID)
    rho = 1.0 + np.cos(X)
    assert_allclose(f1_field(rho, ATTRACTIVE_UNIT, PI_GRID), -np.cos(X), atol=1e-13)
    assert_allclose(f2_field(rho, ATTRACTIVE_UNIT, PI_GRID), 0.0, atol=1e-13)
    f1, f2 = f1_f2_eval(rho, ATTRACTIVE_UNIT, (0.4, -1.1), PI_GRID)
    assert f1 == pytest.approx(-math.cos(0.4), abs=1e-12)
    assert f2 == pytest.approx(0.0, abs=1e-12)


def test_eval_point_is_exact_for_band_limited_fields():
    # a trigonometric polynomial with every mode below Nyquist is its own
    # interpolant, so value and gradient match off the grid
    grid = Grid(N=32, L=10.0)
    rng = np.random.default_rng(3)
    modes = rng.integers(-15, 16, size=(12, 2))
    amp = rng.standard_normal((12, 2))
    kappa = (math.pi / grid.L) * modes

    def exact(x, y):
        """Value, x- and y-derivative; ``x`` and ``y`` broadcast."""
        phase = kappa[:, 0] * np.asarray(x)[..., None] + kappa[:, 1] * np.asarray(y)[..., None]
        val = np.cos(phase) @ amp[:, 0] + np.sin(phase) @ amp[:, 1]
        slope = np.cos(phase) * amp[:, 1] - np.sin(phase) * amp[:, 0]
        return np.array([val, slope @ kappa[:, 0], slope @ kappa[:, 1]])

    spec = np.fft.rfft2(exact(*grid.mesh)[0])
    for x in [(0.37, -2.9), (-9.99, 9.71), (4.4, 0.05)]:
        want = exact(*x)
        assert_allclose(eval_point(spec, grid, x), want[0], rtol=0, atol=1e-12)
        assert_allclose(eval_point(spec, grid, x, grad=True), want, rtol=0, atol=1e-12)
        stacked = eval_point(np.stack([spec, 2.0 * spec]), grid, x, grad=True)
        assert stacked.shape == (3, 2)
        assert_allclose(stacked, np.stack([want, 2.0 * want], axis=1), rtol=0, atol=1e-12)


def test_eval_point_reads_nyquist_modes_as_cosines():
    # symmetric convention: a sampled Nyquist cosine interpolates to that
    # cosine, and its derivative is zero, as for the grid operators
    grid = Grid(N=32, L=10.0)
    nyq, kappa = math.pi * grid.N / (2.0 * grid.L), 3.0 * math.pi / grid.L
    X, Y = grid.mesh
    x, y = 0.37, -2.9
    cx, cy = math.cos(nyq * (x + grid.L)), math.cos(nyq * (y + grid.L))
    g, dg = math.cos(kappa * y + 0.4), -kappa * math.sin(kappa * y + 0.4)
    h, dh = math.cos(kappa * x + 0.4), -kappa * math.sin(kappa * x + 0.4)
    nyquist_in_x = np.cos(nyq * (X + grid.L)) * np.cos(kappa * Y + 0.4)
    nyquist_in_y = np.cos(kappa * X + 0.4) * np.cos(nyq * (Y + grid.L))
    got = eval_point(np.fft.rfft2(np.stack([nyquist_in_x, nyquist_in_y])), grid, (x, y), grad=True)
    assert_allclose(got, [[cx * g, h * cy], [0.0, dh * cy], [cx * dg, 0.0]], rtol=0, atol=1e-12)


def test_eval_point_reproduces_grid_values_and_force_kernels():
    grid = Grid(N=32, L=10.0)
    rng = np.random.default_rng(4)
    rho = 0.02 + 0.01 * rng.random((grid.N, grid.N))
    p = PhysicalParams(k=-1.0, c_b=0.03)
    f1, f2 = f1_field(rho, p, grid), f2_field(rho, p, grid)
    for i, j in [(0, 0), (5, 17), (16, 16), (31, 3)]:
        x = (grid.x[i], grid.x[j])
        assert eval_point(np.fft.rfft2(rho), grid, x) == pytest.approx(rho[i, j], abs=1e-15)
        assert_allclose(f1_f2_eval(rho, p, x, grid), (f1[i, j], f2[i, j]), rtol=0, atol=1e-15)


def _kernel_quadrature(x, amp, k):
    """Free-space principal-value quadrature of the two anisotropic kernels.

    Midpoint grid symmetric about the singularity, so the odd part cancels
    exactly and the principal value converges; fully independent of the
    spectral implementation it cross-checks.
    """
    h = 0.02
    n = 1500
    y = h * ((np.arange(n) + 0.5) - n / 2)
    Y1, Y2 = np.meshgrid(y, y, indexing="ij")
    r4 = (Y1**2 + Y2**2) ** 2
    rho = amp * np.exp(-((x[0] - Y1) ** 2 + (x[1] - Y2) ** 2))
    f1 = (k / math.pi) * h * h * np.sum((-(Y1**2) + Y2**2) / r4 * rho)
    f2 = (k / math.pi) * h * h * np.sum(-2.0 * Y1 * Y2 / r4 * rho)
    return f1, f2


def test_force_kernels_match_free_space_quadrature():
    grid = Grid(N=128, L=10.0)
    p = PhysicalParams(k=-1.0, c_b=0.03)
    rho = make_density(grid, [Blob("gaussian", 0.015, (0.0, 0.0), 1.0)])
    for x in [(0.7, -0.3), (1.5, 0.9)]:
        got = f1_f2_eval(rho, p, x, grid)
        want = _kernel_quadrature(np.array(x), 0.015, -1.0)
        assert got[0] == pytest.approx(want[0], rel=5e-3)
        assert got[1] == pytest.approx(want[1], rel=5e-3)


def test_force_kernels_vanish_at_radial_center():
    grid = Grid(N=64, L=10.0)
    rho = make_density(grid, [Blob("gaussian", 0.015, (0.0, 0.0), 1.0)])
    f1, f2 = f1_f2_eval(rho, PhysicalParams(k=-1.0, c_b=0.03), (0.0, 0.0), grid)
    assert abs(f1) < 1e-12 and abs(f2) < 1e-12
    rho_flat = np.full_like(rho, 0.03)
    f1, f2 = f1_f2_eval(rho_flat, PhysicalParams(k=-1.0, c_b=0.03), (1.0, 2.0), grid)
    assert f1 == 0.0 and f2 == 0.0


def test_step_preserves_equilibrium_exactly():
    grid = Grid(N=32, L=5.0)
    rho = np.full((32, 32), 0.3)
    u = np.zeros((2, 32, 32))
    rho2, u2 = step_ep(rho, u, PhysicalParams(k=-1.0, c_b=0.3), grid, 0.01)
    assert np.array_equal(rho2, rho)
    assert np.array_equal(u2, u)


def test_step_keeps_the_stage_state_in_half_spectra(monkeypatch):
    # one transform per 2D field: (rho, u1, u2) in, then per stage the three
    # dealiased fields and four velocity gradients out and four products in,
    # then the increment out: 3 + 4 * 11 + 3
    transforms = []

    def counted(fft):
        def wrapper(a, *args, **kwargs):
            transforms.append(math.prod(np.shape(a)[:-2]))
            return fft(a, *args, **kwargs)

        return wrapper

    for name in ("rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    grid = Grid(N=32, L=10.0)
    cfg = example_config("5.2", grid=grid)
    rho = make_density(grid, cfg.blobs)
    u = 0.01 * np.stack(grid.mesh)
    step_ep(rho, u, cfg.params, grid, 0.05, frame=ComovingFrame.for_params(cfg.params), t=1.0)
    assert sum(transforms) <= 50


def test_cfl_violation_raises():
    grid = Grid(N=32, L=5.0)
    rho = np.full((32, 32), 0.3)
    u = np.ones((2, 32, 32))
    limit = 0.5 * grid.dx / 1.0
    with pytest.raises(StepSizeError):
        step_ep(rho, u, PhysicalParams(), grid, 2.0 * limit)
    step_ep(rho, u, PhysicalParams(), grid, 0.9 * limit)


def test_negative_density_warning_and_error():
    grid = Grid(N=32, L=5.0)
    u = np.zeros((2, 32, 32))
    dip = np.full((32, 32), 1e-9)
    dip[5, 7] = -5e-8  # inside the warning band
    with pytest.warns(PositivityWarning):
        step_ep(dip, u, PhysicalParams(), grid, 1e-6)
    dip[5, 7] = -2e-4  # beyond the escalation threshold
    with pytest.raises(PositivityError):
        step_ep(dip, u, PhysicalParams(), grid, 1e-6)


def test_mass_conserved_over_thousand_steps():
    grid = Grid(N=64, L=10.0)
    cfg = example_config("5.1", grid=grid)
    rho = make_density(grid, cfg.blobs)
    u = np.zeros((2, 64, 64))
    mean0 = rho.mean()
    for _ in range(1000):
        rho, u = step_ep(rho, u, cfg.params, grid, 5e-4)
    assert abs(rho.mean() - mean0) / mean0 < 1e-12


def test_temporal_convergence_is_fourth_order():
    grid = Grid(N=64, L=10.0)
    cfg = example_config("5.1", grid=grid)
    rho = make_density(grid, cfg.blobs)
    u = np.zeros((2, 64, 64))
    for _ in range(5):  # move off the rest state first
        rho, u = step_ep(rho, u, cfg.params, grid, 0.2)
    errs = []
    for dt in (0.4, 0.2, 0.1):
        r1, u1 = step_ep(rho, u, cfg.params, grid, dt)
        rh, uh = step_ep(rho, u, cfg.params, grid, dt / 2)
        rh, uh = step_ep(rh, uh, cfg.params, grid, dt / 2)
        errs.append(max(np.max(np.abs(r1 - rh)), np.max(np.abs(u1 - uh))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # local error of a 4th-order step scales like dt^5
    assert np.all(orders > 4.5) and np.all(orders < 5.5)


def test_diagnostics_values():
    grid = Grid(N=32, L=5.0)
    p = PhysicalParams(k=-1.0, c_b=0.2)
    assert diagnostics(np.full((32, 32), 0.2), p, grid) == (0.2, 0.0, 0.0)
    X, _ = _mesh(PI_GRID)
    p1 = PhysicalParams(k=-1.0, c_b=1.0)
    sup = diagnostics(1.0 + np.cos(X), p1, PI_GRID)
    assert sup == pytest.approx((2.0, 1.0, 1.0), abs=1e-12)


def _max_asymmetry(r):
    refl_x = np.roll(r[::-1, :], 1, axis=0)
    refl_y = np.roll(r[:, ::-1], 1, axis=1)
    return max(
        np.max(np.abs(r - refl_x)), np.max(np.abs(r - refl_y)), np.max(np.abs(r - r.T))
    )


def test_gaussian_scenario_short_run_keeps_grid_symmetry():
    cfg = example_config("5.1", grid=Grid(N=64, L=10.0), t_end=1.0)
    res = run_example(cfg)
    assert _max_asymmetry(res.final.rho) < 1e-9


def test_gaussian_scenario_full_run_keeps_grid_symmetry():
    cfg = example_config("5.1", grid=Grid(N=128, L=10.0), t_end=10.0)
    res = run_example(cfg)
    assert _max_asymmetry(res.final.rho) < 1e-9


def test_run_example_records_requested_times():
    cfg = example_config(
        "5.1",
        grid=Grid(N=32, L=10.0),
        t_end=0.4,
        norm_cadence=0.2,
        snapshot_times=(0.0, 0.4),
    )
    res = run_example(cfg)
    assert_allclose(res.norms.t, [0.0, 0.2, 0.4])
    assert [f.t for f in res.snapshots] == [0.0, 0.4]
    assert res.history is None


def test_comoving_frame_scale_factor():
    h = 1e-3
    for gamma in (0.02, -0.02):
        frame = ComovingFrame(gamma)
        for t in (0.0, 1.0, 3.0):
            (am, _), (a, H), (ap, _) = frame.scale(t - h), frame.scale(t), frame.scale(t + h)
            assert (ap - 2.0 * a + am) / h**2 == pytest.approx(gamma * a, rel=1e-6)
            assert H == pytest.approx((ap - am) / (2.0 * h * a), rel=1e-7, abs=1e-12)
    assert ComovingFrame(-0.02).scale(ComovingFrame(-0.02).t_collapse)[0] == pytest.approx(0.0, abs=1e-15)
    assert ComovingFrame(0.02).t_collapse == math.inf
    assert ComovingFrame.for_params(PhysicalParams(k=-1.0, c_b=0.03)).gamma == 0.015
    assert ComovingFrame.for_params(PhysicalParams(k=1.0, c_b=0.0)).scale(5.0) == (1.0, 0.0)


def test_static_frame_run_matches_direct_steps():
    # with k c_b = 0 the run steps exactly as direct frameless step_ep calls
    grid = Grid(N=32, L=10.0)
    cfg = example_config("5.3", grid=grid, t_end=0.1, norm_cadence=0.1)
    rho = make_density(grid, cfg.blobs)
    u = np.zeros((2, grid.N, grid.N))
    for _ in range(2):
        rho, u = step_ep(rho, u, cfg.params, grid, 0.05)
    res = run_example(cfg)
    assert np.array_equal(res.final.rho, rho) and np.array_equal(res.final.u, u)
    assert (res.final.a, res.final.H) == (1.0, 0.0)


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        example_config("9.9")
