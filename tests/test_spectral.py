import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from epriccati import simulate, spectral
from epriccati.errors import InvalidStateError, PositivityError, PositivityWarning
from epriccati.integrate import _DENSE, _extend
from epriccati.riccati import PhysicalParams
from epriccati.simulate import Blob, example_config, run_example
from epriccati.spectral import (
    ComovingFrame,
    Grid,
    diagnostics,
    eval_point,
    make_density,
    step_ep,
)

PI_GRID = Grid(N=64, L=math.pi)
ATTRACTIVE_UNIT = PhysicalParams(k=-1.0, c_b=1.0)


def _mesh(grid):
    return grid.mesh


def _kernel_spectra(rho, k, grid):
    """Half spectra of the force kernels ``f1``, ``f2``, formed as the tracer forms them."""
    return k * grid._riesz * np.fft.rfft2(rho)


def _on_grid(spec, grid):
    return np.fft.irfft2(spec, s=(grid.N, grid.N))


def _spectrum(rho, u):
    """The solver state: the stacked half spectrum of ``(rho, u1, u2)``."""
    return np.fft.rfft2(np.concatenate([rho[None], u]))


def _poisson(f, grid):
    """The solver's inverse Laplacian, ``grid._inv_lap``, applied to a grid field."""
    return _on_grid(np.fft.rfft2(f) * grid._inv_lap, grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(N=48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(N=8)
    with pytest.raises(ValueError):
        Grid(N=64, L=0.0)


def test_poisson_on_laplacian_eigenfunctions():
    X, Y = _mesh(PI_GRID)
    assert_allclose(_poisson(np.cos(X), PI_GRID), -np.cos(X), atol=1e-13)
    assert_allclose(_poisson(np.zeros_like(X), PI_GRID), 0.0, atol=0)
    assert_allclose(_poisson(np.sin(X) + np.sin(Y), PI_GRID), -np.sin(X) - np.sin(Y), atol=1e-13)


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
    phi = _poisson(f, grid)
    k2 = grid._kx**2 + grid._ky**2
    lap = np.fft.irfft2(-k2 * np.fft.rfft2(phi), s=(grid.N, grid.N))
    assert np.max(np.abs(lap - f)) < 1e-10 * max(1.0, np.max(np.abs(f)))


def test_riesz_single_mode():
    # the kernels are R_11 - R_22 and R_12 + R_21 = 2 R_12
    X, Y = _mesh(PI_GRID)
    r1, r2 = _on_grid(_kernel_spectra(np.cos(X), 1.0, PI_GRID), PI_GRID)
    assert_allclose(r1, np.cos(X), atol=1e-13)
    assert_allclose(r2, 0.0, atol=1e-13)
    r1, r2 = _on_grid(_kernel_spectra(np.cos(X + Y), 1.0, PI_GRID), PI_GRID)
    assert_allclose(r1, 0.0, atol=1e-13)
    assert_allclose(r2, np.cos(X + Y), atol=1e-13)


def test_riesz_trace_identity():
    # (R_11 - R_22)^2 + (2 R_12)^2 = (R_11 + R_22)^2, and R_11 + R_22 is the
    # identity minus the mean
    rng = np.random.default_rng(2)
    h = rng.standard_normal((64, 64))
    total = _on_grid(np.sum(PI_GRID._riesz**2, axis=0) * np.fft.rfft2(h), PI_GRID)
    assert np.max(np.abs(total - (h - h.mean()))) < 1e-12


def test_force_kernels_on_single_mode():
    X, _ = _mesh(PI_GRID)
    rho = 1.0 + np.cos(X)
    spec = _kernel_spectra(rho, ATTRACTIVE_UNIT.k, PI_GRID)
    assert_allclose(_on_grid(spec[0], PI_GRID), -np.cos(X), atol=1e-13)
    assert_allclose(_on_grid(spec[1], PI_GRID), 0.0, atol=1e-13)
    f1, f2 = eval_point(spec, PI_GRID, (0.4, -1.1))
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
    spec = _kernel_spectra(rho, -1.0, grid)
    f1, f2 = _on_grid(spec, grid)
    for i, j in [(0, 0), (5, 17), (16, 16), (31, 3)]:
        x = (grid.x[i], grid.x[j])
        assert eval_point(np.fft.rfft2(rho), grid, x) == pytest.approx(rho[i, j], abs=1e-15)
        assert_allclose(eval_point(spec, grid, x), (f1[i, j], f2[i, j]), rtol=0, atol=1e-15)


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
    rho = make_density(grid, [Blob("gaussian", 0.015, (0.0, 0.0), 1.0)])
    spec = _kernel_spectra(rho, -1.0, grid)
    for x in [(0.7, -0.3), (1.5, 0.9)]:
        got = eval_point(spec, grid, x)
        want = _kernel_quadrature(np.array(x), 0.015, -1.0)
        assert got[0] == pytest.approx(want[0], rel=5e-3)
        assert got[1] == pytest.approx(want[1], rel=5e-3)


def test_force_kernels_vanish_at_radial_center():
    grid = Grid(N=64, L=10.0)
    rho = make_density(grid, [Blob("gaussian", 0.015, (0.0, 0.0), 1.0)])
    f1, f2 = eval_point(_kernel_spectra(rho, -1.0, grid), grid, (0.0, 0.0))
    assert abs(f1) < 1e-12 and abs(f2) < 1e-12
    rho_flat = np.full_like(rho, 0.03)
    f1, f2 = eval_point(_kernel_spectra(rho_flat, -1.0, grid), grid, (1.0, 2.0))
    assert f1 == 0.0 and f2 == 0.0


def test_step_preserves_equilibrium_exactly():
    grid = Grid(N=32, L=5.0)
    rho = np.full((32, 32), 0.3)
    u = np.zeros((2, 32, 32))
    hat = _spectrum(rho, u)
    hat2, fields = step_ep(hat, PhysicalParams(k=-1.0, c_b=0.3), grid, 0.01)
    assert np.array_equal(hat2, hat)
    assert np.array_equal(fields[0], rho)
    assert np.array_equal(fields[1:], u)


_ONE_D = ("fft", "ifft", "rfft", "irfft")


def _counted_passes(monkeypatch):
    """Patch numpy's FFTs to log each call as ``(name, fields, columns)``.

    ``fields`` is the number of stacked 2D fields a call transforms and
    ``columns`` the half-axis columns of a pass down them (``axis=-2``), else
    None.
    """
    log = []

    def counted(name):
        fft = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            cols = np.shape(a)[-1] if kwargs.get("axis") == -2 else None
            log.append((name, math.prod(np.shape(a)[:-2]), cols))
            return fft(a, *args, **kwargs)

        return wrapper

    for name in (*_ONE_D, "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, counted(name))
    return log


def _passes(log):
    """1-D passes over whole fields: one per field for a 1-D call, two for a 2D call."""
    return sum(fields * (1 if name in _ONE_D else 2) for name, fields, _ in log)


def test_step_keeps_the_stage_state_in_half_spectra(monkeypatch):
    # 1-D passes per field: per stage the three dealiased fields and the
    # vorticity out and five products in, two passes each, over the seven
    # stages of a step not handed its first slope, then the new state out
    # once for its checks: 7 * 18 + 6.  The stage passes down the columns
    # run on the N//3 + 1 kept columns; only the new state's run on all
    grid = Grid(N=32, L=10.0)
    cfg = example_config("5.2", grid=grid)
    hat = _spectrum(make_density(grid, cfg.blobs), 0.01 * np.stack(grid.mesh))
    log = _counted_passes(monkeypatch)
    step_ep(hat, cfg.params, grid, 0.05, frame=ComovingFrame.for_params(cfg.params), t=1.0)
    assert _passes(log) == 132
    columns = [(fields, cols) for _, fields, cols in log if cols is not None]
    assert columns == 7 * [(4, 11), (5, 11)] + [(3, 17)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_a_non_finite_spectrum(bad):
    grid = Grid(N=16, L=5.0)
    hat = _spectrum(np.full((16, 16), 0.3), np.zeros((2, 16, 16)))
    hat[1, 2, 3] = bad
    with pytest.raises(InvalidStateError, match="the spectrum contains non-finite values"):
        step_ep(hat, PhysicalParams(), grid, 1e-3)


def test_negative_density_warning_and_error():
    grid = Grid(N=32, L=5.0)
    u = np.zeros((2, 32, 32))
    dip = np.full((32, 32), 1e-9)
    dip[5, 7] = -5e-8  # inside the warning band
    with pytest.warns(PositivityWarning):
        step_ep(_spectrum(dip, u), PhysicalParams(), grid, 1e-6)
    dip[5, 7] = -2e-4  # beyond the escalation threshold
    with pytest.raises(PositivityError):
        step_ep(_spectrum(dip, u), PhysicalParams(), grid, 1e-6)


def test_records_between_step_ends_check_positivity(monkeypatch):
    # from rest the run's one step ends on t_end = 0.5 with a positive
    # density; only the norm sample at 0.25 reads the continuous extension,
    # whose density is scaled here by a negative factor
    def dipping(factor):
        def extend(y, stages, h, theta):
            state = _extend(y, stages, h, theta)
            state[0] *= factor
            return state

        return extend

    cfg = example_config("5.2", grid=Grid(N=16, L=10.0), t_end=0.5, norm_cadence=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(run_example(cfg).norms.t) == [0.0, 0.25, 0.5]
    monkeypatch.setattr(simulate, "_extend", dipping(-1e-6))  # about -2e-8
    with pytest.warns(PositivityWarning):
        run_example(cfg)
    monkeypatch.setattr(simulate, "_extend", dipping(-1.0))
    with pytest.raises(PositivityError):
        run_example(cfg)


def test_continuous_extension_is_scipys_and_ends_on_the_step():
    from scipy.integrate._ivp.rk import RK45

    assert np.array_equal(np.array(_DENSE), RK45.P)
    grid = Grid(N=32, L=10.0)
    cfg = example_config("5.2", grid=grid)
    frame = ComovingFrame.for_params(cfg.params)
    hat = _spectrum(make_density(grid, cfg.blobs), np.zeros((2, 32, 32)))
    k = np.empty((7, *hat.shape), dtype=complex)
    work = spectral.WorkSet(grid)
    spectral._rhs(hat, cfg.params, grid, *frame.scale(1.0), work, k[0])
    new, _ = step_ep(hat, cfg.params, grid, 0.5, frame=frame, t=1.0, k=k, work=work)
    assert np.array_equal(_extend(hat, k, 0.5, 0.0), hat)
    assert np.max(np.abs(_extend(hat, k, 0.5, 1.0) - new)) <= 1e-15 * np.max(np.abs(new))


def test_mass_conserved_over_thousand_steps():
    grid = Grid(N=64, L=10.0)
    cfg = example_config("5.1", grid=grid)
    rho = make_density(grid, cfg.blobs)
    hat = _spectrum(rho, np.zeros((2, 64, 64)))
    mean0 = rho.mean()
    for _ in range(1000):
        hat, fields = step_ep(hat, cfg.params, grid, 5e-4)
    assert abs(fields[0].mean() - mean0) / mean0 < 1e-12


def test_temporal_convergence_is_fifth_order():
    # 5.3 at t = 5 moves fast enough that the smallest local error here is
    # about 3.5e3 ulps of the fields' maximum, and its steps are in the
    # asymptotic range (measured orders 6.04 and 6.01)
    grid = Grid(N=64, L=10.0)
    cfg = example_config("5.3", grid=grid)
    hat = _spectrum(make_density(grid, cfg.blobs), np.zeros((2, 64, 64)))
    for _ in range(25):  # move off the rest state first
        hat, fields = step_ep(hat, cfg.params, grid, 0.2)
    errs = []
    for dt in (0.8, 0.4, 0.2):
        _, one = step_ep(hat, cfg.params, grid, dt)
        half, _ = step_ep(hat, cfg.params, grid, dt / 2)
        _, two = step_ep(half, cfg.params, grid, dt / 2)
        errs.append(np.max(np.abs(one - two)))
    assert errs[-1] > 1e3 * np.finfo(float).eps * np.max(np.abs(fields))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # local error of a 5th-order step scales like dt^6
    assert np.all(orders > 5.5) and np.all(orders < 6.5)


def test_diagnostics_values():
    grid = Grid(N=32, L=5.0)
    rho = np.full((32, 32), 0.2)
    assert diagnostics(rho, np.fft.rfft2(rho), grid) == (0.2, 0.0, 0.0)
    X, _ = _mesh(PI_GRID)
    rho = 1.0 + np.cos(X)
    sup = diagnostics(rho, np.fft.rfft2(rho), PI_GRID)
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
    cfg = example_config("5.3", grid=grid, t_end=0.1, dt_max=0.05, norm_cadence=0.1)
    hat = _spectrum(make_density(grid, cfg.blobs), np.zeros((2, grid.N, grid.N)))
    for _ in range(2):
        hat, fields = step_ep(hat, cfg.params, grid, 0.05)
    res = run_example(cfg)
    assert np.array_equal(res.final.rho, fields[0]) and np.array_equal(res.final.u, fields[1:])
    assert (res.final.a, res.final.H) == (1.0, 0.0)


def test_run_steps_keep_the_cfl_bound(monkeypatch):
    # a fraction small enough that the bound, not dt_max, sets most steps
    monkeypatch.setattr(spectral, "_CFL", 1e-4)
    steps = []

    def recording(hat, params, grid, dt, *, frame, t, k, work):
        steps.append((hat, dt, frame.scale(t)[0]))
        return step_ep(hat, params, grid, dt, frame=frame, t=t, k=k, work=work)

    monkeypatch.setattr(simulate, "step_ep", recording)
    # the first step, from rest, is bounded by dt_max alone; at the default
    # 0.5 it would be the whole run
    cfg = example_config("5.2", grid=Grid(N=16, L=10.0), t_end=0.5, dt_max=0.1)
    run_example(cfg)
    bounds = []
    for hat, dt, a in steps:
        umax = np.max(np.abs(np.fft.irfft2(hat[1:], s=(16, 16))))
        bound = spectral._CFL * cfg.grid.dx * a / umax if umax > 0.0 else math.inf
        assert dt <= bound * (1.0 + 1e-12)
        bounds.append(bound)
    assert sum(b < cfg.dt_max for b in bounds) > len(steps) // 2


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        example_config("9.9")
