"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every criterion line.
Tolerances are pinned here and nowhere else; they are not calibration knobs.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import qmc

from epriccati import (
    AuxState3,
    ExponentialEnvelope,
    IntegratorOptions,
    PhysicalParams,
    Region,
    State2,
    TabulatedCoefficient,
    TerminalStatus,
    aux_system,
    classify,
    d_upper_bound,
    ep_system,
    in_certified_interior,
    in_omega0,
    in_omega_B,
    in_omega_M,
    integrate,
    integrate_batch,
    run_coupled,
    s1_flux,
    s2_flux,
    t_star,
    t_star_star,
)
from epriccati.simulate import example_config, run_example
from epriccati.spectral import (
    Grid,
    diagnostics,
    make_density,
    step_ep,
)
from epriccati.tracing import trace_characteristic

ENVELOPE = ExponentialEnvelope(1.0, 1.0)
ATTRACTIVE = PhysicalParams()
SQRT2 = math.sqrt(2.0)


def _report(name, checks):
    """Print one line for the criterion; fail the test if any check failed."""
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    status = "FAIL" if failed else "PASS"
    detail = "; ".join(f"{label}[{'ok' if ok else 'FAIL'}] {d}" for label, ok, d in checks)
    print(f"{name}: {status} -- {detail}")
    assert not failed, f"{name}: " + " | ".join(failed)


def test_criterion_1_region_certification_soundness():
    rho_values = np.linspace(0.01, 1.2, 60)
    d_values = np.linspace(-1.0, 2.0, 60)
    grid_r, grid_d = np.meshgrid(rho_values, d_values, indexing="ij")
    inits = np.stack([grid_r.ravel(), grid_d.ravel()], axis=1)

    start = time.perf_counter()
    result = integrate_batch(ep_system(ENVELOPE, ATTRACTIVE), inits, IntegratorOptions(t_end=20.0))
    elapsed = time.perf_counter() - start

    inside = np.array([classify(r, d) is not Region.OUTSIDE for r, d in inits])
    reached = np.array(
        [result.terminal_status(i) is TerminalStatus.REACHED_HORIZON for i in range(len(inits))]
    )
    violations = int(np.sum(inside & ~reached))
    _report(
        "criterion 1 (sweep soundness)",
        [
            ("inside-points-global", violations == 0,
             f"{int(inside.sum())} certified points, {violations} blow-ups"),
            ("runtime", elapsed <= 120.0, f"{elapsed:.1f}s (limit 120s)"),
        ],
    )


def test_criterion_2_phase_portrait_reproduction():
    system = ep_system(ENVELOPE, ATTRACTIVE)
    opts = IntegratorOptions(t_end=20.0)

    blow = integrate(system, np.array([0.5, 0.1]), opts)
    lo, hi = blow.blow_up_bracket or (math.nan, math.nan)
    blow_ok = (
        blow.status is TerminalStatus.BLOW_UP
        and math.isfinite(lo)
        and math.isfinite(hi)
        and lo < hi
        and blow.final_state[1] < -1e6
        and blow.final_state[0] > 1e6
    )

    interior_points = [(0.25, 0.75), (0.1, 0.3), (0.4, 0.45), (0.1, -0.1), (0.3, 1.5), (0.45, 0.49)]
    worst_d = worst_rho = 0.0
    all_global = True
    for point in interior_points:
        assert in_certified_interior(*point)
        traj = integrate(system, np.array(point), opts)
        all_global &= traj.status is TerminalStatus.REACHED_HORIZON
        worst_d = max(worst_d, abs(traj.final_state[1] - SQRT2))
        worst_rho = max(worst_rho, traj.final_state[0])
    _report(
        "criterion 2 (phase portrait)",
        [
            ("blow-up-from-(0.5,0.1)", blow_ok, f"bracket [{lo:.6g}, {hi:.6g}]"),
            ("interior-converge", all_global and worst_d < 0.05 and worst_rho < 1e-4,
             f"max |d(20)-sqrt2| = {worst_d:.3g}, max rho(20) = {worst_rho:.3g}"),
        ],
    )


def _surface_bound(a):
    return 0.5 * (1.0 / a**2 - 1.0 / a)


def test_criterion_3_invariant_space():
    rng = np.random.default_rng(20240817)
    opts = IntegratorOptions(t_end=10.0)

    # 100 starts strictly inside the invariant space stay there to t = 10
    stays = 0
    margin_fail = None
    for _ in range(100):
        a0 = rng.uniform(0.05, 0.36)
        bound = _surface_bound(a0)
        b0 = rng.uniform(0.55, 2.5)
        big_b0 = rng.uniform(1.0, max(1.0 + 1e-6, 0.95 * bound))
        assert in_omega0(AuxState3(a0, b0, big_b0))
        traj = integrate(aux_system(), np.array([a0, b0, big_b0]), opts)
        ok = all(
            in_omega0(AuxState3(a, b, B), slack=1e-8) for a, b, B in traj.y
        )
        stays += ok
        if not ok and margin_fail is None:
            margin_fail = (a0, b0, big_b0)

    # flux signs on sampled boundary points (the surface needs B >= 1,
    # which restricts a to (0, (sqrt(3)-1)/2])
    a_max = (math.sqrt(3.0) - 1.0) / 2.0
    a_s1 = rng.uniform(0.005, a_max, 10_000)
    b_s1 = rng.uniform(0.5, 10.0, 10_000)
    s1_vals = np.array(
        [s1_flux(AuxState3(a, b, _surface_bound(a))) for a, b in zip(a_s1, b_s1)]
    )
    a_s2 = rng.uniform(0.005, a_max, 10_000)
    B_s2 = np.array([rng.uniform(1.0, _surface_bound(a)) for a in a_s2])
    s2_vals = np.array(
        [s2_flux(AuxState3(a, 0.5, B)) for a, B in zip(a_s2, B_s2)]
    )
    s2_lower = 0.375 - 0.5 * a_s2

    _report(
        "criterion 3 (invariant space)",
        [
            ("interior-starts-stay", stays == 100, f"{stays}/100 stayed (first failure: {margin_fail})"),
            ("s1-flux-positive", bool(np.all(s1_vals > 0)), f"min {s1_vals.min():.3g} over 10^4 points"),
            ("s2-flux-bound", bool(np.all(s2_vals >= s2_lower - 1e-12)),
             f"min margin {np.min(s2_vals - s2_lower):.3g}"),
        ],
    )


def test_criterion_4_comparison_principle():
    rng = np.random.default_rng(7111)
    t_knots = np.arange(0.0, 10.0 + 1e-9, 0.1)
    envelope_floor = -0.9 * np.exp(t_knots)  # knot cap keeping the interpolant above -e^t

    runs = 0
    ordering_bad = bounds_bad = dbound_bad = 0
    while runs < 200:
        a0 = rng.uniform(0.02, 0.48)
        b0 = rng.uniform(a0 - 0.5 + 0.02, 2.0)
        if not in_certified_interior(a0, b0):
            continue
        rho0 = a0 * rng.uniform(0.15, 0.95)
        d0 = b0 + rng.uniform(0.02, 0.8)
        values = envelope_floor * rng.uniform(0.0, 1.0, len(t_knots)) + rng.uniform(0.0, 0.3)
        model = TabulatedCoefficient(t_knots, values)
        run = run_coupled(State2(rho0, d0), AuxState3(a0, b0, 1.0), model, t_end=10.0)

        if not (run.ordering_ok and run.status is TerminalStatus.REACHED_HORIZON):
            ordering_bad += 1
        a_t, b_t = run.aux[:, 0], run.aux[:, 1]
        b_cap = max(abs(b0), SQRT2)
        if not (
            np.all(a_t <= 0.5 + 1e-6)
            and np.all(a_t > 0)
            and np.all(b_t >= -0.5 - 1e-6)
            and np.all(b_t <= b_cap + 1e-6)
        ):
            bounds_bad += 1
        gamma = max(0.0, float(values.max()))
        if not np.all(run.ep[:, 1] <= d_upper_bound(0.5, gamma, d0) + 1e-6):
            dbound_bad += 1
        runs += 1

    _report(
        "criterion 4 (comparison principle)",
        [
            ("ordering", ordering_bad == 0, f"{ordering_bad}/200 runs violated b<d, rho<a"),
            ("aux-bounds", bounds_bad == 0, f"{bounds_bad}/200 runs violated a/b confinement"),
            ("d-bound", dbound_bad == 0, f"{dbound_bad}/200 runs violated the divergence cap"),
        ],
    )


def _reconstructed_inside(rho, d):
    """Union membership written out from the closed forms of the regions docstring."""
    if not 0.0 < rho < 0.5:
        return False
    if d >= 0.5:  # OmegaT
        return True
    if 0.0 < d:  # OmegaM, strict
        window = math.log((1.0 / (rho * rho) - 1.0 / rho) / 2.0)
        return (0.5 - d) / (3.0 / 8.0 - rho / 2.0) < window
    if rho - 0.5 < d < 0.0:  # OmegaB, non-strict
        s = rho - d
        window = math.log((1.0 / (s * s) - 1.0 / s) / 2.0)
        return (0.5 - d) / (3.0 / 8.0 - s / 2.0) <= window
    return False


def test_criterion_5_region_formula_oracle_equivalence():
    sampler = qmc.Halton(d=2, seed=99)
    pts = sampler.random(10_000)
    rho = 0.001 + pts[:, 0] * (0.7 - 0.001)
    d = -0.7 + pts[:, 1] * (1.2 + 0.7)
    disagreements = sum(
        (classify(r, dd) is not Region.OUTSIDE) != _reconstructed_inside(r, dd)
        for r, dd in zip(rho, d)
    )
    t1 = abs(t_star(0.1) - math.log(45.0)) / math.log(45.0)
    t2 = abs(t_star_star(0.1, -0.1) - math.log(10.0)) / math.log(10.0)
    _report(
        "criterion 5 (formula equivalence)",
        [
            ("classifier-vs-reconstruction", disagreements == 0, f"{disagreements}/10000 disagreements"),
            ("escape-time-spot-values", t1 < 1e-12 and t2 < 1e-12, f"rel errs {t1:.2e}, {t2:.2e}"),
        ],
    )


def test_criterion_6_spectral_operator_identities():
    grid = Grid(N=128, L=10.0)
    rng = np.random.default_rng(3)

    # the solver's kernels R_11 - R_22 and 2 R_12: their squares sum to
    # (R_11 + R_22)^2, the identity minus the mean
    h = rng.standard_normal((grid.N, grid.N))
    squares = np.fft.irfft2(np.sum(grid._riesz**2, axis=0) * np.fft.rfft2(h), s=(grid.N, grid.N))
    trace_err = float(np.max(np.abs(squares - (h - h.mean()))))

    spectrum = np.zeros((grid.N, grid.N // 2 + 1), dtype=complex)
    m = np.fft.fftfreq(grid.N, 1.0 / grid.N)
    band = (np.abs(m[:, None]) <= 30) & (m[None, : grid.N // 2 + 1] <= 30)
    spectrum[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    f = np.fft.irfft2(spectrum, s=(grid.N, grid.N))
    f -= f.mean()
    k2 = grid._kx**2 + grid._ky**2
    phi = np.fft.irfft2(np.fft.rfft2(f) * grid._inv_lap, s=(grid.N, grid.N))
    lap = np.fft.irfft2(-k2 * np.fft.rfft2(phi), s=(grid.N, grid.N))
    poisson_err = float(np.max(np.abs(lap - f)) / np.max(np.abs(f)))

    cfg = example_config("5.1", grid=grid)
    rho = make_density(grid, cfg.blobs)
    hat = np.fft.rfft2(np.stack([rho, np.zeros_like(rho), np.zeros_like(rho)]))
    mean0 = rho.mean()
    for _ in range(1000):
        hat, fields = step_ep(hat, cfg.params, grid, 5e-3)
    mass_drift = abs(fields[0].mean() - mean0) / mean0

    grid64 = Grid(N=64, L=10.0)
    cfg64 = example_config("5.1", grid=grid64)
    r0 = make_density(grid64, cfg64.blobs)
    hat0 = np.fft.rfft2(np.stack([r0, np.zeros_like(r0), np.zeros_like(r0)]))
    for _ in range(5):
        hat0, _ = step_ep(hat0, cfg64.params, grid64, 0.2)
    errs = []
    for dt in (0.4, 0.2, 0.1):
        _, one = step_ep(hat0, cfg64.params, grid64, dt)
        half, _ = step_ep(hat0, cfg64.params, grid64, dt / 2)
        _, two = step_ep(half, cfg64.params, grid64, dt / 2)
        errs.append(np.max(np.abs(one - two)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    _report(
        "criterion 6 (spectral identities)",
        [
            ("riesz-trace-identity", trace_err < 1e-12, f"max err {trace_err:.2e}"),
            ("poisson-round-trip", poisson_err < 1e-10, f"rel err {poisson_err:.2e}"),
            ("mass-conservation", mass_drift < 1e-12, f"rel drift {mass_drift:.2e} per 10^3 steps"),
            ("temporal-order", bool(np.all(orders > 4.5)), f"local orders {np.round(orders, 2)}"),
        ],
    )


def _radial_shell_dphi_sup(t, amplitude=0.015, c_b=0.03):
    """Whole-plane ``sup d_x phi`` of scenario 5.1 from Lagrangian radial shells.

    With ``k = -1`` a shell starting at rest at ``r0`` obeys
    ``r'' = c_b r / 2 - m(r0) / (2 pi r)``, where
    ``m(r0) = amplitude pi (1 - exp(-r0^2))`` is the mass it encloses; shells
    do not cross because the mean enclosed density falls with ``r0``, so
    ``sup d_x phi(t) = max_r0 m(r0) / (2 pi r(t, r0))``.
    """
    r0 = np.linspace(0.005, 6.0, 1200)
    mass = amplitude * math.pi * (1.0 - np.exp(-(r0**2)))

    def rhs(_, y):
        r, v = y[: r0.size], y[r0.size :]
        return np.concatenate([v, 0.5 * c_b * r - mass / (2.0 * math.pi * r)])

    sol = solve_ivp(rhs, (t[0], t[-1]), np.concatenate([r0, np.zeros_like(r0)]),
                    t_eval=t, rtol=1e-10, atol=1e-12)
    radii = sol.y[: r0.size]
    assert sol.success and np.all(np.diff(radii, axis=0) > 0)  # no shell crossing
    return np.max(mass[:, None] / (2.0 * math.pi * radii), axis=0)


def test_criterion_7_qualitative_norm_evolution():
    grid = Grid(N=128, L=10.0)

    start = time.perf_counter()
    res1 = run_example(example_config("5.1", grid=grid, t_end=10.0))
    t1 = time.perf_counter() - start
    ns1 = res1.norms
    r_ratios = ns1.rho_sup[1:] / ns1.rho_sup[:-1]
    rho_monotone = bool(np.all(r_ratios <= 1.01))
    shells = _radial_shell_dphi_sup(ns1.t)
    dphi_dev = float(np.max(np.abs(
        (ns1.dphi_dx_sup / ns1.dphi_dx_sup[0]) / (shells / shells[0]) - 1.0)))

    start = time.perf_counter()
    res3 = run_example(example_config("5.3", grid=grid, t_end=10.0))
    t3 = time.perf_counter() - start
    ns3 = res3.norms
    all3 = all(
        bool(np.all(series[1:] / series[:-1] <= 1.01))
        for series in (ns3.rho_sup, ns3.phi_sup, ns3.dphi_dx_sup)
    )

    grid256 = Grid(N=256, L=10.0)
    cfg256 = example_config("5.1", grid=grid256)
    rho256 = make_density(grid256, cfg256.blobs)
    measured = diagnostics(rho256, np.fft.rfft2(rho256), grid256)[2]
    r = np.linspace(1e-8, 30.0, 300_001)
    ring_mass = 0.015 * np.exp(-(r**2)) * 2.0 * math.pi * r
    enclosed = np.concatenate([[0.0], np.cumsum(0.5 * (ring_mass[1:] + ring_mass[:-1]) * np.diff(r))])
    oracle = float(np.max(enclosed / (2.0 * math.pi * r)))
    oracle_rel = abs(measured - oracle) / oracle

    _report(
        "criterion 7 (norm evolution)",
        [
            ("attractive-rho-sup-non-increasing", rho_monotone,
             f"max per-sample ratio {r_ratios.max():.4f} (allowed 1.01); "
             f"rho_sup {ns1.rho_sup[0]:.4g} -> {ns1.rho_sup[-1]:.4g}"),
            ("attractive-dphi-radial-shells", dphi_dev < 0.02,
             f"normalized sup dphi/dx off the shells by up to {dphi_dev:.2%} (allowed 2%); "
             f"shells {shells[0]:.4g} -> {shells[-1]:.4g}"),
            ("repulsive-all-norms-non-increasing", all3, "three norm series checked"),
            ("initial-gradient-oracle", oracle_rel < 0.02,
             f"grid {measured:.4g} vs radial quadrature {oracle:.4g} ({oracle_rel:.2%})"),
            ("runtime", t1 <= 300.0 and t3 <= 300.0, f"{t1:.0f}s and {t3:.0f}s (limit 300s each)"),
        ],
    )


def test_criterion_8_tracer_physics():
    grid = Grid(N=128, L=10.0)
    res2 = run_example(example_config("5.2", grid=grid, t_end=10.0, store_history=True))
    worst_ratio = 0.0
    envelope_ok = True
    for seed in [(1.0, 2.0), (2.5, 2.5), (-2.0, 1.0)]:
        series = trace_characteristic(res2, seed)
        ratio0 = series.omega[0] / series.rho[0]
        worst_ratio = max(worst_ratio, float(np.max(np.abs(series.omega / series.rho - ratio0))))
        envelope_ok &= bool(np.all(series.A >= -np.exp(series.t)))

    res1 = run_example(example_config("5.1", grid=grid, t_end=10.0, store_history=True))
    center = trace_characteristic(res1, (0.0, 0.0))
    center_zeroes = max(
        float(np.max(np.abs(center.omega))),
        float(np.max(np.abs(center.f1))),
        float(np.max(np.abs(center.f2))),
    )

    _report(
        "criterion 8 (tracer physics)",
        [
            ("vorticity-ratio-conserved", worst_ratio < 1e-3, f"max drift {worst_ratio:.2e}"),
            ("center-symmetry-zeroes", center_zeroes < 1e-9, f"max |omega|,|f1|,|f2| = {center_zeroes:.2e}"),
            ("coefficient-envelope", envelope_ok, "A(t) >= -e^t at every sample"),
        ],
    )
