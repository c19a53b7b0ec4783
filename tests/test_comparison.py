import math

import numpy as np
import pytest

from epriccati import (
    AuxState3,
    CallbackCoefficient,
    ConstantCoefficient,
    ExponentialEnvelope,
    IntegratorOptions,
    PhysicalParams,
    Region,
    State2,
    TabulatedCoefficient,
    TerminalStatus,
    certify_global,
    d_upper_bound,
    ep_system,
    in_certified_interior,
    integrate,
    integrate_fixed_oracle,
    run_coupled,
)
from epriccati import comparison
from epriccati.comparison import check_envelope, coupled_system
from epriccati.errors import AdmissibilityError

ENVELOPE = ExponentialEnvelope(1.0, 1.0)


def test_coupled_ordering_holds_under_envelope_coefficient():
    run = run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), ENVELOPE, t_end=10.0)
    assert run.status is TerminalStatus.REACHED_HORIZON
    assert run.ordering_ok
    assert run.min_d_gap > 0 and run.min_a_gap > 0 and run.min_rho > 0


def test_coupled_ordering_holds_for_zero_coefficient():
    run = run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), ConstantCoefficient(0.0), t_end=10.0)
    assert run.ordering_ok


def test_coupled_ordering_confirmed_by_fixed_step_oracle():
    system = coupled_system(ENVELOPE, PhysicalParams())
    traj = integrate_fixed_oracle(system, np.array([0.2, 0.8, 0.25, 0.75, 1.0]), 1e-3, 10.0)
    assert np.all(traj.y[:, 1] - traj.y[:, 3] > 0)  # d > b
    assert np.all(traj.y[:, 2] - traj.y[:, 0] > 0)  # a > rho
    assert np.all(traj.y[:, 0] > 0)


def test_strict_initial_ordering_required():
    with pytest.raises(AdmissibilityError):
        run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.8, 1.0), ENVELOPE, 10.0)
    with pytest.raises(AdmissibilityError):
        run_coupled(State2(0.25, 0.8), AuxState3(0.25, 0.5, 1.0), ENVELOPE, 10.0)


def test_envelope_violation_is_an_error():
    with pytest.raises(AdmissibilityError):
        run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), ConstantCoefficient(-100.0), 10.0)
    with pytest.raises(AdmissibilityError):
        check_envelope(ConstantCoefficient(0.5), 2.0, gamma=0.1)
    # NaN compares false with the bound, so it must not pass as inside
    nan_on_gap = CallbackCoefficient(lambda t: np.where((t > 1.0) & (t < 1.5), np.nan, -0.5))
    for model in (ConstantCoefficient(math.nan), nan_on_gap):
        with pytest.raises(AdmissibilityError, match="A=nan"):
            check_envelope(model, 2.0)
    check_envelope(ConstantCoefficient(-1.0), 5.0)  # sits exactly on the envelope at t=0
    check_envelope(CallbackCoefficient(lambda t: -0.5 * np.exp(t)), 2.0)  # sampled path


def test_envelope_spike_between_samples_is_an_error():
    # a dip below -e^t on (0.5003, 0.5005), narrower than a 1e-3 sample spacing
    times = [0.0, 0.5003, 0.5004, 0.5005, 10.0]
    values = [-0.5, -0.5, -3.0, -0.5, -0.5]
    with pytest.raises(AdmissibilityError, match="t=0.5004"):
        check_envelope(TabulatedCoefficient(times, values), 10.0)


def test_envelope_checks_are_exact_for_closed_form_models():
    # A + e^t dips below zero only inside a segment, around t = ln(-slope)
    with pytest.raises(AdmissibilityError, match="t=1.09861"):
        check_envelope(TabulatedCoefficient([0.0, 2.0], [-0.9, -6.9]), 2.0)
    check_envelope(TabulatedCoefficient([0.0, 2.0], [-0.5, -4.5]), 2.0)
    # the exponential leaves the envelope only at the far end of the horizon
    check_envelope(ExponentialEnvelope(0.9, 1.05), 2.1)
    with pytest.raises(AdmissibilityError, match="t=2.2"):
        check_envelope(ExponentialEnvelope(0.9, 1.05), 2.2)
    # a clamp below -1 leaves the envelope at t = 0; a clamp above gamma fails
    with pytest.raises(AdmissibilityError):
        check_envelope(ExponentialEnvelope(0.5, 2.0, upper_clamp=-1.5), 1.0)
    with pytest.raises(AdmissibilityError):
        check_envelope(TabulatedCoefficient([0.0, 3.0], [-0.5, 0.2]), 3.0, gamma=0.1)
    check_envelope(TabulatedCoefficient([0.0, 3.0], [-0.5, 0.2], upper_clamp=0.1), 3.0, gamma=0.1)

def test_blow_up_returns_partial_coupled_run():
    # an out-of-envelope-region primary trajectory blows up; the run reports it
    run = run_coupled(State2(0.5, 0.1), AuxState3(0.55, 0.05, 1.0), ENVELOPE, t_end=20.0)
    assert run.status is TerminalStatus.BLOW_UP
    assert run.blow_up_bracket is not None
    assert len(run.t) > 1


def test_divergence_bound_values():
    assert d_upper_bound(1.0, 0.0, 0.0) == pytest.approx(math.sqrt(2.0))
    assert d_upper_bound(1.0, 0.0, 5.0) == 5.0
    assert d_upper_bound(2.0, 4.0, 0.0) == pytest.approx(math.sqrt(30.0))
    with pytest.raises(ValueError):
        d_upper_bound(0.0, 1.0, 0.0)


def test_certificate_for_interior_point():
    cert = certify_global(0.25, 0.75, ENVELOPE, t_verify=10.0)
    assert cert is not None
    assert cert.epsilon >= 2.0**-5
    assert cert.shifted_region is Region.OMEGA_T
    assert cert.rho_sup < 0.5
    assert cert.d_min > -0.5


def test_no_certificate_outside():
    assert certify_global(0.5, 0.1, ENVELOPE) is None
    assert certify_global(0.0, 0.75, ENVELOPE) is None  # vacuum start refused
    assert certify_global(0.45, 0.0, ENVELOPE) is None  # no ladder rung lands inside
    # the shift lands, but the coupled run stops at the table's end, short of t_verify
    short = TabulatedCoefficient([0.0, 2.0], [-1.0, -3.0])
    assert certify_global(0.25, 0.75, short, t_verify=10.0) is None


def test_ladder_skips_shifts_that_round_away():
    assert comparison._ladder_epsilon(0.25, 0.75) == 0.125
    # every rung's shift is below half an ulp of d0, or of rho0 after the
    # rung that would reach rho = 1/2, so the ordering would not be strict
    for rho0, d0 in [(0.3, 1e16), (0.3, 1e300), (0.49999999999999994, 0.6)]:
        assert comparison._ladder_epsilon(rho0, d0) is None
        assert certify_global(rho0, d0, ENVELOPE) is None


def test_certify_global_checks_the_envelope_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_envelope(*args, **kwargs)

    monkeypatch.setattr(comparison, "check_envelope", counted)
    assert certify_global(0.25, 0.75, ENVELOPE, t_verify=2.0) is not None
    assert len(calls) == 1
    calls.clear()
    assert certify_global(0.45, 0.0, ENVELOPE, t_verify=2.0) is None
    assert len(calls) == 1
    # with no run to check it, a bad coefficient is still refused
    with pytest.raises(AdmissibilityError):
        certify_global(0.45, 0.0, ConstantCoefficient(-100.0))


def test_boundary_probe_is_deterministic():
    # the first ladder rung whose shift lands strictly inside is eps = scale / 4
    cert = certify_global(0.49999, 0.5, ENVELOPE, t_verify=5.0)
    assert cert is not None
    scale = min(0.5 - 0.49999, 1.0)
    assert cert.epsilon == scale * 0.25
    again = certify_global(0.49999, 0.5, ENVELOPE, t_verify=5.0)
    assert again.epsilon == cert.epsilon


def test_repulsive_forcing_refused():
    with pytest.raises(AdmissibilityError):
        certify_global(0.25, 0.75, ENVELOPE, params=PhysicalParams(k=1.0, c_b=0.0))
    with pytest.raises(AdmissibilityError):
        certify_global(0.25, 0.75, ENVELOPE, params=PhysicalParams(k=-2.0, c_b=1.0))


def test_certified_points_never_blow_up():
    rng = np.random.default_rng(5)
    system = ep_system(ENVELOPE, PhysicalParams())
    opts = IntegratorOptions(t_end=20.0)
    certified = 0
    while certified < 15:
        rho0 = rng.uniform(0.02, 0.48)
        d0 = rng.uniform(-0.45, 1.5)
        if not in_certified_interior(rho0, d0):
            continue
        cert = certify_global(rho0, d0, ENVELOPE, t_verify=5.0)
        assert cert is not None, (rho0, d0)
        traj = integrate(system, np.array([rho0, d0]), opts, dense=False)
        assert traj.status is TerminalStatus.REACHED_HORIZON, (rho0, d0)
        assert np.all(traj.y[:, 0] < 0.5)
        assert np.all(traj.y[:, 0] > 0.0)
        assert np.all(traj.y[:, 1] > -0.5 - 1e-6)
        gamma = ENVELOPE.upper_clamp or 0.0
        assert np.all(traj.y[:, 1] <= d_upper_bound(0.5, gamma, d0) + 1e-6)
        certified += 1


def test_stacked_system_matches_component_systems():
    from epriccati import aux_system, eval_rhs_aux, eval_rhs_ep
    from epriccati.riccati import AuxState3 as Aux
    from epriccati.riccati import State2 as St

    rng = np.random.default_rng(9)
    system = coupled_system(ENVELOPE, PhysicalParams())
    states = np.column_stack(
        [
            rng.uniform(0.01, 1.0, 30),  # rho
            rng.uniform(-2.0, 2.0, 30),  # d
            rng.uniform(0.01, 1.0, 30),  # a
            rng.uniform(-2.0, 2.0, 30),  # b
            rng.uniform(1.0, 100.0, 30),  # B
        ]
    )
    times = rng.uniform(0.0, 3.0, 30)
    out = system.rhs(times, states)
    for i in range(30):
        ep_ref = eval_rhs_ep(St(*states[i, :2]), times[i], ENVELOPE, PhysicalParams())
        aux_ref = eval_rhs_aux(Aux(*states[i, 2:]))
        np.testing.assert_allclose(out[i, :2], [ep_ref.rho_dot, ep_ref.d_dot], rtol=1e-14)
        np.testing.assert_allclose(
            out[i, 2:], [aux_ref.a_dot, aux_ref.b_dot, aux_ref.B_dot], rtol=1e-14
        )
    # the stacked system is the two batched systems side by side, bit for bit
    ep_out = ep_system(ENVELOPE, PhysicalParams()).rhs(times, states[:, :2])
    assert np.array_equal(out[:, :2], ep_out)
    assert np.array_equal(out[:, 2:], aux_system().rhs(times, states[:, 2:]))


def test_coupled_run_stops_at_coefficient_domain_end():
    model = TabulatedCoefficient([0.0, 2.0], [-1.0, -3.0])
    run = run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), model, t_end=10.0)
    assert run.status is TerminalStatus.COEFFICIENT_DOMAIN_END
    assert run.t[-1] == 2.0
    assert run.ordering_ok


def test_random_tabulated_coefficients_preserve_ordering():
    rng = np.random.default_rng(17)
    t_knots = np.arange(0.0, 10.0 + 1e-9, 0.1)
    lower = -0.9 * np.exp(t_knots)  # linear interpolation then stays above -e^t
    done = 0
    while done < 10:
        a0 = rng.uniform(0.05, 0.45)
        b0 = rng.uniform(a0 - 0.5 + 0.02, 0.5)
        if not in_certified_interior(a0, b0):
            continue
        rho0 = a0 * rng.uniform(0.2, 0.9)
        d0 = b0 + rng.uniform(0.05, 0.5)
        values = lower * rng.uniform(0.0, 1.0, size=len(t_knots)) + rng.uniform(0.0, 0.3)
        model = TabulatedCoefficient(t_knots, values)
        run = run_coupled(State2(rho0, d0), AuxState3(a0, b0, 1.0), model, t_end=10.0)
        assert run.ordering_ok, (a0, b0, rho0, d0)
        done += 1
