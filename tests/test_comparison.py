import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from epriccati import (
    AuxState3,
    CoefficientModel,
    ConstantCoefficient,
    ExponentialEnvelope,
    IntegratorOptions,
    PhysicalParams,
    Region,
    State2,
    TabulatedCoefficient,
    TerminalStatus,
    aux_system,
    certify_global,
    d_upper_bound,
    ep_system,
    in_certified_interior,
    integrate,
    integrate_fixed_oracle,
    run_coupled,
)
from epriccati import comparison
from epriccati.comparison import check_envelope, coupled_system, within_envelope
from epriccati.errors import AdmissibilityError
from epriccati.integrate import Trajectory

ENVELOPE = ExponentialEnvelope(1.0, 1.0)
SRC = Path(__file__).resolve().parent.parent / "src"


def test_coupled_ordering_holds_under_envelope_coefficient():
    run = run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), ENVELOPE, t_end=10.0)
    assert run.status is TerminalStatus.REACHED_HORIZON
    assert run.ordering_ok
    assert run.min_d_gap > 0 and run.min_a_gap > 0 and run.min_rho > 0


def test_coupled_ordering_holds_for_zero_coefficient():
    run = run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), ConstantCoefficient(0.0), t_end=10.0)
    assert run.ordering_ok


def test_coupled_ordering_confirmed_by_fixed_step_oracle():
    system = coupled_system(ENVELOPE)
    traj = integrate_fixed_oracle(system, np.array([0.2, 0.8, 0.25, 0.75]), 1e-3, 10.0)
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
    # NaN compares false with the bound, so it must not pass as inside
    with pytest.raises(AdmissibilityError, match="A=nan"):
        check_envelope(ConstantCoefficient(math.nan))
    check_envelope(ConstantCoefficient(-1.0))  # sits exactly on the envelope at t=0


@dataclass(frozen=True)
class _HalfEnvelope(CoefficientModel):
    """``-e^t / 2``: inside the envelope, but a model with no exact check."""

    def _raw(self, t):
        return -0.5 * np.exp(t)


@dataclass(frozen=True)
class _DippingConstant(ConstantCoefficient):
    """A constant model in name only: it leaves the envelope near t = 1."""

    def _raw(self, t):
        return np.where(np.abs(t - 1.0) < 0.1, -10.0, self.value_const)


def test_envelope_check_refuses_models_without_an_exact_rule():
    # the endpoint rule holds only where A e^-t is monotone, so it is no fallback
    for model in (_HalfEnvelope(), _DippingConstant(-0.5)):
        with pytest.raises(TypeError, match=type(model).__name__):
            check_envelope(model)


@pytest.mark.parametrize("times", [[1.0, 2.0], [-2.0, -1.0]])
def test_table_that_misses_the_start_is_refused(times):
    # every run starts at t = 0, where such a table cannot be evaluated
    model = TabulatedCoefficient(times, [-1.0, -1.0])
    with pytest.raises(AdmissibilityError, match="does not cover t=0"):
        check_envelope(model)
    with pytest.raises(AdmissibilityError, match="does not cover t=0"):
        certify_global(0.25, 0.75, model)


def test_envelope_predicate_slack_and_nan():
    t = np.array([0.0, 0.0, 0.0, 2.0])
    A = np.array([-1.0, -1.0 - 1e-12, -1.0 - 1e-6, math.nan])
    assert within_envelope(t, A).tolist() == [True, True, False, False]


def test_envelope_spike_between_samples_is_an_error():
    # a dip below -e^t on (0.5003, 0.5005), narrower than a 1e-3 sample spacing
    times = [0.0, 0.5003, 0.5004, 0.5005, 10.0]
    values = [-0.5, -0.5, -3.0, -0.5, -0.5]
    with pytest.raises(AdmissibilityError, match="t=0.5004"):
        check_envelope(TabulatedCoefficient(times, values))


def test_envelope_checks_are_exact_for_closed_form_models():
    # A + e^t dips below zero only inside a segment, around t = ln(-slope)
    with pytest.raises(AdmissibilityError, match="t=1.09861"):
        check_envelope(TabulatedCoefficient([0.0, 2.0], [-0.9, -6.9]))
    check_envelope(TabulatedCoefficient([0.0, 2.0], [-0.5, -4.5]))
    # an exponential with beta > 1 outgrows e^t, so it is refused where it crosses
    # the slackened envelope, ln((1 + 1e-9) / 0.9) / 0.05; none is checked over a horizon
    with pytest.raises(AdmissibilityError, match=r"t=2\.10721 "):
        check_envelope(ExponentialEnvelope(0.9, 1.05))
    check_envelope(ExponentialEnvelope(0.9, 1.0))
    check_envelope(ExponentialEnvelope(1.0, 1.0))


def test_envelope_is_decided_on_the_whole_domain_not_over_t_verify():
    # -0.5 e^{3t} leaves the envelope at t = ln(2) / 2, after the sanity run ends
    with pytest.raises(AdmissibilityError, match=r"t=0\.346574 "):
        certify_global(0.25, 0.75, ExponentialEnvelope(0.5, 3.0), t_verify=0.3)
    # the table dips below -e^t only at its last knot, past the run's horizon
    table = TabulatedCoefficient([0.0, 1.0, 5.0], [-1.0, -2.0, -1000.0])
    with pytest.raises(AdmissibilityError, match=r"t=5:"):
        certify_global(0.25, 0.75, table, t_verify=1.0)


def test_horizon_past_the_worst_case_overflow_is_refused():
    # -B0 e^t overflows float64 past ln(DBL_MAX / B0), 709.78 for B0 = 1
    with pytest.raises(ValueError, match=r"709\.7827") as info:
        certify_global(0.25, 0.75, ENVELOPE, t_verify=710.0)
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError, match=r"708\.6841"):
        run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 3.0), ENVELOPE, t_end=709.0)


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


def test_failed_ordering_gives_no_certificate(monkeypatch):
    real = comparison.run_coupled

    def disordered(*args, **kwargs):
        return replace(real(*args, **kwargs), ordering_ok=False)

    assert certify_global(0.25, 0.75, ENVELOPE, t_verify=2.0) is not None
    monkeypatch.setattr(comparison, "run_coupled", disordered)
    assert certify_global(0.25, 0.75, ENVELOPE, t_verify=2.0) is None


# (rho, d, a, b) samples of a well-ordered coupled run; the middle one is
# replaced to plant a dip
_ORDERED = np.array([[0.2, 0.8, 0.25, 0.75], [0.2, 0.7, 0.25, 0.65], [0.2, 0.8, 0.25, 0.75]])


def _run_on_samples(monkeypatch, middle):
    y = _ORDERED.copy()
    y[1] = middle
    stub = Trajectory(np.array([0.0, 1.0, 2.0]), y, TerminalStatus.REACHED_HORIZON)
    monkeypatch.setattr(comparison, "integrate", lambda system, init, opts: stub)
    return run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), ENVELOPE, t_end=2.0)


@pytest.mark.parametrize(
    "middle, gap",
    [
        ((0.2, 0.7, 0.25, 0.700001), "min_d_gap"),  # d - b dips to -1e-6
        ((-1e-6, 0.7, 0.25, 0.65), "min_rho"),  # rho dips to -1e-6
    ],
    ids=["d-below-b", "rho-below-zero"],
)
def test_small_ordering_dip_is_flagged(monkeypatch, middle, gap):
    assert _run_on_samples(monkeypatch, _ORDERED[1]).ordering_ok
    run = _run_on_samples(monkeypatch, middle)
    assert getattr(run, gap) == pytest.approx(-1e-6, rel=1e-6)
    assert not run.ordering_ok


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
        traj = integrate(system, np.array([rho0, d0]), opts)
        assert traj.status is TerminalStatus.REACHED_HORIZON, (rho0, d0)
        assert np.all(traj.y[:, 0] < 0.5)
        assert np.all(traj.y[:, 0] > 0.0)
        assert np.all(traj.y[:, 1] > -0.5 - 1e-6)
        assert np.all(traj.y[:, 1] <= d_upper_bound(0.5, 0.0, d0) + 1e-6)
        certified += 1


def test_stacked_system_matches_component_systems():
    from epriccati import eval_rhs_aux, eval_rhs_ep
    from epriccati.riccati import AuxState3 as Aux
    from epriccati.riccati import State2 as St

    rng = np.random.default_rng(9)
    states = np.column_stack(
        [
            rng.uniform(0.01, 1.0, 30),  # rho
            rng.uniform(-2.0, 2.0, 30),  # d
            rng.uniform(0.01, 1.0, 30),  # a
            rng.uniform(-2.0, 2.0, 30),  # b
        ]
    )
    times = rng.uniform(0.0, 3.0, 30)
    ep = ep_system(ENVELOPE, PhysicalParams())
    ep_out = ep.rhs(ep.coef(times), states[:, :2])
    for big_b0 in (1.0, 3.0):
        system = coupled_system(ENVELOPE, big_b0)
        out = system.rhs(system.coef(times), states)
        for i in range(30):
            ep_ref = eval_rhs_ep(St(*states[i, :2]), times[i], ENVELOPE, PhysicalParams())
            # the auxiliary flow with B at its closed form B0 e^t
            aux_ref = eval_rhs_aux(Aux(*states[i, 2:], big_b0 * math.exp(times[i])))
            np.testing.assert_allclose(out[i, :2], [ep_ref.rho_dot, ep_ref.d_dot], rtol=1e-14)
            np.testing.assert_allclose(out[i, 2:], [aux_ref.a_dot, aux_ref.b_dot], rtol=1e-14)
        # the primary system under A and under -B0 e^t side by side, bit for bit
        worst = ep_system(ExponentialEnvelope(big_b0), PhysicalParams())
        assert np.array_equal(out[:, :2], ep_out)
        assert np.array_equal(out[:, 2:], worst.rhs(worst.coef(times), states[:, 2:]))


def test_auxiliary_slopes_are_the_coupled_worst_case_bit_for_bit():
    # aux_system's (a, b) slopes at B = B0 e^t are the certify run's pair under
    # -B0 e^t, the same ep_rhs_into call, so the invariant-space proofs check it
    rng = np.random.default_rng(29)
    states = np.column_stack(
        [
            rng.uniform(0.01, 1.0, 200),  # rho
            rng.uniform(-2.0, 2.0, 200),  # d
            rng.uniform(0.01, 1.0, 200),  # a
            rng.uniform(-2.0, 2.0, 200),  # b
        ]
    )
    times = rng.uniform(0.0, 8.0, 200)
    aux = aux_system()
    for big_b0 in (1.0, 3.0):
        big_b = big_b0 * np.exp(times)
        coupled = coupled_system(ENVELOPE, big_b0)
        out = coupled.rhs(coupled.coef(times), states)
        aux_out = aux.rhs(None, np.column_stack([states[:, 2:], big_b]))
        assert np.array_equal(aux_out[:, :2], out[:, 2:])
        assert np.array_equal(aux_out[:, 2], big_b)


def test_coupled_run_reports_closed_form_big_b():
    run = run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 2.0), ENVELOPE, t_end=5.0)
    assert run.aux.shape == (len(run.t), 3)
    assert np.array_equal(run.aux[:, 2], 2.0 * np.exp(run.t))


def test_coupled_run_matches_adaptive_auxiliary_run():
    # (a, b) against the 3D auxiliary system with B' = B as a state
    run = run_coupled(State2(0.2, 0.8), AuxState3(0.25, 0.75, 1.0), ENVELOPE, t_end=10.0)
    ref = integrate(aux_system(), np.array([0.25, 0.75, 1.0]), IntegratorOptions(t_end=10.0))
    assert run.t[-1] == ref.t[-1] == 10.0
    np.testing.assert_allclose(run.aux[-1, :2], ref.y[-1, :2], rtol=0.0, atol=1e-8)


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


def test_rough_tabulated_certificates_are_bit_identical():
    """Certificates on rough tabulated models, shaped like criterion 4, keep their bits.

    Ten seeded points, each with its own knots-every-0.1 table on ``[0, 10]``
    with values in ``[-0.9 e^t, 0.3]``; seven certify and three do not.  The
    digest covers every certificate's ``repr`` (floats round-trip), so it pins
    the ladder, the coupled run and the extrema read from it.  It was measured
    once; a move is explained in CHANGES.md, never silently regenerated.
    """
    rng = np.random.default_rng(2806)
    knots = np.arange(0.0, 10.0 + 1e-9, 0.1)
    reprs = []
    for _ in range(10):
        rho0 = rng.uniform(0.02, 0.45)
        d0 = rng.uniform(-0.2, 1.5)
        values = -0.9 * np.exp(knots) * rng.uniform(0.0, 1.0, knots.size)
        values += rng.uniform(0.0, 0.3, knots.size)
        reprs.append(repr(certify_global(rho0, d0, TabulatedCoefficient(knots, values))))
    assert sum(r != "None" for r in reprs) == 7
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == "ae566938438975c045d3b7121715bcca201ac1742075c4c241a3bed6a34ec73d"


def test_certifying_a_tabulated_coefficient_leaves_numpy_ma_unimported():
    # a fresh interpreter, since any earlier test may have imported numpy.ma
    code = (
        "import sys, epriccati as ep\n"
        "A = ep.TabulatedCoefficient([0.0, 1.0, 2.0], [-0.5, -1.0, -0.2])\n"
        "assert ep.certify_global(0.25, 0.75, A, t_verify=2.0) is not None\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
