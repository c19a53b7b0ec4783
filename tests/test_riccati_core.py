import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from epriccati import (
    AuxState3,
    ConstantCoefficient,
    ExponentialEnvelope,
    FlowInvariants,
    PhysicalParams,
    State2,
    TabulatedCoefficient,
    aux_system,
    ep_system,
    eval_A0,
    eval_rhs_aux,
    eval_rhs_ep,
    gamma_upper_bound,
)
from epriccati.config import coefficient_model
from epriccati.errors import CoefficientDomainError, InvalidStateError, NonVacuumError

ATTRACTIVE = PhysicalParams(k=-1.0, c_b=1.0)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
small_pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


# --- type invariants ---


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(k=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(k=-1.0, c_b=-0.1)
    PhysicalParams(k=1.0, c_b=0.0)  # repulsive, zero background is allowed


def test_state2_validation():
    with pytest.raises(InvalidStateError):
        State2(rho=-0.1, d=0.0)
    with pytest.raises(InvalidStateError):
        State2(rho=math.nan, d=0.0)
    assert State2(0.5, -2.0).as_array().tolist() == [0.5, -2.0]


def test_flow_invariants_rejects_vacuum():
    with pytest.raises(NonVacuumError):
        FlowInvariants(rho0=0.0)
    with pytest.raises(NonVacuumError):
        FlowInvariants(rho0=-1.0)


def test_aux_state_validation():
    with pytest.raises(InvalidStateError):
        AuxState3(a=0.0, b=0.0, B=1.0)
    with pytest.raises(InvalidStateError):
        AuxState3(a=0.5, b=0.0, B=0.5)


# --- right-hand sides ---


def test_rhs_ep_background_equilibrium():
    d = eval_rhs_ep(State2(1.0, 0.0), 0.0, ConstantCoefficient(0.0), ATTRACTIVE)
    assert d == (0.0, 0.0)


def test_rhs_ep_vacuum_fixed_point():
    s = State2(0.0, math.sqrt(2.0))
    for model in (ConstantCoefficient(3.7), ExponentialEnvelope(1.0, 1.0)):
        d = eval_rhs_ep(s, 0.0, model, ATTRACTIVE)
        assert d.rho_dot == 0.0
        assert d.d_dot == pytest.approx(0.0, abs=1e-15)


def test_rhs_ep_direct_substitution():
    d = eval_rhs_ep(State2(0.5, 0.1), 0.0, ExponentialEnvelope(1.0, 1.0), ATTRACTIVE)
    assert d.rho_dot == pytest.approx(-0.05)
    assert d.d_dot == pytest.approx(0.245)


def test_rhs_aux_fixed_line():
    with pytest.raises(InvalidStateError):
        AuxState3(0.0, math.sqrt(2.0), 1.0)
    # the a -> 0 limit: a-dot and b-dot approach the fixed-line values
    d = eval_rhs_aux(AuxState3(1e-300, math.sqrt(2.0), 1.0))
    assert d.a_dot == pytest.approx(0.0, abs=1e-299)
    assert d.b_dot == pytest.approx(0.0, abs=1e-15)
    assert d.B_dot == 1.0


def test_rhs_aux_direct_substitution():
    d = eval_rhs_aux(AuxState3(0.5, 0.5, 1.0))
    assert d == pytest.approx((-0.25, 0.125, 1.0))
    d = eval_rhs_aux(AuxState3(0.1, 0.0, 1.0))
    assert d == pytest.approx((0.0, 0.89, 1.0))


# --- coefficient models ---


def test_eval_A_constant_and_envelope():
    assert ConstantCoefficient(0.5).value(7.0) == 0.5
    assert ExponentialEnvelope(1.0, 1.0).value(0.0) == -1.0
    assert ExponentialEnvelope(1.0, 1.0).value(math.log(2.0)) == pytest.approx(-2.0)


def test_eval_A_rejects_negative_time():
    with pytest.raises(ValueError):
        ConstantCoefficient(0.0).value(-1.0)


def test_envelope_requires_positive_rates():
    with pytest.raises(ValueError):
        ExponentialEnvelope(alpha=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        ExponentialEnvelope(alpha=1.0, beta=0.0)


@given(
    alpha=st.floats(min_value=1e-3, max_value=10.0),
    beta=st.floats(min_value=1e-3, max_value=3.0),
    t1=st.floats(min_value=0.0, max_value=50.0),
    dt=st.floats(min_value=1e-6, max_value=10.0),
)
def test_envelope_strictly_decreasing(alpha, beta, t1, dt):
    model = ExponentialEnvelope(alpha, beta)
    assert model.value(0.0) == -alpha
    assert model.value(t1 + dt) < model.value(t1)


def test_tabulated_interpolation_and_domain():
    model = TabulatedCoefficient([0.0, 1.0, 2.0], [0.0, -2.0, -2.0])
    assert model.value(0.5) == pytest.approx(-1.0)
    assert model.value(2.0) == -2.0
    with pytest.raises(CoefficientDomainError):
        model.value(2.5)
    with pytest.raises(ValueError):
        TabulatedCoefficient([1.0, 0.0], [0.0, 0.0])



def test_tabulated_domain_edges_are_inclusive_and_exact():
    model = TabulatedCoefficient([0.5, 2.0], [-1.0, -3.0])
    for t in (0.5, 2.0):
        assert model.value(t) == model.values(np.array([t]))[0]
        model.values(np.array([0.5, 1.0, 2.0]))
    for t in (np.nextafter(0.5, 0.0), np.nextafter(2.0, 3.0)):
        with pytest.raises(CoefficientDomainError):
            model.value(t)
        with pytest.raises(CoefficientDomainError):
            model.values(np.array([1.0, t]))
        with pytest.raises(CoefficientDomainError):
            model.values(t)
        # a NaN time neither raises nor hides an out-of-range time beside it
        with pytest.raises(CoefficientDomainError):
            model.values(np.array([np.nan, t]))
    assert np.isnan(model.values(np.array([1.0, np.nan]))[1])
    assert model.values(np.array([])).size == 0


def test_tabulated_domain_check_covers_every_axis():
    # the integrator queries a (6, n) block of stage times in one call
    model = TabulatedCoefficient([0.5, 2.0], [-1.0, -3.0])
    block = np.full((6, 3), 1.0)
    assert np.array_equal(model.values(block), np.full((6, 3), model.value(1.0)))
    for t in (np.nextafter(0.5, 0.0), np.nextafter(2.0, 3.0)):
        late = block.copy()
        late[4, 2] = t
        with pytest.raises(CoefficientDomainError):
            model.values(late)
    with_nan = block.copy()
    with_nan[3, 1] = np.nan
    out = model.values(with_nan)
    assert np.isnan(out[3, 1])
    assert np.count_nonzero(np.isnan(out)) == 1


def test_breakpoints_are_interior_knots():
    assert ConstantCoefficient(0.5).breakpoints() == ()
    assert ExponentialEnvelope().breakpoints() == ()
    times, vals = [0.0, 1.0, 2.0, 3.0], [-1.0, 1.0, 0.5, -0.5]
    assert np.array_equal(TabulatedCoefficient(times, vals).breakpoints(), [1.0, 2.0])
    # a config's table reaches the integrator as breaks of the system
    doc = {"coefficient": {"kind": "tabulated", "times": times, "values": vals}}
    assert ep_system(coefficient_model(doc), ATTRACTIVE).breaks == (1.0, 2.0)


# --- invariant scalars ---


def test_gamma_upper_bound_values():
    assert gamma_upper_bound(FlowInvariants(1.0, omega0=0.0)) == 0.0
    assert gamma_upper_bound(FlowInvariants(2.0, omega0=2.0)) == pytest.approx(0.5)
    assert gamma_upper_bound(FlowInvariants(1.0, omega0=3.0)) == pytest.approx(4.5)


def test_initial_coefficient_values():
    assert eval_A0(FlowInvariants(1.0)) == 0.0
    assert eval_A0(FlowInvariants(1.0, omega0=2.0, eta0=1.0, xi0=1.0)) == pytest.approx(1.0)
    assert eval_A0(FlowInvariants(1.0, omega0=0.0, eta0=1.0, xi0=1.0)) == pytest.approx(-1.0)


@given(rho0=small_pos, omega0=finite, eta0=finite, xi0=finite)
def test_initial_coefficient_never_exceeds_upper_bound(rho0, omega0, eta0, xi0):
    inv = FlowInvariants(rho0, omega0, eta0, xi0)
    assert eval_A0(inv) <= gamma_upper_bound(inv) + 1e-12


# --- auxiliary / primary consistency ---


@given(
    a=st.floats(min_value=1e-3, max_value=50.0),
    b=st.floats(min_value=-50.0, max_value=50.0),
    B=st.floats(min_value=1.0, max_value=1e6),
)
def test_aux_matches_primary_under_substitution(a, b, B):
    aux = eval_rhs_aux(AuxState3(a, b, B))
    ep = eval_rhs_ep(State2(rho=a, d=b), 0.0, ConstantCoefficient(-B), ATTRACTIVE)
    assert math.isclose(aux.a_dot, ep.rho_dot, rel_tol=1e-14, abs_tol=1e-14)
    assert math.isclose(aux.b_dot, ep.d_dot, rel_tol=1e-13, abs_tol=1e-12)


def test_vectorized_systems_match_scalar_rhs():
    rng = np.random.default_rng(7)
    params = PhysicalParams(k=-0.7, c_b=0.4)
    model = ExponentialEnvelope(0.8, 1.3)
    system = ep_system(model, params)
    states = np.column_stack([rng.uniform(0, 2, 50), rng.uniform(-3, 3, 50)])
    times = rng.uniform(0, 4, 50)
    batch = system.rhs(system.coef(times), states)
    for i in range(50):
        ref = eval_rhs_ep(State2(*states[i]), times[i], model, params)
        assert_allclose(batch[i], [ref.rho_dot, ref.d_dot], rtol=1e-14)

    system3 = aux_system()
    states3 = np.column_stack(
        [rng.uniform(0.01, 2, 50), rng.uniform(-3, 3, 50), rng.uniform(1, 10, 50)]
    )
    batch3 = system3.rhs(system3.coef(np.zeros(50)), states3)
    for i in range(50):
        ref3 = eval_rhs_aux(AuxState3(*states3[i]))
        assert_allclose(batch3[i], [ref3.a_dot, ref3.b_dot, ref3.B_dot], rtol=1e-14)
