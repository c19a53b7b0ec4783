import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from epriccati import (
    ConstantCoefficient,
    ExponentialEnvelope,
    IntegratorOptions,
    PhysicalParams,
    TabulatedCoefficient,
    TerminalStatus,
    aux_system,
    certify_global,
    ep_system,
    integrate,
    integrate_batch,
    integrate_fixed_oracle,
)
from epriccati.comparison import coupled_system
from epriccati.errors import InvalidStateError, StiffnessError
from epriccati.integrate import _BLOWUP, _DOMAIN_END, _INVALID, _REACHED, _STIFF
from epriccati.riccati import System

ATTRACTIVE = PhysicalParams()
ENVELOPE = ExponentialEnvelope(1.0, 1.0)
SQRT2 = math.sqrt(2.0)
# a rough coefficient shaped like acceptance criterion 4: knots every 0.1 on
# [0, 10], values in [-0.9 e^t, 0.3]; the RHS has a kink at every knot
_rng = np.random.default_rng(4)
ROUGH_KNOTS = np.arange(0.0, 10.0 + 1e-9, 0.1)
ROUGH = TabulatedCoefficient(
    ROUGH_KNOTS,
    -0.9 * np.exp(ROUGH_KNOTS) * _rng.uniform(0.0, 1.0, ROUGH_KNOTS.size)
    + _rng.uniform(0.0, 0.3, ROUGH_KNOTS.size),
)


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(dt_min=1e-3, dt_init=1e-4)
    with pytest.raises(ValueError):
        IntegratorOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=-1.0)


def test_equilibrium_stays_exactly_constant():
    system = ep_system(ConstantCoefficient(0.0), ATTRACTIVE)
    traj = integrate(system, np.array([1.0, 0.0]), IntegratorOptions(t_end=10.0))
    assert traj.status is TerminalStatus.REACHED_HORIZON
    assert np.all(traj.y == np.array([1.0, 0.0]))
    assert traj.final_time == 10.0


def test_blow_up_reported_with_bracket():
    system = ep_system(ENVELOPE, ATTRACTIVE)
    traj = integrate(system, np.array([0.5, 0.1]), IntegratorOptions(t_end=20.0))
    assert traj.status is TerminalStatus.BLOW_UP
    lo, hi = traj.blow_up_bracket
    assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
    assert lo <= traj.final_time <= hi
    assert traj.final_state[1] < -1e6  # divergence plunges
    assert traj.final_state[0] > 1e6  # density spikes
    assert hi - lo < 1e-3


def test_blow_up_bracket_locates_known_singularity():
    # pure quadratic decay y' = -y^2/2 from y0 = -1 has its pole exactly at
    # t = 2; the bracket pins the numerical trajectory's singularity, so its
    # absolute offset from the exact pole is tolerance-limited and shrinks
    # as the tolerances tighten
    def rhs(t, Y):
        return -0.5 * Y * Y

    offsets = {}
    for tol in (1e-6, 1e-9):
        opts = IntegratorOptions(rel_tol=tol, abs_tol=tol, t_end=10.0)
        traj = integrate(System(rhs=rhs, dim=1), np.array([-1.0]), opts)
        assert traj.status is TerminalStatus.BLOW_UP
        lo, hi = traj.blow_up_bracket
        assert hi - lo < 1e-6
        offsets[tol] = abs(0.5 * (lo + hi) - 2.0)
    assert offsets[1e-6] < 5e-5
    assert offsets[1e-9] < 5e-8
    assert offsets[1e-9] < offsets[1e-6]


def test_default_floor_bracket_contains_the_exact_pole():
    # y' = -y^2/2 from -1 blows up at t = 2; at the default floor (equal to
    # the tolerance) the bracket is wide enough to contain it
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-9, t_end=10.0)
    traj = integrate(System(rhs=lambda t, Y: -0.5 * Y * Y, dim=1), np.array([-1.0]), opts)
    assert traj.status is TerminalStatus.BLOW_UP
    lo, hi = traj.blow_up_bracket
    assert lo <= 2.0 <= hi


# a 20x20 sub-grid of the README sweep box [0.01, 1.2] x [-1, 2], under the
# sweep's two models: the unit envelope and a seeded table with knots every
# 0.5 and values in [-0.9 e^t, -0.5 e^t]
_SWEEP_KNOTS = np.arange(0.0, 20.0 + 1e-9, 0.5)
_SWEEP_MODELS = {
    "envelope": ENVELOPE,
    "tabulated": TabulatedCoefficient(
        _SWEEP_KNOTS, -np.exp(_SWEEP_KNOTS) * np.random.default_rng(1).uniform(0.5, 0.9, _SWEEP_KNOTS.size)
    ),
}


@pytest.mark.parametrize("model", _SWEEP_MODELS.values(), ids=_SWEEP_MODELS.keys())
def test_default_floor_loses_nothing_against_a_finer_floor(model):
    grid_r, grid_d = np.meshgrid(np.linspace(0.01, 1.2, 20), np.linspace(-1.0, 2.0, 20), indexing="ij")
    inits = np.column_stack([grid_r.ravel(), grid_d.ravel()])
    system = ep_system(model, ATTRACTIVE)
    default = integrate_batch(system, inits, IntegratorOptions(t_end=20.0))
    fine = integrate_batch(system, inits, IntegratorOptions(t_end=20.0, dt_min=1e-12))

    assert np.array_equal(default.status, fine.status)
    horizon = default.status != _BLOWUP
    assert np.array_equal(default.t_final[horizon], fine.t_final[horizon])
    assert np.array_equal(default.y_final[horizon], fine.y_final[horizon])

    blown = ~horizon
    assert blown.sum() >= 100
    lo, hi = default.blow_lo[blown], default.blow_hi[blown]
    fine_lo, fine_hi = fine.blow_lo[blown], fine.blow_hi[blown]
    assert np.all((lo <= fine_lo) & (fine_hi <= hi))
    assert np.max(np.abs(0.5 * (lo + hi) - 0.5 * (fine_lo + fine_hi))) <= 1e-13


def test_steps_respect_dt_max():
    opts = IntegratorOptions(t_end=10.0, dt_max=0.25)
    traj = integrate(aux_system(), np.array([0.25, 0.75, 1.0]), opts)
    assert np.max(np.diff(traj.t)) <= 0.25 * (1.0 + 1e-12)


def test_global_trajectory_settles_at_attractor():
    system = ep_system(ENVELOPE, ATTRACTIVE)
    traj = integrate(system, np.array([0.25, 0.75]), IntegratorOptions(t_end=20.0))
    assert traj.status is TerminalStatus.REACHED_HORIZON
    assert abs(traj.final_state[1] - SQRT2) < 0.05
    assert traj.final_state[0] < 1e-4


def test_fixed_oracle_auxiliary_run():
    traj = integrate_fixed_oracle(aux_system(), np.array([0.25, 0.75, 1.0]), 1e-4, 5.0)
    a = traj.y[:, 0]
    assert np.all(np.diff(a) < 0)  # b stays positive, so a decays throughout
    assert abs(traj.final_state[1] - SQRT2) < 0.05


def test_fixed_oracle_equilibrium_exact():
    system = ep_system(ConstantCoefficient(0.0), ATTRACTIVE)
    traj = integrate_fixed_oracle(system, np.array([1.0, 0.0]), 1e-3, 1.0)
    assert np.all(traj.y == np.array([1.0, 0.0]))


def test_fixed_oracle_single_step_consistency():
    traj = integrate_fixed_oracle(aux_system(), np.array([0.5, 0.5, 1.0]), 1e-4, 1e-4)
    predicted = np.array([0.5, 0.5, 1.0]) + 1e-4 * np.array([-0.25, 0.125, 1.0])
    assert_allclose(traj.y[1], predicted, atol=5e-9)  # agreement to O(dt^2)


def test_rough_tabulated_run_matches_fixed_oracle():
    # the oracle's dt divides the knot spacing, so it also steps on the knots;
    # knot-aligned steps end within 9e-11 of it, steps across the knots miss
    # by 2e-8 to 6e-8
    for init in ([0.25, 0.75], [0.1, 0.5]):
        init = np.array(init)
        oracle = integrate_fixed_oracle(ep_system(ROUGH, ATTRACTIVE), init, 1e-3, 5.0)
        adaptive = integrate(ep_system(ROUGH, ATTRACTIVE), init, IntegratorOptions(t_end=5.0))
        assert adaptive.status is TerminalStatus.REACHED_HORIZON
        assert np.max(np.abs(adaptive.final_state - oracle.y[-1])) < 5e-10


def test_adaptive_matches_fixed_oracle():
    # the last step lands exactly on the horizon, so each checkpoint is a run's end
    init = np.array([0.25, 0.75, 1.0])
    oracle = integrate_fixed_oracle(aux_system(), init, 1e-4, 5.0)
    worst = 0.0
    for i in range(2500, len(oracle.t), 2500):
        adaptive = integrate(aux_system(), init, IntegratorOptions(t_end=oracle.t[i]))
        worst = max(worst, np.max(np.abs(adaptive.final_state - oracle.y[i])))
    assert worst < 1e-4


def test_exponential_component_tracks_exact_solution():
    opts = IntegratorOptions(t_end=10.0)
    traj = integrate(aux_system(), np.array([0.25, 0.3, 1.0]), opts)
    rel = np.abs(traj.y[:, 2] - np.exp(traj.t)) / np.exp(traj.t)
    assert np.max(rel) < 10.0 * opts.rel_tol


def test_decay_quadrature_identity():
    # augment the auxiliary system with the running integral of b; then
    # a * exp(integral) must stay at its initial value
    def rhs(t, Y):
        a, b, big_b = Y[..., 0], Y[..., 1], Y[..., 2]
        out = np.empty_like(Y)
        out[..., 0] = -b * a
        out[..., 1] = -0.5 * b * b - big_b * a * a - a + 1.0
        out[..., 2] = big_b
        out[..., 3] = b
        return out

    traj = integrate(System(rhs=rhs, dim=4), np.array([0.25, 0.3, 1.0, 0.0]), IntegratorOptions(t_end=10.0))
    identity = traj.y[:, 0] * np.exp(traj.y[:, 3])
    assert np.max(np.abs(identity - 0.25)) / 0.25 < 1e-6


def test_terminal_status_stable_under_tolerance_halving():
    corpus = [(0.25, 0.75), (0.5, 0.1), (0.1, -0.1), (0.45, 0.48), (1.0, 0.0), (1.2, 2.0)]
    system = ep_system(ENVELOPE, ATTRACTIVE)

    def statuses(tol):
        opts = IntegratorOptions(rel_tol=tol, abs_tol=tol, t_end=20.0)
        return [integrate(system, np.array(ic), opts).status for ic in corpus]

    assert statuses(1e-9) == statuses(5e-10)


def test_stiffness_reported_distinct_from_blow_up():
    def oscillatory(t, Y):
        return 1e3 * np.cos(1e9 * t)[:, None] * np.ones_like(Y)

    with pytest.raises(StiffnessError) as info:
        integrate(
            System(rhs=oscillatory, dim=1),
            np.array([0.0]),
            IntegratorOptions(t_end=1.0, dt_min=1e-6),
        )
    assert np.max(np.abs(info.value.state)) < 1e6


def test_nan_rhs_raises_invalid_state_with_last_sample():
    def bad(t, Y):
        return np.where(t[:, None] > 0.5, np.nan, 1.0) * np.ones_like(Y)

    with pytest.raises(InvalidStateError) as info:
        integrate(System(rhs=bad, dim=1), np.array([0.0]), IntegratorOptions(t_end=1.0))
    assert info.value.t == pytest.approx(0.5, abs=1e-6)
    assert np.all(np.isfinite(info.value.state))


def test_rhs_infinite_at_start_raises_invalid_state_at_t0():
    def blows(t, Y):
        return np.full_like(Y, np.inf)

    system = System(rhs=blows, dim=2)
    init = np.array([0.25, 0.75])
    with pytest.raises(InvalidStateError) as info:
        integrate(system, init, IntegratorOptions(t_end=1.0))
    assert info.value.t == 0.0
    assert np.array_equal(info.value.state, init)
    batch = integrate_batch(system, init[None, :], IntegratorOptions(t_end=1.0))
    assert batch.status[0] == _INVALID and batch.t_final[0] == 0.0


def test_bounded_coefficient_domain_caps_horizon():
    model = TabulatedCoefficient([0.0, 2.0], [-1.0, -3.0])
    system = ep_system(model, ATTRACTIVE)
    traj = integrate(system, np.array([0.25, 0.75]), IntegratorOptions(t_end=10.0))
    assert traj.status is TerminalStatus.COEFFICIENT_DOMAIN_END
    assert traj.final_time == 2.0


def test_steps_land_on_every_knot_of_a_tabulated_coefficient():
    calls = coef_calls = 0
    system = ep_system(ROUGH, ATTRACTIVE)

    def counted(c, Y):
        nonlocal calls
        calls += 1
        return system.rhs(c, Y)

    def counted_coef(t):
        nonlocal coef_calls
        coef_calls += 1
        return system.coef(t)

    t_end = 5.0
    opts = IntegratorOptions(t_end=t_end)
    traj = integrate(replace(system, rhs=counted, coef=counted_coef), np.array([0.25, 0.75]), opts)
    assert traj.status is TerminalStatus.REACHED_HORIZON
    inner = ROUGH_KNOTS[(ROUGH_KNOTS > 0.0) & (ROUGH_KNOTS < t_end)]
    assert np.all(np.isin(inner, traj.t))
    # one FSAL start, then six new slopes per attempted step; 5 of 85 steps
    # are rejected on this run (252 of 406 when steps crossed the knots)
    accepted = len(traj.t) - 1
    assert (calls - 1) % 6 == 0
    assert (calls - 1) // 6 - accepted <= 8
    # the coefficient once at the start, then once per attempted step for
    # all six stage times
    assert coef_calls == 1 + (calls - 1) // 6


def _assert_batch_reproduces_single_runs(model, corpus):
    system = ep_system(model, ATTRACTIVE)
    breaks = np.asarray(system.breaks)
    opts = IntegratorOptions(t_end=20.0)
    batch = integrate_batch(system, corpus, opts)
    for i, init in enumerate(corpus):
        single = integrate(system, init, opts)
        # no break before the end is stepped over
        assert np.all(np.isin(breaks[breaks < single.final_time], single.t))
        assert batch.terminal_status(i) is single.status
        assert np.array_equal(batch.y_final[i], single.final_state)
        assert batch.t_final[i] == single.final_time
        if single.status is TerminalStatus.BLOW_UP:
            assert batch.blow_lo[i] == single.blow_up_bracket[0]
            assert batch.blow_hi[i] == single.blow_up_bracket[1]
    return batch


def test_batch_reproduces_single_runs_exactly():
    corpus = np.array([[0.25, 0.75], [0.5, 0.1], [0.1, -0.1], [1.0, 0.0], [0.45, 0.48]])
    _assert_batch_reproduces_single_runs(ENVELOPE, corpus)


def test_batch_reproduces_single_runs_exactly_on_tabulated_coefficient():
    # rows blow up between different knots, the others stop at the domain end
    corpus = np.array([[0.25, 0.75], [1.0, 0.0], [0.8, -0.5], [0.6, -0.2], [0.45, 0.48]])
    batch = _assert_batch_reproduces_single_runs(ROUGH, corpus)
    blown = batch.status == _BLOWUP
    assert blown.sum() >= 3
    assert np.unique(np.floor(batch.t_final[blown] / 0.1)).size == blown.sum()


def test_batch_reproduces_single_runs_exactly_on_irregular_knots():
    # knots 0.05 to 0.4 apart up to t = 13.5, so rows reach their next knot
    # after different numbers of steps
    rng = np.random.default_rng(5)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 60))])
    values = -0.9 * np.exp(knots) * rng.uniform(0.0, 1.0, knots.size)
    model = TabulatedCoefficient(knots, values + rng.uniform(0.0, 0.3, knots.size))
    corpus = np.array(
        [[0.25, 0.75], [1.0, 0.0], [0.8, -0.5], [0.6, -0.2], [0.45, 0.48], [0.3, -0.6]]
    )
    batch = _assert_batch_reproduces_single_runs(model, corpus)
    blown = batch.status == _BLOWUP
    assert blown.sum() >= 3
    assert np.all(batch.t_final[~blown] == knots[-1])
    # the blown rows end between knots, each in its own interval
    assert not np.any(np.isin(batch.t_final[blown], knots))
    assert np.unique(np.searchsorted(knots, batch.t_final[blown])).size == blown.sum()


def _grouping_inits():
    rng = np.random.default_rng(3)
    return np.column_stack([rng.uniform(0.05, 1.0, 24), rng.uniform(-0.8, 1.5, 24)])


def _assert_grouping_invariant(system, inits):
    opts = IntegratorOptions(t_end=15.0)
    whole = integrate_batch(system, inits, opts)
    pieces = [integrate_batch(system, chunk, opts) for chunk in np.array_split(inits, 5)]
    for name in ("status", "t_final", "y_final", "blow_lo", "blow_hi"):
        joined = np.concatenate([getattr(p, name) for p in pieces])
        assert np.array_equal(getattr(whole, name), joined, equal_nan=True)
    return whole


def test_batch_grouping_does_not_change_results():
    _assert_grouping_invariant(ep_system(ENVELOPE, ATTRACTIVE), _grouping_inits())


def test_batch_grouping_does_not_change_results_on_tabulated_coefficient():
    whole = _assert_grouping_invariant(ep_system(ROUGH, ATTRACTIVE), _grouping_inits())
    assert {_BLOWUP, _DOMAIN_END} <= set(whole.status.tolist())


def test_batch_grouping_does_not_change_results_in_one_dimension():
    # y' = y^2 - 1 - cos(t) / 2: rows from y0 above about 1 blow up
    system = System(rhs=lambda t, Y: Y * Y - 1.0 - 0.5 * np.cos(t)[:, None], dim=1)
    whole = _assert_grouping_invariant(system, np.linspace(-2.0, 2.0, 24)[:, None])
    assert {_BLOWUP, _REACHED} <= set(whole.status.tolist())


def test_batch_grouping_does_not_change_results_on_coupled_system():
    # the four-column (rho, d, a, b) system of certification
    inits = _grouping_inits()
    stacked = np.column_stack([inits, inits[:, 0] + 0.1, inits[:, 1] - 0.1])
    whole = _assert_grouping_invariant(coupled_system(ROUGH), stacked)
    assert {_BLOWUP, _DOMAIN_END} <= set(whole.status.tolist())


def test_batch_grouping_does_not_change_results_on_auxiliary_system():
    # the three-column (a, b, B) system: its slopes read B, column 2, as -A
    inits = _grouping_inits()
    big_b = np.random.default_rng(5).uniform(1.0, 4.0, inits.shape[0])
    whole = _assert_grouping_invariant(aux_system(), np.column_stack([inits, big_b]))
    assert {_BLOWUP, _REACHED} <= set(whole.status.tolist())


def test_overflowing_runs_raise_no_floating_point_warnings():
    # from d0 = 1e15 the stage slopes overflow; the step control rejects or
    # stops on non-finite slopes, so numpy need not warn of them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_batch(ep_system(ENVELOPE, ATTRACTIVE), np.array([[0.3, 1e15]]))
        assert certify_global(0.3, 1e15, ExponentialEnvelope()) is None


def _mixed_rhs(t, Y):
    # the second column selects each row's dynamics and stays constant
    y, p = Y[:, 0], Y[:, 1]
    out = np.zeros_like(Y)
    out[:, 0] = np.select(
        [p == 0.0, p == 1.0, p == 2.0, p == 3.0, p == 4.0],
        [-y, y * y, 1e3 * np.cos(1e9 * t), np.cos(60.0 * t), np.where(t > 1.0, np.nan, 1.0)],
        np.nan,
    )
    return out


def test_batch_rows_stopping_apart_match_their_single_runs():
    # rows end at very different times and in every way: reached horizon,
    # blow-up at t = 1 / y0, non-finite RHS at the start and at t = 1, step
    # collapse at t = 0, and a long tail of small steps
    rows = np.array(
        [[1.0, 0.0], [2.0, 1.0], [1.0, np.nan], [0.0, 3.0], [0.2, 1.0],
         [0.0, 2.0], [0.5, 0.0], [0.0, 4.0], [0.3, 1.0]]
    )
    system = System(rhs=_mixed_rhs, dim=2)
    opts = IntegratorOptions(t_end=8.0, dt_min=1e-6, blowup_magnitude=1e4)
    batch = integrate_batch(system, rows, opts)
    expected = [_REACHED, _BLOWUP, _INVALID, _REACHED, _BLOWUP, _STIFF, _REACHED, _INVALID, _BLOWUP]
    assert list(batch.status) == expected
    for i, init in enumerate(rows):
        alone = integrate_batch(system, rows[i : i + 1], opts)
        assert alone.status[0] == batch.status[i]
        for name in ("t_final", "y_final", "blow_lo", "blow_hi"):
            assert np.array_equal(getattr(alone, name)[0], getattr(batch, name)[i], equal_nan=True)
        if np.isnan(init[1]):
            continue  # integrate refuses a non-finite initial state
        if batch.status[i] in (_STIFF, _INVALID):
            error = StiffnessError if batch.status[i] == _STIFF else InvalidStateError
            with pytest.raises(error) as info:
                integrate(system, init, opts)
            with pytest.raises(error) as batch_info:
                batch.terminal_status(i)
            for raised in (info.value, batch_info.value):
                assert raised.t == batch.t_final[i]
                assert np.array_equal(raised.state, batch.y_final[i])
            continue
        single = integrate(system, init, opts)
        assert batch.terminal_status(i) is single.status
        assert single.final_time == batch.t_final[i]
        assert np.array_equal(single.final_state, batch.y_final[i])
        if single.status is TerminalStatus.BLOW_UP:
            assert single.blow_up_bracket == (batch.blow_lo[i], batch.blow_hi[i])
