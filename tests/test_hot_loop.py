"""The constants of the Dormand-Prince step are frozen 0-d float64 arrays, with unchanged results.

The step hands numpy its tableau, controller and slope constants as
read-only 0-d arrays instead of Python floats (see the ``integrate`` module
docstring).  These tests pin that the 0-d operands give the same float64
results as the Python-float forms, NaN where NaN, and an AST check keeps float
literals out of the functions that run six times a step.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from epriccati import (
    ExponentialEnvelope,
    PhysicalParams,
    TabulatedCoefficient,
    aux_system,
    ep_system,
)
from epriccati.comparison import coupled_system
from epriccati.integrate import (
    _ACCEPT,
    _COUPLING,
    _ERR,
    _EXPONENT,
    _INF,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _SAFETY,
    _WEIGHTS,
    _combine,
)
from epriccati.riccati import _MINUS_HALF, ep_rhs_into, frozen

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epriccati"
TABLEAU_ROWS = (*_COUPLING[1:], _WEIGHTS, _ERR)
CONSTANTS = (_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT, _ACCEPT, _INF, _MINUS_HALF)
POISON = (np.inf, -np.inf, np.nan)


def _seeded(shape, n_poisoned, seed):
    """Normal samples of ``shape`` with ``n_poisoned`` entries set to inf, -inf or NaN."""
    rng = np.random.default_rng(seed)
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = out.reshape(-1)
    where = rng.choice(flat.size, size=n_poisoned, replace=False)
    flat[where] = rng.choice(POISON, size=n_poisoned)
    return out


def _combine_with_floats(coef, stages):
    """``_combine`` with each coefficient a Python float, summed in order."""
    acc = float(coef[0]) * stages[0]
    for j in range(1, len(coef)):
        acc = acc + float(coef[j]) * stages[j]
    return acc


def _combined(coef, stages):
    """``_combine`` into fresh buffers, which start as garbage (NaN) to show it overwrites them."""
    out, tmp = np.full((2, *stages.shape[1:]), np.nan, dtype=stages.dtype)
    got = _combine(coef, stages, out, tmp)
    assert got is out
    return got


def _check_combine(stages, n_poisoned):
    with np.errstate(over="ignore", invalid="ignore"):
        for row in TABLEAU_ROWS:
            got, ref = _combined(row, stages), _combine_with_floats(row, stages)
            assert np.array_equal(got, ref, equal_nan=True)
            # a NaN stage poisons the sum, under a zero coefficient too
            assert np.isnan(got[np.isnan(stages[: len(row)]).any(axis=0)]).all()
        if n_poisoned:
            assert np.isnan(_combined(_ERR, stages)).any()


@pytest.mark.parametrize("n, n_poisoned", [(1, 0), (1, 2), (2000, 0), (2000, 40)])
def test_frozen_tableau_combines_as_python_floats(n, n_poisoned):
    _check_combine(_seeded((7, n, 4), n_poisoned, seed=n + n_poisoned), n_poisoned)


@pytest.mark.parametrize(
    "shape, n_poisoned",
    [
        # the sweep core's state-major (dim, n) slabs
        ((7, 2, 1), 4),
        ((7, 2, 1900), 0),
        ((7, 2, 1900), 40),
        # the spectral solver's complex half spectra at N = 128
        ((7, 3, 128, 65), 0),
        ((7, 3, 128, 65), 60),
    ],
    ids=["ode-1", "ode-1900", "ode-1900-poisoned", "pde-128", "pde-128-poisoned"],
)
def test_frozen_tableau_combines_state_major_and_spectral_stages(shape, n_poisoned):
    seed = shape[-1] + n_poisoned
    stages = _seeded(shape, n_poisoned, seed=seed)
    if len(shape) == 4:
        stages = stages.astype(complex)
        stages.imag = _seeded(shape, n_poisoned, seed=seed + 1)
    _check_combine(stages, n_poisoned)


def _slopes_with_floats(Y, a_val, k, c_b):
    rho, d = Y[..., 0], Y[..., 1]
    return np.stack([-rho * d, -0.5 * d * d + a_val * rho * rho + k * (rho - c_b)], axis=-1)


@pytest.mark.parametrize("n, n_poisoned", [(1, 0), (1, 1), (2000, 0), (2000, 40)])
def test_frozen_slope_constants_give_the_python_float_slopes(n, n_poisoned):
    Y = _seeded((n, 2), n_poisoned, seed=3 * n + n_poisoned)
    a_val = _seeded((n,), n_poisoned // 2, seed=n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, c_b in ((-1.0, 1.0), (-0.7, 0.4), (2.5, 0.0)):
            got = ep_rhs_into(np.empty_like(Y), Y, a_val, frozen(k), frozen(c_b))
            assert np.array_equal(got, _slopes_with_floats(Y, a_val, k, c_b), equal_nan=True)


@pytest.mark.parametrize("n, n_poisoned", [(1, 0), (1, 2), (2000, 0), (2000, 40)])
def test_systems_give_the_python_float_slopes(n, n_poisoned):
    # each builder's frozen k and c_b, and the coupled system's (2 n, 2) layout
    rng = np.random.default_rng(n + n_poisoned)
    times = rng.uniform(0.0, 3.0, n)
    Y = _seeded((n, 4), n_poisoned, seed=5 * n + n_poisoned)
    model = TabulatedCoefficient([0.0, 1.5, 3.0], [-0.5, 0.2, -4.0])
    params = PhysicalParams(k=-0.7, c_b=0.4)
    big_b0 = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        ep = ep_system(model, params)
        assert np.array_equal(
            ep.rhs(ep.coef(times), Y[:, :2]),
            _slopes_with_floats(Y[:, :2], model.values(times), -0.7, 0.4),
            equal_nan=True,
        )
        coupled = coupled_system(model, big_b0)
        worst = ExponentialEnvelope(big_b0).values(times)
        ref = np.concatenate(
            [
                _slopes_with_floats(Y[:, :2], model.values(times), -1.0, 1.0),
                _slopes_with_floats(Y[:, 2:], worst, -1.0, 1.0),
            ],
            axis=1,
        )
        for states in (Y, np.asfortranarray(Y)):  # the (2 n, 2) reshape copies Fortran order
            assert np.array_equal(coupled.rhs(coupled.coef(times), states), ref, equal_nan=True)
        Y3 = np.column_stack([Y[:, :2], np.abs(Y[:, 2]) + 1.0])
        aux = aux_system().rhs(None, Y3)
        assert np.array_equal(
            aux[:, :2], _slopes_with_floats(Y3, -Y3[:, 2], -1.0, 1.0), equal_nan=True
        )
        assert np.array_equal(aux[:, 2], Y3[:, 2], equal_nan=True)


@pytest.mark.parametrize("m, n_poisoned", [(1, 0), (1, 1), (7, 0), (2000, 0), (2000, 40)])
def test_systems_give_the_same_slopes_on_a_transposed_view(m, n_poisoned):
    # the integrator holds its states (dim, m) and hands rhs the (m, dim)
    # view .T; a system may copy that view (the coupled reshape does when
    # m > 1) but must write only through its output
    rng = np.random.default_rng(m + n_poisoned)
    times = rng.uniform(0.0, 3.0, m)
    Y = _seeded((m, 4), n_poisoned, seed=7 * m + n_poisoned)
    model = TabulatedCoefficient([0.0, 1.5, 3.0], [-0.5, 0.2, -4.0])
    Y3 = np.column_stack([Y[:, :2], np.abs(Y[:, 2]) + 1.0])
    cases = [
        (ep_system(model, PhysicalParams(k=-0.7, c_b=0.4)), Y[:, :2]),
        (aux_system(), Y3),
        (coupled_system(model, 2.0), Y),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for system, states in cases:
            c_order = np.ascontiguousarray(states)
            view = c_order.T.copy().T
            assert not view.flags.c_contiguous or m == 1
            coef = system.coef(times)
            got = system.rhs(coef, view)
            assert got.shape == states.shape
            assert np.array_equal(got, system.rhs(coef, c_order), equal_nan=True)
            assert np.array_equal(view, c_order, equal_nan=True)  # the states are not written


def test_frozen_constants_are_read_only_0d_float64():
    for c in (*(c for row in TABLEAU_ROWS for c in row), *CONSTANTS, frozen(0.3)):
        assert c.shape == () and c.dtype == np.float64
        assert c.flags.writeable is False
    with pytest.raises(ValueError):
        _SAFETY[()] = 1.0
    assert float(_EXPONENT) == -0.2 and float(_INF) == np.inf


# --- no float literal in the functions that run six times a step ---

PER_STAGE_FUNCTIONS = {
    "integrate.py": ("_combine", "_dp5_stages"),
    "riccati.py": ("ep_rhs_into",),
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in PER_STAGE_FUNCTIONS.items() for name in names],
)
def test_per_stage_functions_have_no_float_literal(module, name):
    # a float literal reaches numpy as a Python float, the weak-scalar path
    # the frozen constants avoid
    tree = ast.parse((PACKAGE / module).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert name in functions, f"{module} defines no {name}"
    literals = [
        ast.unparse(node)
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert not literals, f"{module}:{name} has float literals {literals}; use frozen constants"


# --- no fresh arrays in the spectral right-hand side, which runs six times a step ---

ALLOCATORS = {"empty", "zeros", "empty_like", "stack", "concatenate"}


def test_spectral_rhs_makes_no_fresh_arrays():
    # the slope and every intermediate live in the caller's output and work
    # set (spectral.WorkSet); an allocation here would be paid at every stage
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_rhs" in functions, "spectral.py defines no _rhs"
    calls = [
        ast.unparse(node.func)
        for node in ast.walk(functions["_rhs"])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in ALLOCATORS
    ]
    assert not calls, f"spectral.py:_rhs allocates with {calls}; write into out or the work set"


# --- no dealias mask in the spectral step: its spectra are kept blocks ---


def test_spectral_step_reads_no_dealias_mask():
    # a kept-block spectrum is dealiased already, and the products' forward
    # keeps only the block, so neither the right-hand side nor the step masks
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_rhs", "step_ep"):
        assert name in functions, f"spectral.py defines no {name}"
        reads = [
            ast.unparse(node)
            for node in ast.walk(functions[name])
            if (isinstance(node, ast.Attribute) and "dealias" in node.attr)
            or (isinstance(node, ast.Name) and ("dealias" in node.id or node.id == "mask"))
        ]
        assert not reads, f"spectral.py:{name} reads a dealias mask: {reads}"
