import math

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from epriccati import (
    AuxState3,
    IntegratorOptions,
    Region,
    admissibility_condition,
    aux_system,
    b_lower_rate,
    classify,
    in_certified_interior,
    in_omega0,
    in_omega_B,
    in_omega_M,
    in_omega_T,
    integrate,
    s1_flux,
    s2_flux,
    t_star,
    t_star_star,
)
from epriccati.errors import RegionDomainError
from epriccati.riccati import aux_rhs_into

LN45 = math.log(45.0)
LN10 = math.log(10.0)


def surface_bound(a):
    return 0.5 * (1.0 / a**2 - 1.0 / a)


# --- membership formulas ---


def test_top_slab():
    assert in_omega_T(0.25, 1.0)
    assert in_omega_T(0.25, 0.5)  # boundary d = 1/2 included
    assert not in_omega_T(0.6, 1.0)


def test_middle_band():
    assert in_omega_M(0.1, 0.2)
    assert in_omega_M(0.45, 0.48)
    assert not in_omega_M(0.45, 0.30)
    assert not in_omega_M(0.1, 0.6)  # above the band
    assert not in_omega_M(-0.1, 0.3)  # out-of-domain density is simply outside


def test_bottom_lobe():
    assert in_omega_B(0.1, -0.1)
    assert not in_omega_B(0.1, -0.35)
    assert not in_omega_B(0.1, 0.1)


@pytest.mark.parametrize("rho", [1e-3, 0.1, 0.25, 0.49, np.nextafter(0.5, 0.0)])
def test_seam_conventions(rho):
    # d = 1/2 belongs to both the slab and the band, and is interior to the union
    assert in_omega_T(rho, 0.5) and in_omega_M(rho, 0.5)
    assert in_certified_interior(rho, 0.5)
    # the line d = 0 belongs to no piece
    assert classify(rho, 0.0) is Region.OUTSIDE


def test_classify_examples_and_precedence():
    assert classify(0.25, 0.75) is Region.OMEGA_T
    assert classify(0.5, 0.1) is Region.OUTSIDE
    assert classify(0.1, -0.1) is Region.OMEGA_B
    assert classify(0.25, 0.5) is Region.OMEGA_T  # T wins its inclusive boundary


@given(
    rho=st.floats(min_value=1e-3, max_value=0.499),
    d=st.floats(min_value=-0.6, max_value=2.0),
)
def test_regions_overlap_only_on_shared_seam(rho, d):
    # the top slab and the middle band both include d = 1/2 exactly; the
    # classifier precedence resolves that seam, and no other overlap exists
    hits = [in_omega_T(rho, d), in_omega_M(rho, d), in_omega_B(rho, d)]
    if d == 0.5:
        assert not hits[2]
    else:
        assert sum(hits) <= 1


@given(
    rho=st.floats(min_value=1e-3, max_value=0.6),
    d=st.floats(min_value=-0.6, max_value=2.0),
)
def test_interior_is_subset_of_union(rho, d):
    if in_certified_interior(rho, d):
        assert classify(rho, d) is not Region.OUTSIDE


# --- invariant space and fluxes ---


def test_invariant_space_membership():
    assert in_omega0(AuxState3(0.25, 0.6, 3.0))
    assert not in_omega0(AuxState3(0.25, 0.6, 7.0))
    assert not in_omega0(AuxState3(0.6, 1.0, 1.0))


def test_s1_flux_values():
    assert s1_flux(AuxState3(0.5, 0.5, surface_bound(0.5))) == pytest.approx(0.5)
    assert s1_flux(AuxState3(0.25, 0.5, surface_bound(0.25))) == pytest.approx(1.0)
    # the on-surface factor vanishes at b = (1 - a) / (2 - a)
    assert s1_flux(AuxState3(0.5, 1.0 / 3.0, surface_bound(0.5))) == pytest.approx(0.0, abs=1e-15)
    assert isinstance(s1_flux(AuxState3(0.5, 0.5, 1.0)), float)


def test_s2_flux_values():
    assert s2_flux(AuxState3(0.25, 0.5, 6.0)) == pytest.approx(0.25)
    assert s2_flux(AuxState3(0.25, 0.5, 6.0)) == pytest.approx(0.375 - 0.25 / 2)
    assert s2_flux(AuxState3(0.5, 0.5, 1.0)) == pytest.approx(0.125)
    assert isinstance(s2_flux(AuxState3(0.5, 0.5, 1.0)), float)
    # B = 0 is outside the state invariants; check the formula via the bound case only


# --- the invariant-space lemmas, exact: sympy through the code's own right-hand side ---

U, V = sympy.symbols("u v", nonnegative=True)
S1_FLUX = (U + 2) * (4 * U * V + 6 * V + 1) / 4  # dS1/dt on S1 = 0, a = 1/(2+u), b = 1/2 + v


def _on_s1_cap(u, v):
    """``(a, b, B)`` at ``a = 1/(2+u)``, ``b = 1/2 + v`` on ``S1 = 0``, and its slopes."""
    a = 1 / (2 + sympy.sympify(u))
    state = np.array([a, sympy.Rational(1, 2) + v, (1 / a**2 - 1 / a) / 2], dtype=object)
    return state, aux_rhs_into(np.empty(3, dtype=object), state)


def test_s1_flux_lemma_is_exact():
    # S1 = (1/a^2 - 1/a)/2 - B, so dS1/dt = (1/(2a^2) - 1/a^3) a' - B'
    (a, _, _), (a_dot, _, big_b_dot) = _on_s1_cap(U, V)
    flux = (1 / (2 * a**2) - 1 / a**3) * a_dot - big_b_dot
    assert sympy.factor(flux) == S1_FLUX


def test_s2_flux_lemma_is_exact():
    # b' on b = 1/2 at the S1 cap is 3/8 - a/2, positive for a < 3/4
    (a, _, _), (_, b_dot, _) = _on_s1_cap(U, 0)
    assert sympy.simplify(b_dot - (sympy.Rational(3, 8) - a / 2)) == 0


@pytest.mark.parametrize("u, v", [(0, 0), (2, sympy.Rational(1, 4)), (6, sympy.Rational(1, 2)), (2, 3)])
def test_fluxes_match_the_exact_lemmas(u, v):
    # dyadic points, where the float formulas are exact: e.g. (0.25, 0.75, 6) gives 4.5
    (a, b, cap), _ = _on_s1_cap(u, v)
    assert s1_flux(AuxState3(float(a), float(b), float(cap))) == float(S1_FLUX.subs({U: u, V: v}))
    assert s2_flux(AuxState3(float(a), 0.5, float(cap))) == float(sympy.Rational(3, 8) - a / 2)


# --- escape-time formulas ---


def test_escape_window_values():
    assert t_star(0.1) == pytest.approx(LN45, rel=1e-15)
    assert t_star(0.2) == pytest.approx(LN10, rel=1e-15)
    assert t_star(0.5 - 1e-12) == pytest.approx(0.0, abs=1e-8)
    for bad in (0.5, 0.6, 0.0, -0.1):
        with pytest.raises(RegionDomainError):
            t_star(bad)


def test_tiny_density_overflows_the_log_argument_to_inf():
    # below about 1e-162, s * s underflows to 0; the argument itself is inf
    assert t_star(1e-170) == math.inf
    assert in_omega_M(1e-170, 0.25) and in_certified_interior(1e-170, 0.25)
    assert in_omega_B(1e-170, -1e-171)
    assert classify(2.2e-177, 0.0) is Region.OUTSIDE


def test_negative_start_escape_window():
    assert t_star_star(0.1, -0.1) == pytest.approx(LN10, rel=1e-12)
    assert t_star_star(0.2, -0.2) == pytest.approx(math.log(1.875), rel=1e-12)
    # continuity with the nonnegative-start formula as b0 -> 0-
    assert t_star_star(0.1, -1e-12) == pytest.approx(t_star(0.1), rel=1e-9)
    with pytest.raises(RegionDomainError):
        t_star_star(0.1, 0.1)
    with pytest.raises(RegionDomainError):
        t_star_star(0.1, -0.5)


def test_minimum_growth_rate():
    assert b_lower_rate(0.25, 0.1) == pytest.approx(0.25)
    assert b_lower_rate(0.1, -0.1) == pytest.approx(0.275)
    assert b_lower_rate(1e-12, 0.0) == pytest.approx(0.375)
    with pytest.raises(RegionDomainError):
        b_lower_rate(0.25, 0.7)
    with pytest.raises(RegionDomainError):
        b_lower_rate(0.3, -0.4)  # a0 - b0 >= 1/2


def test_admissibility_condition():
    assert admissibility_condition(0.1, 0.2)
    assert admissibility_condition(0.1, -0.1)
    assert not admissibility_condition(0.45, 0.30)
    assert admissibility_condition(0.3, 0.8)  # already in the invariant slice
    with pytest.raises(RegionDomainError):
        admissibility_condition(0.6, 0.2)
    with pytest.raises(RegionDomainError):
        admissibility_condition(0.2, -0.4)


def _reconstructed_inside(rho, d):
    """Union membership written out from the closed forms of the regions docstring."""
    if not 0.0 < rho < 0.5:
        return False
    if d >= 0.5:  # OmegaT
        return True
    if 0.0 < d:  # OmegaM
        window = math.log((1.0 / (rho * rho) - 1.0 / rho) / 2.0)
        return (0.5 - d) / (3.0 / 8.0 - rho / 2.0) < window
    if rho - 0.5 < d < 0.0:  # OmegaB
        s = rho - d
        window = math.log((1.0 / (s * s) - 1.0 / s) / 2.0)
        return (0.5 - d) / (3.0 / 8.0 - s / 2.0) <= window
    return False


@given(
    rho=st.floats(min_value=1e-3, max_value=0.55),
    d=st.floats(min_value=-0.55, max_value=0.8),
)
def test_classifier_agrees_with_reconstruction(rho, d):
    assert (classify(rho, d) is not Region.OUTSIDE) == _reconstructed_inside(rho, d)


# --- trajectory-level properties of the invariant-space geometry ---


def test_admissible_starts_enter_invariant_space_in_time():
    # b reaches 1/2 by the admissibility time bound, and S1 = 0 is not crossed
    # before that: the sign of S1 is positive at every accepted sample before
    # the first one with b >= 1/2
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        a0 = rng.uniform(0.02, 0.48)
        b0 = rng.uniform(a0 - 0.5, 0.5)
        try:
            if not admissibility_condition(a0, b0) or b0 >= 0.5:
                continue
        except RegionDomainError:
            continue
        s_bound = (0.5 - b0) / b_lower_rate(a0, b0)
        opts = IntegratorOptions(t_end=s_bound + 1e-9)
        traj = integrate(aux_system(), np.array([a0, b0, 1.0]), opts)
        entries = np.flatnonzero(traj.y[:, 1] >= 0.5)
        assert entries.size, f"no invariant-space entry from ({a0}, {b0})"
        before = traj.y[: entries[0]]
        assert np.all(surface_bound(before[:, 0]) - before[:, 2] > 0.0)
        checked += 1


def test_negative_starts_confined_until_exit():
    rng = np.random.default_rng(23)
    opts = IntegratorOptions(t_end=6.0)
    checked = 0
    while checked < 25:
        a0 = rng.uniform(0.02, 0.45)
        b0 = rng.uniform(max(a0 - 0.5, -0.45), -1e-3)
        try:
            if not admissibility_condition(a0, b0):
                continue
        except RegionDomainError:
            continue
        traj = integrate(aux_system(), np.array([a0, b0, 1.0]), opts)
        below = traj.y[:, 1] <= 0.5
        assert np.all(traj.y[below, 0] < a0 - b0 + 1e-9)
        checked += 1
