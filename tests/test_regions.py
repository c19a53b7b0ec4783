import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epriccati import (
    AuxState3,
    EventSpec,
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
    assert s1_flux(AuxState3(0.5, 0.5, surface_bound(0.5))).value == pytest.approx(0.5)
    assert s1_flux(AuxState3(0.25, 0.5, surface_bound(0.25))).value == pytest.approx(1.0)
    # the on-surface factor vanishes at b = (1 - a) / (2 - a)
    assert s1_flux(AuxState3(0.5, 1.0 / 3.0, surface_bound(0.5))).value == pytest.approx(0.0, abs=1e-15)
    assert s1_flux(AuxState3(0.5, 0.5, 1.0)).surface == "S1"


def test_s2_flux_values():
    assert s2_flux(AuxState3(0.25, 0.5, 6.0)).value == pytest.approx(0.25)
    assert s2_flux(AuxState3(0.25, 0.5, 6.0)).value == pytest.approx(0.375 - 0.25 / 2)
    assert s2_flux(AuxState3(0.5, 0.5, 1.0)).value == pytest.approx(0.125)
    # B = 0 is outside the state invariants; check the formula via the bound case only


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
    """Region membership rebuilt from the admissibility conditions."""
    if in_omega_T(rho, d):
        return True
    if not (0.0 < rho < 0.5):
        return False
    if 0.0 < d <= 0.5:
        return admissibility_condition(rho, d)
    if rho - 0.5 < d < 0.0:
        return admissibility_condition(rho, d)
    return False


@given(
    rho=st.floats(min_value=1e-3, max_value=0.55),
    d=st.floats(min_value=-0.55, max_value=0.8),
)
def test_classifier_agrees_with_reconstruction(rho, d):
    assert (classify(rho, d) is not Region.OUTSIDE) == _reconstructed_inside(rho, d)


# --- trajectory-level properties of the invariant-space geometry ---


def test_admissible_starts_enter_invariant_space_in_time():
    rng = np.random.default_rng(11)
    opts = IntegratorOptions(t_end=6.0)
    entry = EventSpec(lambda t, y: y[1] - 0.5, direction="rising", refine_tol=1e-9, name="entry")
    surface = EventSpec(
        lambda t, y: surface_bound(y[0]) - y[2], direction="falling", refine_tol=1e-9, name="s1"
    )
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
        traj = integrate(aux_system(), np.array([a0, b0, 1.0]), opts, events=[entry, surface])
        entries = [e.t for e in traj.events if e.name == "entry"]
        crossings = [e.t for e in traj.events if e.name == "s1"]
        assert entries, f"no invariant-space entry from ({a0}, {b0})"
        t_entry = entries[0]
        assert t_entry <= s_bound + 1e-9
        assert all(tc > t_entry for tc in crossings)
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
