import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from epriccati import (
    AuxState3,
    IntegratorOptions,
    Region,
    aux_system,
    classify,
    escape,
    in_certified_interior,
    in_omega0,
    integrate,
    s1_flux,
    s2_flux,
)

LN45 = math.log(45.0)
LN10 = math.log(10.0)


def surface_bound(a):
    return 0.5 * (1.0 / a**2 - 1.0 / a)


# --- membership formulas ---


def test_top_slab():
    assert classify(0.25, 1.0) is Region.OMEGA_T
    assert classify(0.25, 0.5) is Region.OMEGA_T  # boundary d = 1/2 included
    assert classify(0.6, 1.0) is Region.OUTSIDE


def test_middle_band():
    assert classify(0.1, 0.2) is Region.OMEGA_M
    assert classify(0.45, 0.48) is Region.OMEGA_M
    assert classify(0.45, 0.30) is Region.OUTSIDE
    assert classify(0.1, 0.6) is Region.OMEGA_T  # above the band
    assert classify(-0.1, 0.3) is Region.OUTSIDE  # out-of-domain density is simply outside


def test_bottom_lobe():
    assert classify(0.1, -0.1) is Region.OMEGA_B
    assert classify(0.1, -0.35) is Region.OUTSIDE
    assert classify(0.1, 0.1) is Region.OMEGA_M


@pytest.mark.parametrize("rho", [1e-3, 0.1, 0.25, 0.49, np.nextafter(0.5, 0.0)])
def test_seam_conventions(rho):
    # d = 1/2 belongs to both the slab and the band, classifies as the slab, and
    # is interior to the union
    assert classify(rho, 0.5) is Region.OMEGA_T
    assert in_certified_interior(rho, 0.5)
    # the line d = 0 belongs to no piece
    assert classify(rho, 0.0) is Region.OUTSIDE


def _on_the_edge(rho, lo, hi):
    """A float ``d`` in ``(lo, hi)`` with ``reach == window`` exactly at ``(rho, d)``.

    Bisection on the sign of ``window - reach`` closes on the edge; rounding
    makes the gap ragged there, so the 200 floats around it are scanned with
    ``nextafter`` for an exact tie.  ``None`` if none of them ties.
    """

    def gap(d):
        _, reach, window = escape(rho, d)
        return window - reach

    inside_lo = gap(lo) > 0.0
    assert inside_lo != (gap(hi) > 0.0)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (gap(mid) > 0.0) == inside_lo:
            lo = mid
        else:
            hi = mid
    d = lo
    for _ in range(100):
        d = math.nextafter(d, -math.inf)
    for _ in range(200):
        if gap(d) == 0.0:
            return d
        d = math.nextafter(d, math.inf)
    return None


@pytest.mark.parametrize(
    "rho, lo, hi, region",
    [
        # OmegaB's edge is in the lobe (reach <= window)
        (0.05, 0.05 - 0.5 + 1e-9, -1e-9, Region.OMEGA_B),
        # OmegaM's edge is not in the band (reach < window)
        (0.2356, 1e-9, 0.5 - 1e-9, Region.OUTSIDE),
    ],
    ids=["OmegaB", "OmegaM"],
)
def test_points_exactly_on_an_escape_edge(rho, lo, hi, region):
    d = _on_the_edge(rho, lo, hi)
    assert d is not None, "no float point with reach == window near the edge"
    _, reach, window = escape(rho, d)
    assert reach == window
    assert classify(rho, d) is region
    assert not in_certified_interior(rho, d)


def test_classify_examples_and_precedence():
    assert classify(0.25, 0.75) is Region.OMEGA_T
    assert classify(0.5, 0.1) is Region.OUTSIDE
    assert classify(0.1, -0.1) is Region.OMEGA_B
    assert classify(0.25, 0.5) is Region.OMEGA_T  # T wins its inclusive boundary


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


def test_invariant_space_cap_on_a_decides_alone():
    # With B >= 1, as every AuxState3 has, the S1 bound B <= (1/a^2 - 1/a)/2
    # already forces a <= 1/2, and a <= 1/2 + slack for slack up to 1, so
    # only a larger slack shows the cap a <= 1/2 + slack on its own: here b
    # and B lie inside, and a alone decides
    assert in_omega0(AuxState3(1.95, 0.75, 10.0), slack=1.5)
    assert not in_omega0(AuxState3(2.05, 0.75, 10.0), slack=1.5)


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


# --- the invariant-space lemmas, exact: sympy through aux_system's right-hand side ---
# Its (a, b) slopes are ep_rhs_into under A = -B with k = -1, c_b = 1, the call
# every coupled certify step makes, so the proofs check the slopes that run.

U, V = sympy.symbols("u v", nonnegative=True)
S1_FLUX = (U + 2) * (4 * U * V + 6 * V + 1) / 4  # dS1/dt on S1 = 0, a = 1/(2+u), b = 1/2 + v


def _on_s1_cap(u, v):
    """``(a, b, B)`` at ``a = 1/(2+u)``, ``b = 1/2 + v`` on ``S1 = 0``, and its slopes."""
    a = 1 / (2 + sympy.sympify(u))
    state = np.array([a, sympy.Rational(1, 2) + v, (1 / a**2 - 1 / a) / 2], dtype=object)
    return state, aux_system().rhs(None, state[None, :])[0]


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


def _nonnegative(expr, gens):
    """Whether ``expr`` is a ratio of polynomials in ``gens`` with only nonnegative coefficients."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return all(c >= 0 for part in (num, den) for c in sympy.Poly(part, *gens).coeffs())


def test_escape_inequality_is_exact():
    # b' - (3/8 - s/2) splits into three brackets, each >= 0 on the escape
    # domain |b| <= 1/2, 0 < a <= s < 1/2, 0 <= B <= (1/s^2 - 1/s)/2
    a, b, big_b, s = sympy.symbols("a b B s")
    _, b_dot, _ = aux_system().rhs(None, np.array([[a, b, big_b]], dtype=object))[0]
    brackets = (sympy.Rational(1, 8) - b**2 / 2, (1 - s) / 2 - big_b * a**2, s - a)
    assert sympy.expand(b_dot - (sympy.Rational(3, 8) - s / 2) - sum(brackets)) == 0
    # a superset of the domain through nonnegative parameters (q, r not both 0,
    # nor x, y): a ratio with nonnegative coefficients is >= 0 on all of it
    q, r, w, x, y = sympy.symbols("q r w x y", nonnegative=True)
    s_of = 1 / (2 + U)  # 0 < s <= 1/2
    domain = {
        b: (q - r) / (2 * (q + r)),  # -1/2 <= b <= 1/2
        a: s_of / (1 + w),  # 0 < a <= s
        big_b: (1 / s_of**2 - 1 / s_of) / 2 * x / (x + y),  # 0 <= B <= (1/s^2 - 1/s)/2
        s: s_of,
    }
    assert all(_nonnegative(bracket.subs(domain), (q, r, w, x, y, U)) for bracket in brackets)
    # the code's rate is 3/8 - s/2 with s = a0 - min(b0, 0); exact in floats at dyadic points
    for a0, b0 in [(0.25, 0.0), (0.25, 0.125), (0.125, 0.5), (0.125, -0.25), (0.0625, -0.375)]:
        s0 = sympy.Rational(a0) - min(sympy.Rational(b0), 0)
        assert escape(a0, b0)[0] == float(sympy.Rational(3, 8) - s0 / 2)


# --- the escape inequality ---


def _admissible(a0, b0):
    """The paper's admissibility condition: ``b`` reaches 1/2 within the window."""
    _, reach, window = escape(a0, b0)
    return reach <= window


def test_escape_window_values():
    assert escape(0.1, 0.0)[2] == pytest.approx(LN45, rel=1e-15)
    assert escape(0.2, 0.0)[2] == pytest.approx(LN10, rel=1e-15)
    assert escape(0.5 - 1e-12, 0.0)[2] == pytest.approx(0.0, abs=1e-8)
    for bad in (0.5, 0.6, 0.0, -0.1):
        assert escape(bad, 0.0) is None


def test_tiny_density_overflows_the_log_argument_to_inf():
    # below about 1e-162, s * s underflows to 0; the argument itself is inf
    assert escape(1e-170, 0.0)[2] == math.inf
    assert classify(1e-170, 0.25) is Region.OMEGA_M and in_certified_interior(1e-170, 0.25)
    assert classify(1e-170, -1e-171) is Region.OMEGA_B
    assert classify(2.2e-177, 0.0) is Region.OUTSIDE


def test_negative_start_escape_window():
    assert escape(0.1, -0.1)[2] == pytest.approx(LN10, rel=1e-12)
    assert escape(0.2, -0.2)[2] == pytest.approx(math.log(1.875), rel=1e-12)
    # continuity with the nonnegative-start formula as b0 -> 0-
    assert escape(0.1, -1e-12)[2] == pytest.approx(escape(0.1, 0.0)[2], rel=1e-9)
    assert escape(0.1, -0.5) is None


def test_minimum_growth_rate():
    assert escape(0.25, 0.1)[0] == pytest.approx(0.25)
    assert escape(0.1, -0.1)[0] == pytest.approx(0.275)
    assert escape(1e-12, 0.0)[0] == pytest.approx(0.375)
    assert escape(0.3, -0.4) is None  # a0 - b0 >= 1/2


def test_admissibility_inequality():
    assert _admissible(0.1, 0.2)
    assert _admissible(0.1, -0.1)
    assert not _admissible(0.45, 0.30)
    assert _admissible(0.3, 0.8)  # already in the invariant slice
    assert escape(0.6, 0.2) is None
    assert escape(0.2, -0.4) is None


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


_BELOW_HALF = float(np.nextafter(0.5, 0.0))


@given(
    rho=st.floats(min_value=1e-3, max_value=0.55),
    d=st.floats(min_value=-0.55, max_value=0.8),
)
# the seams, which random floats almost never hit: d = 1/2 and its neighbours,
# d = +-0, the largest rho below 1/2, and the strip's edge d = rho - 1/2
@example(rho=0.25, d=0.5)
@example(rho=0.25, d=_BELOW_HALF)
@example(rho=0.25, d=float(np.nextafter(0.5, 1.0)))
@example(rho=0.25, d=0.0)
@example(rho=0.25, d=-0.0)
@example(rho=_BELOW_HALF, d=0.5)
@example(rho=_BELOW_HALF, d=0.1)
@example(rho=0.1, d=0.1 - 0.5)
@example(rho=0.1, d=float(np.nextafter(0.1 - 0.5, 1.0)))
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
        if not in_certified_interior(a0, b0):
            continue
        s_bound = escape(a0, b0)[1]
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
        if not in_certified_interior(a0, b0):
            continue
        traj = integrate(aux_system(), np.array([a0, b0, 1.0]), opts)
        below = traj.y[:, 1] <= 0.5
        assert np.all(traj.y[below, 0] < a0 - b0 + 1e-9)
        checked += 1
