"""Plateau test functions, the admissibility constants, multiplier windows,
and the report plumbing on the reference disc instance."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import orlicz_lab as ol
from orlicz_lab import ConditionFailure, DomainError

from conftest import build_setup
import oracles as oc

D_REF = 0.15
R_REF = 0.0274


def small_disc(n=33, phi=None, psi=None):
    return build_setup(phi or ol.Power(3.0), psi or ol.Power(2.0),
                       {"shape": "disc", "n": n, "extent": [1.0]})


# ---------------------------------------------------------------------------
# the plateau test function

def test_plateau_values(disc_reference):
    setup = disc_reference
    v = ol.build_test_function(setup, D_REF)
    dom = setup.dom
    dist = np.hypot(dom.nodes[..., 0], dom.nodes[..., 1])
    inner = dist <= 0.25 * dom.D
    assert np.allclose(v.values[inner], D_REF, atol=1e-14)
    at_three_quarters = np.isclose(dist, 0.75 * dom.D, atol=1e-9)
    if np.any(at_three_quarters):
        assert np.allclose(v.values[at_three_quarters], 0.5 * D_REF,
                           atol=1e-12)
    outer = ~dom.interior
    assert np.all(v.values[outer] == 0.0)
    with pytest.raises(DomainError):
        ol.build_test_function(setup, 0.0)


def test_plateau_gradient_magnitude(disc_reference):
    setup = disc_reference
    dom = setup.dom
    v = ol.build_test_function(setup, D_REF)
    mag = ol.gradient_magnitude(dom, v.values)
    corner = np.hypot(dom.nodes[..., 0], dom.nodes[..., 1])
    cdist = np.stack([corner[:-1, :-1], corner[1:, :-1],
                      corner[:-1, 1:], corner[1:, 1:]])
    slope = 2.0 * D_REF / dom.D
    # deep inside the annulus the ramp slope dominates the O(h) stencil skew
    mid = np.all((cdist > 0.55 * dom.D) & (cdist < 0.9 * dom.D), axis=0)
    assert np.all(np.abs(mag[mid] - slope) <= 0.05 * slope)
    flat = np.all(cdist < 0.4 * dom.D, axis=0)
    assert np.all(mag[flat] == 0.0)


def test_plateau_energies_match_disc_integrals(disc_reference):
    setup = disc_reference
    v = ol.build_test_function(setup, D_REF)
    i_vd = ol.energy_I(setup, v)
    j_vd = ol.energy_J(setup, v)
    # the gradient stencil smears the two circles, an O(h) effect on I
    assert i_vd == pytest.approx(oc.ramp_energy_disc(D_REF), rel=0.15)
    assert j_vd == pytest.approx(oc.ramp_reaction_disc(D_REF), rel=5e-3)


def test_plateau_reaction_exceeds_plateau_only_bound(disc_reference):
    setup = disc_reference
    v = ol.build_test_function(setup, D_REF)
    l1, m1 = setup.psi_l, setup.psi_m
    plateau_only = (min(abs(D_REF) ** l1, abs(D_REF) ** m1)
                    * float(setup.psi.value(1.0))
                    * math.pi * (0.5 * setup.dom.D) ** 2)
    assert ol.energy_J(setup, v) >= plateau_only * (1.0 - 5e-3)


@pytest.mark.parametrize("phi,d", [
    (ol.Power(2.0), 0.15),
    (ol.Power(3.0), 0.15),
    (ol.PowerSum(2.0, 4.0), 0.4),
    (ol.Plasticity(2.0, 1.0), 0.4),
])
def test_energy_bounds_sandwich_with_stencil_envelope(phi, d):
    setup = small_disc(n=81, phi=phi)
    v = ol.build_test_function(setup, d)
    i_vd = ol.energy_I(setup, v)
    lo, hi = ol.energy_bounds_ine(setup, d)
    assert lo <= hi
    env = 12.0 * setup.dom.h
    assert lo * (1.0 - env) <= i_vd <= hi * (1.0 + env)


# ---------------------------------------------------------------------------
# constants

def test_constant_norm_inverts_the_modular(disc_reference):
    setup = disc_reference
    for on in ("omega", "annulus"):
        xi = ol.constant_norm(setup, 0.3, on=on)
        if on == "omega":
            mass = float(np.sum(setup.dom.node_qw * setup.w.values))
        else:
            dist = np.hypot(setup.dom.nodes[..., 0], setup.dom.nodes[..., 1])
            band = (dist > 0.5 * setup.dom.D) & (dist < setup.dom.D)
            mass = float(np.sum(setup.dom.node_qw * setup.w.values * band))
        assert float(setup.phi.value(0.3 / xi)) * mass == pytest.approx(
            1.0, rel=1e-10)
    assert ol.constant_norm(setup, 0.0) == 0.0
    assert ol.constant_norm(setup, 0.3, on="omega") \
        > ol.constant_norm(setup, 0.3, on="annulus")
    with pytest.raises(DomainError):
        ol.constant_norm(setup, 0.3, on="ring")


def test_gamma_d_against_independent_assembly(disc_reference):
    setup = disc_reference
    got = ol.gamma_d(setup, D_REF)
    # rebuild every factor from scratch: ball volume via the gamma function,
    # the constant norm via scalar root finding on t**3/3
    mass = float(np.sum(setup.dom.node_qw * setup.w.values))
    c = D_REF / setup.dom.D
    xi = brentq(lambda t: ((c / t) ** 3) / 3.0 * mass - 1.0, 1e-9, 1e9,
                xtol=1e-15)
    numer = (D_REF ** 2) * 0.5 * oc.ball_volume(2, 0.5 * setup.dom.D)
    denom = 4.0 ** 3 * xi ** 3
    assert got == pytest.approx(numer / denom, rel=1e-10)
    assert oc.ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)


def test_gamma_d_stable_under_refinement():
    coarse = ol.gamma_d(small_disc(n=41), D_REF)
    fine = ol.gamma_d(small_disc(n=81), D_REF)
    assert coarse == pytest.approx(fine, rel=0.15)
    with pytest.raises(DomainError):
        ol.gamma_d(build_setup(ol.Power(3.0), ol.Power(2.0),
                               {"shape": "interval", "n": 32,
                                "extent": [0.0, 1.0]}), D_REF)


def test_w_tilde_r_brute_force_and_monotone(disc_reference):
    setup = disc_reference
    c1 = 0.47
    l, m = setup.phi_l, setup.phi_m
    l1, m1 = setup.psi_l, setup.psi_m
    for r in (1e-3, R_REF, 0.9, 3.7):
        want = max(c1 ** l1, c1 ** m1) * max(
            r ** (i / j) for i in (l1, m1) for j in (l, m))
        assert ol.w_tilde_r(setup, r, c1) == pytest.approx(want, rel=1e-12)
    rs = np.geomspace(1e-3, 10.0, 40)
    vals = [ol.w_tilde_r(setup, r, c1) for r in rs]
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(DomainError):
        ol.w_tilde_r(setup, 0.0, c1)


def test_default_c1_deterministic(disc_reference):
    a = ol.default_c1(disc_reference, trials=8, seed=5)
    b = ol.default_c1(disc_reference, trials=8, seed=5)
    assert a == b and a > 0


def test_default_c1_reaches_the_extremal_quotient(disc_reference):
    # for pure powers the level-set minimizer is the extremal shape of the
    # norm quotient, so the estimate must reach its quotient rather than
    # stop at the best seeded sample
    setup = disc_reference
    args = (setup.phi, setup.psi, setup.w, setup.w1, setup.dom, 24)
    sampled = ol.poincare_estimate(*args, seed=1, include_solver=False)
    got = ol.poincare_estimate(*args, seed=1, include_solver=True)
    u = ol.minimize_on_level(setup, 1.0, opts=ol.SolverOptions(tol=1e-6)).u
    quotient = (ol.luxemburg_norm(setup.psi, setup.w1, u)
                / ol.gradient_norm(setup.phi, setup.w, u))
    assert got == pytest.approx(quotient, rel=1e-6)
    assert got > sampled
    assert ol.default_c1(setup, seed=1) == got


def test_poincare_estimate_solver_failures(monkeypatch):
    setup = small_disc()
    args = (setup.phi, setup.psi, setup.w, setup.w1, setup.dom, 8)
    sampled = ol.poincare_estimate(*args, include_solver=False)

    def exhausted(*_, **__):
        raise ol.NonConvergenceError("iteration budget exhausted")

    def broken(*_, **__):
        raise TypeError("unexpected argument")

    # an exhausted budget falls back to the sampled bound ...
    monkeypatch.setattr("orlicz_lab.eigensolver.minimize_on_level", exhausted)
    assert ol.poincare_estimate(*args) == sampled
    # ... but a programming error is not mistaken for one
    monkeypatch.setattr("orlicz_lab.eigensolver.minimize_on_level", broken)
    with pytest.raises(TypeError):
        ol.poincare_estimate(*args)


def test_r_cap_variants_and_ine_link(disc_reference):
    setup = disc_reference
    stated = ol.r_condition_cap(setup, D_REF)
    doubled = ol.r_condition_cap(setup, D_REF, two_n=True)
    # below the unit ball a larger constant raises the min of its powers
    assert doubled > stated
    assert ol.r_condition_cap(setup, D_REF, on="annulus") < stated
    lo, _ = ol.energy_bounds_ine(setup, D_REF)
    assert ol.r_condition_cap(setup, D_REF, on="annulus") == pytest.approx(
        lo, rel=1e-12)


def test_admissible_matches_its_two_clauses(disc_reference):
    setup = disc_reference
    c1 = 0.499862
    flag = ol.admissible(setup, D_REF, R_REF, c1=c1)
    manual = (R_REF < ol.r_condition_cap(setup, D_REF)
              and ol.w_tilde_r(setup, R_REF, c1) < ol.gamma_d(setup, D_REF))
    assert flag == manual
    assert flag
    # a huge radius breaks the cap clause
    assert not ol.admissible(setup, D_REF, 10.0, c1=c1)


# ---------------------------------------------------------------------------
# multiplier windows

def test_lambda_interval_reference_window(disc_reference):
    setup = disc_reference
    lo, hi, sup_j = ol.lambda_interval(setup, D_REF, R_REF,
                                       samples=48, seed=1)
    assert lo < hi
    assert lo == pytest.approx(1.49172, rel=1e-3)
    assert hi == pytest.approx(1.50455, rel=1e-3)
    v = ol.build_test_function(setup, D_REF)
    assert lo == pytest.approx(
        ol.energy_I(setup, v) / ol.energy_J(setup, v), rel=1e-12)
    assert hi == pytest.approx(R_REF / sup_j, rel=1e-12)


def test_lambda_interval_validation():
    setup = small_disc(n=17)
    with pytest.raises(DomainError, match="plateau height"):
        ol.lambda_interval(setup, 0.0, R_REF)
    with pytest.raises(DomainError, match="radius"):
        ol.lambda_interval(setup, D_REF, -1.0)
    line = build_setup(ol.Power(3.0), ol.Power(2.0),
                       {"shape": "interval", "n": 32, "extent": [0.0, 1.0]})
    with pytest.raises(DomainError, match="2D"):
        ol.lambda_interval(line, D_REF, R_REF)


def test_region_conditions_gate():
    with pytest.raises(ConditionFailure) as err:
        ol.RegionInput(small_disc(n=17, phi=ol.Power(1.5)), D_REF, R_REF)
    assert err.value.condition == "phi2"
    with pytest.raises(ConditionFailure) as err:
        ol.RegionInput(small_disc(n=17, psi=ol.Power(3.0)), D_REF, R_REF)
    assert err.value.condition == "psi2"


# ---------------------------------------------------------------------------
# the critical-point probe

def test_count_critical_points_zero_starts(disc_reference):
    assert ol.count_critical_points(disc_reference, 1.5, 0) == 0


def test_count_critical_points_finds_nontrivial_cluster():
    setup = small_disc(n=61)
    found = ol.count_critical_points(setup, 1.5, 4, seed=0)
    # zero is always one cluster; a window multiplier yields nonzero states
    assert found >= 2


def test_count_critical_points_merges_starts_at_one_state():
    # every start is one-signed, so each descent ends at the positive
    # ground state of I - lam J; stopping short of it would split that
    # state into several clusters
    setup = small_disc(n=61)
    assert ol.count_critical_points(setup, 1.5, 4, seed=0) == 2


# ---------------------------------------------------------------------------
# reports

def test_region_report_matches_grid_search_row(disc_reference):
    setup = disc_reference
    rep = ol.region_report(setup, D_REF, R_REF, samples=16, seed=1)
    rows = ol.grid_search(setup, [D_REF], [R_REF], samples=16, seed=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.lambda_interval == pytest.approx(rep.lambda_interval,
                                                rel=1e-12)
    assert row.sup_J_r == rep.sup_J_r
    assert row.admissible == rep.admissible
    assert row.c1 == rep.c1
    assert row.gamma_d == rep.gamma_d and row.r_cap == rep.r_cap


def test_report_row_layout():
    rep = _fake_report(lo=1.2, hi=1.4, admissible=True, probe=None)
    row = ol.report_row(rep)
    assert len(row) == len(ol.REPORT_COLUMNS) == 16
    assert row[ol.REPORT_COLUMNS.index("admissible")] == 1
    assert row[ol.REPORT_COLUMNS.index("critical_points_found")] == -1
    rep2 = _fake_report(lo=1.2, hi=1.4, admissible=False, probe=3)
    row2 = ol.report_row(rep2)
    assert row2[ol.REPORT_COLUMNS.index("admissible")] == 0
    assert row2[ol.REPORT_COLUMNS.index("critical_points_found")] == 3


def test_format_report_text():
    text = ol.format_report(_fake_report(lo=1.2, hi=1.4, admissible=True,
                                         probe=2))
    assert "r cap" in text and "lambda window" in text
    assert "[empty]" not in text and "critical points: 2" in text
    empty = ol.format_report(_fake_report(lo=1.4, hi=1.2, admissible=False,
                                          probe=None))
    assert "[empty]" in empty and "not probed" in empty


def _fake_report(lo, hi, admissible, probe):
    return ol.RegionReport(
        d=D_REF, r=R_REF, I_vd=0.024, J_vd=0.016,
        bounds_ine=(0.021, 0.021), gamma_d=0.039, w_tilde_r=0.018,
        sup_J_r=0.0182, lambda_interval=(lo, hi), admissible=admissible,
        critical_points_found=probe, c1=0.45, gamma_d_annulus=0.05,
        r_cap=0.021)
