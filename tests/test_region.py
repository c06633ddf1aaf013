"""Plateau test functions, the admissibility constants, multiplier windows,
and the report plumbing on the reference disc instance."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import orlicz_lab as ol
from orlicz_lab import (ConditionFailure, DomainError, eigensolver, norms,
                        region)

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
    a = ol.default_c1(disc_reference, seed=5)
    b = ol.default_c1(disc_reference, seed=5)
    assert a == b and a > 0


def sampled_poincare_bound(monkeypatch, setup, trials, seed=0):
    """The estimate from the seeded candidates alone: the solver run is
    made to fail, so the estimator falls back to the sampled bound."""
    def exhausted(*_, **__):
        raise ol.NonConvergenceError("iteration budget exhausted")

    with monkeypatch.context() as patched:
        patched.setattr("orlicz_lab.region.minimize_on_level", exhausted)
        return ol.poincare_estimate(setup, trials, seed=seed)


def test_default_c1_reaches_the_extremal_quotient(disc_reference,
                                                  monkeypatch):
    # for pure powers the level-set minimizer is the extremal shape of the
    # norm quotient, so the estimate must reach its quotient rather than
    # stop at the best seeded sample
    setup = disc_reference
    got = ol.poincare_estimate(setup, 24, seed=1)
    sampled = sampled_poincare_bound(monkeypatch, setup, 24, seed=1)
    u = ol.minimize_on_level(setup, 1.0, opts=ol.SolverOptions(tol=1e-6)).u
    quotient = (ol.luxemburg_norm(setup.psi, setup.w1, u)
                / ol.gradient_norm(setup.phi, setup.w, u))
    assert got == pytest.approx(quotient, rel=1e-6)
    assert got > sampled
    assert ol.default_c1(setup, seed=1) == got


def test_poincare_estimate_solver_failures(monkeypatch):
    setup = small_disc()
    sampled = sampled_poincare_bound(monkeypatch, setup, 8)

    def broken(*_, **__):
        raise TypeError("unexpected argument")

    # an exhausted budget falls back to the sampled bound, which the
    # seeded candidates alone give ...
    smooth = ol.smooth_candidates(setup.dom, 8, 0)
    num = ol.luxemburg_values(setup.psi, setup.w1.values, setup.dom.node_qw,
                              smooth)
    mags = np.stack([ol.gradient_magnitude(setup.dom, c) for c in smooth])
    den = ol.luxemburg_values(setup.phi, setup.w.cell_values(),
                              setup.dom.cell_qw, mags)
    assert sampled == np.max(num / den)
    # ... but a programming error is not mistaken for one
    monkeypatch.setattr("orlicz_lab.region.minimize_on_level", broken)
    with pytest.raises(TypeError):
        ol.poincare_estimate(setup, 8)


def test_r_cap_variants_and_ine_link(disc_reference):
    setup = disc_reference
    stated = ol.r_condition_cap(setup, D_REF)
    doubled = ol.r_condition_cap(setup, D_REF, two_n=True)
    # below the unit ball a larger constant raises the min of its powers
    assert doubled > stated


def test_admissible_matches_its_two_clauses(disc_reference):
    setup = disc_reference
    c1 = 0.499862
    flag = ol.grid_search(setup, [D_REF], [R_REF], c1=c1)[0].admissible
    manual = (R_REF < ol.r_condition_cap(setup, D_REF)
              and ol.w_tilde_r(setup, R_REF, c1) < ol.gamma_d(setup, D_REF))
    assert flag == manual
    assert flag
    # a huge radius breaks the cap clause
    assert not ol.grid_search(setup, [D_REF], [10.0], c1=c1)[0].admissible


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


def test_admissible_validates_before_computing_c1(monkeypatch):
    setup = small_disc(n=17)

    def no_work(*args, **kwargs):
        raise AssertionError("grid_search computed c1 before validating")
    monkeypatch.setattr(region, "default_c1", no_work)
    with pytest.raises(DomainError, match="plateau height d must be nonzero"):
        ol.grid_search(setup, [0.0], [R_REF])
    with pytest.raises(DomainError, match="energy radius r must be positive"):
        ol.grid_search(setup, [D_REF], [-1.0])
    with pytest.raises(ConditionFailure):
        ol.grid_search(small_disc(n=17, phi=ol.Power(1.5)), [D_REF],
                       [R_REF])


def test_region_conditions_gate():
    with pytest.raises(ConditionFailure) as err:
        ol.lambda_interval(small_disc(n=17, phi=ol.Power(1.5)), D_REF, R_REF)
    assert err.value.condition == "phi2"
    with pytest.raises(ConditionFailure) as err:
        ol.lambda_interval(small_disc(n=17, psi=ol.Power(3.0)), D_REF, R_REF)
    assert err.value.condition == "psi2"


# ---------------------------------------------------------------------------
# the critical-point probe

def test_count_critical_points_zero_starts(disc_reference):
    assert ol.count_critical_points(disc_reference, 1.5, 0) == 0


def test_count_critical_points_needs_a_dominated_reaction():
    # with Psi = Phi the free energy I - lam J is not coercive above the
    # first eigenvalue: on this disc at lam = 2 lambda_1 the descents ran
    # off to max|u| ~ 1e4 and were counted as 4 more critical points
    for p in (2.0, 3.0):
        setup = small_disc(phi=ol.Power(p), psi=ol.Power(p))
        with pytest.raises(ConditionFailure) as err:
            ol.count_critical_points(setup, 12.0, 4, seed=0)
        assert err.value.condition == "psi2"


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


def test_count_critical_points_merges_starts_for_mixed_growth():
    # the four one-signed starts reach the same positive state; with the
    # secant slope psi/t in place of the reaction curvature psi' they
    # stopped at max u 0.3546-0.3554 and split it into two clusters
    setup = small_disc(phi=ol.PowerSum(2.0, 4.0), psi=ol.PowerSum(1.5, 2.5))
    assert ol.count_critical_points(setup, 3.0, 4, seed=1) == 2


def test_count_critical_points_runs_one_batch_and_raises_in_start_order(
        monkeypatch):
    # all starts go to one descent call; of the starts that end in an
    # error, the first raises, as a start-by-start probe would
    batches = []

    def failing(setup, alpha, starts, opts, **kwargs):
        batches.append(len(starts))
        return [(DomainError(f"start {i}"), False) if i % 2 else
                (None, False) for i in range(len(starts))]
    monkeypatch.setattr(region, "_descend", failing)
    with pytest.raises(DomainError, match="start 1"):
        ol.count_critical_points(small_disc(), 1.5, 4, seed=0)
    assert batches == [4]


def _probe_lapack(monkeypatch):
    """Wrap the banded factorizations and the probe's descents: returns
    ``(calls, failed, outcomes)``, LAPACK calls and failed pivots per
    kernel and each start's ``(pair, converged)``."""
    lapack = eigensolver._lapack()
    calls, failed, outcomes = {}, {}, []
    for name in ("dgbtrf", "dpbtrf"):
        def counted(*args, _real=getattr(lapack, name), _name=name,
                    **kwargs):
            out = _real(*args, **kwargs)
            calls[_name] = calls.get(_name, 0) + 1
            failed[_name] = failed.get(_name, 0) + (out[-1] != 0)
            return out
        monkeypatch.setattr(lapack, name, counted)
    descend = region._descend

    def recorded(*args, **kwargs):
        out = descend(*args, **kwargs)
        outcomes.extend(out)
        return out
    monkeypatch.setattr(region, "_descend", recorded)
    return calls, failed, outcomes


def test_count_critical_points_factors_by_cholesky_only(monkeypatch):
    # the critical-probe instance with unit weights: every shifted tangent
    # is positive definite, so no LU runs and no start falls back
    calls, failed, outcomes = _probe_lapack(monkeypatch)
    assert ol.count_critical_points(small_disc(n=41), 1.5, 2, seed=0) == 2
    assert [pair.iterations for pair, _ in outcomes] == [4, 5]
    assert all(ok for _, ok in outcomes)
    assert calls == {"dpbtrf": 9} and failed == {"dpbtrf": 0}
    # the starts run as one batch, whose pairs share one stats dict
    stats = outcomes[0][0].stats
    assert all(pair.stats is stats for pair, _ in outcomes)
    assert stats["factorizations"] == 9


def test_count_critical_points_falls_back_past_a_failed_cholesky(
        monkeypatch):
    # far above the first eigenvalue some shifted tangents are indefinite:
    # their Cholesky pivot fails, the step takes the unshifted tangent and
    # every start still converges in a few iterations; the failed
    # factorizations are counted in stats, and the fallback factors the
    # tangent already assembled for the shifted attempt
    calls, failed, outcomes = _probe_lapack(monkeypatch)
    tensor, assembled = eigensolver._tangent_tensor, []

    def counted(*args):
        assembled.append(1)
        return tensor(*args)
    monkeypatch.setattr(eigensolver, "_tangent_tensor", counted)
    assert ol.count_critical_points(small_disc(n=41), 2000.0, 4,
                                    seed=0) == 2
    assert [pair.iterations for pair, _ in outcomes] == [5, 5, 5, 5]
    assert all(ok for _, ok in outcomes)
    assert "dgbtrf" not in calls and failed["dpbtrf"] == 6
    stats = outcomes[0][0].stats
    assert all(pair.stats is stats for pair, _ in outcomes)
    assert stats["factorizations"] == calls["dpbtrf"] == 26
    assert len(assembled) == 20


def test_free_descent_extends_full_steps_past_the_radial_halving():
    # far from a critical point a Newton step on the 3-homogeneous I only
    # halves the amplitude: without the extension the probe's far start
    # (amplitude 7.1, the starts of count_critical_points at seed 0) takes
    # 10 iterations, 5 of them halving.  The cubic model of the merit
    # along each full step jumps past that phase; each extension is one
    # more trial and no factorization
    setup = small_disc(n=41)
    amps = 10.0 ** np.random.default_rng(1).uniform(-2.0, 1.0, size=2)
    near, far = ol.smooth_candidates(setup.dom, 2, 0) * amps[:, None, None]
    assert amps[1] == pytest.approx(7.1, abs=0.01)
    opts = ol.SolverOptions(tol=1e-6, max_iter=2000)
    (ref, ok_ref), (pair, ok) = (eigensolver._single(eigensolver._descend(
        setup, None, start[None], opts, lam0=1.5)) for start in (near, far))
    assert ok_ref and ok and pair.iterations <= 6
    assert pair.stats["factorizations"] == pair.iterations
    assert pair.stats["trials"] > pair.iterations
    gap = np.max(np.abs(pair.u.values - ref.u.values))
    assert gap <= 1e-3 * np.max(np.abs(ref.u.values))


def test_free_descent_drops_extension_trials_it_cannot_evaluate(
        monkeypatch):
    # with the cap at -1e307 every extension trial steps 1e307 back along
    # its direction, where I and J overflow and the merit is NaN: each is
    # dropped, ends no row, and the descents take the path they take
    # without the extension
    calls, failed, outcomes = _probe_lapack(monkeypatch)
    monkeypatch.setattr(eigensolver, "_EXTEND_MAX", -1e307)
    assert ol.count_critical_points(small_disc(n=41), 1.5, 2, seed=0) == 2
    assert [pair.iterations for pair, _ in outcomes] == [5, 10]
    assert all(ok for _, ok in outcomes)
    stats = outcomes[0][0].stats
    assert stats["factorizations"] == calls["dpbtrf"] == 15
    assert stats["trials"] > 15


# ---------------------------------------------------------------------------
# reports

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


def test_grid_search_draws_the_shell_batch_once(monkeypatch):
    setup = small_disc(n=33)
    calls = []
    draw = region._candidate_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)
    monkeypatch.setattr(region, "_candidate_blocks", counted)
    rows = ol.grid_search(setup, [0.1, D_REF], [0.0265, R_REF, 0.0281],
                          samples=16, seed=3, c1=0.45)
    assert len(rows) == 6 and len(calls) == 1
    # each r rescales the same batch, so the one-r window reads the grid's
    # supremum bit for bit
    for row in rows:
        _, _, sup_j = ol.lambda_interval(setup, row.d, row.r, samples=16,
                                         seed=3)
        assert sup_j == row.sup_J_r


@pytest.mark.parametrize("samples", [16, 30])
def test_grid_search_draws_one_batch_for_c1_and_the_shells(monkeypatch,
                                                          samples):
    # c1 takes the first 24 fields of the draw and the shells rows 1 to
    # samples, so both read the values of their own seeded draws
    setup = small_disc(n=33)
    want_c1 = ol.poincare_estimate(setup, 24, seed=3)
    want_sup = ol.lambda_interval(setup, D_REF, R_REF, samples=samples,
                                  seed=3)[2]
    calls, drawn, differentiated = [], [], []
    draw, grad = region._candidate_blocks, region.gradient_magnitude

    def counted(*args, **kwargs):
        calls.append(args[1])
        for block in draw(*args, **kwargs):
            drawn.append(block)
            yield block

    def counted_grad(dom, values):
        differentiated.append(values)
        return grad(dom, values)
    monkeypatch.setattr(region, "_candidate_blocks", counted)
    monkeypatch.setattr(region, "gradient_magnitude", counted_grad)
    rep, = ol.grid_search(setup, [D_REF], [R_REF], samples=samples, seed=3)
    # one draw, in blocks, each differentiated once; the one other gradient
    # is the solver's minimizer's
    assert calls == [max(24, samples + 1)]
    assert sum(map(len, drawn)) == calls[0]
    assert all(len(block) <= norms._BLOCK_ROWS for block in drawn)
    assert [sum(v is block for v in differentiated) for block in drawn] == \
        [1] * len(drawn)
    assert len(differentiated) == len(drawn) + 1
    assert rep.c1 == want_c1 and rep.sup_J_r == want_sup


def test_grid_search_validates_every_pair_before_any_work(disc_reference,
                                                          monkeypatch):
    setup = disc_reference

    def no_work(*args, **kwargs):
        raise AssertionError("grid_search did work before validating")
    monkeypatch.setattr(region, "default_c1", no_work)
    monkeypatch.setattr(region, "_sup_reaction_on_shell", no_work)
    with pytest.raises(DomainError, match="energy radius r must be positive"):
        ol.grid_search(setup, [D_REF], [R_REF, 0.0])
    with pytest.raises(DomainError, match="plateau height d must be nonzero"):
        ol.grid_search(setup, [D_REF, 0.0], [R_REF])
    with pytest.raises(DomainError, match="energy radius r must be positive"):
        ol.grid_search(setup, [D_REF], [-0.01])


@pytest.mark.parametrize("d_values,r_values", [
    ([], [R_REF]), ([D_REF], []), ([], [])])
def test_grid_search_rejects_empty_lists(d_values, r_values):
    with pytest.raises(DomainError, match="at least one d and one r"):
        ol.grid_search(small_disc(), d_values, r_values, c1=0.45)


def _shell_sups_one_r_at_a_time(setup, r_values, samples, seed):
    """The shell suprema as first computed: one gradient per candidate
    and one scaling per r."""
    dom = setup.dom
    cands = ol.smooth_candidates(dom, samples + 1, seed)[1:]
    mags = np.stack([ol.gradient_magnitude(dom, c) for c in cands])
    sups = []
    for r in r_values:
        scales = ol.scale_to_modular(setup.phi, setup.w_cell_qw, mags, r)
        live = np.isfinite(scales)
        scaled = cands[live] * scales[live].reshape(-1, 1, 1)
        sups.append(float(np.max(ol.modular_values(
            setup.psi, setup.w1.values, dom.node_qw, scaled))))
    return sups


def _poincare_one_shot(setup, trials, seed):
    """poincare_estimate as first computed: the whole draw and the solver's
    minimizer reduced at once, with one gradient per field."""
    dom = setup.dom
    cands = ol.smooth_candidates(dom, trials, seed)
    pair = ol.minimize_on_level(setup, 1.0,
                                init=ol.GridFunction(dom, cands[0]),
                                opts=ol.SolverOptions(tol=1e-4, max_iter=2000))
    rows = np.concatenate([cands, pair.u.values[None]])
    mags = np.stack([ol.gradient_magnitude(dom, u) for u in rows])
    num = ol.luxemburg_values(setup.psi, setup.w1.values, dom.node_qw, rows)
    den = ol.luxemburg_values(setup.phi, setup.w.cell_values(),
                              setup.dom.cell_qw, mags)
    return float(np.max(num / den))


@pytest.mark.parametrize("grid", [
    {"shape": "disc", "n": 33, "extent": [1.0]},
    {"shape": "box", "n": 17, "extent": [0.0, 1.0]}], ids=["disc", "box"])
def test_streamed_sampler_equals_the_one_shot_references(grid):
    # the sampler reduces its draw block by block; at sample counts on
    # either side of a block edge, and past C1's 24 rows, every number is
    # the one-shot reference's bit for bit
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), grid)
    block = norms._BLOCK_ROWS
    r_values = [0.02, R_REF]
    c1 = _poincare_one_shot(setup, 24, 3)
    for samples in (1, block - 1, block, block + 1,
                    region._C1_TRIALS + block + 1):
        reports = ol.grid_search(setup, [D_REF], r_values, samples=samples,
                                 seed=3)
        assert [rep.sup_J_r for rep in reports] == \
            _shell_sups_one_r_at_a_time(setup, r_values, samples, 3)
        assert [rep.c1 for rep in reports] == [c1, c1]
        for rep in reports:
            assert ol.lambda_interval(setup, D_REF, rep.r, samples=samples,
                                      seed=3) == (*rep.lambda_interval,
                                                  rep.sup_J_r)
        assert ol.poincare_estimate(setup, samples, seed=3) == \
            _poincare_one_shot(setup, samples, 3)
    assert ol.poincare_estimate(setup, 24, seed=3) == c1


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shell_sampler_memory_does_not_grow_with_samples():
    # the draw is reduced block by block, so 1000 samples hold no more
    # than 48 do (a one-shot batch held 17 times as much)
    setup = small_disc(n=41)
    ol.lambda_interval(setup, D_REF, R_REF, samples=48, seed=1)  # warm-up
    peaks = {samples: _traced_peak(lambda: ol.lambda_interval(
        setup, D_REF, R_REF, samples=samples, seed=1))
        for samples in (48, 1000)}
    assert peaks[1000] <= 2 * peaks[48]


def test_grid_search_holds_no_more_than_c1_solve(disc_reference):
    # C1's solver run ends before the first block is drawn, and no block
    # is kept once the shells and C1 have read it, so the search peaks at
    # about the solve's own memory
    setup = disc_reference

    def search():
        ol.grid_search(setup, [0.1, D_REF], [0.02, R_REF], samples=48,
                       seed=1)

    def solve():
        ol.minimize_on_level(setup, 1.0, opts=ol.SolverOptions(
            tol=1e-4, max_iter=2000))
    search()  # warm-up
    assert _traced_peak(search) <= 1.25 * _traced_peak(solve)


def test_powersum_grid_search_matches_one_r_at_a_time():
    # PowerSum has no closed-form factor, so every shell scaling runs the
    # root search
    setup = small_disc(33, ol.PowerSum(2.0, 4.0), ol.PowerSum(1.5, 2.5))
    d_values, r_values = [0.1, 0.2], [0.01, 0.02, 0.03]
    reports = ol.grid_search(setup, d_values, r_values, seed=3)
    sups = _shell_sups_one_r_at_a_time(setup, r_values, 48, 3)
    assert [rep.sup_J_r for rep in reports] == sups * len(d_values)
    assert [rep.lambda_interval[1] for rep in reports] == \
        [r / s for r, s in zip(r_values, sups)] * len(d_values)


def test_tiny_plateau_height_is_a_domain_error(disc_reference, monkeypatch):
    # d passes the nonzero check, but J(v_d) and the norm powers of d/D
    # underflow to 0
    setup = disc_reference

    def no_work(*args, **kwargs):
        raise AssertionError("grid_search solved for c1 before checking J")
    monkeypatch.setattr(region, "default_c1", no_work)
    with pytest.raises(DomainError, match="vanishing reaction energy"):
        ol.grid_search(setup, [D_REF, 1e-200], [R_REF])
    with pytest.raises(DomainError, match="vanishing reaction energy"):
        ol.grid_search(setup, [1e-200], [R_REF], c1=0.5)
    with pytest.raises(DomainError, match="too small"):
        ol.gamma_d(setup, 1e-200)


def test_grid_search_builds_no_second_setup(monkeypatch):
    # C1 comes from the Poincare estimate on the caller's setup, so the
    # search builds no EnergySetup of its own
    setup = small_disc()
    expected = ol.poincare_estimate(setup, 24, seed=1)
    built = []
    init = ol.EnergySetup.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ol.EnergySetup, "__init__", counting)
    reports = ol.grid_search(setup, [D_REF], [R_REF], samples=16, seed=1)
    assert built == []
    assert reports[0].c1 == expected
