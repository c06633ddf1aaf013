"""Constrained minimization, certification, the minimax ladder, and level
sweeps, checked against independent dense and shooting references."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import orlicz_lab as ol
from orlicz_lab import DomainError, NonConvergenceError
from orlicz_lab.functionals import _gradient

from conftest import build_setup, random_zero_trace
import oracles as oc


def _interval(n):
    return {"shape": "interval", "n": n, "extent": [0.0, 1.0]}


# ---------------------------------------------------------------------------
# initial guesses and the Rayleigh multiplier

def test_default_init_is_one_signed_bump():
    dom = ol.domain_from_config(_interval(64))
    u = ol.default_init(dom)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert np.all(u.values >= 0.0)
    assert np.max(u.values) > 0.5


def test_rayleigh_matches_classical_quotient(rng):
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(201))
    u = random_zero_trace(setup.dom, rng)
    (g,) = ol.gradient_components(setup.dom, u.values)
    classical = (np.sum(setup.dom.cell_qw * g * g)
                 / np.sum(setup.dom.node_qw * u.values ** 2))
    assert ol.rayleigh_multiplier(setup, u) == pytest.approx(classical,
                                                             rel=1e-12)


def test_rayleigh_of_sine_near_continuum():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(201))
    u = ol.GridFunction.from_callable(setup.dom,
                                      lambda x: np.sin(np.pi * x))
    assert ol.rayleigh_multiplier(setup, u) == pytest.approx(np.pi ** 2,
                                                             rel=1e-3)


def test_rayleigh_scale_invariance_homogeneous(rng):
    setup = build_setup(ol.Power(3.0), ol.Power(3.0), _interval(101))
    u = random_zero_trace(setup.dom, rng)
    a = ol.rayleigh_multiplier(setup, u)
    b = ol.rayleigh_multiplier(setup, u.scaled(7.3))
    assert a == pytest.approx(b, rel=1e-12)


def test_rayleigh_rejects_zero_function():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(32))
    zero = ol.GridFunction(setup.dom, np.zeros(32))
    with pytest.raises(DomainError, match="multiplier undefined"):
        ol.rayleigh_multiplier(setup, zero)


# ---------------------------------------------------------------------------
# constrained minimization, quadratic case

def test_minimize_quadratic_matches_dense_oracle():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(257))
    pair = ol.minimize_on_level(setup, 1.0)
    want = oc.dirichlet_laplacian_eigenvalues(257)[0]
    assert pair.lam == pytest.approx(want, rel=1e-8)
    assert pair.residual <= 1e-8 * (1.0 + pair.level)
    assert ol.energy_J(setup, pair.u) == pytest.approx(1.0, rel=1e-8)
    assert np.all(pair.u.values >= -1e-12)


def test_minimize_quadratic_from_random_start(rng):
    # exercise the descent loop itself, not just the lucky default start
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(257))
    init = random_zero_trace(setup.dom, rng)
    pair = ol.minimize_on_level(setup, 1.0, init=init)
    want = oc.dirichlet_laplacian_eigenvalues(257)[0]
    assert pair.lam == pytest.approx(want, rel=1e-6)
    assert pair.iterations > 0


def test_minimize_level_and_certificate_fields():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(257))
    opts = ol.SolverOptions(tol=1e-10)
    pair = ol.minimize_on_level(setup, 0.37, opts=opts)
    assert pair.alpha == pytest.approx(0.37, rel=1e-8)
    assert pair.level == pytest.approx(ol.energy_I(setup, pair.u), rel=1e-12)
    # the stored certificate is reproducible from the pair itself
    assert ol.residual(setup, pair) == pytest.approx(pair.residual,
                                                     rel=1e-6, abs=1e-14)


def test_minimize_multiplier_independent_of_level_homogeneous():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(129))
    a = ol.minimize_on_level(setup, 1.0)
    b = ol.minimize_on_level(setup, 4.0)
    assert a.lam == pytest.approx(b.lam, rel=1e-6)


def test_minimize_rejects_bad_level():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(64))
    with pytest.raises(DomainError, match="alpha must be positive"):
        ol.minimize_on_level(setup, 0.0)


def test_stop_test_rejects_rows_that_are_not_finite():
    from orlicz_lab.eigensolver import _stops
    inf, nan = math.inf, math.nan
    res = np.array([inf, 1e-9, 1e-9, nan, 1e-9, 1.0])
    size = np.array([inf, 0.0, inf, 0.0, -inf, 0.0])
    assert _stops(res, size, 1e-8).tolist() == [False, True, False, False,
                                                False, False]


@pytest.mark.parametrize("grid", [_interval(5),
                                  {"shape": "disc", "n": 41,
                                   "extent": [1.0]}],
                         ids=["interval-n5", "disc-n41"])
def test_overflowing_level_is_not_a_converged_pair(grid):
    # at alpha = 1e300 the start's I and residual are inf, and
    # inf <= tol * (1 + inf): the stop test must not pass such a row, so
    # the descent steps, its first trial overflows and the level is named
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), grid)
    with pytest.raises(DomainError,
                       match=r"^t must be finite: .* J = 1e\+300 "):
        ol.minimize_on_level(setup, 1e300)


def test_overflowing_level_raises_without_a_warning():
    # the overflow is the error's to report: no numpy warning leaks first
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _interval(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"J = 1e\+300 overflows"):
            ol.minimize_on_level(setup, 1e300)


# ---------------------------------------------------------------------------
# constrained minimization, genuinely nonlinear cases

def test_minimize_cubic_matches_shooting_oracle():
    setup = build_setup(ol.Power(3.0), ol.Power(3.0), _interval(129))
    pair = ol.minimize_on_level(setup, 1.0)
    want = oc.plaplace_eigenvalue(3.0)
    assert pair.lam == pytest.approx(want, rel=2e-2)
    assert pair.residual <= 1e-8 * (1.0 + pair.level)
    assert pair.lam == pytest.approx(ol.rayleigh_multiplier(setup, pair.u),
                                     rel=1e-10)


def test_minimize_mixed_growth_contract(rng):
    setup = build_setup(ol.Plasticity(2.0, 1.0), ol.Power(2.0),
                        _interval(101),
                        w_values=1.0 + rng.random(101))
    opts = ol.SolverOptions(tol=1e-9)
    pair = ol.minimize_on_level(setup, 0.5, opts=opts)
    assert ol.energy_J(setup, pair.u) == pytest.approx(0.5, rel=1e-8)
    assert pair.residual <= 1e-9 * (1.0 + pair.level)
    assert pair.lam > 0


def test_minimize_deterministic_across_runs():
    setup = build_setup(ol.Power(3.0), ol.Power(3.0), _interval(129))
    a = ol.minimize_on_level(setup, 1.0)
    b = ol.minimize_on_level(setup, 1.0)
    assert np.array_equal(a.u.values, b.u.values)
    assert a.lam == b.lam


def test_minimize_exhausted_budget_raises_with_diagnostics(rng):
    setup = build_setup(ol.Power(3.0), ol.Power(3.0), _interval(101))
    init = random_zero_trace(setup.dom, rng)
    opts = ol.SolverOptions(tol=1e-13, max_iter=2)
    with pytest.raises(NonConvergenceError) as err:
        ol.minimize_on_level(setup, 1.0, init=init, opts=opts)
    assert "no convergence after 2 iterations" in str(err.value)
    assert isinstance(err.value.last, ol.EigenPair)
    assert isinstance(err.value.last.history, list) and err.value.last.history


def test_stats_count_the_work_of_a_solve(rng):
    from orlicz_lab.eigensolver import STAT_KEYS
    setup = build_setup(ol.Power(3.0), ol.Power(3.0), _interval(101))
    pair = ol.minimize_on_level(setup, 1.0)
    stats = pair.stats
    assert tuple(stats) == STAT_KEYS
    assert stats["iterations"] == pair.iterations > 0
    # one projected point per trial plus the start, and I once at each
    assert stats["projections"] == stats["trials"] + 1 == stats["energy_I"]
    # the densities at every iterate, the converged one included
    assert stats["gateaux_I"] == stats["gateaux_J"] == pair.iterations + 1
    # one tangent and one solve per step
    assert stats["factorizations"] + stats["factor_reuses"] \
        == stats["solves"] == pair.iterations

    init = random_zero_trace(setup.dom, rng)
    with pytest.raises(NonConvergenceError) as err:
        ol.minimize_on_level(setup, 1.0, init=init,
                             opts=ol.SolverOptions(tol=1e-13, max_iter=2))
    assert err.value.last.stats["iterations"] == 2
    assert err.value.last.stats["solves"] == 2


def test_signed_minimizer_is_descended_again_from_its_absolute_value():
    # from sin(2 pi x) the descent reaches the sign-changing saddle in 6
    # iterations; its absolute value has the same J and no larger I, and
    # the descent from there takes 12 more, which the pair counts too
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _interval(65))
    init = ol.GridFunction.from_callable(setup.dom,
                                         lambda x: np.sin(2.0 * np.pi * x))
    pair = ol.minimize_on_level(setup, 1.0, init=init)
    assert pair.iterations == pair.stats["iterations"] == 18
    assert np.all(pair.u.values >= 0.0)
    assert pair.lam == 49.85883651221473
    # the negative ground state: the second descent certifies its
    # absolute value at once
    quad = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(65))
    flipped = ol.minimize_on_level(quad, 1.0,
                                   init=ol.default_init(quad.dom).scaled(-1.0))
    assert flipped.iterations == flipped.stats["iterations"] == 0
    assert np.all(flipped.u.values >= 0.0)


# ---------------------------------------------------------------------------
# minimax ladder

def test_ls_sequence_quadratic_matches_dense_ladder():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(129))
    levels = ol.ls_sequence(setup, 1.0, 3)
    want = oc.dirichlet_laplacian_eigenvalues(129, count=3)
    assert [lv.k for lv in levels] == [1, 2, 3]
    for lv, lam_ref in zip(levels, want):
        assert lv.method == "nodal-1d"
        assert lv.reliable
        assert lv.pair.lam == pytest.approx(lam_ref, rel=1e-6)
        # a rung's stats hold its k subinterval solves and its polish, each
        # of which projects its start
        assert lv.stats["projections"] >= lv.k + (lv.k > 1)
        assert lv.stats["iterations"] >= lv.pair.iterations
    cs = [lv.c_k_alpha for lv in levels]
    assert cs[0] > cs[1] > cs[2]


def _sign_changes(u):
    """Sign changes among the interior values above 1e-3 of max|u|, the
    threshold of :func:`_nodal_domains`."""
    inner = u[1:-1]
    big = inner[np.abs(inner) > 1e-3 * np.max(np.abs(u))]
    return int(np.count_nonzero(np.sign(big[1:]) != np.sign(big[:-1])))


def test_ls_sequence_flags_weighted_rungs_off_their_nodal_count():
    # with w = 1 + 50 x^2 the polish of the glued bumps skips the second
    # eigenvalue: rung 2 converges to the third, with two sign changes,
    # and rungs 3-4 also lose the nodal count they were glued with
    w = 1.0 + 50.0 * np.linspace(0.0, 1.0, 129) ** 2
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(129),
                        w_values=w)
    levels = ol.ls_sequence(setup, 1.0, 4)
    dense = oc.weighted_dirichlet_eigenvalues(w, np.ones(129), count=4)
    assert levels[0].pair.lam == pytest.approx(dense[0], rel=1e-6)
    assert levels[1].pair.lam == pytest.approx(dense[2], rel=1e-6)
    assert [_sign_changes(lv.pair.u.values) for lv in levels] == [0, 2, 4, 5]
    assert [lv.reliable for lv in levels] == [True, False, False, False]
    # the polished pairs are kept, as an unconverged rung's would be
    assert all(lv.pair.residual <= 1e-8 * (1.0 + lv.pair.level)
               for lv in levels[1:])


@pytest.mark.parametrize("phi, psi, w_slope", [
    (ol.Power(2.0), ol.Power(2.0), 0.0),
    (ol.Power(3.0), ol.Power(3.0), 0.0),
    (ol.Power(3.0), ol.Power(2.0), 0.0),
    (ol.PowerSum(2.0, 4.0), ol.PowerSum(1.5, 2.5), 0.0),
    (ol.Power(1.5), ol.Power(1.5), 0.0),
    (ol.Elasticity(1.5), ol.Elasticity(1.5), 0.0),
    (ol.Plasticity(2.0, 1.0), ol.Plasticity(2.0, 1.0), 5.0),
])
def test_ls_sequence_1d_rungs_keep_their_nodal_count(phi, psi, w_slope):
    # every rung of these ladders keeps the k pieces it was glued from, so
    # the nodal test leaves their flags as the polish set them
    w = 1.0 + w_slope * np.linspace(0.0, 1.0, 129)
    setup = build_setup(phi, psi, _interval(129), w_values=w)
    levels = ol.ls_sequence(setup, 1.0, 4)
    assert [_sign_changes(lv.pair.u.values) for lv in levels] == [0, 1, 2, 3]
    assert all(lv.reliable for lv in levels)


def test_ls_sequence_first_level_agrees_with_minimizer():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(129))
    lone = ol.minimize_on_level(setup, 1.0)
    levels = ol.ls_sequence(setup, 1.0, 1)
    assert levels[0].pair.lam == pytest.approx(lone.lam, rel=1e-6)


def test_ls_sequence_cubic_ladder_scaling():
    # the one-dimensional homogeneous ladder scales like k**p
    setup = build_setup(ol.Power(3.0), ol.Power(3.0), _interval(129))
    levels = ol.ls_sequence(setup, 1.0, 3)
    lam1 = oc.plaplace_eigenvalue(3.0)
    for lv in levels:
        assert lv.pair.lam == pytest.approx(lv.k ** 3 * lam1, rel=2e-2)


def test_ls_sequence_rejects_bad_arguments():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(64))
    with pytest.raises(DomainError, match="k_max"):
        ol.ls_sequence(setup, 1.0, 0)
    with pytest.raises(DomainError, match="alpha"):
        ol.ls_sequence(setup, -1.0, 2)


def test_minimize_box_matches_separable_oracle():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0),
                        {"shape": "box", "n": 41, "extent": [0.0, 1.0]})
    pair = ol.minimize_on_level(setup, 1.0)
    want = oc.box_laplacian_eigenvalue(41)
    assert pair.lam == pytest.approx(want, rel=1e-8)


def test_ls_sequence_box_ladder():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0),
                        {"shape": "box", "n": 41, "extent": [0.0, 1.0]})
    levels = ol.ls_sequence(setup, 1.0, 3, ol.SolverOptions(tol=1e-8))
    lam11 = oc.box_laplacian_eigenvalue(41, modes=(1, 1))
    lam12 = oc.box_laplacian_eigenvalue(41, modes=(1, 2))
    assert levels[0].pair.lam == pytest.approx(lam11, rel=1e-6)
    assert levels[1].pair.lam == pytest.approx(lam12, rel=1e-4)
    cs = [lv.c_k_alpha for lv in levels]
    # the (1,2)/(2,1) pair is degenerate, so ties are legitimate
    assert cs[0] > cs[1] >= cs[2] - 1e-9 * cs[1]


def _nodal_domains(u):
    from scipy import ndimage
    eps = 1e-3 * np.max(np.abs(u))
    return ndimage.label(u > eps)[1] + ndimage.label(u < -eps)[1]


def test_ls_sequence_powersum_second_rung_certified(monkeypatch):
    # the polisher's Jacobian needs the exact reaction curvature psi':
    # with max(psi', psi/t) in its place every polish of rung 2 failed and
    # the rung fell back to the first pair.  Rung 3 needs the natural
    # monotonicity test: with a residual-square Armijo test every polish
    # of it stalled, and it fell back to rung 2 after two more penalized
    # batches with the penalty raised 10 and 100 times
    from orlicz_lab import eigensolver
    descend, batches = eigensolver._descend, []

    def counted(*args, **kwargs):
        batches.append(bool(kwargs.get("anchors")))
        return descend(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "_descend", counted)
    setup = build_setup(ol.PowerSum(2.0, 4.0), ol.PowerSum(1.5, 2.5),
                        {"shape": "box", "n": 21, "extent": [0.0, 1.0]})
    opts = ol.SolverOptions()
    levels = ol.ls_sequence(setup, 1.0, 3, opts)
    # one penalized exploration batch per rung
    assert sum(batches) == 2
    for rung in levels[1:]:
        assert rung.reliable
        assert rung.pair.residual <= opts.tol * (1.0 + rung.pair.level)
    assert [_nodal_domains(lv.pair.u.values) for lv in levels] == [1, 2, 2]
    # the box's reflection symmetry: rung 3 is rung 2 transposed, up to sign
    u2, u3 = levels[1].pair.u.values, levels[2].pair.u.values
    assert levels[2].pair.lam == pytest.approx(levels[1].pair.lam, rel=1e-10)
    assert np.max(np.abs(np.abs(u3) - np.abs(u2.T))) <= 1e-6


def test_ls_sequence_no_polish_runs_out_its_budget(monkeypatch):
    # at a converged pair of the double eigenvalue the residual-square
    # Armijo test could not close a level gap of a few 1e-9: two rung-2
    # polishes of this ladder ran their whole 300-iteration budget
    from orlicz_lab import eigensolver
    polish, iterations = eigensolver._newton_polish, []

    def counted(setup, alpha, starts, opts, stats=None):
        out = polish(setup, alpha, starts, opts, stats)
        iterations.extend(pair.iterations for pair, _ in out
                          if isinstance(pair, ol.EigenPair))
        assert opts.max_iter == 300
        return out

    monkeypatch.setattr(eigensolver, "_newton_polish", counted)
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _unit_box(11))
    levels = ol.ls_sequence(setup, 1.0, 2)
    assert len(iterations) == eigensolver._LS_STARTS
    assert max(iterations) < 300
    assert levels[1].reliable
    assert levels[1].pair.lam == 47.985297865979796


def test_ls_2d_unseparated_rung_repeats_the_previous_one(monkeypatch):
    # with every polish failed no start separates, so rung 2 falls back
    # to rung 1: the same pair and the same level, flagged unreliable
    from orlicz_lab import eigensolver

    def failed(setup, alpha, starts, opts, stats=None):
        return [(ol.EigenPair(0.0, ol.GridFunction(setup.dom, start), alpha,
                              0.0, math.inf, 0), False) for start in starts]

    monkeypatch.setattr(eigensolver, "_newton_polish", failed)
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _unit_box(11))
    first, second = ol.ls_sequence(setup, 1.0, 2)
    assert first.reliable and not second.reliable
    assert second.method == first.method == "deflation-2d"
    assert second.pair is first.pair
    assert second.c_k_alpha == first.c_k_alpha


# ---------------------------------------------------------------------------
# level sweeps

def test_spectrum_sweep_constant_for_matched_powers():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(129))
    sweep = ol.spectrum_sweep(setup, [2.0, 0.5, 1.0])
    assert not sweep.failures
    levels = [p.alpha for p in sweep.pairs]
    assert levels == sorted(levels) and len(levels) == 3
    lams = np.array([p.lam for p in sweep.pairs])
    assert np.ptp(lams) <= 1e-6 * lams[0]


def test_spectrum_sweep_mixed_growth_certified():
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _interval(101))
    sweep = ol.spectrum_sweep(setup, [0.25, 1.0, 4.0],
                              ol.SolverOptions(tol=1e-8))
    assert not sweep.failures
    lams = np.array([p.lam for p in sweep.pairs])
    # mismatched growth makes the multiplier genuinely level-dependent
    assert np.ptp(lams) > 1e-3 * lams[0]
    for p in sweep.pairs:
        assert p.residual <= 1e-8 * (1.0 + p.level)


def test_spectrum_sweep_empty_and_invalid():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _interval(64))
    sweep = ol.spectrum_sweep(setup, [])
    assert sweep.pairs == [] and sweep.failures == []
    with pytest.raises(DomainError):
        ol.spectrum_sweep(setup, [1.0, -2.0])


def test_spectrum_sweep_collects_failures_and_continues():
    setup = build_setup(ol.Power(3.0), ol.Power(3.0), _interval(101))
    opts = ol.SolverOptions(tol=1e-13, max_iter=1)
    sweep = ol.spectrum_sweep(setup, [1.0, 2.0], opts=opts)
    assert len(sweep.pairs) + len(sweep.failures) == 2
    for alpha, message in sweep.failures:
        assert alpha in (1.0, 2.0)
        assert "no convergence" in message


# ---------------------------------------------------------------------------
# tangent stiffness and iteration budgets under refinement

def _unit_box(n):
    return {"shape": "box", "n": n, "extent": [0.0, 1.0]}


def _stiffness_matrix(pat, data):
    """The assembled interior stiffness as a sparse matrix, built from the
    pattern's row and column of each entry."""
    size = pat.idx.size
    return sp.csc_matrix((data, (pat.rows, pat.cols)), shape=(size, size))


@pytest.mark.parametrize("cfg", [_unit_box(17),
                                 {"shape": "disc", "n": 21, "extent": [1.0]}],
                         ids=["box", "disc"])
@pytest.mark.parametrize("phi", [ol.Power(3.0), ol.PowerSum(2.0, 4.0)],
                         ids=["power3", "powersum24"])
def test_tangent_is_the_hessian_where_curvature_dominates(cfg, phi):
    # phi' >= phi/t for both members, so the max rule keeps the exact
    # second variation of I
    from orlicz_lab.eigensolver import _tangent_tensor
    setup = build_setup(phi, ol.Power(2.0), cfg)
    dom = setup.dom
    rng = np.random.default_rng(3)
    u = ol.smooth_candidates(dom, 2, seed=5)[1]
    v = random_zero_trace(dom, rng).values
    pat = dom.stiffness_pattern
    got = _stiffness_matrix(
        pat, pat.assemble(_tangent_tensor(setup, _gradient(dom, u)))) \
        @ v.ravel()[pat.idx]
    eps = 1e-5

    def weak(vals):
        dens = ol.gateaux_I(setup, ol.GridFunction(dom, vals)).density
        return (dom.node_qw * dens).ravel()[pat.idx]

    want = (weak(u + eps * v) - weak(u - eps * v)) / (2.0 * eps)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [33, 49, 65, 97, 129])
def test_box_cubic_iterations_bounded_under_refinement(n):
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _unit_box(n))
    pair = ol.minimize_on_level(setup, 1.0, opts=ol.SolverOptions(tol=1e-8))
    assert pair.iterations <= 30


def test_reference_disc_iterations_bounded():
    setup = build_setup(ol.Power(3.0), ol.Power(2.0),
                        {"shape": "disc", "n": 41, "extent": [1.0]})
    pair = ol.minimize_on_level(setup, 1.0, opts=ol.SolverOptions(tol=1e-6))
    assert pair.iterations <= 30


_KNOTS = np.geomspace(1e-3, 1e3, 200)
_CATALOG_PHI = [ol.Power(1.5), ol.Power(2.5), ol.Power(4.0),
                ol.PowerSum(2.0, 4.0), ol.Plasticity(2.0, 1.0),
                ol.Elasticity(1.5), ol.Newtonian(0.5, 1.0),
                ol.Tabulated(_KNOTS, _KNOTS ** 2 / 2.0 + _KNOTS ** 3 / 3.0)]


@pytest.mark.parametrize("cfg", [_unit_box(33), _interval(257)],
                         ids=["box33", "interval257"])
@pytest.mark.parametrize("psi", [ol.Power(2.0), ol.PowerSum(1.5, 2.5)],
                         ids=["power2", "powersum"])
def test_catalog_iterations_bounded(cfg, psi):
    for phi in _CATALOG_PHI:
        setup = build_setup(phi, psi, cfg)
        pair = ol.minimize_on_level(setup, 1.0,
                                    opts=ol.SolverOptions(tol=1e-8))
        assert pair.iterations <= 40, phi.label()


# ---------------------------------------------------------------------------
# penalized exploration of the 2D ladder

def test_penalized_direction_solves_the_merit_tangent():
    from orlicz_lab.eigensolver import (_Tangent, _penalty_density,
                                        _penalty_rows, _tangent_tensor)
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _unit_box(9))
    dom = setup.dom
    rng = np.random.default_rng(7)
    u = ol.smooth_candidates(dom, 2, seed=5)[1]
    anchors = []
    for _ in range(2):
        a = random_zero_trace(dom, rng).values * dom.interior
        anchors.append((a, float(np.sum(dom.node_qw * a * a))))
    mu = 3.0
    rho = random_zero_trace(dom, rng).values * dom.interior
    pat = dom.stiffness_pattern
    idx = pat.idx
    qw = dom.node_qw.ravel()[idx]

    # the rows carry the penalty's exact Hessian: the penalty is quadratic,
    # so a central difference of its weak gradient is exact to rounding
    rows = _penalty_rows(dom, anchors, mu)
    v = random_zero_trace(dom, rng).values * dom.interior
    eps = 1e-3

    def weak(vals):
        _, dens = _penalty_density(dom, vals[None], anchors, mu)
        return (dom.node_qw * dens[0]).ravel()[idx]

    fd = (weak(u + eps * v) - weak(u - eps * v)) / (2.0 * eps)
    assert np.allclose(rows.T @ (rows @ v.ravel()[idx]), fd,
                       rtol=0.0, atol=1e-10 * np.max(np.abs(fd)))

    grad = _gradient(dom, u)
    dense = _stiffness_matrix(
        pat, pat.assemble(_tangent_tensor(setup, grad))).toarray()
    for a_vals, a_nrm2 in anchors:
        b = math.sqrt(2.0 * mu) * qw * a_vals.ravel()[idx] / a_nrm2
        dense += np.outer(b, b)
    want = np.linalg.solve(dense, qw * rho.ravel()[idx])
    got = _Tangent(setup, rows).direction(grad, rho)
    assert np.linalg.norm(got.ravel()[idx] - want) \
        <= 1e-10 * np.linalg.norm(want)
    assert np.all(got[~dom.interior] == 0.0)
    assert -float(np.sum(dom.node_qw * rho * got)) < 0.0


@pytest.mark.parametrize("n, tol", [(21, 1e-8), (41, 1e-8)],
                         ids=["n21", "n41"])
def test_penalized_exploration_iterations_bounded(monkeypatch, n, tol):
    # with the tangent of I alone the explorations took up to 152 (n=21)
    # and 136 (n=41) iterations, overshooting along the anchors
    from orlicz_lab import eigensolver
    inner = eigensolver._descend
    counts = []

    def counted(*args, **kwargs):
        outcomes = inner(*args, **kwargs)
        if kwargs.get("anchors"):
            counts.extend(pair.iterations for pair, _ in outcomes)
        return outcomes

    monkeypatch.setattr(eigensolver, "_descend", counted)
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _unit_box(n))
    levels = ol.ls_sequence(setup, 1.0, 3, ol.SolverOptions(tol=tol))
    assert [lv.k for lv in levels] == [1, 2, 3]
    assert counts
    assert max(counts) <= 30, counts


def test_free_descent_stops_at_a_critical_point_of_the_free_energy():
    from orlicz_lab import eigensolver
    setup = build_setup(ol.Power(3.0), ol.Power(2.0),
                        {"shape": "disc", "n": 33, "extent": [1.0]})
    lam0, tol = 1.5, 1e-6
    init = ol.GridFunction(setup.dom, 2.0 * ol.default_init(setup.dom).values)
    (pair, ok), = eigensolver._descend(
        setup, None, init.values[None],
        ol.SolverOptions(tol=tol, max_iter=2000), lam0=lam0)
    assert ok
    assert pair.lam == lam0
    assert np.max(np.abs(pair.u.values)) > 0.1  # not the zero state
    free = ol.energy_I(setup, pair.u) - lam0 * ol.energy_J(setup, pair.u)
    res = ol.residual(setup, pair)
    assert res == pair.residual
    assert res <= tol * (1.0 + abs(free))


def test_descent_evaluates_each_iterate_once():
    # the accepted trial's energy is the next iterate's, so I is taken
    # once per projected point and never again at the loop head
    from orlicz_lab import eigensolver
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _unit_box(33))
    (pair, ok), = eigensolver._descend(
        setup, 1.0, ol.default_init(setup.dom).values[None],
        ol.SolverOptions())
    assert ok and pair.iterations == 6
    assert pair.stats["iterations"] == 6
    assert pair.stats["energy_I"] == 7 and pair.stats["projections"] == 7


def test_polish_evaluates_each_iterate_once():
    # one evaluation for the start and one per accepted full step; the
    # start's Rayleigh multiplier reuses the start's I' and J'
    from orlicz_lab import eigensolver
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _unit_box(17))
    (pair, ok), = eigensolver._newton_polish(
        setup, 1.0, ol.default_init(setup.dom).values[None],
        ol.SolverOptions())
    assert ok and pair.iterations > 1
    assert pair.stats["trials"] == pair.iterations
    assert pair.stats["gateaux_I"] == pair.iterations + 1
    assert pair.stats["energy_J"] == pair.iterations + 1


# ---------------------------------------------------------------------------
# the exits of the two solver loops that a converging solve does not reach

def _cubic_interval():
    return build_setup(ol.Power(3.0), ol.Power(2.0), _interval(65))


def _polish_start():
    """A p=3 box of 11 nodes and a random zero-trace start, far from any
    eigenfunction."""
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _unit_box(11))
    rng = np.random.default_rng(0)
    return setup, random_zero_trace(setup.dom, rng).values * setup.dom.interior


def test_descent_falls_back_to_steepest_descent(monkeypatch):
    # with no tangent direction the residual density itself is the step,
    # and the Armijo search still lowers I on the level set
    from orlicz_lab import eigensolver
    setup = _cubic_interval()
    start = ol.default_init(setup.dom).values[None]
    (first, _), = eigensolver._descend(setup, 1.0, start,
                                       ol.SolverOptions(max_iter=0))

    def singular(self, *args, **kwargs):
        raise RuntimeError("singular tangent")

    monkeypatch.setattr(eigensolver._Tangent, "direction", singular)
    (pair, ok), = eigensolver._descend(setup, 1.0, start,
                                       ol.SolverOptions(max_iter=5))
    assert not ok and pair.iterations == 5
    assert pair.stats["iterations"] == 5
    assert pair.stats["factorizations"] == pair.stats["solves"] == 0
    assert pair.stats["trials"] > 5
    assert pair.stats["projections"] == pair.stats["trials"] + 1
    assert pair.level < first.level
    assert ol.energy_J(setup, pair.u) == pytest.approx(1.0, rel=1e-12)


def test_descent_line_search_stall_ends_the_row(monkeypatch):
    # no step can meet a sufficient decrease a million times the slope:
    # the row ends unconverged after its 60 trials, at the start
    from orlicz_lab import eigensolver
    setup = _cubic_interval()
    monkeypatch.setattr(eigensolver, "_ARMIJO_C1", 1e6)
    (pair, ok), = eigensolver._descend(
        setup, 1.0, ol.default_init(setup.dom).values[None],
        ol.SolverOptions())
    assert not ok and pair.iterations == 0
    assert pair.stats["trials"] == 60
    assert pair.stats["projections"] == 61
    assert pair.stats["factorizations"] == pair.stats["solves"] == 1
    assert pair.history == [pair.residual]


def test_stalled_solve_reports_the_iterations_done(monkeypatch):
    from orlicz_lab import eigensolver
    setup = _cubic_interval()
    monkeypatch.setattr(eigensolver, "_ARMIJO_C1", 1e6)
    with pytest.raises(NonConvergenceError) as err:
        ol.minimize_on_level(setup, 1.0,
                             opts=ol.SolverOptions(max_iter=1000))
    message = str(err.value)
    assert "line search stalled after 0 iterations" in message
    assert "1000" not in message
    assert err.value.last.iterations == 0


def test_polish_singular_linearization_ends_the_row(monkeypatch):
    from orlicz_lab import eigensolver
    setup, start = _polish_start()

    def singular(self, *args, **kwargs):
        raise RuntimeError("singular tangent")

    monkeypatch.setattr(eigensolver._Tangent, "factor", singular)
    (pair, ok), = eigensolver._newton_polish(setup, 1.0, start[None],
                                             ol.SolverOptions())
    assert not ok and pair.iterations == 0
    assert pair.stats["iterations"] == pair.stats["trials"] == 0
    assert pair.stats["factorizations"] == pair.stats["solves"] == 0
    assert pair.history == [pytest.approx(pair.residual, rel=1e-12)]


def test_polish_budget_exit():
    from orlicz_lab import eigensolver
    setup, start = _polish_start()
    (pair, ok), = eigensolver._newton_polish(setup, 1.0, start[None],
                                             ol.SolverOptions(max_iter=1))
    assert not ok and pair.iterations == 1
    stats = pair.stats
    assert stats["iterations"] == 1
    # one shifted factorization and one two-column solve, then the
    # backtracking trials of the one step, each with one more solve on the
    # held factorization
    assert stats["factorizations"] == 1
    assert stats["trials"] == 5 and stats["energy_J"] == 6
    assert stats["solves"] == 1 + stats["trials"] == 6
    assert len(pair.history) == 2 and pair.history[1] < pair.history[0]


# ---------------------------------------------------------------------------
# batches: every start of a stack ends as it ends alone

def _batch_case(case):
    """(setup, stacked zero-trace starts, options, keyword arguments of
    the descent) of three stacks: the 8 penalized rung-2 starts of the
    p=2 ladder, and unpenalized smooth starts on a p=3 box and a
    PowerSum disc."""
    from orlicz_lab import eigensolver
    if case == "anchored-p2-box":
        setup = build_setup(ol.Power(2.0), ol.Power(2.0), _unit_box(21))
        first = ol.minimize_on_level(setup, 1.0)
        kwargs = {"anchors": [(first.u.values, float(np.sum(
                      setup.dom.node_qw * first.u.values ** 2)))],
                  "mu": 10.0 * (1.0 + first.level)}
        cands = ol.smooth_candidates(setup.dom, eigensolver._LS_STARTS,
                                     eigensolver._LS_SEED + 1)
        opts = ol.SolverOptions(tol=1e-5, max_iter=2000)
    else:
        phi, psi, cfg = ((ol.Power(3.0), ol.Power(2.0), _unit_box(21))
                         if case == "p3-box" else
                         (ol.PowerSum(2.0, 4.0), ol.PowerSum(1.5, 2.5),
                          {"shape": "disc", "n": 21, "extent": [1.0]}))
        setup = build_setup(phi, psi, cfg)
        cands = ol.smooth_candidates(setup.dom, 6, seed=4)
        kwargs, opts = {}, ol.SolverOptions(tol=1e-8, max_iter=12)
    return setup, np.where(setup.dom.interior, cands, 0.0), opts, kwargs


def _assert_same_outcome(got, alone):
    pair, ok = got
    want, want_ok = alone
    assert ok == want_ok
    assert np.array_equal(pair.u.values, want.u.values)
    assert (pair.lam, pair.residual, pair.level, pair.iterations) \
        == (want.lam, want.residual, want.level, want.iterations)


_BATCH_CASES = ["anchored-p2-box", "p3-box", "powersum-disc"]


@pytest.mark.parametrize("case", _BATCH_CASES)
def test_batched_descent_equals_one_start_calls(case):
    from orlicz_lab import eigensolver
    setup, starts, opts, kwargs = _batch_case(case)
    batch = eigensolver._descend(setup, 1.0, starts, opts, **kwargs)
    iters = set()
    for start, got in zip(starts, batch):
        alone = eigensolver._single(eigensolver._descend(
            setup, 1.0, start[None], opts, **kwargs))
        _assert_same_outcome(got, alone)
        iters.add(got[0].iterations)
    # rows leave the batch at different iterations
    assert len(iters) > 1


@pytest.mark.parametrize("case", _BATCH_CASES)
def test_batched_polish_equals_one_start_calls(case):
    from orlicz_lab import eigensolver
    setup, starts, opts, kwargs = _batch_case(case)
    explored = np.stack([pair.u.values for pair, _ in eigensolver._descend(
        setup, 1.0, starts, opts, **kwargs)])
    relax = ol.SolverOptions(max_iter=300)
    batch = eigensolver._newton_polish(setup, 1.0, explored, relax)
    for start, got in zip(explored, batch):
        _assert_same_outcome(got, eigensolver._single(
            eigensolver._newton_polish(setup, 1.0, start[None], relax)))


def test_zero_start_ends_only_its_row():
    # the zero function cannot be projected: its row ends with the error
    # a one-start call raises, and the other rows run on unchanged
    from orlicz_lab import eigensolver
    setup, starts, opts, kwargs = _batch_case("anchored-p2-box")
    holed = starts.copy()
    holed[2] = 0.0
    for loop, args in ((eigensolver._descend, kwargs),
                       (eigensolver._newton_polish, {})):
        run = opts if loop is eigensolver._descend else ol.SolverOptions()
        full = loop(setup, 1.0, starts, run, **args)
        holey = loop(setup, 1.0, holed, run, **args)
        error, ok = holey[2]
        assert isinstance(error, DomainError) and not ok
        with pytest.raises(DomainError, match=str(error)):
            eigensolver._single(loop(setup, 1.0, holed[2:3], run, **args))
        for i in (0, 1, 3, 4, 5, 6, 7):
            _assert_same_outcome(holey[i], full[i])


def test_ladder_stats_count_every_start(monkeypatch):
    # the start-by-start ladder ran 17 descents with 168 iterations and 16
    # polishes with 30, one trial each, and projected the 33 starts and
    # the 168 descent trials; its explorations made 15 factorizations and
    # 183 solves
    from orlicz_lab import eigensolver
    from orlicz_lab.eigensolver import STAT_KEYS
    inner = eigensolver._descend
    explorations = []

    def counted(*args, **kwargs):
        before = dict(kwargs["stats"]) if kwargs.get("anchors") else None
        outcomes = inner(*args, **kwargs)
        if before is not None:
            explorations.append({key: kwargs["stats"][key] - before[key]
                                 for key in STAT_KEYS})
        return outcomes

    monkeypatch.setattr(eigensolver, "_descend", counted)
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _unit_box(21))
    levels = ol.ls_sequence(setup, 1.0, 3)
    assert levels[0].stats is levels[0].pair.stats
    total = {key: sum(lv.stats[key] for lv in levels) for key in STAT_KEYS}
    assert total["iterations"] == total["trials"] == 198
    assert total["projections"] == 201
    # one Cholesky factorization per rung's batch, and per batch iteration
    # one solve for all rows (16 and 13 iterations), plus one for the
    # Woodbury block
    assert [e["factorizations"] for e in explorations] == [1, 1]
    assert sum(e["solves"] for e in explorations) == 31


# ---------------------------------------------------------------------------
# the banded kernels of the tangent stiffness: Cholesky in the descent, LU
# in the polisher

def _tangent_case(cfg, phi=ol.Power(3.0)):
    """(setup, cell gradient of a smooth field, dense tangent there)."""
    from orlicz_lab.eigensolver import _tangent_tensor
    setup = build_setup(phi, ol.Power(2.0), cfg)
    pat = setup.dom.stiffness_pattern
    grad = _gradient(setup.dom, ol.smooth_candidates(setup.dom, 2, seed=5)[1])
    dense = _stiffness_matrix(
        pat, pat.assemble(_tangent_tensor(setup, grad))).toarray()
    return setup, grad, dense


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("cfg", [_interval(65), _unit_box(17),
                                 {"shape": "disc", "n": 21, "extent": [1.0]}],
                         ids=["interval65", "box17", "disc21"])
def test_tangent_solves_match_dense(cfg):
    from orlicz_lab.eigensolver import _Tangent
    setup, grad, dense = _tangent_case(cfg)
    size = dense.shape[0]
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((size, 2))

    tangent = _Tangent(setup)
    tangent.factor(grad)
    assert _rel_err(tangent.solve(rhs[:, 0]),
                    np.linalg.solve(dense, rhs[:, 0])) <= 1e-10
    assert _rel_err(tangent.solve(rhs), np.linalg.solve(dense, rhs)) <= 1e-10

    # a constant shift halfway between two eigenvalues in the lower part
    # of the spectrum makes the matrix indefinite: the Cholesky factor
    # fails and falls back to the unshifted tangent, both attempts
    # counted, and the polisher's LU must pivot
    ev = np.linalg.eigvalsh(dense)
    j = size // 4
    shift = np.full(size, 0.5 * (ev[j] + ev[j + 1]))
    shifted = dense - np.diag(shift)
    ev_shifted = np.linalg.eigvalsh(shifted)
    assert ev_shifted[0] < 0.0 < ev_shifted[-1]
    made = tangent.stats["factorizations"]
    tangent.factor(grad, shift=shift)
    assert tangent.stats["factorizations"] == made + 2
    assert _rel_err(tangent.solve(rhs), np.linalg.solve(dense, rhs)) <= 1e-10
    tangent = _Tangent(setup, lu=True)
    tangent.factor(grad, shift=shift)
    assert _rel_err(tangent.solve(rhs[:, 0]),
                    np.linalg.solve(shifted, rhs[:, 0])) <= 1e-10
    assert _rel_err(tangent.solve(rhs),
                    np.linalg.solve(shifted, rhs)) <= 1e-10


_KERNEL_CFGS = [_interval(65), _unit_box(17),
                {"shape": "disc", "n": 21, "extent": [1.0]}]
_KERNEL_IDS = ["interval65", "box17", "disc21"]


@pytest.mark.parametrize("case", ["cholesky", "lu", "woodbury", "definite"])
@pytest.mark.parametrize("cfg", _KERNEL_CFGS, ids=_KERNEL_IDS)
def test_tangent_direction_matches_dense(cfg, case):
    from orlicz_lab.eigensolver import _Tangent, _penalty_rows
    setup, grad, dense = _tangent_case(cfg)
    dom = setup.dom
    idx = dom.stiffness_pattern.idx
    size = dense.shape[0]
    rng = np.random.default_rng(13)
    rho = random_zero_trace(dom, rng).values * dom.interior
    shift, rows = None, None
    if case == "lu":
        # halfway between two low eigenvalues: indefinite
        ev = np.linalg.eigvalsh(dense)
        shift = np.full(size, 0.5 * (ev[size // 4] + ev[size // 4 + 1]))
        dense = dense - np.diag(shift)
    elif case == "definite":
        # below the lowest eigenvalue, as the probe's shifts mostly are
        shift = np.full(size, 0.5 * np.linalg.eigvalsh(dense)[0])
        dense = dense - np.diag(shift)
    elif case == "woodbury":
        anchors = []
        for _ in range(2):
            a = random_zero_trace(dom, rng).values * dom.interior
            anchors.append((a, float(np.sum(dom.node_qw * a * a))))
        rows = _penalty_rows(dom, anchors, 3.0)
        dense = dense + rows.T @ rows
    want = np.linalg.solve(dense, (dom.node_qw * rho).ravel()[idx])
    # the polisher's tangent is the only LU one
    tangent = _Tangent(setup, rows, lu=case == "lu")
    got = tangent.direction(grad, rho, shift)
    assert _rel_err(got.ravel()[idx], want) <= 1e-10
    assert np.all(got[~dom.interior] == 0.0)
    # the kernel follows from the loop, not from the shift: the Cholesky
    # factor carries no pivots
    assert (tangent._piv is None) == (case != "lu")


def _entries_band(pat, entries):
    """The symmetric band gathered from assembled entries: a zeroed band,
    then each lower-triangle entry at row ``i - j`` of column ``j``."""
    k = pat.bandwidth
    lower = pat.rows >= pat.cols
    band = np.zeros(pat.idx.size * (k + 1))
    band[pat.cols[lower] * (k + 1) + pat.rows[lower]
         - pat.cols[lower]] = entries[lower]
    return band


@pytest.mark.parametrize("cfg", _KERNEL_CFGS, ids=_KERNEL_IDS)
def test_symmetric_band_positions_hold_the_lower_triangle(cfg):
    # the band summed straight from the cells is the lower triangle of the
    # assembled matrix, bit for bit
    from orlicz_lab.eigensolver import _tangent_tensor
    setup, grad, _ = _tangent_case(cfg)
    pat = setup.dom.stiffness_pattern
    size, k = pat.idx.size, pat.bandwidth
    # an unsymmetric random tensor gives distinct values, which shows that
    # each contribution lands in its own place
    rng = np.random.default_rng(17)
    tensors = (_tangent_tensor(setup, grad),
               rng.normal(size=(setup.dom.ndim,) * 2 + (
                   math.prod(setup.dom.cell_shape),)))
    for tensor in tensors:
        values = _stiffness_matrix(pat, pat.assemble(tensor)).toarray()
        band = pat.lower_band(tensor).reshape(size, k + 1)
        back = np.zeros((size, size))
        for r in range(k + 1):
            j = np.arange(size - r)
            back[j + r, j] = band[j, r]
            # past the last row the band stays empty
            assert np.all(band[size - r:, r] == 0.0)
        assert np.array_equal(back, np.tril(values))


def test_lapack_handle_matches_scipy_linalg_lapack():
    # the extension loaded from its file gives scipy.linalg.lapack's
    # results, array for array, for each of the six routines the solver
    # calls: an SPD band, a general band that pivots and a dense matrix
    from scipy.linalg import lapack as reference
    from orlicz_lab.eigensolver import _lapack
    handle = _lapack()
    rng = np.random.default_rng(5)
    size, k = 12, 2
    rhs = rng.normal(size=(size, 3))
    # lower band storage: row r holds the r-th subdiagonal
    spd = rng.uniform(0.1, 0.5, size=(k + 1, size))
    spd[0] += 2.0
    # a zero-ish diagonal and a large subdiagonal make dgbtrf swap rows;
    # the first 2k + 1 rows of the LU band are the matrix's diagonals
    general = np.zeros((3 * k + 1, size))
    general[k:] = rng.normal(size=(2 * k + 1, size))
    general[2 * k] *= 1e-3
    dense = rng.normal(size=(5, 5))
    outs = []
    for lapack in (handle, reference):
        chol = lapack.dpbtrf(spd, lower=1)
        lu = lapack.dgbtrf(general, k, k)
        dense_lu = lapack.dgetrf(dense)
        outs.append((chol, lapack.dpbtrs(chol[0], rhs, lower=1),
                     lu, lapack.dgbtrs(lu[0], k, k, rhs, lu[1]),
                     dense_lu, lapack.dgetrs(*dense_lu[:2], rhs[:5])))
    # the LU swapped rows (scipy's pivots are 0-based)
    assert np.any(outs[0][2][1] != np.arange(size))
    for mine, theirs in zip(*outs):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert np.array_equal(a, b)
    # every call succeeded (info 0)
    assert all(out[-1] == 0 for out in outs[0])


def test_missing_lapack_extension_raises_naming_its_path(monkeypatch,
                                                         tmp_path):
    # one load path and no fallback: a scipy tree without the extension
    # file is an ImportError that names where the file was looked for
    import importlib.util
    from types import SimpleNamespace
    from orlicz_lab.eigensolver import _lapack
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: (
        SimpleNamespace(submodule_search_locations=[str(tmp_path)])))
    with pytest.raises(ImportError,
                       match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        _lapack.__wrapped__()


@pytest.mark.parametrize("cfg", _KERNEL_CFGS, ids=_KERNEL_IDS)
def test_factored_band_equals_the_entries_scatter(monkeypatch, cfg):
    # the band the Cholesky kernel receives, unshifted and shifted, is the
    # one gathered from the assembled entries, bit for bit
    from orlicz_lab.eigensolver import _Tangent, _lapack, _tangent_tensor
    lapack = _lapack()
    setup, grad, dense = _tangent_case(cfg)
    pat = setup.dom.stiffness_pattern
    received, real = [], lapack.dpbtrf

    def recorded(ab, **kwargs):
        received.append(ab.T.ravel().copy())
        return real(ab, **kwargs)
    monkeypatch.setattr(lapack, "dpbtrf", recorded)
    # a varying shift below the lowest eigenvalue keeps it definite
    rng = np.random.default_rng(19)
    shift = 0.5 * np.linalg.eigvalsh(dense)[0] * rng.random(pat.idx.size)
    tangent = _Tangent(setup)
    tangent.factor(grad)
    tangent.factor(grad, shift=shift)
    entries = pat.assemble(_tangent_tensor(setup, grad))
    shifted = entries.copy()
    shifted[pat.rows == pat.cols] -= shift
    assert len(received) == 2
    assert np.array_equal(received[0], _entries_band(pat, entries))
    assert np.array_equal(received[1], _entries_band(pat, shifted))
    # an indefinite shift fails its pivot, and the fallback receives the
    # unshifted band, summed again from the same cell tensor
    ev = np.linalg.eigvalsh(dense)
    j = ev.size // 4
    tangent.factor(grad, shift=np.full(ev.size, 0.5 * (ev[j] + ev[j + 1])))
    assert len(received) == 4
    assert np.array_equal(received[3], _entries_band(pat, entries))


def test_quadratic_tangent_switches_kernel_with_the_shift():
    # the polisher's LU tangent keeps its kernel whatever the shift, and
    # its held shifted factor is not reused for an unshifted call, also
    # when the unshifted tangent is constant and the shift is zero
    from orlicz_lab.eigensolver import _Tangent
    setup, grad, dense = _tangent_case(_unit_box(17), ol.Power(2.0))
    dom = setup.dom
    pat = dom.stiffness_pattern
    size = dense.shape[0]
    rho = random_zero_trace(dom, np.random.default_rng(3)).values \
        * dom.interior
    rhs = (dom.node_qw * rho).ravel()[pat.idx]
    # the lowest eigenvalue is simple, the next is double on the square
    ev = np.linalg.eigvalsh(dense)
    indefinite = np.full(size, 0.5 * (ev[0] + ev[1]))
    tangent = _Tangent(setup, lu=True)
    for shift in (None, np.zeros(size), None, indefinite, None):
        matrix = dense if shift is None else dense - np.diag(shift)
        got = tangent.direction(grad, rho, shift)
        assert _rel_err(got.ravel()[pat.idx],
                        np.linalg.solve(matrix, rhs)) <= 1e-10
        assert tangent._piv is not None
    assert tangent.stats["factorizations"] == 5
    assert tangent.stats["factor_reuses"] == 0


def test_quadratic_tangent_reuses_only_its_unshifted_factor():
    # the probe's Cholesky tangent of a quadratic Phi holds a shifted
    # factor after a shifted call; the next unshifted call refactors
    from orlicz_lab.eigensolver import _Tangent
    setup, grad, dense = _tangent_case(_unit_box(17), ol.Power(2.0))
    dom = setup.dom
    pat = dom.stiffness_pattern
    size = dense.shape[0]
    rho = random_zero_trace(dom, np.random.default_rng(3)).values \
        * dom.interior
    rhs = (dom.node_qw * rho).ravel()[pat.idx]
    definite = np.full(size, 0.5 * np.linalg.eigvalsh(dense)[0])
    tangent = _Tangent(setup)
    made = []
    for shift in (None, None, definite, None, None):
        matrix = dense if shift is None else dense - np.diag(shift)
        before = tangent._fac
        got = tangent.direction(grad, rho, shift)
        made.append(tangent._fac is not before)
        assert _rel_err(got.ravel()[pat.idx],
                        np.linalg.solve(matrix, rhs)) <= 1e-10
        assert tangent._piv is None
    assert made == [True, False, True, True, False]
    assert tangent.stats["factorizations"] == 3
    assert tangent.stats["factor_reuses"] == 2


def test_zero_tangent_raises_runtime_error(monkeypatch):
    # the solver loops catch RuntimeError as a singular linearization
    from orlicz_lab import eigensolver
    setup, grad, _ = _tangent_case(_unit_box(9))
    monkeypatch.setattr(
        eigensolver, "_tangent_tensor",
        lambda s, g: np.zeros((2, 2, (s.dom.n - 1) ** 2)))
    zero = np.zeros(setup.dom.stiffness_pattern.idx.size)
    for shift in (None, zero):
        with pytest.raises(RuntimeError, match="dpbtrf"):
            eigensolver._Tangent(setup).factor(grad, shift)
    with pytest.raises(RuntimeError, match="dgbtrf"):
        eigensolver._Tangent(setup, lu=True).factor(grad, shift=zero)


def test_indefinite_unshifted_tangent_raises_runtime_error(monkeypatch):
    # a non-positive Cholesky pivot follows the zero LU pivot's contract,
    # while the LU of the same matrix succeeds
    from orlicz_lab import eigensolver
    setup, grad, _ = _tangent_case(_unit_box(9))
    real = eigensolver._tangent_tensor
    monkeypatch.setattr(eigensolver, "_tangent_tensor",
                        lambda s, g: -real(s, g))
    with pytest.raises(RuntimeError, match="dpbtrf"):
        eigensolver._Tangent(setup).factor(grad)
    eigensolver._Tangent(setup, lu=True).factor(
        grad, shift=np.zeros(setup.dom.stiffness_pattern.idx.size))


def _count_factorizations(monkeypatch):
    """Record, per call of ``_Tangent.factor``, whether it factored."""
    from orlicz_lab.eigensolver import _Tangent
    made = []
    factor = _Tangent.factor

    def counted(self, *args, **kwargs):
        before = self._fac
        factor(self, *args, **kwargs)
        made.append(self._fac is not before)

    monkeypatch.setattr(_Tangent, "factor", counted)
    return made


def test_quadratic_box_solve_factors_once(monkeypatch):
    made = _count_factorizations(monkeypatch)
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _unit_box(33))
    # the default bump is the exact eigenvector here, so start off it
    init = ol.GridFunction(setup.dom,
                           ol.smooth_candidates(setup.dom, 2, seed=0)[1])
    pair = ol.minimize_on_level(setup, 1.0, init=init,
                                opts=ol.SolverOptions(tol=1e-8))
    assert pair.iterations > 1
    assert len(made) == pair.iterations and sum(made) == 1


def test_cubic_box_solve_factors_once_per_iteration(monkeypatch):
    # the level-set descent takes no cubic step extension: one trial each
    made = _count_factorizations(monkeypatch)
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), _unit_box(33))
    pair = ol.minimize_on_level(setup, 1.0, opts=ol.SolverOptions(tol=1e-8))
    assert pair.iterations == 6
    assert sum(made) == 6
    assert pair.stats["factorizations"] == pair.stats["trials"] == 6


def test_quadratic_ladder_tangent_factors_once_per_solve(monkeypatch):
    # for Phi = t^2/2 the unshifted tangent does not depend on u: each
    # solve, a batch of starts included, assembles and factors it once, and
    # every later call returns at once; the polisher's shifted systems
    # refactor as before
    from orlicz_lab import eigensolver
    factor, tensor = eigensolver._Tangent.factor, eigensolver._tangent_tensor
    made, assembled, current = {}, {}, []

    def counted_factor(self, grad, shift=None):
        key = (self, shift is None)  # keeps the instance alive
        current.append(key)
        before = self._fac
        try:
            factor(self, grad, shift)
        finally:
            current.pop()
        made[key] = made.get(key, 0) + (self._fac is not before)

    def counted_tensor(setup, grad):
        if current:
            assembled[current[-1]] = assembled.get(current[-1], 0) + 1
        return tensor(setup, grad)

    monkeypatch.setattr(eigensolver._Tangent, "factor", counted_factor)
    monkeypatch.setattr(eigensolver, "_tangent_tensor", counted_tensor)
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), _unit_box(21))
    levels = ol.ls_sequence(setup, 1.0, 3)
    unshifted = [key for key in made if key[1]]
    assert any(not key[1] for key in made)
    # rung 1 starts at the eigenvector; each later rung's exploration
    # batch shares one tangent
    assert len(unshifted) == 2
    assert all(made[key] == 1 and assembled[key] == 1 for key in unshifted)
    # the same multipliers, bit for bit, as with one LU kernel for every
    # system and an assembled comparison on every call
    assert [lv.pair.lam for lv in levels] == [
        19.698655047779635, 49.004114487766955, 49.004114487766955]
