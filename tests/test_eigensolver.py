"""Constrained minimization, certification, the minimax ladder, and level
sweeps, checked against independent dense and shooting references."""

import numpy as np
import pytest

import orlicz_lab as ol
from orlicz_lab import DomainError, NonConvergenceError

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
    assert isinstance(err.value.history, list) and err.value.history


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
    cs = [lv.c_k_alpha for lv in levels]
    assert cs[0] > cs[1] > cs[2]


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
    got = pat.matrix(pat.assemble(_tangent_tensor(setup, u))) \
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
