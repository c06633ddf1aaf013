"""Energy functionals, their Gateaux derivatives, level-set projections,
and the dual-norm surrogate."""

import numpy as np
import pytest

import orlicz_lab as ol
from orlicz_lab import ConditionFailure, DomainError

from conftest import build_setup, random_zero_trace
import oracles as oc

INTERVAL = {"shape": "interval", "n": 256, "extent": [0.0, 1.0]}


# ---------------------------------------------------------------------------
# setup validation

def test_setup_rejects_linear_growth():
    # lower index of t log(1+t) is 1, below the required open bound
    with pytest.raises(ConditionFailure) as err:
        build_setup(ol.Plasticity(1.0, 1.0), ol.Power(2.0), INTERVAL)
    assert err.value.condition == "phi1"


def test_setup_rejects_unbounded_upper_index():
    with pytest.raises(ConditionFailure) as err:
        build_setup(ol.ExpSquare(), ol.Power(2.0), INTERVAL)
    assert err.value.condition == "phi1"


def test_setup_rejects_reaction_index_failure():
    with pytest.raises(ConditionFailure) as err:
        build_setup(ol.Power(2.0), ol.Plasticity(1.0, 1.0), INTERVAL)
    assert err.value.condition == "psi1"


def test_setup_domination_flag_and_enforcement():
    fast = build_setup(ol.Power(3.0), ol.Power(2.0), INTERVAL)
    assert fast.dominated
    # the flag is recorded, not enforced: region analysis enforces it
    slow = build_setup(ol.Power(2.0), ol.Power(3.0), INTERVAL)
    assert not slow.dominated


def test_setup_requires_shared_domain_objects():
    dom_a = ol.domain_from_config(INTERVAL)
    dom_b = ol.domain_from_config(INTERVAL)
    w_a = ol.WeightField.constant(dom_a)
    w_b = ol.WeightField.constant(dom_b)
    with pytest.raises(DomainError):
        ol.EnergySetup(ol.Power(2.0), ol.Power(2.0), w_a, w_b, dom_a)


# ---------------------------------------------------------------------------
# energies

def test_energy_closed_forms_parabola():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), INTERVAL)
    u = ol.GridFunction.from_callable(setup.dom, lambda x: x * (1.0 - x))
    # grad u = 1 - 2x:  I = (1/2) int (1-2x)^2 = 1/6
    assert ol.energy_I(setup, u) == pytest.approx(1.0 / 6.0, rel=1e-4)
    # J = (1/2) int x^2 (1-x)^2 = 1/60
    assert ol.energy_J(setup, u) == pytest.approx(1.0 / 60.0, rel=1e-4)


def test_energy_zero_function():
    setup = build_setup(ol.Power(3.0), ol.Plasticity(2.0, 1.0), INTERVAL)
    zero = ol.GridFunction(setup.dom, np.zeros(setup.dom.node_shape))
    assert ol.energy_I(setup, zero) == 0.0
    assert ol.energy_J(setup, zero) == 0.0
    assert np.all(ol.gateaux_I(setup, zero).density == 0.0)
    assert np.all(ol.gateaux_J(setup, zero).density == 0.0)


def test_energy_rejects_foreign_function():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), INTERVAL)
    other = ol.domain_from_config(INTERVAL)
    u = ol.GridFunction(other, np.zeros(other.node_shape))
    with pytest.raises(DomainError):
        ol.energy_I(setup, u)


def test_energy_I_is_convex(rng):
    setup = build_setup(ol.Plasticity(2.0, 1.0), ol.Power(2.0), INTERVAL)
    for _ in range(10):
        u = random_zero_trace(setup.dom, rng, scale=2.0)
        v = random_zero_trace(setup.dom, rng, scale=2.0)
        mid = ol.GridFunction(setup.dom, 0.5 * (u.values + v.values))
        lhs = ol.energy_I(setup, mid)
        rhs = 0.5 * (ol.energy_I(setup, u) + ol.energy_I(setup, v))
        assert lhs <= rhs + 1e-10 * (1 + rhs)


def test_energy_dominates_gradient_norm_above_unit_ball(rng):
    # modular >= norm once the norm passes 1, so I controls the gradient norm
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), INTERVAL)
    for _ in range(5):
        u = random_zero_trace(setup.dom, rng)
        nrm = ol.gradient_norm(setup.phi, setup.w, u)
        u2 = u.scaled(2.0 / nrm)
        nrm2 = ol.gradient_norm(setup.phi, setup.w, u2)
        assert nrm2 > 1.0
        assert ol.energy_I(setup, u2) >= nrm2 - 1e-9


# ---------------------------------------------------------------------------
# Gateaux derivatives

def test_gateaux_I_quadratic_case_is_stiffness_form(rng):
    setup = build_setup(ol.Power(2.0, 0.5), ol.Power(2.0), INTERVAL,
                        w_values=1.0 + rng.random(256))
    u = random_zero_trace(setup.dom, rng)
    v = random_zero_trace(setup.dom, rng)
    (gu,) = ol.gradient_components(setup.dom, u.values)
    (gv,) = ol.gradient_components(setup.dom, v.values)
    want = float(np.sum(setup.dom.cell_qw * setup.w_cells * gu * gv))
    assert ol.gateaux_I(setup, u).pairing(v) == pytest.approx(want, rel=1e-12)


def test_gateaux_J_quadratic_case_is_mass_form(rng):
    setup = build_setup(ol.Power(2.0), ol.Power(2.0, 0.5), INTERVAL,
                        w1_values=1.0 + rng.random(256))
    u = random_zero_trace(setup.dom, rng)
    v = random_zero_trace(setup.dom, rng)
    want = float(np.sum(setup.dom.node_qw * setup.w1.values
                        * u.values * v.values))
    assert ol.gateaux_J(setup, u).pairing(v) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("phi,psi", [
    (ol.Power(3.0), ol.Power(2.0)),
    (ol.Plasticity(2.0, 1.0), ol.Power(4.0)),
])
def test_gateaux_matches_central_differences(phi, psi, rng):
    setup = build_setup(phi, psi, INTERVAL)
    for _ in range(5):
        u = random_zero_trace(setup.dom, rng)
        v = random_zero_trace(setup.dom, rng)
        eps = 1e-5 * (1.0 + np.max(np.abs(u.values)))
        for energy, gateaux in ((ol.energy_I, ol.gateaux_I),
                                (ol.energy_J, ol.gateaux_J)):
            want = oc.central_pairing(
                lambda vals: energy(setup, ol.GridFunction(setup.dom, vals)),
                u.values, v.values, eps)
            got = gateaux(setup, u).pairing(v)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-12)


def test_gateaux_pairing_scale_bracket(rng):
    # <J'(u), u> sits between l1 J(u) and m1 J(u)
    setup = build_setup(ol.Power(2.0), ol.Plasticity(2.0, 1.0), INTERVAL)
    u = random_zero_trace(setup.dom, rng, scale=3.0)
    val = ol.energy_J(setup, u)
    pair = ol.gateaux_J(setup, u).pairing(u)
    assert setup.psi_l * val - 1e-9 <= pair <= setup.psi_m * val + 1e-9


# ---------------------------------------------------------------------------
# level-set projections

def test_project_to_level_hits_the_level(rng):
    setup = build_setup(ol.Power(3.0), ol.Plasticity(2.0, 1.0), INTERVAL)
    u = random_zero_trace(setup.dom, rng)
    for alpha in (0.01, 1.0, 17.3):
        proj = ol.project_to_level(setup, u, alpha)
        assert ol.energy_J(setup, proj) == pytest.approx(alpha, rel=1e-10)


def test_project_to_level_homogeneous_closed_form(rng):
    setup = build_setup(ol.Power(2.0), ol.Power(3.0, 1.0), INTERVAL)
    u = random_zero_trace(setup.dom, rng)
    alpha = 0.37
    base = ol.energy_J(setup, u)
    proj = ol.project_to_level(setup, u, alpha)
    s = (alpha / base) ** (1.0 / 3.0)
    assert np.allclose(proj.values, s * u.values, rtol=1e-10, atol=1e-14)


def test_project_to_level_rejects_degenerate_input():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), INTERVAL)
    zero = ol.GridFunction(setup.dom, np.zeros(setup.dom.node_shape))
    with pytest.raises(DomainError):
        ol.project_to_level(setup, zero, 1.0)
    u = ol.GridFunction.from_callable(setup.dom, lambda x: x * (1.0 - x))
    with pytest.raises(DomainError):
        ol.project_to_level(setup, u, -2.0)


def test_scale_to_energy_level(rng):
    setup = build_setup(ol.Plasticity(2.0, 1.0), ol.Power(2.0), INTERVAL)
    u = random_zero_trace(setup.dom, rng)
    scaled = ol.scale_to_energy_level(setup, u, 2.5)
    assert ol.energy_I(setup, scaled) == pytest.approx(2.5, rel=1e-10)


def test_box_scalings_hit_their_level_to_rounding(rng):
    for psi in (ol.Power(2.0), ol.PowerSum(2.0, 4.0)):
        setup = build_setup(ol.PowerSum(2.0, 3.0), psi,
                            {"shape": "box", "n": 17, "extent": [0.0, 1.0]})
        for level in (1e-6, 0.3, 1e4):
            u = random_zero_trace(setup.dom, rng)
            assert ol.energy_J(setup, ol.project_to_level(setup, u, level)) \
                == pytest.approx(level, rel=1e-12)
            assert ol.energy_I(setup, ol.scale_to_energy_level(
                setup, u, level)) == pytest.approx(level, rel=1e-12)


# ---------------------------------------------------------------------------
# dual objects

def test_dual_function_pairing(rng):
    dom = ol.domain_from_config(INTERVAL)
    density = rng.normal(size=256)
    f = ol.DualGridFunction(dom, density)
    v = random_zero_trace(dom, rng)
    want = float(np.sum(dom.node_qw[1:-1] * density[1:-1] * v.values[1:-1]))
    assert f.pairing(v) == pytest.approx(want, rel=1e-12)
    # exterior nodes carry no coefficient
    assert f.density[0] == 0.0 and f.density[-1] == 0.0


@pytest.mark.parametrize("cfg", [
    {"shape": "interval", "n": 24, "extent": [0.0, 1.0]},
    {"shape": "box", "n": 9, "extent": [0.0, 1.0]},
    {"shape": "disc", "n": 11, "extent": [1.0]},
], ids=lambda cfg: cfg["shape"])
def test_dual_norm_zero_and_basis_consistency(rng, cfg):
    dom = ol.domain_from_config(cfg)
    setup = build_setup(ol.Power(3.0), ol.Power(2.0), cfg,
                        w_values=1.0 + rng.random(dom.node_shape),
                        w1_values=1.0 + rng.random(dom.node_shape))
    zero = ol.DualGridFunction(setup.dom, np.zeros(dom.node_shape))
    assert ol.dual_norm(setup, zero) == 0.0
    func = ol.DualGridFunction(setup.dom, rng.normal(size=dom.node_shape))
    nrm = ol.dual_norm(setup, func)
    # recompute the surrogate through the public Sobolev norm of each hat;
    # in 2D the basis norms come from the root kernel, here from the
    # Luxemburg norms of the hat and its gradient
    best = 0.0
    for i in np.flatnonzero(dom.interior):
        hat_vals = np.zeros(dom.interior.size)
        hat_vals[i] = 1.0
        hat = ol.GridFunction(setup.dom, hat_vals.reshape(dom.node_shape))
        wn = ol.sobolev_norm(setup.phi, setup.psi, setup.w, setup.w1, hat)
        best = max(best, abs(func.pairing(hat)) / wn)
    assert nrm == pytest.approx(best, rel=1e-7)


def test_dual_norm_rejects_foreign_functional():
    setup = build_setup(ol.Power(2.0), ol.Power(2.0), INTERVAL)
    other = ol.domain_from_config(INTERVAL)
    func = ol.DualGridFunction(other, np.zeros(256))
    with pytest.raises(DomainError):
        ol.dual_norm(setup, func)


# ---------------------------------------------------------------------------
# input checks: once at the public boundary, none in the kernels

class ThroughPublic(ol.YoungFunction):
    """A Young function whose unchecked evaluators are the public, checked
    evaluators of ``base``: kernels built on it evaluate the same
    expressions through the public entry points."""

    def __init__(self, base):
        self.base = base
        super().__init__()

    def indices(self):
        return self.base.indices()

    def _value_raw(self, t):
        return self.base.value(t)

    def _derivative_raw(self, t):
        return self.base.derivative(t)

    def _second_derivative_raw(self, t):
        return self.base.second_derivative(t)


def _kernel_outputs(setup, u):
    pair = ol.minimize_on_level(setup, 1.0)
    return [ol.energy_I(setup, u), ol.energy_J(setup, u),
            ol.gateaux_I(setup, u).density, ol.gateaux_J(setup, u).density,
            ol.project_to_level(setup, u, 0.3).values,
            pair.lam, pair.u.values, pair.iterations]


def test_kernels_make_no_input_checks(monkeypatch, rng):
    cfg = {"shape": "box", "n": 9, "extent": [0.0, 1.0]}
    setup = build_setup(ol.PowerSum(2.0, 4.0), ol.PowerSum(1.5, 2.5), cfg)
    public = ol.EnergySetup(ThroughPublic(setup.phi),
                            ThroughPublic(setup.psi), setup.w, setup.w1,
                            setup.dom)
    u = random_zero_trace(setup.dom, rng)
    calls = []
    checked = ol.young._checked

    def counting(*args, **kwargs):
        calls.append(args)
        return checked(*args, **kwargs)
    monkeypatch.setattr(ol.young, "_checked", counting)
    got = _kernel_outputs(setup, u)
    assert calls == []
    setup.phi.value(np.abs(u.values))
    assert len(calls) == 1
    # the same kernels on the public evaluators check every evaluation ...
    want = _kernel_outputs(public, u)
    assert len(calls) > 100
    # ... and give the same numbers, bit for bit
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_overflowing_gradient_raises_the_evaluator_message():
    # finite nodal values whose difference exceeds the largest float
    setup = build_setup(ol.Power(3.0), ol.Power(2.0),
                        {"shape": "interval", "n": 8, "extent": [0.0, 1.0]})
    vals = np.zeros(8)
    vals[3], vals[4] = 1e308, -1e308
    u = ol.GridFunction(setup.dom, vals)
    with np.errstate(over="ignore"):
        for kernel in (ol.energy_I, ol.gateaux_I):
            with pytest.raises(DomainError, match="^t must be finite$"):
                kernel(setup, u)
        with pytest.raises(DomainError, match="^t must be finite$"):
            ol.scale_to_energy_level(setup, u, 1.0)


# ---------------------------------------------------------------------------
# one formula per quantity: the solver loops' raw-array kernels and the
# checked public functions

@pytest.mark.parametrize("cfg", [
    {"shape": "interval", "n": 65, "extent": [0.0, 1.0]},
    {"shape": "box", "n": 17, "extent": [0.0, 1.0]},
    {"shape": "disc", "n": 21, "extent": [1.0]}],
    ids=["interval", "box", "disc"])
@pytest.mark.parametrize("phi, psi", [
    (ol.Power(3.0), ol.Power(2.0)),
    (ol.PowerSum(2.0, 4.0), ol.PowerSum(1.5, 2.5))],
    ids=["power", "powersum"])
def test_raw_kernels_equal_the_public_functions(cfg, phi, psi):
    # on a stack of two functions, each slice equals the public function
    # of that function alone
    from orlicz_lab import functionals as fn
    setup = build_setup(phi, psi, cfg)
    dom = setup.dom
    us = [random_zero_trace(dom, np.random.default_rng(seed))
          for seed in (2, 3)]
    stack = np.stack([u.values for u in us])
    comps, mag = fn._gradient(dom, stack)
    d_i = fn._gateaux_I(setup, comps, mag)
    d_j = fn._gateaux_J(setup, stack)
    energy_i, energy_j = fn._energy_I(setup, mag), fn._energy_J(setup, stack)
    duals = fn._dual_norm(setup, d_i)
    scales = fn._level_scale(setup, stack, 0.7)
    for k, u in enumerate(us):
        assert energy_i[k] == ol.energy_I(setup, u)
        assert energy_j[k] == ol.energy_J(setup, u)
        assert np.array_equal(d_i[k], ol.gateaux_I(setup, u).density)
        assert np.array_equal(d_j[k], ol.gateaux_J(setup, u).density)
        assert duals[k] == ol.dual_norm(setup, ol.gateaux_I(setup, u))
        assert np.array_equal(scales[k] * u.values,
                              ol.project_to_level(setup, u, 0.7).values)
