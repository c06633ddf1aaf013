"""Grids, weights, gradients, modulars, Luxemburg norms, and the
pairing/Poincare estimators."""

import math

import numpy as np
import pytest

import orlicz_lab as ol
from orlicz_lab import ConfigError, DomainError

from conftest import build_setup, random_zero_trace
import oracles as oc


# ---------------------------------------------------------------------------
# domains

def test_interval_domain_quadrature_and_geometry():
    dom = ol.domain_from_config({"shape": "interval", "n": 101,
                                 "extent": [0.25, 1.75]})
    assert dom.ndim == 1
    assert dom.node_qw.sum() == pytest.approx(1.5, abs=1e-12)
    assert dom.D == pytest.approx(0.75)
    assert dom.x0[0] == pytest.approx(1.0)
    assert dom.interior.sum() == 99


def test_box_domain_quadrature_and_geometry():
    dom = ol.domain_from_config({"shape": "box", "n": 33,
                                 "extent": [0.0, 2.0]})
    assert dom.ndim == 2
    assert dom.node_qw.sum() == pytest.approx(4.0, abs=1e-10)
    assert dom.D == pytest.approx(1.0)
    assert dom.measure == pytest.approx(4.0)
    assert dom.cell_qw == pytest.approx(dom.h ** 2)


def test_disc_domain_mask_and_staircase_area():
    dom = ol.domain_from_config({"shape": "disc", "n": 81, "extent": [1.0]})
    r2 = np.sum((dom.nodes - dom.x0) ** 2, axis=-1)
    assert np.all(r2[dom.mask] <= 1.0 + 1e-9)
    assert np.all(r2[~dom.mask] > 1.0 - 1e-9)
    # staircase quadrature approaches the disc area at first order in h
    assert dom.node_qw.sum() == pytest.approx(math.pi, abs=4 * dom.h)
    # the interior is the mask eroded by one ring
    assert dom.interior.sum() < dom.mask.sum()
    assert not dom.interior[0, :].any() and not dom.interior[:, 0].any()


def test_domain_rejects_bad_configs():
    with pytest.raises(DomainError):
        ol.GridDomain("interval", (1.0, 0.0), 16)
    with pytest.raises(DomainError):
        ol.GridDomain("interval", (0.0, 1.0), 3)
    with pytest.raises(DomainError):
        ol.GridDomain("disc", (0.0,), 16)
    with pytest.raises((DomainError, ConfigError)):
        ol.domain_from_config({"shape": "triangle", "n": 16, "extent": [1.0]})
    with pytest.raises(ConfigError):
        ol.domain_from_config({"shape": "box", "n": 16})



@pytest.mark.parametrize("cfg", [
    {"shape": "disc", "n": 33, "extent": [[-0.5, 0.5], [-0.5, 0.5]]},
    {"shape": "disc", "n": 33, "extent": [1.0, 2.0]},
    {"shape": "box", "n": 33, "extent": [1.0]},
    {"shape": "interval", "n": 33, "extent": ["a", "b"]},
    {"shape": "interval", "n": 33, "extent": [0.0, [1.0]]},
    {"shape": "interval", "n": 32.5, "extent": [0.0, 1.0]},
    {"shape": "interval", "n": "33", "extent": [0.0, 1.0]},
], ids=["disc-pairs", "disc-two", "box-one", "strings", "ragged",
        "n-fraction", "n-string"])
def test_domain_from_config_rejects_malformed_entries(cfg):
    with pytest.raises(ConfigError):
        ol.domain_from_config(cfg)


# ---------------------------------------------------------------------------
# weights and grid functions

def test_weight_field_validation():
    dom = ol.GridDomain("interval", (0.0, 1.0), 16)
    w = ol.WeightField.constant(dom, 2.5)
    assert np.all(w.values == 2.5)
    with pytest.raises(DomainError):
        ol.WeightField(dom, np.full(16, 0.5))
    with pytest.raises(DomainError):
        ol.WeightField(dom, np.full(15, 2.0))
    bad = np.full(16, 2.0)
    bad[3] = np.inf
    with pytest.raises(DomainError):
        ol.WeightField(dom, bad)


def test_weight_cell_values_are_corner_means():
    dom = ol.GridDomain("box", (0.0, 1.0), 8)
    w = ol.WeightField.from_callable(dom, lambda x, y: 1.0 + x + 2 * y)
    cells = w.cell_values()
    v = w.values
    manual = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
    assert np.allclose(cells, manual, rtol=0, atol=1e-15)


def test_grid_function_trace_handling():
    dom = ol.GridDomain("interval", (0.0, 1.0), 16)
    u = ol.GridFunction(dom, np.ones(16))
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    free = ol.GridFunction(dom, np.ones(16), trace="free")
    assert free.values[0] == 1.0
    with pytest.raises(DomainError):
        ol.GridFunction(dom, np.ones(16), trace="weird")
    disc = ol.GridDomain("disc", (1.0,), 17)
    with pytest.raises(DomainError):
        ol.GridFunction(disc, np.ones((17, 17)), trace="free")


def test_grid_function_scaling():
    dom = ol.GridDomain("interval", (0.0, 1.0), 16)
    u = ol.GridFunction(dom, np.arange(16.0))
    assert np.allclose(u.scaled(2.0).values, 2.0 * u.values)


# ---------------------------------------------------------------------------
# gradients

def test_gradient_exact_on_linear_fields():
    dom = ol.GridDomain("box", (0.0, 1.0), 21)
    vals = 3.0 * dom.nodes[..., 0] - 2.0 * dom.nodes[..., 1]
    gx, gy = ol.gradient_components(dom, vals)
    assert np.allclose(gx, 3.0, atol=1e-12)
    assert np.allclose(gy, -2.0, atol=1e-12)
    mag = ol.gradient_magnitude(dom, vals)
    assert np.allclose(mag, math.sqrt(13.0), atol=1e-12)


def test_gradient_1d_matches_difference_quotient(rng):
    dom = ol.GridDomain("interval", (0.0, 2.0), 33)
    vals = rng.normal(size=33)
    (g,) = ol.gradient_components(dom, vals)
    assert np.allclose(g, np.diff(vals) / dom.h, atol=1e-13)


def test_gradient_adjoint_identity(rng):
    """Sum over cells of F . grad(v) equals the nodal pairing with the
    assembled adjoint, for random fields on both kinds of domain."""
    for cfg in ({"shape": "interval", "n": 24, "extent": [0.0, 1.0]},
                {"shape": "box", "n": 12, "extent": [0.0, 1.0]}):
        dom = ol.domain_from_config(cfg)
        v = rng.normal(size=dom.node_shape)
        fields = tuple(rng.normal(size=dom.cell_shape)
                       for _ in range(dom.ndim))
        adj = ol.gradient_adjoint(dom, fields)
        lhs = sum(np.sum(f * g) for f, g in
                  zip(fields, ol.gradient_components(dom, v)))
        assert lhs == pytest.approx(np.sum(adj * v), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# modulars

def test_modular_closed_forms():
    dom = ol.GridDomain("interval", (0.0, 1.0), 512)
    w = ol.WeightField.constant(dom)
    one = ol.GridFunction(dom, np.ones(512), trace="free")
    assert ol.modular(ol.Power(2.0, 1.0), w, one) == pytest.approx(1.0,
                                                                   abs=1e-12)
    w2 = ol.WeightField.constant(dom, 2.0)
    assert ol.modular(ol.Power(2.0, 1.0), w2, one) == pytest.approx(2.0,
                                                                    abs=1e-12)
    lin = ol.GridFunction.from_callable(dom, lambda x: x, trace="free")
    got = ol.modular(ol.Power(3.0), w, lin)
    assert got == pytest.approx(1.0 / 12.0, rel=1e-5)


def test_modular_values_batch_matches_loop(rng):
    dom = ol.GridDomain("interval", (0.0, 1.0), 40)
    w = ol.WeightField(dom, 1.0 + rng.random(40))
    batch = rng.normal(size=(6, 40))
    batch[:, [0, -1]] = 0.0
    got = ol.modular_values(ol.Plasticity(2.0, 1.0), w.values,
                            dom.node_qw, batch)
    for i in range(6):
        u = ol.GridFunction(dom, batch[i])
        assert got[i] == pytest.approx(
            ol.modular(ol.Plasticity(2.0, 1.0), w, u), rel=1e-12)


# ---------------------------------------------------------------------------
# Luxemburg norms

def test_luxemburg_closed_forms():
    dom = ol.GridDomain("interval", (0.0, 1.0), 128)
    w = ol.WeightField.constant(dom)
    one = ol.GridFunction(dom, np.ones(128), trace="free")
    phi = ol.Power(2.0, 1.0)
    assert ol.luxemburg_norm(phi, w, one) == pytest.approx(1.0, rel=1e-9)
    assert ol.luxemburg_norm(phi, w, one.scaled(3.0)) == pytest.approx(
        3.0, rel=1e-9)
    zero = ol.GridFunction(dom, np.zeros(128))
    assert ol.luxemburg_norm(phi, w, zero) == 0.0


def test_luxemburg_equals_weighted_p_norm(rng):
    dom = ol.GridDomain("interval", (0.0, 1.0), 64)
    weight = 1.0 + rng.random(64)
    w = ol.WeightField(dom, weight)
    for p in (2.0, 3.0):
        phi = ol.Power(p, 1.0)
        for _ in range(25):
            u = random_zero_trace(dom, rng, scale=10.0 ** rng.uniform(-1, 1))
            want = oc.weighted_p_norm(u.values, weight, dom.node_qw, p)
            assert ol.luxemburg_norm(phi, w, u) == pytest.approx(want,
                                                                 rel=1e-8)


def test_luxemburg_unit_ball_normalization(rng):
    dom = ol.GridDomain("interval", (0.0, 1.0), 64)
    w = ol.WeightField.constant(dom)
    phi = ol.Plasticity(2.0, 1.0)
    for _ in range(10):
        u = random_zero_trace(dom, rng, scale=10.0 ** rng.uniform(-1, 1))
        nrm = ol.luxemburg_norm(phi, w, u)
        assert ol.modular(phi, w, u.scaled(1.0 / nrm)) == pytest.approx(
            1.0, abs=1e-8)


def test_sobolev_norm_is_state_plus_gradient(rng):
    setup = build_setup(ol.Power(3.0), ol.Power(2.0),
                        {"shape": "interval", "n": 48, "extent": [0.0, 1.0]})
    u = random_zero_trace(setup.dom, rng)
    full = ol.sobolev_norm(setup.phi, setup.psi, setup.w, setup.w1, u)
    state = ol.luxemburg_norm(setup.psi, setup.w1, u)
    grad = ol.gradient_norm(setup.phi, setup.w, u)
    assert full == pytest.approx(state + grad, rel=1e-12)


def test_gradient_norm_closed_form():
    # odd node count puts the peak on a node, so |u'| = 1 on every cell
    dom = ol.GridDomain("interval", (0.0, 1.0), 201)
    w = ol.WeightField.constant(dom)
    tent = ol.GridFunction.from_callable(dom, lambda x: min(x, 1.0 - x))
    phi = ol.Power(2.0, 1.0)
    assert ol.gradient_norm(phi, w, tent) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# pairings and estimates

def test_holder_pairing_bound(rng):
    dom = ol.GridDomain("interval", (0.0, 1.0), 48)
    w = ol.WeightField(dom, 1.0 + rng.random(48))
    phi = ol.Power(3.0)
    for _ in range(50):
        u = random_zero_trace(dom, rng, scale=10.0 ** rng.uniform(-1, 1))
        v = random_zero_trace(dom, rng, scale=10.0 ** rng.uniform(-1, 1))
        lhs, rhs = ol.holder_check(phi, w, u, v)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


def test_poincare_estimate_near_sharp_constant():
    dom = ol.GridDomain("interval", (0.0, 1.0), 129)
    w = ol.WeightField.constant(dom)
    phi = ol.Power(2.0, 1.0)
    got = ol.poincare_estimate(phi, phi, w, w, dom, trials=16, seed=3)
    assert got >= 1.0 / math.pi - 1e-2
    assert got <= 1.0 / math.pi + 1e-2


def test_smooth_candidates_shape_and_determinism():
    dom = ol.GridDomain("disc", (1.0,), 41)
    a = ol.smooth_candidates(dom, 5, seed=9)
    b = ol.smooth_candidates(dom, 5, seed=9)
    c = ol.smooth_candidates(dom, 5, seed=10)
    assert a.shape == (5, 41, 41)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # zero trace: nothing outside the eroded interior
    assert np.all(a[:, ~dom.interior] == 0.0)


def test_values_csv_roundtrip(tmp_path, rng):
    dom = ol.GridDomain("box", (0.0, 1.0), 9)
    vals = rng.normal(size=(9, 9))
    path = tmp_path / "field.csv"
    ol.save_values_csv(vals, path)
    back = ol.load_values_csv(dom, path)
    assert np.allclose(back, vals, atol=1e-15)
    small = ol.GridDomain("box", (0.0, 1.0), 8)
    with pytest.raises((DomainError, ConfigError)):
        ol.load_values_csv(small, path)


def test_weight_field_csv_roundtrip(tmp_path, rng):
    dom = ol.GridDomain("interval", (0.0, 1.0), 12)
    w = ol.WeightField(dom, 1.0 + rng.random(12))
    path = tmp_path / "weight.csv"
    ol.save_values_csv(w.values, path)
    back = ol.WeightField.from_csv(dom, path)
    assert np.allclose(back.values, w.values, atol=1e-15)
