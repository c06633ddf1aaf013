"""Grids, weights, gradients, modulars, Luxemburg norms, the pairing
inequality and the Poincare estimate."""

import math
import warnings

import numpy as np
import pytest

import orlicz_lab as ol
from orlicz_lab import ConfigError, DomainError, HorizonError, norms
from orlicz_lab.util import invert_increasing

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


def test_domain_layouts_are_exact():
    for n in (4, 5, 9, 21, 33):
        ends = np.full(n, 1.0 / (n - 1))
        ends[[0, -1]] *= 0.5
        line = ol.GridDomain("interval", (0.0, 1.0), n)
        assert np.array_equal(line.node_qw, ends)
        assert np.flatnonzero(~line.interior).tolist() == [0, n - 1]
        box = ol.GridDomain("box", (0.0, 1.0), n)
        inner = np.zeros((n, n), dtype=bool)
        inner[1:-1, 1:-1] = True
        assert box.mask.all()
        assert np.array_equal(box.interior, inner)
        assert np.array_equal(box.node_qw, np.outer(ends, ends))
        # on the disc a node is interior iff it and its four neighbours
        # are in the mask; the grid edge is outside
        disc = ol.GridDomain("disc", (0.5,), n)
        m = disc.mask
        inner = np.zeros((n, n), dtype=bool)
        inner[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
                             & m[1:-1, :-2] & m[1:-1, 2:])
        assert np.array_equal(disc.interior, inner)
        assert np.array_equal(disc.node_qw, np.outer(ends, ends) * m)
        for dom in (line, box, disc):
            assert not dom.node_qw.flags.writeable
            assert not dom.interior.flags.writeable


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


@pytest.mark.parametrize("cfg", [
    {"shape": "interval", "n": 17, "extent": [0.0, 1.0]},
    {"shape": "box", "n": 13, "extent": [0.0, 2.0]},
    {"shape": "disc", "n": 15, "extent": [1.5]},
], ids=lambda cfg: cfg["shape"])
def test_stacked_gradients_equal_per_slice_gradients(rng, cfg):
    dom = ol.domain_from_config(cfg)
    stack = rng.normal(size=(2, 3) + dom.node_shape)
    comps = ol.gradient_components(dom, stack)
    mags = ol.gradient_magnitude(dom, stack)
    assert mags.shape == (2, 3) + dom.cell_shape
    for i in range(2):
        for j in range(3):
            single = ol.gradient_components(dom, stack[i, j])
            assert len(comps) == len(single) == dom.ndim
            for comp, one in zip(comps, single):
                assert np.array_equal(comp[i, j], one)
            assert np.array_equal(mags[i, j],
                                  ol.gradient_magnitude(dom, stack[i, j]))


@pytest.mark.parametrize("cfg", [
    {"shape": "interval", "n": 17, "extent": [0.0, 1.0]},
    {"shape": "box", "n": 13, "extent": [0.0, 2.0]},
    {"shape": "disc", "n": 15, "extent": [1.5]},
], ids=lambda cfg: cfg["shape"])
def test_assembly_equals_the_three_operand_einsum(rng, cfg):
    # one coefficient product per cell, against G_c^T A_c G_c written out
    dom = ol.domain_from_config(cfg)
    pat = dom.stiffness_pattern
    stencil = (np.array([[-1.0, 1.0]]) if dom.ndim == 1 else
               np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])) / dom.h
    cells = math.prod(dom.cell_shape)
    tensor = rng.normal(size=(dom.ndim, dom.ndim, cells))
    tensor = tensor + tensor.transpose(1, 0, 2)
    local = np.einsum("ki,klc,lj->ijc", stencil, tensor, stencil)
    # each corner's unknown, -1 off the interior, which lands in a
    # dropped last row and column
    size, k = pat.idx.size, pat.bandwidth
    unknown = np.full(dom.interior.size, -1)
    unknown[pat.idx] = np.arange(size)
    flat = np.arange(dom.interior.size).reshape(dom.node_shape)
    corners = [unknown[flat[ix].ravel()] for ix in dom.corner_ix]
    dense = np.zeros((size + 1, size + 1))
    for i, row in enumerate(corners):
        for j, col in enumerate(corners):
            np.add.at(dense, (row, col), local[i, j])
    dense = dense[:-1, :-1]
    i, j = np.indices(dense.shape)
    for general, height, at in ((False, k + 1, 0), (True, 3 * k + 1, 2 * k)):
        # A[i, j] in row at + i - j of column j, the lower triangle alone
        # in symmetric storage
        keep = (np.abs(i - j) <= k) & (general | (i >= j))
        want = np.zeros((height, size))
        want[at + i[keep] - j[keep], j[keep]] = dense[keep]
        got = pat.band(tensor, general=general)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("cfg, bandwidth, index_sum", [
    ({"shape": "disc", "n": 41, "extent": [1.0]}, 28, True),
    ({"shape": "disc", "n": 81, "extent": [1.0]}, 56, True),
    ({"shape": "box", "n": 21, "extent": [0.0, 1.0]}, 19, False),
    ({"shape": "box", "n": 65, "extent": [0.0, 1.0]}, 63, False),
    ({"shape": "interval", "n": 65, "extent": [0.0, 1.0]}, 1, False),
], ids=["disc-n41", "disc-n81", "box-n21", "box-n65", "interval-n65"])
def test_disc_is_numbered_by_index_sum_where_that_is_narrower(
        cfg, bandwidth, index_sum):
    # row-major gives 38 and 78 on the discs, as much as the index sum on
    # the box, and the same numbering in 1D
    dom = ol.domain_from_config(cfg)
    pat = dom.stiffness_pattern
    assert pat.bandwidth == bandwidth
    row_major = np.flatnonzero(dom.interior)
    assert np.array_equal(pat.idx, row_major) != index_sum
    if index_sum:
        sums = np.indices(dom.node_shape).sum(axis=0).ravel()[pat.idx]
        assert np.all(np.diff(sums) >= 0)


# Non-dyadic spacings only: with h a power of two, dividing by h is exact
# and would hide a change in the order of the stencil's operations.
@pytest.mark.parametrize("weights", ["constant", "random"])
@pytest.mark.parametrize("cfg", [
    {"shape": "interval", "n": 30, "extent": [0.0, 1.0]},
    {"shape": "interval", "n": 512, "extent": [0.0, 1.0]},
    {"shape": "box", "n": 22, "extent": [0.0, 1.0]},
    {"shape": "disc", "n": 40, "extent": [1.0]},
], ids=lambda cfg: f"{cfg['shape']}-n{cfg['n']}")
def test_geometry_equals_the_written_out_stencil(rng, cfg, weights):
    # every user of the grid's corner stencil against the raw-array slice
    # formulas of the oracle, bit for bit
    dom = ol.domain_from_config(cfg)
    assert dom.h * 2 ** round(-math.log2(dom.h)) != 1.0
    w_values = w1_values = None
    if weights == "random":
        w_values = 1.0 + rng.random(dom.node_shape)
        w1_values = 1.0 + rng.random(dom.node_shape)
    setup = build_setup(ol.PowerSum(2.0, 4.0), ol.PowerSum(1.5, 2.5), cfg,
                        w_values, w1_values)
    dom = setup.dom
    values = rng.normal(size=dom.node_shape)
    comps = ol.gradient_components(dom, values)
    want = oc.stencil_gradient(values, dom.h)
    assert len(comps) == len(want) == dom.ndim
    for got, ref in zip(comps, want):
        assert np.array_equal(got, ref)
    fields = tuple(rng.normal(size=dom.cell_shape) for _ in range(dom.ndim))
    assert np.array_equal(ol.gradient_adjoint(dom, fields),
                          oc.stencil_adjoint(fields, dom.h))
    pat = dom.stiffness_pattern
    ref = oc.stencil_pattern(dom.interior, dom.h)
    for key in ("idx", "bandwidth", "coef"):
        assert np.array_equal(getattr(pat, key), ref[key]), key
    tensor = rng.normal(size=(dom.ndim, dom.ndim, math.prod(dom.cell_shape)))
    tensor = tensor + tensor.transpose(1, 0, 2)
    assert np.array_equal(pat.band(tensor), ref["lower_band"](tensor))
    assert np.array_equal(pat.band(tensor, general=True),
                          ref["general_band"](tensor))

    def solve(modular, lo, hi):
        return invert_increasing(modular, np.ones_like(lo), lo=lo, hi=hi)

    norms = oc.stencil_basis_norms(
        dom.interior, dom.node_qw, setup.w_cells, setup.w1.values, dom.h,
        setup.phi.value, setup.phi.inverse, setup.psi.inverse, solve)
    basis = setup._basis_w.reshape(dom.node_shape)
    assert np.array_equal(basis[dom.interior], norms)
    assert (basis[~dom.interior] == np.inf).all()


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


@pytest.mark.parametrize("rows", [1, 8, 48, 500])
def test_modular_rows_equal_each_row_alone(rows):
    # a matrix-vector product on several rows rounds differently from a
    # lone row's dot product; the solver loops need a row's modular not to
    # depend on the rows stacked with it
    from orlicz_lab.norms import _modular
    rng = np.random.default_rng(rows)
    for size in (64, 441, 6561):
        wq = rng.random(size)
        batch = rng.normal(size=(rows, size))
        got = _modular(ol.PowerSum(1.5, 2.5), wq, batch)
        for i in range(rows):
            assert got[i] == _modular(ol.PowerSum(1.5, 2.5), wq,
                                      batch[i].copy()[None])[0]


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


def test_luxemburg_batch_of_mixed_rows_matches_single_rows(rng):
    dom = ol.GridDomain("interval", (0.0, 1.0), 64)
    weight = 1.0 + rng.random(64)
    base = random_zero_trace(dom, rng).values
    rows = np.stack([np.zeros(64), 1e-200 * base, base, 1e200 * base,
                     1e-3 * base])
    for phi in (ol.Power(3.0), ol.PowerSum(2.0, 4.0), ol.Plasticity(2.0, 1.0)):
        batch = ol.luxemburg_values(phi, weight, dom.node_qw, rows)
        single = [ol.luxemburg_values(phi, weight, dom.node_qw, row[None])[0]
                  for row in rows]
        np.testing.assert_allclose(batch, single, rtol=1e-12)
        assert batch[0] == 0.0
        live = rows[1:] / batch[1:, None]
        np.testing.assert_allclose(
            ol.modular_values(phi, weight, dom.node_qw, live), 1.0, rtol=1e-12)


def test_array_targets_scale_like_one_target_at_a_time(rng):
    dom = ol.GridDomain("box", (0.0, 1.0), 17)
    wq = np.ravel((1.0 + rng.random(dom.node_shape)) * dom.node_qw)
    base = random_zero_trace(dom, rng).values
    rows = np.stack([base, np.zeros(dom.node_shape), 1e-3 * base,
                     1e3 * base])
    targets = np.array([1e-4, 0.5, 1.0, 30.0])
    for phi in (ol.Power(3.0), ol.PowerSum(2.0, 4.0)):
        batch = ol.scale_to_modular(phi, wq, rows, targets)
        assert batch.shape == (targets.size, len(rows))
        for target, factors in zip(targets, batch):
            assert np.array_equal(
                factors, ol.scale_to_modular(phi, wq, rows, target))
        assert np.all(batch[:, 1] == np.inf)
    # the table ends at t = 3: no factor reaches a level past its modular
    # there, alone or among reachable levels
    knots = np.array([0.5, 1.0, 2.0, 3.0])
    table = ol.Tabulated(knots, knots ** 2 / 2.0)
    unit = rows[[0]] / np.max(np.abs(base))
    np.testing.assert_array_equal(
        ol.scale_to_modular(table, wq, unit, np.array([0.01, 0.1]))[:, 0],
        [ol.scale_to_modular(table, wq, unit, t)[0] for t in (0.01, 0.1)])
    with pytest.raises(HorizonError):
        ol.scale_to_modular(table, wq, unit, 1e6)
    with pytest.raises(HorizonError):
        ol.scale_to_modular(table, wq, unit, np.array([0.1, 1e6]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rows_with_a_non_finite_entry_raise_without_a_warning(rng, bad):
    # a NaN row once came out with norm 0, and an inf row warned in a
    # division before it raised
    dom = ol.GridDomain("interval", (0.0, 1.0), 32)
    weight = np.ones(32)
    wq = weight * dom.node_qw
    rows = np.stack([random_zero_trace(dom, rng).values, np.zeros(32)])
    rows[1, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in (ol.Power(3.0), ol.PowerSum(2.0, 4.0)):
            calls = (
                lambda: ol.luxemburg_values(phi, weight, dom.node_qw, rows),
                lambda: ol.scale_to_modular(phi, wq, rows, 1.0),
                lambda: ol.scale_to_modular(phi, wq, rows,
                                            np.array([0.5, 2.0])),
                lambda: ol.modular_values(phi, weight, dom.node_qw, rows))
            for call in calls:
                with pytest.raises(DomainError, match="^t must be finite$"):
                    call()
            # the finite row alone still goes through
            assert ol.luxemburg_values(phi, weight, dom.node_qw,
                                       rows[:1])[0] > 0


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
        # int w |u v| <= 2 ||u||_Phi ||v||_Phi~, the conjugate norm on the
        # memoized conjugate table
        lhs = np.sum(dom.node_qw * w.values * np.abs(u.values * v.values))
        rhs = 2.0 * ol.luxemburg_norm(phi, w, u) \
            * ol.luxemburg_norm(phi.conjugate(), w, v)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


def test_poincare_estimate_near_sharp_constant():
    dom = ol.GridDomain("interval", (0.0, 1.0), 129)
    w = ol.WeightField.constant(dom)
    phi = ol.Power(2.0, 1.0)
    got = ol.poincare_estimate(ol.EnergySetup(phi, phi, w, w, dom),
                               trials=16, seed=3)
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


@pytest.mark.parametrize("cfg", [("interval", (0.0, 1.0)),
                                 ("box", (0.0, 1.0)), ("disc", (1.0,))],
                         ids=["interval", "box", "disc"])
def test_candidates_are_the_stacked_blocks_of_one_stream(cfg):
    dom = ol.GridDomain(*cfg, 17)
    block = norms._BLOCK_ROWS
    blocks = list(norms._candidate_blocks(dom, 2 * block + 3, seed=4))
    assert [len(b) for b in blocks] == [block, block, 3]
    whole = ol.smooth_candidates(dom, 2 * block + 3, seed=4)
    assert np.array_equal(np.concatenate(blocks), whole)
    # a shorter draw is the head of a longer one: a field does not depend
    # on how many are drawn after it
    for count in (1, block - 1, block, block + 1):
        assert np.array_equal(ol.smooth_candidates(dom, count, seed=4),
                              whole[:count])


def _disc_candidates_one_at_a_time(domain, count, seed):
    """The disc branch of smooth_candidates as it was first written, with
    a sine and a cosine over the whole grid for every candidate."""
    rng = np.random.default_rng(seed)
    radius = domain.D
    dx = domain.nodes[..., 0] - domain.x0[0]
    dy = domain.nodes[..., 1] - domain.x0[1]
    rr = np.hypot(dx, dy) / radius
    base = np.clip(1.0 - rr * rr, 0.0, None)
    out = [base]
    while len(out) < count:
        p = rng.uniform(1.0, 3.0)
        wobble = 1.0 + 0.3 * np.sin(
            rng.integers(1, 4) * math.pi * dx / radius) * np.cos(
            rng.integers(1, 4) * math.pi * dy / radius)
        out.append(base ** p * wobble)
    return np.where(domain.interior, np.stack(out[:count]), 0.0)


@pytest.mark.parametrize("count", [1, 2, 49])
@pytest.mark.parametrize("seed", range(4))
def test_disc_candidates_equal_the_per_candidate_formula(seed, count):
    dom = ol.GridDomain("disc", (1.5,), 41)
    assert np.array_equal(ol.smooth_candidates(dom, count, seed),
                          _disc_candidates_one_at_a_time(dom, count, seed))


def test_values_csv_roundtrip(tmp_path, rng):
    dom = ol.GridDomain("box", (0.0, 1.0), 9)
    vals = rng.normal(size=(9, 9))
    path = tmp_path / "field.csv"
    np.savetxt(path, np.atleast_2d(vals), delimiter=",")
    back = ol.load_values_csv(dom, path)
    assert np.allclose(back, vals, atol=1e-15)
    small = ol.GridDomain("box", (0.0, 1.0), 8)
    with pytest.raises((DomainError, ConfigError)):
        ol.load_values_csv(small, path)


def test_weight_field_csv_roundtrip(tmp_path, rng):
    dom = ol.GridDomain("interval", (0.0, 1.0), 12)
    w = ol.WeightField(dom, 1.0 + rng.random(12))
    path = tmp_path / "weight.csv"
    np.savetxt(path, np.atleast_2d(w.values), delimiter=",")
    back = ol.WeightField.from_csv(dom, path)
    assert np.allclose(back.values, w.values, atol=1e-15)
