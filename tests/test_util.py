"""The root kernel shared by every inverse, norm and level-set scaling, and
the monotone cubic behind conjugate and tabulated Young functions."""

import numpy as np
import pytest

import orlicz_lab as ol
from orlicz_lab import DomainError
from orlicz_lab.util import (MonotoneCubic, _GW, _GX, gauss_panels,
                             invert_increasing)


def cube(s):
    return s ** 3 / 3.0


def test_gauss_rule_is_exact_to_degree_15_and_is_numpys_leggauss():
    # the rule is written out as literals; it integrates every monomial of
    # degree <= 15 over [-1, 1] and is numpy's own 8-point rule (whose
    # rounded values, summed exactly, miss the integral of x^2 by 1.15e-15)
    for k in range(16):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = gauss_panels(lambda x: x ** k, -1.0, 1.0)
        assert abs(got - exact) <= 2e-15
    x, w = np.polynomial.legendre.leggauss(8)
    for ours, numpys in ((_GX, x), (_GW, w)):
        assert ours.shape == numpys.shape == (8,)
        assert np.all(np.abs(ours - numpys) <= 2 * np.spacing(np.abs(numpys)))


def test_kernel_keeps_the_shape_of_its_input():
    s = invert_increasing(cube, 9.0)
    assert isinstance(s, float)
    assert s == pytest.approx(3.0, rel=1e-13)
    ys = np.array([[1.0, 9.0], [0.0, 1e-3]])
    out = invert_increasing(cube, ys)
    assert out.shape == ys.shape
    np.testing.assert_allclose(cube(out), ys, rtol=1e-13)
    assert out[1, 0] == 0.0
    assert invert_increasing(cube, 0.0) == 0.0


def test_kernel_rejects_bad_targets():
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            invert_increasing(cube, bad)


def test_kernel_round_trips_a_power_over_550_decades():
    phi = ol.Power(3.0)
    ys = np.geomspace(1e-300, 1e250, 111)
    s = invert_increasing(phi.value, ys)
    np.testing.assert_allclose(phi.value(s), ys, rtol=1e-12)


def test_kernel_solves_where_the_map_overflows():
    phi = ol.ExpSquare()
    ys = np.array([1e-8, 1.0, 1e100, 1e300])
    with np.errstate(over="ignore"):
        assert not np.isfinite(phi.value(30.0))
    s = invert_increasing(phi._value_raw, ys)
    np.testing.assert_allclose(phi.value(s), ys, rtol=1e-12)


def test_zero_width_bracket_returns_without_calling_the_map():
    def never(s):
        raise AssertionError("the map was called")
    out = invert_increasing(never, np.array([1.0, 2.0]), lo=[2.0, 0.5],
                            hi=[2.0, 0.5])
    np.testing.assert_array_equal(out, [2.0, 0.5])


def test_kernel_never_evaluates_past_the_horizon():
    seen = []

    def capped(s):
        seen.append(np.max(s))
        return s * s
    assert invert_increasing(capped, 8.0, horizon=3.0) == pytest.approx(
        np.sqrt(8.0), rel=1e-13)
    assert max(seen) <= 3.0
    with pytest.raises(ol.HorizonError):
        invert_increasing(capped, 10.0, horizon=3.0)
    # a bracket that lies beyond the horizon is searched, not returned
    with pytest.raises(ol.HorizonError):
        invert_increasing(capped, 25.0, lo=5.0, hi=5.0, horizon=3.0)


def _inverse_points(phi):
    return np.geomspace(1e-6, 5.0 if phi.kind == "exp-square" else 1e3, 61)


@pytest.mark.parametrize("name,phi", ol.catalog())
def test_young_inverses_round_trip(name, phi):
    t = _inverse_points(phi)
    np.testing.assert_allclose(phi.inverse(phi.value(t)), t, rtol=1e-12)
    np.testing.assert_allclose(phi.derivative_inverse(phi.derivative(t)), t,
                               rtol=1e-12)


def _irregular_knots(seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, 40))
    # monotone stretches, flat steps and sign changes of the secant
    steps = rng.choice([-1.0, 0.0, 1.0, 2.0], 40) * rng.uniform(0.0, 1.0, 40)
    y = np.cumsum(steps)
    return x, y


def _queries(x, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(x[0], x[-1], 5000), x])


def _knot_sets(seed):
    """Knots of both lookups: (x, whether the direct guess serves them)."""
    irregular, _ = _irregular_knots(seed)
    even = np.linspace(-1.0, 3.0, 41)
    near, far = even.copy(), even.copy()
    near[20] += 0.45 * (even[1] - even[0])
    far[20] += 0.55 * (even[1] - even[0])
    return [(irregular, False), (np.log(np.geomspace(1e-6, 1e6, 4096)), True),
            (even, True), (near, True), (far, False)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monotone_cubic_is_scipy_pchip_bit_for_bit(seed):
    from scipy.interpolate import PchipInterpolator
    _, y = _irregular_knots(seed)
    for x, _ in _knot_sets(seed):
        yy = np.interp(x, np.linspace(x[0], x[-1], y.size), y)
        span = x[-1] - x[0]
        q = np.concatenate([_queries(x, seed),
                            [x[0] - span, x[-1] + span, np.nan]])
        ref = PchipInterpolator(x, yy)
        ours = MonotoneCubic(x, yy)
        for nu in (0, 1, 2):
            assert np.array_equal(ours(q, nu), ref.derivative(nu)(q),
                                  equal_nan=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monotone_cubic_lookup_is_searchsorted(seed):
    for x, guessed in _knot_sets(seed):
        span = x[-1] - x[0]
        q = np.concatenate([_queries(x, seed), np.nextafter(x, -np.inf),
                            [x[0] - span, x[-1] + span, -np.inf, np.inf]])
        cubic = MonotoneCubic(x, x ** 3)
        assert (cubic._guess is not None) == guessed
        assert np.array_equal(cubic._interval(q),
                              np.searchsorted(x, q, side="right"))


def test_monotone_cubic_keeps_the_shape_of_its_input():
    x = np.array([0.0, 1.0, 2.0, 4.0])
    cubic = MonotoneCubic(x, x ** 2)
    assert cubic(2.0).shape == ()
    assert cubic(2.0) == 4.0
    assert cubic(np.full((2, 3), 1.0)).shape == (2, 3)
