"""The root kernel shared by every inverse, norm and level-set scaling."""

import numpy as np
import pytest

import orlicz_lab as ol
from orlicz_lab import DomainError
from orlicz_lab.util import invert_increasing


def cube(s):
    return s ** 3 / 3.0


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
