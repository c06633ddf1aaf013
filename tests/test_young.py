"""Scalar Young-function calculus: values, indices, conjugates, growth
classification, and the comparison relations."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import orlicz_lab as ol
from orlicz_lab import ConditionFailure, ConfigError, DomainError, HorizonError

import oracles as oc


# ---------------------------------------------------------------------------
# construction and closed-form values

def test_catalog_contents_and_indices():
    entries = ol.catalog()
    kinds = [kind for kind, _ in entries]
    assert kinds == ["power", "power-sum", "plasticity", "elasticity",
                     "exp-square"]
    expected = {
        "power": (2.0, 2.0),
        "power-sum": (2.0, 4.0),
        "plasticity": (2.0, 3.0),
        "elasticity": (2.0, 3.0),
    }
    for kind, phi in entries:
        l, m = ol.simonenko_indices(phi)
        if kind == "exp-square":
            assert l >= 2.0 and not np.isfinite(m)
        else:
            el, em = expected[kind]
            assert l == pytest.approx(el, rel=1e-6)
            assert m == pytest.approx(em, rel=1e-6)


def test_power_value_and_derivative():
    phi = ol.Power(3.0)
    assert phi.value(2.0) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert phi.derivative(2.0) == pytest.approx(4.0, rel=1e-14)
    unit = ol.Power(3.0, 1.0)
    assert unit.value(2.0) == pytest.approx(8.0, rel=1e-14)


@pytest.mark.parametrize("phi", [ol.Power(1.5), ol.Power(2.0), ol.Power(3.0),
                                 ol.Power(4.5, 2.0)],
                         ids=["p1.5", "p2", "p3", "p4.5-coeff2"])
def test_power_inverse_is_the_closed_form(phi):
    # (y / coeff)^(1/p), so Phi(Phi^-1(y)) = y to a few ulp, scalars and
    # arrays alike; zero maps to zero
    ys = np.geomspace(1e-3, 1e3, 61)
    back = phi.value(phi.inverse(ys))
    assert np.all(np.abs(back - ys) <= 1e-15 * ys)
    for y in (1e-3, 0.7, 1.0, 1e3):
        x = phi.inverse(y)
        assert isinstance(x, float)
        assert abs(phi.value(x) - y) <= 1e-15 * y
    assert phi.inverse(0.0) == 0.0
    with pytest.raises(DomainError, match="y must be nonnegative"):
        phi.inverse(-1.0)


def test_plasticity_and_elasticity_values():
    pl = ol.Plasticity(2.0, 1.0)
    t = 1.7
    assert pl.value(t) == pytest.approx(t * t * math.log1p(t), rel=1e-13)
    el = ol.Elasticity(1.5)
    assert el.value(t) == pytest.approx((1 + t * t) ** 1.5 - 1, rel=1e-13)
    # the small-argument branch must not cancel catastrophically
    tiny = 1e-8
    assert el.value(tiny) == pytest.approx(1.5 * tiny * tiny, rel=1e-6)


def test_exp_square_value():
    phi = ol.ExpSquare()
    assert phi.value(1.0) == pytest.approx(0.5 * (math.e - 1.0), rel=1e-13)
    assert phi.value(0.0) == 0.0


def test_newtonian_indices():
    phi = ol.Newtonian(0.5, 0.3)
    l, m = ol.simonenko_indices(phi)
    assert l == pytest.approx(1.5, rel=1e-2)
    assert m == pytest.approx(1.8, rel=1e-2)


def test_values_reject_bad_arguments():
    phi = ol.Power(2.0)
    with pytest.raises(DomainError):
        phi.value(-1.0)
    with pytest.raises(DomainError):
        phi.value(float("nan"))


def test_argument_check_messages():
    phi = ol.Power(2.0)
    for bad, message in ((np.nan, "t must be finite"),
                         (np.inf, "t must be finite"),
                         (-np.inf, "t must be finite"),
                         (-1.0, "t must be nonnegative"),
                         ([1.0, -2.0, np.nan], "t must be finite"),
                         ([1.0, -2.0, np.inf], "t must be finite"),
                         ([0.5, -2.0, 3.0], "t must be nonnegative"),
                         (np.array(np.inf), "t must be finite"),
                         ([-1.0, np.nan], "t must be finite")):
        with pytest.raises(DomainError) as info:
            phi.value(bad)
        assert str(info.value) == message
    assert phi.value(-0.0) == 0.0 and phi.value(0.0) == 0.0
    assert phi.value(np.array([])).shape == (0,)
    for good, scalar in ((np.array([]), False), (-0.0, True)):
        arr, is_scalar = ol.young._checked(good)
        assert np.array_equal(arr, good) and is_scalar == scalar


def test_evaluate_and_derivative_are_vectorized():
    phi = ol.PowerSum(2.0, 4.0)
    ts = np.linspace(0.0, 3.0, 17)
    vals = phi.value(ts)
    ders = phi.derivative(ts)
    assert vals.shape == ts.shape and ders.shape == ts.shape
    assert vals[0] == 0.0
    # convexity: the density is nondecreasing
    assert np.all(np.diff(ders) >= -1e-12)



def test_second_derivative_matches_difference_of_density():
    knots = np.geomspace(1e-2, 1e2, 60)
    members = [ol.Power(1.5), ol.Power(3.0), ol.PowerSum(2.0, 4.0),
               ol.Plasticity(2.0, 1.0), ol.Plasticity(1.0, 1.0),
               ol.Elasticity(1.5), ol.Elasticity(0.75),
               ol.Newtonian(0.5, 1.0), ol.ExpSquare(),
               ol.Tabulated(knots, knots ** 3 / 3.0),
               ol.Power(3.0).conjugate()]
    # midpoints between tabulated knots, where the cubic pieces are smooth
    ts = np.sqrt(knots[5:55:7] * knots[6:56:7])
    for phi in members:
        # the exp-square density overflows past t ~ 26
        pts = ts[ts < 5.0] if phi.kind == "exp-square" else ts
        step = 1e-5 * pts
        want = (phi.derivative(pts + step)
                - phi.derivative(pts - step)) / (2.0 * step)
        got = phi.second_derivative(pts)
        assert got.shape == pts.shape
        assert np.allclose(got, want, rtol=1e-6, atol=0.0), phi.label()
    assert ol.Power(3.0).second_derivative(0.0) == 0.0
    assert ol.PowerSum(2.0, 4.0).second_derivative(0.0) == 1.0
    assert ol.Power(1.5).second_derivative(0.0) == math.inf

def test_simonenko_indices_closed_forms():
    for p in (1.5, 2.0, 3.0, 5.0):
        l, m = ol.simonenko_indices(ol.Power(p))
        assert (l, m) == (p, p)
    l, m = ol.simonenko_indices(ol.PowerSum(2.0, 4.0))
    assert (l, m) == (2.0, 4.0)
    l, m = ol.simonenko_indices(ol.Plasticity(2.0, 1.0))
    assert (l, m) == (2.0, 3.0)


def test_simonenko_empirical_scan_matches_closed_form():
    # force the sampled route through members that hide their closed
    # form, and compare with the known indices; the power-sum ratio
    # converges polynomially, the plasticity lower index only like
    # 1/log t, hence the asymmetric tolerances
    class ScannedPowerSum(ol.PowerSum):
        def indices(self):
            return None

    class ScannedPlasticity(ol.Plasticity):
        def indices(self):
            return None

    l, m = ol.simonenko_indices(ScannedPowerSum(2.0, 4.0))
    assert l == pytest.approx(2.0, abs=1e-3)
    assert m == pytest.approx(4.0, abs=1e-3)
    l, m = ol.simonenko_indices(ScannedPlasticity(2.0, 1.0))
    assert l == pytest.approx(2.0, abs=0.08)
    assert m == pytest.approx(3.0, abs=1e-3)


# ---------------------------------------------------------------------------
# conjugates

def test_conjugate_matches_power_closed_form():
    for p in (1.5, 2.0, 3.0, 5.0):
        phi = ol.Power(p)
        conj = phi.conjugate()
        q = p / (p - 1.0)
        ss = np.geomspace(1e-2, 1e2, 101)
        rel = np.abs(conj.value(ss) - ss ** q / q) / (ss ** q / q)
        assert rel.max() < 1e-6


def test_conjugate_matches_brute_legendre():
    """Table route against an independent grid-plus-refine transform."""
    for phi in (ol.PowerSum(2.0, 4.0), ol.Plasticity(2.0, 1.0)):
        conj = phi.conjugate()
        for s in np.geomspace(1e-2, 1e2, 9):
            brute = oc.legendre_transform(phi.value, s)
            assert conj.value(s) == pytest.approx(brute, rel=1e-7, abs=1e-12)


def test_conjugate_involution_on_delta2_catalog():
    ts = np.geomspace(1e-2, 1e2, 61)
    for _, phi in ol.catalog():
        if not ol.check_delta2(phi).satisfied:
            continue
        back = phi.conjugate().conjugate()
        err = np.abs(back.value(ts) - phi.value(ts)) / (1.0 + phi.value(ts))
        assert err.max() <= 1e-5


@pytest.mark.parametrize("name,phi", [
    entry for entry in ol.catalog() if entry[0] != "exp-square"])
def test_conjugate_interpolant_is_scipy_pchip_bit_for_bit(name, phi):
    from scipy.interpolate import PchipInterpolator
    conj = phi.conjugate()
    x, y = conj._log_grid, conj._log_cum
    rng = np.random.default_rng(0)
    q = np.concatenate([rng.uniform(x[0], x[-1], 20_000), x, x[[0, -1]]])
    ref = PchipInterpolator(x, y, extrapolate=False)(q)
    assert np.array_equal(conj._interp(q), ref)


def test_conjugate_indices_are_dual():
    conj = ol.Power(3.0).conjugate()
    assert conj.indices() == pytest.approx((1.5, 1.5))
    conj = ol.PowerSum(2.0, 4.0).conjugate()
    l, m = conj.indices()
    assert l == pytest.approx(4.0 / 3.0)
    assert m == pytest.approx(2.0)


def test_conjugate_is_memoized_and_horizon_guarded():
    phi = ol.Power(2.0)
    assert phi.conjugate() is phi.conjugate()
    with pytest.raises(HorizonError):
        phi.conjugate().value(1e7)


def test_conjugate_at_and_sup_estimate_agree():
    phi = ol.Plasticity(2.0, 1.0)
    for s in (0.3, 2.0, 40.0):
        table = phi.conjugate().value(s)
        grid = oc.legendre_transform(phi.value, s,
                                     t_hi=min(1e8, phi.horizon))
        # the brute-force sup is a lower bound
        assert grid <= table * (1 + 1e-6) + 1e-12
        assert grid == pytest.approx(table, rel=1e-3)


# ---------------------------------------------------------------------------
# growth classification

def test_delta2_catalog_classification():
    for kind, phi in ol.catalog():
        report = ol.check_delta2(phi)
        if kind == "exp-square":
            assert not report.satisfied
            assert report.witness is not None
        else:
            assert report.satisfied
            assert report.bound is not None and report.bound < 100.0
        assert kind.split("-")[0] in str(report) or str(report)


def test_delta2_agrees_with_finite_upper_index():
    for _, phi in ol.catalog():
        report = ol.check_delta2(phi)
        _, m = ol.simonenko_indices(phi)
        assert report.satisfied == bool(np.isfinite(m))


def test_sqrt_convexity_classification():
    assert ol.sqrt_convexity_holds(ol.Power(2.0))
    assert ol.sqrt_convexity_holds(ol.Power(3.0))
    assert not ol.sqrt_convexity_holds(ol.Power(1.5))


def test_essential_domination_examples():
    assert ol.dominates_essentially(ol.Power(2.0), ol.Power(3.0))
    assert not ol.dominates_essentially(ol.Power(2.0), ol.Power(2.0))
    assert ol.dominates_essentially(ol.Plasticity(2.0, 1.0), ol.Power(4.0))
    assert ol.dominates_essentially(ol.Power(2.0), ol.ExpSquare())
    assert not ol.dominates_essentially(ol.Power(3.0), ol.Power(2.0))


def test_essential_domination_is_finite_horizon_conservative():
    # a logarithmic gap stays above the ratio tolerance at the default
    # horizon, so the empirical test reports no domination
    assert not ol.dominates_essentially(ol.Power(2.0),
                                        ol.Plasticity(2.0, 1.0))


# ---------------------------------------------------------------------------
# tabulated data and configs

def test_tabulated_roundtrip(tmp_path):
    knots = np.geomspace(1e-3, 1e3, 400)
    phi = ol.Tabulated(knots, ol.Power(2.0).value(knots))
    assert phi.value(7.0) == pytest.approx(24.5, rel=1e-4)
    # the index ratio t phi/Phi away from the table edges, where the
    # interpolated density is clean
    ts = np.geomspace(1e-2, 1e2, 2000)
    ratio = ts * phi.derivative(ts) / phi.value(ts)
    assert ratio.min() == pytest.approx(2.0, abs=0.05)
    assert ratio.max() == pytest.approx(2.0, abs=0.05)
    path = tmp_path / "tab.csv"
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(knots, ol.Power(2.0).value(knots)):
            fh.write(f"{float(t)!r},{float(v)!r}\n")
    again = ol.Tabulated.from_csv(path)
    assert again.value(7.0) == pytest.approx(phi.value(7.0), rel=1e-12)


def test_from_config_kinds_and_errors():
    phi = ol.from_config({"kind": "plasticity", "alpha": 2.0, "beta": 1.0})
    assert phi.value(1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert ol.from_config({"kind": "power", "p": 3.0}).value(1.0) == \
        pytest.approx(1.0 / 3.0)
    with pytest.raises(ConfigError):
        ol.from_config({"kind": "unknown-kind"})
    with pytest.raises(ConfigError):
        ol.from_config({"kind": "power"})
    with pytest.raises(ConfigError):
        ol.from_config({"kind": "power", "p": 2.0, "weird": 1})


def test_degenerate_density_rejected():
    knots = np.array([1.0, 2.0, 3.0, 4.0])
    flat = np.array([1.0, 1.0, 1.0, 1.0])
    with pytest.raises((DomainError, ConditionFailure)):
        ol.Tabulated(knots, flat)


# ---------------------------------------------------------------------------
# inverses inside a finite horizon

def _table():
    knots = np.array([0.5, 1.0, 2.0, 3.0])
    return ol.Tabulated(knots, knots ** 2 / 2.0)


def _finite_horizon_member(kind):
    return ol.Newtonian(0.5, 1.0) if kind == "newtonian" else _table()


@pytest.mark.parametrize("kind", ["newtonian", "tabulated"])
def test_conjugate_of_a_finite_horizon_function(kind):
    # the conjugate table ends where the base's density does: at phi'(1e8)
    # = 1.9e5 for the newtonian member, at phi'(3) = 3 for the table
    phi = _finite_horizon_member(kind)
    conj = phi.conjugate()
    assert conj.horizon == phi.derivative(phi.horizon)
    for s in np.geomspace(1e-2, 0.99 * conj.horizon, 7):
        table = conj.value(s)
        # the newtonian member's last maximizer lies near 1e8, past the
        # oracle's default grid top
        grid = oc.legendre_transform(phi.value, s,
                                     t_hi=min(1e8, phi.horizon))
        assert grid <= table * (1 + 1e-6) + 1e-12
        assert grid == pytest.approx(table, rel=1e-5)


@pytest.mark.parametrize("kind", ["newtonian", "tabulated"])
def test_double_conjugate_of_a_finite_horizon_function(kind):
    phi = _finite_horizon_member(kind)
    twice = phi.conjugate().conjugate()
    ts = np.geomspace(1e-2, min(1e2, 0.99 * phi.horizon), 41)
    ref = phi.value(ts)
    assert np.max(np.abs(twice.value(ts) - ref) / (1.0 + ref)) <= 1e-6


def test_exp_square_double_conjugate_overflows_to_inf():
    # the density t exp(t^2) overflows from t ~ 26.57, and the table's
    # integral with it; past there the double conjugate is inf, as
    # ExpSquare itself is from t ~ 26.64
    phi = ol.ExpSquare()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twice = phi.conjugate().conjugate()
        ts = np.geomspace(1e-6, 1e6, 2001)
        got = twice.value(ts)
        assert twice.value(27.0) == twice.value(100.0) == math.inf
    assert not np.any(np.isnan(got))
    assert np.all(got[ts > 26.6] == np.inf)
    ok = ts < 26.56
    ref = phi.value(ts[ok])
    assert np.max(np.abs(got[ok] - ref) / (1.0 + ref)) <= 1e-4


def test_tabulated_inverse_inside_its_horizon():
    tab = _table()
    assert tab.inverse(3.0) == pytest.approx(2.4563628646, abs=1e-9)
    assert tab.value(tab.inverse(3.0)) == pytest.approx(3.0, rel=1e-12)


def test_tabulated_density_inverse_inside_its_horizon():
    tab = _table()
    t = tab.derivative_inverse(2.5)
    assert 2.0 < t < 3.0
    assert tab.derivative(t) == pytest.approx(2.5, rel=1e-12)


def test_newtonian_inverse_inside_its_horizon():
    newt = ol.Newtonian(0.5, 1.0, t_max=3.0)
    assert newt.inverse(newt.value(2.5)) == pytest.approx(2.5, rel=1e-12)


def test_inverse_beyond_the_horizon_raises():
    tab = _table()
    with pytest.raises(HorizonError):
        tab.inverse(1.001 * tab.value(3.0))
    with pytest.raises(HorizonError):
        tab.derivative_inverse(1.001 * tab.derivative(3.0))
    newt = ol.Newtonian(0.5, 1.0, t_max=3.0)
    with pytest.raises(HorizonError):
        newt.inverse(1.001 * newt.value(3.0))


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy"])
def test_package_import_leaves_module_unloaded(module):
    # tabulated and conjugate functions interpolate with the in-package
    # monotone cubic, and the tangent stiffness loads scipy's LAPACK
    # extension with its first factorization, so the package and the cli
    # load without scipy
    src = os.path.dirname(os.path.dirname(ol.__file__))
    code = ("import sys, orlicz_lab, orlicz_lab.cli; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_tables_evaluate_without_scipy_interpolate():
    src = os.path.dirname(os.path.dirname(ol.__file__))
    code = ("import sys, numpy as np, orlicz_lab as ol\n"
            "t = np.linspace(0.0, 2.0, 9)\n"
            "knots = np.array([0.5, 1.0, 2.0, 3.0])\n"
            "for f in (ol.Power(3.0).conjugate(),\n"
            "          ol.Tabulated(knots, knots ** 2 / 2.0)):\n"
            "    f.value(t), f.derivative(t), f.second_derivative(t)\n"
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_package_exports_every_module_export():
    from orlicz_lab import (eigensolver, errors, functionals, norms, region,
                            young)
    modules = (errors, young, norms, functionals, eigensolver, region)
    exported = set().union(*(module.__all__ for module in modules))
    assert set(ol.__all__) - {"__version__"} == exported
    assert all(hasattr(ol, name) for name in ol.__all__)
