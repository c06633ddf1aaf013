"""Calculator for the three-solution multiplier window.

Given a grid instance, this module evaluates every quantity entering the
sufficient condition for an interval of multipliers ``lambda`` whose free
energy ``I - lambda J`` has at least three critical points: the radial
plateau test function ``v_d``, the sandwich of ``I(v_d)`` between powers
of a constant-function Luxemburg norm, the comparison constants
``gamma_d`` and ``w_tilde_r``, and the resulting interval

    (I(v_d) / J(v_d),   r / sup_{I(u) <= r} J(u)).

The supremum is approximated by sampling random zero-trace fields rescaled
onto the energy shell ``I = r``.  A sampled supremum is a lower estimate
of the true one, so the right endpoint ``r / sup`` is an upper estimate
and the reported interval may be wider than the exact one; the analytic
envelope ``w_tilde_r``, which bounds the supremum from above when ``C1``
is the embedding constant, is reported next to it.

The criterion's constants circulate in two conventions, and the calculator
surfaces both instead of picking silently: the r-condition constant is 2
by default and 2N with ``two_n=True``, and constant-function norms can be
taken over the whole domain (``on="omega"``) or over the annulus that
actually carries ``grad v_d`` (``on="annulus"``).  Admissibility evaluates
the stated inequalities literally, with domain-wide norms; the annulus
readings of the same norms are the (ine) bounds and the ``gamma_d``
annulus variant, so both conventions are always present in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConditionFailure, DomainError
from .functionals import (DualGridFunction, EnergySetup, dual_norm, energy_I,
                          energy_J, gateaux_I, gateaux_J)
from .norms import (GridFunction, gradient_magnitude, modular_values,
                    poincare_estimate, smooth_candidates, sobolev_norm)
from .util import bisect_decreasing
from .young import sqrt_convexity_holds

__all__ = [
    "RegionInput",
    "RegionReport",
    "build_test_function",
    "constant_norm",
    "energy_bounds_ine",
    "gamma_d",
    "w_tilde_r",
    "lambda_interval",
    "r_condition_cap",
    "admissible",
    "count_critical_points",
    "region_report",
    "grid_search",
    "default_c1",
    "format_report",
    "REPORT_COLUMNS",
    "report_row",
]

# closed-form Gamma(N/2) for the dimensions in scope
_GAMMA_HALF = {2: 1.0, 3: math.sqrt(math.pi) / 2.0, 4: 1.0}


def _check_region_conditions(setup: EnergySetup):
    if setup.dom.ndim < 2:
        raise DomainError("region analysis needs a 2D domain")
    if not sqrt_convexity_holds(setup.phi):
        raise ConditionFailure(
            "phi2", f"t -> {setup.phi.label()}(sqrt(t)) is not convex")
    if not setup.dominated:
        raise ConditionFailure(
            "psi2", f"{setup.psi.label()} does not grow essentially slower "
            f"than {setup.phi.label()}")


@dataclass(frozen=True)
class RegionInput:
    """Validated (setup, d, r) triple for the region pipeline.

    The diffusion function must pass the sampled convexity of
    ``t -> Phi(sqrt(t))`` and the reaction must grow essentially slower
    than the diffusion; both are re-checked here because plain energy
    minimization does not need them.
    """

    setup: EnergySetup
    d: float
    r: float

    def __post_init__(self):
        if self.d == 0:
            raise DomainError("the plateau height d must be nonzero")
        if not self.r > 0:
            raise DomainError("the energy radius r must be positive")
        _check_region_conditions(self.setup)


@dataclass
class RegionReport:
    """Flat record of one (d, r) evaluation.

    ``bounds_ine`` sandwiches ``I_vd`` up to the O(h) stencil error;
    ``lambda_interval`` is empty unless lo < hi; ``sup_J_r`` is the
    sampled supremum behind the interval's right endpoint.
    ``critical_points_found`` stays None unless the multi-start probe ran.
    """

    d: float
    r: float
    I_vd: float
    J_vd: float
    bounds_ine: tuple
    gamma_d: float
    w_tilde_r: float
    sup_J_r: float
    lambda_interval: tuple
    admissible: bool
    critical_points_found: Optional[int] = None
    c1: float = float("nan")
    gamma_d_annulus: float = float("nan")
    r_cap: float = float("nan")


def _radial_distance(setup: EnergySetup) -> np.ndarray:
    dom = setup.dom
    offsets = dom.nodes - dom.x0
    if dom.ndim == 1:
        return np.abs(offsets[..., 0])
    return np.hypot(offsets[..., 0], offsets[..., 1])


def build_test_function(setup: EnergySetup, d: float) -> GridFunction:
    """Radial plateau: d inside B(x0, D/2), linear ramp (2d/D)(D - |x - x0|)
    on the annulus, zero outside B(x0, D)."""
    if d == 0:
        raise DomainError("the plateau height d must be nonzero")
    dom = setup.dom
    dist = _radial_distance(setup)
    ramp = (2.0 * d / dom.D) * (dom.D - dist)
    vals = np.where(dist <= 0.5 * dom.D, d,
                    np.where(dist < dom.D, ramp, 0.0))
    return GridFunction(dom, vals)


def constant_norm(setup: EnergySetup, c: float, on: str = "annulus") -> float:
    """Luxemburg norm of the constant ``|c|`` against the diffusion weight.

    ``on="omega"`` integrates the weight over the whole domain;
    ``on="annulus"`` restricts it to D/2 < |x - x0| < D, the support of
    the test-function gradient.  The modular of a constant inverts in
    closed form, so no bisection is involved.
    """
    if c == 0:
        return 0.0
    dom = setup.dom
    if on == "omega":
        mass = float(np.sum(dom.node_qw * setup.w.values))
    elif on == "annulus":
        dist = _radial_distance(setup)
        inside = (dist > 0.5 * dom.D) & (dist < dom.D)
        mass = float(np.sum(dom.node_qw * setup.w.values * inside))
    else:
        raise DomainError(f"unknown norm restriction '{on}'")
    if mass <= 0:
        raise DomainError("empty weight support for the constant norm")
    return abs(c) / float(setup.phi.inverse(1.0 / mass))


def energy_bounds_ine(setup: EnergySetup, d: float) -> tuple:
    """Sandwich of I(v_d) between index powers of the gradient-level norm.

    The norm is the annulus-restricted Luxemburg norm of the constant
    2d/D, because that constant is the gradient magnitude of v_d and it
    vanishes off the annulus.  The sandwich holds up to the O(h) error of
    the gradient stencil near the two circles.
    """
    nrm = constant_norm(setup, 2.0 * d / setup.dom.D, on="annulus")
    l, m = setup.phi_l, setup.phi_m
    values = (nrm ** l, nrm ** m)
    return min(values), max(values)


def gamma_d(setup: EnergySetup, d: float, on: str = "omega") -> float:
    """Lower constant of the J(v_d)/I(v_d) ratio.

    min{|d|^l1, |d|^m1} Psi(1) [pi^{N/2} / ((N/2) Gamma(N/2))] (D/2)^N
    over (2N)^m max{||d/D||^l, ||d/D||^m}.  The norm defaults to the
    domain-wide reading, which only lowers the constant; the annulus
    reading is available for comparison.
    """
    dom = setup.dom
    if dom.ndim < 2:
        raise DomainError("gamma_d needs a 2D domain")
    n_dim = dom.ndim
    gamma_half = _GAMMA_HALF.get(n_dim, math.gamma(0.5 * n_dim))
    ball = (math.pi ** (0.5 * n_dim)) / ((0.5 * n_dim) * gamma_half)
    l1, m1 = setup.psi_l, setup.psi_m
    numer = (min(abs(d) ** l1, abs(d) ** m1)
             * float(setup.psi.value(1.0))
             * ball * (0.5 * dom.D) ** n_dim)
    nrm = constant_norm(setup, d / dom.D, on=on)
    l, m = setup.phi_l, setup.phi_m
    denom = (2.0 * n_dim) ** m * max(nrm ** l, nrm ** m)
    return numer / denom


def w_tilde_r(setup: EnergySetup, r: float, c1: float) -> float:
    """Growth envelope max{C1^l1, C1^m1} max of the four powers r^{i/j}
    with i in {l1, m1} and j in {l, m}; nondecreasing in r."""
    if not r > 0:
        raise DomainError("the energy radius r must be positive")
    l, m = setup.phi_l, setup.phi_m
    l1, m1 = setup.psi_l, setup.psi_m
    lead = max(c1 ** l1, c1 ** m1)
    return lead * max(r ** (l1 / l), r ** (l1 / m),
                      r ** (m1 / l), r ** (m1 / m))


def default_c1(setup: EnergySetup, trials: int = 24, seed: int = 0) -> float:
    """Empirical norm-ratio constant from the shared estimator."""
    return poincare_estimate(setup.phi, setup.psi, setup.w, setup.w1,
                             setup.dom, trials, seed=seed)


def _sup_reaction_on_shell(setup: EnergySetup, r: float, samples: int,
                           seed: int) -> float:
    """Sampled sup of J over random zero-trace fields rescaled onto the
    shell I = r (batched bisection in the scale factor)."""
    if samples < 1:
        raise DomainError("need at least one sample")
    dom = setup.dom
    # the supremum estimator is defined by random sampling; the leading
    # candidate is the deterministic reference bump, so drop it
    cands = smooth_candidates(dom, samples + 1, seed)[1:]
    mags = np.stack([gradient_magnitude(dom, c) for c in cands])
    wc = setup.w_cells
    base = modular_values(setup.phi, wc, dom.cell_qw, mags)
    live = base > 0
    if not np.any(live):
        raise DomainError("all shell samples are degenerate")
    mags = mags[live]
    vals = cands[live]
    base = base[live]
    l, m = setup.phi_l, setup.phi_m
    ratio = r / base
    lo = 0.5 * np.minimum(ratio ** (1.0 / l), ratio ** (1.0 / m))
    hi = 2.0 * np.maximum(ratio ** (1.0 / l), ratio ** (1.0 / m))

    def gap(s):
        shape = (-1,) + (1,) * (mags.ndim - 1)
        return r - modular_values(setup.phi, wc, dom.cell_qw,
                                  mags * s.reshape(shape))

    # I is increasing in the scale, so r - I(s u) decreases in s
    scales = bisect_decreasing(gap, lo, hi, iters=160, target_tol=1e-12 * r)
    shape = (-1,) + (1,) * (vals.ndim - 1)
    scaled = vals * scales.reshape(shape)
    js = modular_values(setup.psi, setup.w1.values, dom.node_qw, scaled)
    return float(np.max(js))


def lambda_interval(setup: EnergySetup, d: float, r: float,
                    samples: int = 48, seed: int = 0) -> tuple:
    """Empirical multiplier window (lo, hi, sup_J_r).

    lo = I(v_d)/J(v_d) by quadrature; hi = r / sup_J_r with the sampled
    shell supremum.  The window is nonempty only when lo < hi; callers
    compare sup_J_r against the analytic envelope separately.
    """
    inp = RegionInput(setup, d, r)
    v = build_test_function(setup, inp.d)
    i_vd = energy_I(setup, v)
    j_vd = energy_J(setup, v)
    if j_vd <= 0:
        raise DomainError("test function has vanishing reaction energy")
    sup_j = _sup_reaction_on_shell(setup, r, samples, seed)
    if sup_j <= 0:
        raise DomainError("all shell samples are degenerate")
    return i_vd / j_vd, r / sup_j, sup_j


def r_condition_cap(setup: EnergySetup, d: float, two_n: bool = False,
                    on: str = "omega") -> float:
    """min{||2d/D||^l, ||2d/D||^m}: the stated upper limit for r.

    The constant becomes 2N with ``two_n``; the norm defaults to the
    stated domain-wide reading (the annulus reading of the same norms is
    exactly ``energy_bounds_ine``'s lower endpoint).
    """
    factor = 2.0 * setup.dom.ndim if two_n else 2.0
    nrm = constant_norm(setup, factor * d / setup.dom.D, on=on)
    l, m = setup.phi_l, setup.phi_m
    return min(nrm ** l, nrm ** m)


def admissible(setup: EnergySetup, d: float, r: float,
               c1: Optional[float] = None, two_n: bool = False) -> bool:
    """Both region inequalities with computed quantities: r below
    min{||2d/D||^l, ||2d/D||^m} and w_tilde_r below gamma_d."""
    RegionInput(setup, d, r)
    if c1 is None:
        c1 = default_c1(setup)
    return (r < r_condition_cap(setup, d, two_n=two_n)
            and w_tilde_r(setup, r, c1) < gamma_d(setup, d))


def _free_energy(setup: EnergySetup, lam: float, u: GridFunction) -> float:
    return energy_I(setup, u) - lam * energy_J(setup, u)


def _free_descent(setup: EnergySetup, lam: float, init: GridFunction,
                  tol: float, max_iter: int):
    """Unconstrained preconditioned descent on I - lam J; returns
    (iterate, converged).

    The direction is a Newton step with the tangent of I - lam J: the
    tangent stiffness of I minus lam times the reaction curvature.  Where
    that matrix gives no descent direction, the positive definite tangent
    of I alone is used.  That one only halves the error along the ray
    through a critical point per step, an error the dual-norm stop test
    hardly sees: at tol 1e-6 it stopped 3% off in I on the n=61 disc.
    """
    from .eigensolver import _qw_dot, _reaction_curvature, _Tangent
    dom = setup.dom
    tangent = _Tangent(setup)
    idx = tangent.pat.idx
    u = init
    for _ in range(max_iter + 1):
        f_i = gateaux_I(setup, u)
        f_j = gateaux_J(setup, u)
        rho = np.where(dom.interior, f_i.density - lam * f_j.density, 0.0)
        merit = _free_energy(setup, lam, u)
        res = dual_norm(setup, DualGridFunction(dom, rho))
        if res <= tol * (1.0 + abs(merit)):
            return u, True
        for shift in (lam * _reaction_curvature(setup, u.values).ravel()[idx],
                      None):
            try:
                direction = tangent.direction(u.values, rho, shift)
            except RuntimeError:
                continue  # singular free-energy tangent
            slope = -_qw_dot(dom, rho, direction)
            if slope < 0 and np.all(np.isfinite(direction)):
                break
        else:
            direction = rho
            slope = -_qw_dot(dom, rho, rho)
        step = 1.0
        accepted = False
        for _ in range(50):
            trial = GridFunction(dom, u.values - step * direction)
            if _free_energy(setup, lam, trial) \
                    <= merit + 1e-4 * step * slope:
                u = trial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return u, False
        if float(np.max(np.abs(u.values))) > 1e8:
            return u, False  # free energy not coercive at this multiplier
    return u, False


def count_critical_points(setup: EnergySetup, lam: float, starts: int,
                          seed: int = 0, tol: float = 1e-6,
                          max_iter: int = 2000) -> int:
    """Advisory probe: cluster count of converged free-energy descents.

    Runs ``starts`` descents from random smooth fields at alternating
    amplitudes, keeps the converged iterates plus the exact zero function
    (always a critical point), and counts clusters under the Sobolev-norm
    metric with a 1e-3 relative separation.  starts = 0 reports 0.
    """
    if starts <= 0:
        return 0
    dom = setup.dom
    cands = smooth_candidates(dom, starts, seed)
    rng = np.random.default_rng(seed + 1)
    amplitudes = 10.0 ** rng.uniform(-2.0, 1.0, size=starts)
    iterates = [np.zeros(dom.node_shape)]
    for c, amp in zip(cands, amplitudes):
        u, ok = _free_descent(setup, lam, GridFunction(dom, amp * c),
                              tol, max_iter)
        if ok:
            iterates.append(u.values)
    norms = [sobolev_norm(setup.phi, setup.psi, setup.w, setup.w1,
                          GridFunction(dom, v)) for v in iterates]
    scale = max(max(norms), 1e-12)
    clusters = []
    for v in iterates:
        hit = False
        for c in clusters:
            gap = sobolev_norm(setup.phi, setup.psi, setup.w, setup.w1,
                               GridFunction(dom, v - c))
            if gap <= 1e-3 * scale:
                hit = True
                break
        if not hit:
            clusters.append(v)
    return len(clusters)


def region_report(setup: EnergySetup, d: float, r: float,
                  samples: int = 48, seed: int = 0,
                  c1: Optional[float] = None, two_n: bool = False,
                  probe_starts: int = 0) -> RegionReport:
    """Evaluate every region quantity for one (d, r) pair.

    With ``probe_starts`` > 0 and a nonempty admissible window, the
    critical-point probe runs at the window midpoint.
    """
    inp = RegionInput(setup, d, r)
    if c1 is None:
        c1 = default_c1(setup, seed=seed)
    v = build_test_function(setup, inp.d)
    i_vd = energy_I(setup, v)
    j_vd = energy_J(setup, v)
    lo, hi, sup_j = lambda_interval(setup, d, r, samples=samples, seed=seed)
    rep = RegionReport(
        d=d, r=r, I_vd=i_vd, J_vd=j_vd,
        bounds_ine=energy_bounds_ine(setup, d),
        gamma_d=gamma_d(setup, d),
        w_tilde_r=w_tilde_r(setup, r, c1),
        sup_J_r=sup_j,
        lambda_interval=(lo, hi),
        admissible=admissible(setup, d, r, c1=c1, two_n=two_n),
        c1=c1,
        gamma_d_annulus=gamma_d(setup, d, on="annulus"),
        r_cap=r_condition_cap(setup, d, two_n=two_n),
    )
    if probe_starts > 0 and rep.admissible and lo < hi:
        rep.critical_points_found = count_critical_points(
            setup, math.sqrt(lo * hi), probe_starts, seed=seed)
    return rep


def grid_search(setup: EnergySetup, d_values, r_values,
                samples: int = 48, seed: int = 0,
                c1: Optional[float] = None, two_n: bool = False,
                probe_starts: int = 0) -> list:
    """Evaluate the region report over the (d, r) grid.

    The constant c1 and the per-r shell suprema are computed once and
    shared across the grid.  Returns the reports in row-major (d, r)
    order; callers filter on ``admissible`` and window nonemptiness.
    """
    _check_region_conditions(setup)
    if c1 is None:
        c1 = default_c1(setup, seed=seed)
    sup_cache = {}
    reports = []
    for d in d_values:
        v = build_test_function(setup, float(d))
        i_vd = energy_I(setup, v)
        j_vd = energy_J(setup, v)
        bounds = energy_bounds_ine(setup, float(d))
        g_omega = gamma_d(setup, float(d))
        g_ann = gamma_d(setup, float(d), on="annulus")
        cap = r_condition_cap(setup, float(d), two_n=two_n)
        for r in r_values:
            key = float(r)
            if key not in sup_cache:
                sup_cache[key] = _sup_reaction_on_shell(
                    setup, key, samples, seed)
            sup_j = sup_cache[key]
            lo, hi = i_vd / j_vd, key / sup_j
            rep = RegionReport(
                d=float(d), r=key, I_vd=i_vd, J_vd=j_vd,
                bounds_ine=bounds, gamma_d=g_omega,
                w_tilde_r=w_tilde_r(setup, key, c1),
                sup_J_r=sup_j, lambda_interval=(lo, hi),
                admissible=(key < cap
                            and w_tilde_r(setup, key, c1) < g_omega),
                c1=c1, gamma_d_annulus=g_ann, r_cap=cap)
            if probe_starts > 0 and rep.admissible and lo < hi:
                rep.critical_points_found = count_critical_points(
                    setup, math.sqrt(lo * hi), probe_starts, seed=seed)
            reports.append(rep)
    return reports


# --------------------------------------------------------------------------
# serialization

REPORT_COLUMNS = [
    "d", "r", "I_vd", "J_vd", "ine_lo", "ine_hi", "gamma_d",
    "gamma_d_annulus", "w_tilde_r", "sup_J_r", "r_cap", "lambda_lo",
    "lambda_hi", "admissible", "critical_points_found", "c1",
]


def report_row(rep: RegionReport) -> list:
    """Flat row of one report in REPORT_COLUMNS order."""
    return [rep.d, rep.r, rep.I_vd, rep.J_vd,
            rep.bounds_ine[0], rep.bounds_ine[1], rep.gamma_d,
            rep.gamma_d_annulus, rep.w_tilde_r, rep.sup_J_r, rep.r_cap,
            rep.lambda_interval[0], rep.lambda_interval[1],
            int(rep.admissible),
            -1 if rep.critical_points_found is None
            else rep.critical_points_found,
            rep.c1]


def format_report(rep: RegionReport) -> str:
    """Multi-line human-readable form of one report."""
    lo, hi = rep.lambda_interval
    window = f"({lo:.6g}, {hi:.6g})" + ("" if lo < hi else "  [empty]")
    probe = ("not probed" if rep.critical_points_found is None
             else str(rep.critical_points_found))
    return "\n".join([
        f"d = {rep.d:g}, r = {rep.r:g}",
        f"  I(v_d) = {rep.I_vd:.6g}   J(v_d) = {rep.J_vd:.6g}",
        f"  (ine) bounds = [{rep.bounds_ine[0]:.6g}, "
        f"{rep.bounds_ine[1]:.6g}]",
        f"  gamma_d = {rep.gamma_d:.6g} (annulus norm: "
        f"{rep.gamma_d_annulus:.6g})   w_tilde_r = {rep.w_tilde_r:.6g}",
        f"  r cap = {rep.r_cap:.6g}   sup_J_r = {rep.sup_J_r:.6g} "
        f"(sampled, c1 = {rep.c1:.4g})",
        f"  lambda window = {window}",
        f"  admissible = {rep.admissible}   critical points: {probe}",
    ])
