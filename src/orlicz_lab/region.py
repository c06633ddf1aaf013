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

from .eigensolver import SolverOptions, _descend, minimize_on_level
from .errors import ConditionFailure, DomainError, OrliczLabError
from .functionals import EnergySetup, energy_I, energy_J
from .norms import (GridFunction, gradient_magnitude, luxemburg_values,
                    modular_values, scale_to_modular, smooth_candidates)
from .young import sqrt_convexity_holds

__all__ = [
    "RegionReport",
    "build_test_function",
    "constant_norm",
    "energy_bounds_ine",
    "gamma_d",
    "w_tilde_r",
    "lambda_interval",
    "r_condition_cap",
    "count_critical_points",
    "grid_search",
    "poincare_estimate",
    "default_c1",
    "format_report",
    "REPORT_COLUMNS",
    "report_row",
]


def _check_radius(r: float):
    if not r > 0:
        raise DomainError("the energy radius r must be positive")


def _check_region_conditions(setup: EnergySetup):
    if setup.dom.ndim < 2:
        raise DomainError("region analysis needs a 2D domain")
    if not sqrt_convexity_holds(setup.phi):
        raise ConditionFailure(
            "phi2", f"t -> {setup.phi.label()}(sqrt(t)) is not convex")
    _check_dominated(setup)


def _check_dominated(setup: EnergySetup):
    if not setup.dominated:
        raise ConditionFailure(
            "psi2", f"{setup.psi.label()} does not grow essentially slower "
            f"than {setup.phi.label()}")


@dataclass
class RegionReport:
    """Flat record of one (d, r) evaluation.

    ``bounds_ine`` sandwiches ``I_vd`` up to the O(h) stencil error;
    ``lambda_interval`` is empty unless lo < hi; ``sup_J_r`` is the
    sampled supremum behind the interval's right endpoint.
    ``critical_points_found`` is None unless the multi-start probe ran.
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
    critical_points_found: Optional[int]
    c1: float
    gamma_d_annulus: float
    r_cap: float


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
    the test-function gradient.  The modular of a constant inverts
    through the inverse of the Young function.
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
    ball = (math.pi ** (0.5 * n_dim)) / ((0.5 * n_dim)
                                         * math.gamma(0.5 * n_dim))
    l1, m1 = setup.psi_l, setup.psi_m
    numer = (min(abs(d) ** l1, abs(d) ** m1)
             * float(setup.psi.value(1.0))
             * ball * (0.5 * dom.D) ** n_dim)
    nrm = constant_norm(setup, d / dom.D, on=on)
    l, m = setup.phi_l, setup.phi_m
    denom = (2.0 * n_dim) ** m * max(nrm ** l, nrm ** m)
    if denom == 0:
        raise DomainError("the plateau height d is too small: the norm "
                          "powers of d/D underflow")
    return numer / denom


def w_tilde_r(setup: EnergySetup, r: float, c1: float) -> float:
    """Growth envelope max{C1^l1, C1^m1} max of the four powers r^{i/j}
    with i in {l1, m1} and j in {l, m}; nondecreasing in r."""
    _check_radius(r)
    l, m = setup.phi_l, setup.phi_m
    l1, m1 = setup.psi_l, setup.psi_m
    lead = max(c1 ** l1, c1 ** m1)
    return lead * max(r ** (l1 / l), r ** (l1 / m),
                      r ** (m1 / l), r ** (m1 / m))


def poincare_estimate(setup: EnergySetup, trials: int, seed: int = 0
                      ) -> float:
    """Empirical lower bound for the embedding constant ``C`` in
    ``||u||_Psi,w1 <= C ||grad u||_Phi,w`` over zero-trace fields.

    Maximizes the ratio over ``trials`` seeded smooth candidates and one
    constrained-minimizer run on ``setup``, whose optimum is the extremal
    shape in the power case.  If that run fails with one of the package's
    own errors (an exhausted iteration budget, say) the sampled bound is
    returned; any other error propagates.
    """
    if trials < 1:
        raise DomainError("poincare_estimate needs trials >= 1")
    cand = smooth_candidates(setup.dom, trials, seed)
    return _poincare_quotient(setup, cand, gradient_magnitude(setup.dom,
                                                              cand))


def _poincare_quotient(setup: EnergySetup, cand: np.ndarray,
                       mags: np.ndarray) -> float:
    """:func:`poincare_estimate` over the drawn candidates ``cand`` with
    cell gradient magnitudes ``mags``; the solver run starts from
    ``cand[0]``, the reference bump."""
    dom = setup.dom
    # tol 1e-4 takes 8 iterations on the n=81 reference disc against 18 at
    # 1e-6, and the quotient still agrees to 8 digits: it is maximal at the
    # extremal shape, so its error is second order
    opts = SolverOptions(tol=1e-4, max_iter=2000)
    try:
        pair = minimize_on_level(setup, 1.0, init=GridFunction(dom, cand[0]),
                                 opts=opts)
    except OrliczLabError:
        pass  # the sampled bound stands on its own
    else:
        cand = np.concatenate([cand, pair.u.values[None, ...]])
        mags = np.concatenate([mags, gradient_magnitude(
            dom, pair.u.values)[None, ...]])
    num = luxemburg_values(setup.psi, setup.w1.values, dom.node_qw, cand)
    den = luxemburg_values(setup.phi, setup.w_cells, dom.cell_qw, mags)
    good = den > 0
    if not np.any(good):
        raise DomainError("all candidates degenerate; enlarge trials")
    return float(np.max(num[good] / den[good]))


_C1_TRIALS = 24


def default_c1(setup: EnergySetup, seed: int = 0, *, cands=None,
               mags=None) -> float:
    """The constant :func:`grid_search` takes when given none:
    :func:`poincare_estimate` with 24 seeded candidates.  ``cands``, a
    draw of at least 24 fields at ``seed`` to take them from, comes with
    ``mags``, its cell gradient magnitudes."""
    if cands is None:
        return poincare_estimate(setup, _C1_TRIALS, seed)
    return _poincare_quotient(setup, cands[:_C1_TRIALS], mags[:_C1_TRIALS])


def _draw(dom, samples: int, seed: int, count: int = 0) -> np.ndarray:
    """One seeded batch of ``max(count, samples + 1)`` fields.  Row 0 is
    the deterministic reference bump; the shell supremum is defined by
    random sampling, so its samples are rows 1 to ``samples``."""
    if samples < 1:
        raise DomainError("need at least one sample")
    return smooth_candidates(dom, max(count, samples + 1), seed)


def _sup_reaction_on_shell(setup: EnergySetup, r_values, cands: np.ndarray,
                           mags: np.ndarray) -> list:
    """Sampled sups of J on the shells I = r, one per r in ``r_values``,
    over the shell samples ``cands`` with cell gradient magnitudes
    ``mags``.

    One batched scaling puts the batch onto every shell; each r then
    takes the largest J over its rescaled batch.
    """
    scales = scale_to_modular(setup.phi, setup.w_cell_qw, mags,
                              np.asarray(r_values, dtype=float))
    # a sample is degenerate (a zero gradient) on every shell or on none
    live = np.isfinite(scales[0])
    if not np.any(live):
        raise DomainError("all shell samples are degenerate")
    if not live.all():
        cands, scales = cands[live], scales[:, live]
    shape = (-1,) + (1,) * (cands.ndim - 1)
    sups = []
    for row in scales:
        sup_j = float(np.max(modular_values(
            setup.psi, setup.w1_node_qw, 1.0, cands * row.reshape(shape))))
        if sup_j <= 0:
            raise DomainError("all shell samples are degenerate")
        sups.append(sup_j)
    return sups


def _plateau_energies(setup: EnergySetup, d: float) -> tuple:
    """(I(v_d), J(v_d)) of the plateau test function; J must not vanish,
    since it divides the window's left endpoint."""
    v = build_test_function(setup, d)
    j_vd = energy_J(setup, v)
    if j_vd <= 0:
        raise DomainError("test function has vanishing reaction energy")
    return energy_I(setup, v), j_vd


def lambda_interval(setup: EnergySetup, d: float, r: float,
                    samples: int = 48, seed: int = 0) -> tuple:
    """Empirical multiplier window (lo, hi, sup_J_r).

    lo = I(v_d)/J(v_d) by quadrature; hi = r / sup_J_r with the sampled
    shell supremum.  Its sample batch is the one :func:`grid_search` draws
    once and rescales onto every shell, so the two agree bit for bit at
    equal ``samples`` and ``seed``.  The window is nonempty only when
    lo < hi; callers compare sup_J_r against the analytic envelope
    separately.
    """
    _check_region_conditions(setup)
    _check_radius(r)
    i_vd, j_vd = _plateau_energies(setup, d)
    shell = _draw(setup.dom, samples, seed)[1:]
    sup_j, = _sup_reaction_on_shell(setup, [r], shell,
                                    gradient_magnitude(setup.dom, shell))
    return i_vd / j_vd, r / sup_j, sup_j


def r_condition_cap(setup: EnergySetup, d: float, two_n: bool = False
                    ) -> float:
    """min{||2d/D||^l, ||2d/D||^m}: the stated upper limit for r.

    The constant becomes 2N with ``two_n``; the norm is the stated
    domain-wide reading (the annulus reading of the same norms is exactly
    ``energy_bounds_ine``'s lower endpoint).
    """
    factor = 2.0 * setup.dom.ndim if two_n else 2.0
    nrm = constant_norm(setup, factor * d / setup.dom.D, on="omega")
    l, m = setup.phi_l, setup.phi_m
    return min(nrm ** l, nrm ** m)


def count_critical_points(setup: EnergySetup, lam: float, starts: int,
                          seed: int = 0) -> int:
    """Advisory probe: cluster count of converged free-energy descents.

    Runs ``starts`` free descents on ``I - lam J`` as one batch of the
    eigensolver's descent loop (``alpha=None``, multiplier ``lam``, stop
    test ``1e-6 * (1 + |I - lam J|)``, at most 2000 iterations), from
    random smooth fields scaled by amplitudes drawn log-uniformly in
    [1e-2, 10].  A start that cannot be evaluated raises its error, the
    first in start order.  Keeps the converged iterates plus the exact
    zero function (always a critical point), and counts clusters under
    the Sobolev-norm metric with a 1e-3 relative separation.  starts = 0
    reports 0.
    Raises :class:`ConditionFailure` ``psi2`` unless Psi grows essentially
    slower than Phi: otherwise ``I - lam J`` need not be coercive, and a
    descent that runs off scales its stop test with the growing energy.
    """
    _check_dominated(setup)
    if starts <= 0:
        return 0
    dom = setup.dom
    cands = smooth_candidates(dom, starts, seed)
    rng = np.random.default_rng(seed + 1)
    amplitudes = 10.0 ** rng.uniform(-2.0, 1.0, size=starts)
    opts = SolverOptions(tol=1e-6, max_iter=2000)
    iterates = [np.zeros(dom.node_shape)]
    for pair, ok in _descend(setup, None, amplitudes.reshape(
            (-1,) + (1,) * dom.ndim) * cands, opts, lam0=lam):
        if isinstance(pair, Exception):
            raise pair
        if ok:
            iterates.append(pair.u.values)

    def norms(rows):
        return (luxemburg_values(setup.psi, setup.w1.values, dom.node_qw,
                                 rows)
                + luxemburg_values(setup.phi, setup.w_cells, dom.cell_qw,
                                   gradient_magnitude(dom, rows)))

    scale = max(float(np.max(norms(np.stack(iterates)))), 1e-12)
    # the zero field comes first and always starts a cluster
    clusters = iterates[:1]
    for v in iterates[1:]:
        if np.min(norms(v - np.stack(clusters))) > 1e-3 * scale:
            clusters.append(v)
    return len(clusters)


def grid_search(setup: EnergySetup, d_values, r_values,
                samples: int = 48, seed: int = 0,
                c1: Optional[float] = None, two_n: bool = False,
                probe_starts: int = 0) -> list:
    """Evaluate the region report over the (d, r) grid.

    The region conditions, the nonempty d and r lists and every r are
    checked once, and every plateau height d must give a positive J(v_d),
    before the constant c1 is computed.  c1 and the shell suprema are
    computed once and shared across the grid from one seeded draw: its
    first 24 fields serve c1, its shell samples are scaled onto every
    shell once, and each r only evaluates J over its rescaled batch.
    Returns the reports in row-major (d, r) order; callers filter on
    ``admissible``, which holds when r is below its cap and w_tilde_r
    below gamma_d, and on window nonemptiness.
    With ``probe_starts`` > 0, the critical-point probe runs at the
    window midpoint of every admissible pair with a nonempty window.
    """
    _check_region_conditions(setup)
    d_values = [float(d) for d in d_values]
    r_values = [float(r) for r in r_values]
    if not (d_values and r_values):
        raise DomainError("grid_search needs at least one d and one r value")
    for r in r_values:
        _check_radius(r)
    energies = [_plateau_energies(setup, d) for d in d_values]
    # one draw serves C1 (its first 24 rows) and the shells (rows 1 to
    # samples); its gradient magnitudes are taken once for both
    batch = _draw(setup.dom, samples, seed,
                  _C1_TRIALS if c1 is None else 0)
    mags = gradient_magnitude(setup.dom, batch)
    if c1 is None:
        c1 = default_c1(setup, seed=seed, cands=batch, mags=mags)
    sups = _sup_reaction_on_shell(setup, r_values, batch[1:samples + 1],
                                  mags[1:samples + 1])
    reports = []
    for d, (i_vd, j_vd) in zip(d_values, energies):
        bounds = energy_bounds_ine(setup, d)
        g_omega = gamma_d(setup, d)
        g_ann = gamma_d(setup, d, on="annulus")
        cap = r_condition_cap(setup, d, two_n=two_n)
        for r, sup_j in zip(r_values, sups):
            lo, hi = i_vd / j_vd, r / sup_j
            w_tilde = w_tilde_r(setup, r, c1)
            flag = r < cap and w_tilde < g_omega
            found = (count_critical_points(setup, math.sqrt(lo * hi),
                                           probe_starts, seed=seed)
                     if probe_starts > 0 and flag and lo < hi else None)
            reports.append(RegionReport(
                d=d, r=r, I_vd=i_vd, J_vd=j_vd,
                bounds_ine=bounds, gamma_d=g_omega, w_tilde_r=w_tilde,
                sup_J_r=sup_j, lambda_interval=(lo, hi), admissible=flag,
                critical_points_found=found, c1=c1, gamma_d_annulus=g_ann,
                r_cap=cap))
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
