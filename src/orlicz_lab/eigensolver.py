"""Constrained eigen-minimization on the reaction level set.

The discrete problem: minimize ``I(u)`` over the manifold ``J(u) = alpha``.
A minimizer carries a Lagrange multiplier ``lambda`` with
``I'(u) = lambda J'(u)`` in the discrete weak sense, i.e. an eigenpair of
the weighted phi-Laplacian.  The solver is projected descent:

    precondition the residual density ``I' - lambda J'`` with the tangent
    stiffness of ``I`` at the current iterate, try the full step first and
    backtrack with the Armijo rule on ``I``, re-project onto the level set
    every trial.

The tangent stiffness is the second variation of ``I`` with its radial
curvature ``phi'(t)`` raised to the secant slope ``phi(t)/t`` where it
falls below it.  That keeps the matrix symmetric positive definite for
every admissible Young function, so the preconditioned direction always
descends, and it is the exact Hessian wherever ``phi' >= phi/t`` (powers
``p >= 2``), which removes the linear-rate stall of a secant-only
("frozen coefficient") preconditioner.  For a quadratic ``Phi`` the full
step reproduces inverse power iteration and the matrix is factored once.
The sparsity pattern is built once per grid; each solve keeps its last
factorization and refactors only when the assembled values change.

Higher levels of the Ljusternik-Schnirelmann hierarchy are approximated by
structure, not by genus: in 1D, gluing sign-alternating copies of the
scaled one-bump solution over k equal subintervals and relaxing; in 2D, by
multi-start descent penalized against overlap with already-found pairs.
Both are tagged as heuristics in the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import DomainError, NonConvergenceError
from .functionals import (DualGridFunction, EnergySetup, dual_norm, energy_I,
                          energy_J, gateaux_I, gateaux_J, project_to_level,
                          scale_to_energy_level)
from .norms import (GridDomain, GridFunction, WeightField,
                    gradient_components, smooth_candidates)

__all__ = [
    "SolverOptions",
    "EigenPair",
    "LSLevel",
    "SweepResult",
    "default_init",
    "minimize_on_level",
    "rayleigh_multiplier",
    "residual",
    "ls_sequence",
    "spectrum_sweep",
]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the projected-gradient solver.

    ``tol`` bounds the dual norm of the residual relative to ``1 + I(u)``;
    ``starts`` only matters for the multi-start paths (2D deflation,
    critical-point probing).
    """

    tol: float = 1e-8
    max_iter: int = 100_000
    onesigned: bool = True
    seed: int = 42
    starts: int = 8
    keep_history: bool = False
    armijo_c1: float = 1e-4
    backtrack: float = 0.5


@dataclass
class EigenPair:
    """A certified point on the constraint manifold.

    ``lam`` is the Rayleigh multiplier, ``level`` the diffusion energy
    ``I(u)``, ``residual`` the discrete dual norm of ``I'(u) - lam J'(u)``.
    """

    lam: float
    u: GridFunction
    alpha: float
    level: float
    residual: float
    iterations: int
    history: list = field(default_factory=list, repr=False)


@dataclass
class LSLevel:
    """One rung of the approximate Ljusternik-Schnirelmann ladder."""

    k: int
    c_k_alpha: float
    pair: EigenPair
    method: str
    reliable: bool = True


@dataclass
class SweepResult:
    """Outcome of a level sweep: pairs keyed by alpha plus per-alpha
    failures that did not stop the sweep."""

    pairs: list
    failures: list


def default_init(dom: GridDomain) -> GridFunction:
    """One-signed smooth bump: the canonical nonzero zero-trace start."""
    return GridFunction(dom, smooth_candidates(dom, 1)[0])


def _qw_dot(dom: GridDomain, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(dom.node_qw * a * b))


def rayleigh_multiplier(setup: EnergySetup, u: GridFunction) -> float:
    """Multiplier estimate ``<I'(u), u> / <J'(u), u>``; positive for u != 0."""
    den = gateaux_J(setup, u).pairing(u)
    if den <= 0.0:
        raise DomainError("multiplier undefined: <J'(u), u> is not positive")
    return gateaux_I(setup, u).pairing(u) / den


def residual(setup: EnergySetup, pair: EigenPair) -> float:
    """Weak-solution certificate: dual norm of ``I'(u) - lam J'(u)``."""
    r = gateaux_I(setup, pair.u).combine(gateaux_J(setup, pair.u), -pair.lam)
    return dual_norm(setup, r)


def _penalty_density(dom: GridDomain, values: np.ndarray, anchors, mu: float):
    """Gradient density of the overlap penalty mu * sum_j c_j(u)^2 with
    c_j = <u, u_j> / <u_j, u_j> in the quadrature inner product."""
    if not anchors or mu == 0.0:
        return 0.0, 0.0
    pen = 0.0
    dens = np.zeros(dom.node_shape)
    for a_vals, a_nrm2 in anchors:
        c = _qw_dot(dom, values, a_vals) / a_nrm2
        pen += mu * c * c
        dens += 2.0 * mu * c / a_nrm2 * a_vals
    return pen, dens


def _floored(mag: np.ndarray) -> np.ndarray:
    """Magnitudes floored at 1e-7 of their maximum, so secant slopes stay
    finite for slowly growing densities and positive for fast ones."""
    return np.maximum(mag, 1e-7 * max(float(np.max(mag)), 1e-30))


def _slopes(young, t: np.ndarray):
    """Secant slope ``f(t)/t`` of the density and ``max(f'(t), f(t)/t)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        sec = np.asarray(young.derivative(t), dtype=float) / t
        return sec, np.maximum(np.asarray(young.second_derivative(t),
                                          dtype=float), sec)


def _tangent_tensor(setup: EnergySetup, values: np.ndarray) -> np.ndarray:
    """Per-cell tensor ``w cq (s Id + (max(phi', s) - s) e e^T)``.

    ``s = phi(t)/t`` and ``e = g/t`` with ``t`` the floored magnitude of
    the cell gradient ``g``.  Where ``phi' >= s`` this is the second
    variation of ``I``; elsewhere the radial curvature is raised to the
    secant slope, so the tensor stays positive definite.  In 1D it reduces
    to ``max(phi'(t), phi(t)/t)``.
    """
    dom = setup.dom
    comps = np.stack([c.ravel() for c in gradient_components(dom, values)])
    t = _floored(np.sqrt(np.sum(comps * comps, axis=0)))
    sec, curv = _slopes(setup.phi, t)
    e = comps / t
    tensor = (sec * np.eye(dom.ndim)[:, :, None]
              + (curv - sec) * e[:, None, :] * e[None, :, :])
    return tensor * (setup.w_cells.ravel() * dom.cell_qw)


def _reaction_curvature(setup: EnergySetup, values: np.ndarray) -> np.ndarray:
    """Diagonal ``qw * w1 * max(psi'(|u|), psi(|u|)/|u|)`` of the reaction
    Hessian, with the stiffness's magnitude floor."""
    _, curv = _slopes(setup.psi, _floored(np.abs(values)))
    return setup.dom.node_qw * setup.w1.values * curv


class _Tangent:
    """Tangent stiffness of ``I`` on the interior of one solve.

    Keeps the last factorization and refactors only when the assembled
    values change, so a quadratic ``Phi`` factors once per solve.  Each
    solve owns its instance; only the grid's pattern is shared.
    """

    def __init__(self, setup: EnergySetup):
        self.setup = setup
        self.pat = setup.dom.stiffness_pattern
        self._data = None
        self._lu = None

    def factor(self, values: np.ndarray, shift=None):
        """LU of the tangent at ``values``, minus ``diag(shift)`` on the
        interior when given."""
        data = self.pat.assemble(_tangent_tensor(self.setup, values))
        if shift is not None:
            data[self.pat.diag] -= shift
        if self._data is None or not np.array_equal(data, self._data):
            self._lu = self._data = None  # free the old factors first
            # a symmetric fill-reducing ordering: about half the factor
            # time of the default COLAMD on these stencils
            self._lu = spla.splu(self.pat.matrix(data),
                                 permc_spec="MMD_AT_PLUS_A",
                                 options={"SymmetricMode": True})
            self._data = data
        return self._lu

    def direction(self, values: np.ndarray, rho: np.ndarray,
                  shift=None) -> np.ndarray:
        """Solve ``A d = qw * rho`` on the interior, ``A`` the tangent at
        ``values`` minus ``diag(shift)``; nodal ``d``, zero trace."""
        dom = self.setup.dom
        idx = self.pat.idx
        flat = np.zeros(dom.interior.size)
        flat[idx] = self.factor(values, shift).solve(
            (dom.node_qw * rho).ravel()[idx])
        return flat.reshape(dom.node_shape)


def _descend(setup: EnergySetup, alpha: float, init: GridFunction,
             opts: SolverOptions, anchors=(), mu: float = 0.0):
    """Core preconditioned projected-descent loop; returns (pair, converged)."""
    dom = setup.dom
    u = project_to_level(setup, init, alpha)
    tangent = _Tangent(setup)
    hist = []
    iters = 0
    penalized = bool(anchors) and mu != 0.0
    for iters in range(opts.max_iter + 1):
        f_i = gateaux_I(setup, u)
        f_j = gateaux_J(setup, u)
        pen, pen_dens = _penalty_density(dom, u.values, anchors, mu)
        num = f_i.pairing(u)
        if penalized:
            # the multiplier must project out the full merit gradient, or
            # the stop test can never fire at a penalized stationary point
            num += _qw_dot(dom, pen_dens, u.values)
        den = f_j.pairing(u)
        lam = num / den
        res_fun = f_i.combine(f_j, -lam)
        rho = res_fun.density + (pen_dens if penalized else 0.0)
        rho = np.where(dom.interior, rho, 0.0)
        level = energy_I(setup, u)
        res = dual_norm(setup, DualGridFunction(dom, rho))
        hist.append(res)
        if res <= opts.tol * (1.0 + level):
            pair = EigenPair(lam, u, energy_J(setup, u), level,
                             dual_norm(setup, res_fun), iters,
                             hist if opts.keep_history else [])
            return pair, True
        if iters == opts.max_iter:
            break
        direction = tangent.direction(u.values, rho)
        slope = -_qw_dot(dom, rho, direction)
        if not (slope < 0 and np.all(np.isfinite(direction))):
            direction = rho
            slope = -_qw_dot(dom, rho, rho)
        merit = level + pen
        step = 1.0
        accepted = False
        for _ in range(60):
            trial = project_to_level(
                setup, GridFunction(dom, u.values - step * direction), alpha)
            t_pen, _ = _penalty_density(dom, trial.values, anchors, mu)
            if energy_I(setup, trial) + t_pen \
                    <= merit + opts.armijo_c1 * step * slope:
                u = trial
                accepted = True
                break
            step *= opts.backtrack
        if not accepted:
            break  # line search stalled at machine scale
    lam = rayleigh_multiplier(setup, u)
    pair = EigenPair(lam, u, energy_J(setup, u), energy_I(setup, u),
                     dual_norm(setup,
                               gateaux_I(setup, u).combine(
                                   gateaux_J(setup, u), -lam)),
                     iters, hist if opts.keep_history else hist[-50:])
    return pair, False


def _newton_polish(setup: EnergySetup, alpha: float, init: GridFunction,
                   opts: SolverOptions):
    """Converge to the critical point nearest to ``init``, saddles included.

    Damped Newton on the bordered stationarity system

        qw * (I'(u) - lam J'(u)) = 0 on the interior,   J(u) = alpha,

    with the tangent stiffness of ``I`` standing in for its second
    derivative and the diagonal ``qw * w1 * max(psi'(|u|), psi(|u|)/|u|)``
    for that of ``J``; both are exact where the curvature dominates the
    secant slope.  Steps must shrink the algebraic residual square, so the
    iteration cannot slide off a sign-changing saddle toward the ground
    state the way plain energy descent does.  Returns ``(pair, converged)``.
    """
    dom = setup.dom
    u = project_to_level(setup, init, alpha)
    lam = rayleigh_multiplier(setup, u)
    tangent = _Tangent(setup)
    idx = tangent.pat.idx
    hist = []
    iters = 0
    for iters in range(opts.max_iter + 1):
        f_i = gateaux_I(setup, u)
        f_j = gateaux_J(setup, u)
        res_fun = f_i.combine(f_j, -lam)
        rho = np.where(dom.interior, res_fun.density, 0.0)
        level = energy_I(setup, u)
        res = dual_norm(setup, DualGridFunction(dom, rho))
        hist.append(res)
        jgap = energy_J(setup, u) - alpha
        if res <= opts.tol * (1.0 + level) and abs(jgap) <= 1e-9 * alpha:
            pair = EigenPair(lam, u, alpha + jgap, level,
                             dual_norm(setup, res_fun), iters,
                             hist if opts.keep_history else [])
            return pair, True
        if iters == opts.max_iter:
            break
        bdiag = _reaction_curvature(setup, u.values).ravel()[idx]
        bvec = (dom.node_qw * f_j.density).ravel()[idx]
        f_vec = (dom.node_qw * rho).ravel()[idx]
        try:
            lu = tangent.factor(u.values, shift=lam * bdiag)
            k_f = lu.solve(f_vec)
            k_b = lu.solve(bvec)
        except RuntimeError:
            break  # singular linearization
        denom = float(bvec @ k_b)
        if denom == 0.0 or not np.isfinite(denom):
            break
        dlam = (float(bvec @ k_f) - jgap) / denom
        du = -k_f + dlam * k_b
        if not np.all(np.isfinite(du)):
            break
        merit = float(f_vec @ f_vec) + jgap * jgap
        t = 1.0
        accepted = False
        for _ in range(30):
            flat = u.values.ravel().copy()
            flat[idx] += t * du
            u_try = GridFunction(dom, flat.reshape(dom.node_shape))
            lam_try = lam + t * dlam
            fi_t = gateaux_I(setup, u_try)
            fj_t = gateaux_J(setup, u_try)
            rho_t = np.where(dom.interior,
                             fi_t.density - lam_try * fj_t.density, 0.0)
            f_t = (dom.node_qw * rho_t).ravel()[idx]
            jgap_t = energy_J(setup, u_try) - alpha
            if float(f_t @ f_t) + jgap_t * jgap_t \
                    <= (1.0 - 1e-4 * t) * merit:
                u, lam = u_try, lam_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    try:
        lam_fin = rayleigh_multiplier(setup, u)
    except DomainError:
        lam_fin = lam
    pair = EigenPair(lam_fin, u, energy_J(setup, u), energy_I(setup, u),
                     dual_norm(setup,
                               gateaux_I(setup, u).combine(
                                   gateaux_J(setup, u), -lam_fin)),
                     iters, hist if opts.keep_history else hist[-50:])
    return pair, False


def minimize_on_level(setup: EnergySetup, alpha: float,
                      init: GridFunction | None = None,
                      opts: SolverOptions | None = None) -> EigenPair:
    """Solve the level-constrained minimization and certify the eigenpair.

    Descends from ``init`` (default: the one-signed bump) until the dual
    norm of the projected gradient drops below ``tol * (1 + I(u))``.  With
    ``opts.onesigned`` the minimizer is replaced by its absolute value,
    which leaves ``J`` unchanged, and re-polished if that bumps the
    residual.  Raises :class:`NonConvergenceError` with the last iterate
    and residual history when the budget runs out.
    """
    if alpha <= 0:
        raise DomainError("level alpha must be positive")
    if opts is None:
        opts = SolverOptions()
    if init is None:
        init = default_init(setup.dom)
    pair, ok = _descend(setup, alpha, init, opts)
    if ok and opts.onesigned and np.any(pair.u.values < 0):
        flipped = GridFunction(setup.dom, np.abs(pair.u.values))
        lam = rayleigh_multiplier(setup, flipped)
        res = dual_norm(setup, gateaux_I(setup, flipped).combine(
            gateaux_J(setup, flipped), -lam))
        if res <= opts.tol * (1.0 + energy_I(setup, flipped)):
            pair = EigenPair(lam, flipped, energy_J(setup, flipped),
                             energy_I(setup, flipped), res, pair.iterations,
                             pair.history)
        else:
            polish, ok2 = _descend(setup, alpha, flipped, opts)
            if ok2 and not np.any(polish.u.values < 0):
                pair = polish
            # else: keep the signed certified minimizer
    if not ok:
        raise NonConvergenceError(
            f"no convergence after {opts.max_iter} iterations "
            f"(last residual {pair.residual:.3e})",
            last=pair, history=pair.history)
    return pair


# --------------------------------------------------------------------------
# Ljusternik-Schnirelmann ladder


def _subinterval_pair(setup: EnergySetup, j: int, k: int, level: float,
                      opts: SolverOptions):
    """Solve the one-bump problem on the j-th of k equal subintervals,
    restricting both weights by interpolation; returns nodal values of the
    sub-solution interpolated back onto the parent grid (zero outside)."""
    dom = setup.dom
    a, b = dom.extent
    width = (b - a) / k
    lo = a + j * width
    n_sub = max(33, (dom.n - 1) // k + 1)
    sub = GridDomain("interval", (lo, lo + width), n_sub)
    w_sub = WeightField(sub, np.interp(sub.axis, dom.axis, setup.w.values))
    w1_sub = WeightField(sub, np.interp(sub.axis, dom.axis, setup.w1.values))
    setup_sub = EnergySetup(setup.phi, setup.psi, w_sub, w1_sub, sub)
    pair = minimize_on_level(setup_sub, level, opts=opts)
    inside = (dom.axis >= lo) & (dom.axis <= lo + width)
    vals = np.zeros(dom.n)
    vals[inside] = np.interp(dom.axis[inside], sub.axis, pair.u.values)
    return vals


def _ls_1d(setup: EnergySetup, alpha: float, k_max: int,
           opts: SolverOptions) -> list:
    out = []
    for k in range(1, k_max + 1):
        reliable = True
        if k == 1:
            pair = minimize_on_level(setup, alpha, opts=opts)
        else:
            pieces = [_subinterval_pair(setup, j, k, alpha / k, opts)
                      for j in range(k)]
            glued = np.zeros(setup.dom.n)
            for j, piece in enumerate(pieces):
                glued += (-1.0) ** j * piece
            init = GridFunction(setup.dom, glued)
            # the glue is near a sign-changing saddle, so relax with the
            # saddle-capable polisher, not with energy descent
            pair, reliable = _newton_polish(setup, alpha, init, opts)
        scaled = scale_to_energy_level(setup, pair.u, alpha)
        out.append(LSLevel(k, energy_J(setup, scaled), pair, "nodal-1d",
                           reliable=reliable))
    return out


def _overlap(dom: GridDomain, a: np.ndarray, b: np.ndarray) -> float:
    na = math.sqrt(_qw_dot(dom, a, a))
    nb = math.sqrt(_qw_dot(dom, b, b))
    if na == 0 or nb == 0:
        return 0.0
    return abs(_qw_dot(dom, a, b)) / (na * nb)


def _ls_2d(setup: EnergySetup, alpha: float, k_max: int,
           opts: SolverOptions) -> list:
    dom = setup.dom
    out = []
    found = []
    first = minimize_on_level(setup, alpha, opts=opts)
    out.append(LSLevel(1, energy_J(
        setup, scale_to_energy_level(setup, first.u, alpha)),
        first, "deflation-2d"))
    found.append((first.u.values, _qw_dot(dom, first.u.values,
                                          first.u.values)))
    starts = max(2, opts.starts)
    cands = smooth_candidates(dom, starts, opts.seed + 1)
    # exploration only has to land in the right basin, so it runs coarse
    # and capped; certification happens in the polish
    explore = SolverOptions(tol=max(1e-5, opts.tol), max_iter=2000,
                            onesigned=False, seed=opts.seed,
                            starts=opts.starts)
    relax = SolverOptions(tol=opts.tol, max_iter=min(opts.max_iter, 300),
                          onesigned=False, seed=opts.seed,
                          starts=opts.starts)
    rng = np.random.default_rng(opts.seed)
    for k in range(2, k_max + 1):
        best = None
        # the penalty has to dominate the spectral gap, which scales with
        # the energies themselves; escalate when every start collapses
        mu0 = 10.0 * (1.0 + out[-1].pair.level)
        for boost in (1.0, 10.0, 100.0):
            for c in cands:
                tilt = c * np.sign(rng.standard_normal(dom.node_shape)
                                   + 0.5) if k > 2 else c
                init = GridFunction(dom, tilt)
                try:
                    pen_pair, _ = _descend(setup, alpha, init, explore,
                                           anchors=found, mu=boost * mu0)
                    pair, ok = _newton_polish(setup, alpha, pen_pair.u,
                                              relax)
                    if not ok:
                        continue
                except DomainError:
                    continue
                sep = max((_overlap(dom, pair.u.values, f[0])
                           for f in found), default=0.0)
                if sep > 0.9:
                    continue
                if best is None or (pair.level, pair.residual) < \
                        (best.level, best.residual):
                    best = pair
            if best is not None:
                break
        if best is None:
            # deflation failed to separate; fall back to the previous pair
            prev = out[-1].pair
            out.append(LSLevel(k, out[-1].c_k_alpha, prev,
                               "deflation-2d", reliable=False))
            continue
        found.append((best.u.values, _qw_dot(dom, best.u.values,
                                             best.u.values)))
        out.append(LSLevel(k, energy_J(
            setup, scale_to_energy_level(setup, best.u, alpha)),
            best, "deflation-2d"))
    return out


def ls_sequence(setup: EnergySetup, alpha: float, k_max: int,
                opts: SolverOptions | None = None) -> list:
    """Approximate the first ``k_max`` minimax levels on ``J = alpha``.

    The reported level ``c_k_alpha`` is the reaction energy of the pair
    rescaled onto the diffusion level ``I = alpha``; along the hierarchy
    the multiplier grows and this value decreases, matching the ordering
    of the minimax values.  Exact genus classes are out of numerical
    reach; the method tag says which surrogate produced each rung.
    """
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    if alpha <= 0:
        raise DomainError("level alpha must be positive")
    if opts is None:
        opts = SolverOptions()
    if setup.dom.ndim == 1:
        return _ls_1d(setup, alpha, k_max, opts)
    return _ls_2d(setup, alpha, k_max, opts)


def spectrum_sweep(setup: EnergySetup, alphas,
                   opts: SolverOptions | None = None) -> SweepResult:
    """Trace the multiplier curve over the given levels with warm starts.

    Levels are solved in increasing order, each started from the previous
    minimizer re-projected; failures are collected per level and the sweep
    continues.  Returns pairs sorted by level.
    """
    if opts is None:
        opts = SolverOptions()
    order = sorted(float(a) for a in alphas)
    if any(a <= 0 for a in order):
        raise DomainError("every level must be positive")
    pairs = []
    failures = []
    warm = None
    for a in order:
        try:
            pair = minimize_on_level(setup, a, init=warm, opts=opts)
            pairs.append(pair)
            warm = pair.u
        except NonConvergenceError as exc:
            failures.append((a, str(exc)))
    return SweepResult(pairs, failures)
