"""Constrained eigen-minimization on the reaction level set.

The discrete problem: minimize ``I(u)`` over the manifold ``J(u) = alpha``.
A minimizer carries a Lagrange multiplier ``lambda`` with
``I'(u) = lambda J'(u)`` in the discrete weak sense, i.e. an eigenpair of
the weighted phi-Laplacian.  The solver is projected descent:

    precondition the residual density ``I' - lambda J'`` with the tangent
    stiffness of ``I`` at the current iterate, try the full step first and
    backtrack with the Armijo rule on ``I``, re-project onto the level set
    every trial.

Run free, with no level set and a fixed ``lambda``, the same loop descends
on ``I - lambda J`` for the critical-point probe of the region module.  The
other solver loop is the ladder's damped Newton polisher, which also
converges to saddles.

Both loops evaluate the start and every line-search trial as one point
record (:class:`_Point`) on raw nodal arrays, through the kernels behind
the public functions of :mod:`functionals`: the cell gradient is taken
and checked finite once per point and shared by ``I``, ``I'`` and the
tangent, and an accepted trial's record is the next iterate.  No
``GridFunction`` or ``DualGridFunction`` is built inside the loops, only
for the returned :class:`EigenPair`, whose ``stats`` count the work where
it happens: iterations, trials, projections, evaluations of ``I``, ``J``,
``I'`` and ``J'``, factorizations done and reused, and solves.

The tangent stiffness is the second variation of ``I`` with its radial
curvature ``phi'(t)`` raised to the secant slope ``phi(t)/t`` where it
falls below it.  That keeps the matrix symmetric positive definite for
every admissible Young function, so the preconditioned direction always
descends, and it is the exact Hessian wherever ``phi' >= phi/t`` (powers
``p >= 2``), which removes the linear-rate stall of a secant-only
("frozen coefficient") preconditioner.  For a quadratic ``Phi`` the full
step reproduces inverse power iteration and the matrix is factored once.
The sparsity pattern and its band layout are built once per grid.  The
interior nodes keep their row-major numbering, so the matrix is banded
(half-bandwidth ``n - 2`` on the box, 1 in 1D) and is factored by a
banded Cholesky factorization (LAPACK ``dpbtrf``/``dpbtrs``).  The
indefinite shifted systems of the saddle polisher and the free-energy
probe take a row-pivoted banded LU (``dgbtrf``/``dgbtrs``); whether a
shift is given decides the kernel.  Each solve keeps its last
factorization and refactors only when the assembled values change.

Higher levels of the Ljusternik-Schnirelmann hierarchy are approximated by
structure, not by genus: in 1D, gluing sign-alternating copies of the
scaled one-bump solution over k equal subintervals and relaxing; in 2D, by
multi-start descent penalized against overlap with already-found pairs.
Both are tagged as heuristics in the output.  A penalized descent is
preconditioned with the tangent of the whole merit: the overlap penalty
adds one rank-one term per found pair, which the solve absorbs through the
Sherman-Morrison-Woodbury identity on the same factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, NonConvergenceError
from .functionals import (EnergySetup, energy_J, scale_to_energy_level,
                          _check_member, _dual_norm, _energy_I, _energy_J,
                          _gateaux_I, _gateaux_J, _gradient, _level_scale)
from .norms import GridDomain, GridFunction, WeightField, smooth_candidates

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

    ``tol`` bounds the dual norm of the residual relative to ``1 + I(u)``.
    """

    tol: float = 1e-8
    max_iter: int = 100_000


# Armijo sufficient-decrease constant and step factor of the line searches
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5


@dataclass
class EigenPair:
    """A certified point on the constraint manifold.

    ``lam`` is the Rayleigh multiplier, ``level`` the diffusion energy
    ``I(u)``, ``residual`` the discrete dual norm of ``I'(u) - lam J'(u)``.
    ``stats`` counts the work of the solve that produced the pair, as
    counted by its loops (keys in ``STAT_KEYS``): iterations, line-search
    trials, projections onto the level set, evaluations of ``I``, ``J``,
    ``I'`` and ``J'``, tangent factorizations done and reused, and banded
    solves.
    """

    lam: float
    u: GridFunction
    alpha: float
    level: float
    residual: float
    iterations: int
    history: list = field(default_factory=list, repr=False)
    stats: dict = field(default_factory=dict, repr=False)


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
    """Outcome of a level sweep: the solved pairs in increasing level
    order, plus the ``(alpha, message)`` failures that did not stop the
    sweep."""

    pairs: list
    failures: list


def default_init(dom: GridDomain) -> GridFunction:
    """One-signed smooth bump: the canonical nonzero zero-trace start."""
    return GridFunction(dom, smooth_candidates(dom, 1)[0])


def _qw_dot(dom: GridDomain, a: np.ndarray, b: np.ndarray) -> float:
    return float((dom.node_qw * a * b).sum())


# the counters of EigenPair.stats
STAT_KEYS = ("iterations", "trials", "projections", "energy_I", "energy_J",
             "gateaux_I", "gateaux_J", "factorizations", "factor_reuses",
             "solves")


def _new_stats() -> dict:
    return dict.fromkeys(STAT_KEYS, 0)


class _Point:
    """One iterate or line-search trial of a solver loop, evaluated once.

    Holds nodal ``values`` and their cell gradient ``grad``, which ``I``,
    ``I'`` and the tangent stiffness share; it is taken, and checked
    finite, at construction.  ``I``, ``J`` and the densities of ``I'``
    and ``J'`` are evaluated the first time a loop asks for them, through
    the kernels behind the public functions, and counted in ``stats``.
    Given ``alpha``, the values are first scaled onto ``J = alpha``.
    """

    def __init__(self, setup: EnergySetup, values: np.ndarray, stats: dict,
                 alpha: float | None = None):
        if alpha is not None:
            stats["projections"] += 1
            values = _level_scale(setup, values, alpha) * values
        self.setup, self.stats, self.values = setup, stats, values
        self.grad = _gradient(setup.dom, values)

    @cached_property
    def level(self) -> float:
        """``I``."""
        self.stats["energy_I"] += 1
        return _energy_I(self.setup, self.grad[1])

    @cached_property
    def reaction(self) -> float:
        """``J``."""
        self.stats["energy_J"] += 1
        return _energy_J(self.setup, self.values)

    @cached_property
    def d_I(self) -> np.ndarray:
        """Density of ``I'``."""
        self.stats["gateaux_I"] += 1
        return _gateaux_I(self.setup, *self.grad)

    @cached_property
    def d_J(self) -> np.ndarray:
        """Density of ``J'``."""
        self.stats["gateaux_J"] += 1
        return _gateaux_J(self.setup, self.values)

    def residual(self, lam: float) -> np.ndarray:
        """Density of ``I' - lam J'``."""
        return np.where(self.setup.dom.interior, self.d_I - lam * self.d_J,
                        0.0)

    def rayleigh(self) -> float:
        """Multiplier ``<I', u> / <J', u>``."""
        dom = self.setup.dom
        den = _qw_dot(dom, self.d_J, self.values)
        if den <= 0.0:
            raise DomainError(
                "multiplier undefined: <J'(u), u> is not positive")
        return _qw_dot(dom, self.d_I, self.values) / den


def rayleigh_multiplier(setup: EnergySetup, u: GridFunction) -> float:
    """Multiplier estimate ``<I'(u), u> / <J'(u), u>``; positive for u != 0."""
    _check_member(setup, u)
    return _Point(setup, u.values, _new_stats()).rayleigh()


def residual(setup: EnergySetup, pair: EigenPair) -> float:
    """Weak-solution certificate: dual norm of ``I'(u) - lam J'(u)``."""
    _check_member(setup, pair.u)
    return _dual_norm(setup, _Point(setup, pair.u.values,
                                    _new_stats()).residual(pair.lam))


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


def _penalty_rows(dom: GridDomain, anchors, mu: float) -> np.ndarray:
    """Rows ``b_j = sqrt(2 mu) qw u_j / <u_j, u_j>`` on the interior; the
    Hessian of the overlap penalty is ``sum_j b_j b_j^T``."""
    idx = dom.stiffness_pattern.idx
    return np.stack([(math.sqrt(2.0 * mu) / a_nrm2 * dom.node_qw
                      * a_vals).ravel()[idx] for a_vals, a_nrm2 in anchors])


def _floored(mag: np.ndarray) -> np.ndarray:
    """Magnitudes floored at 1e-7 of their maximum, so secant slopes stay
    finite for slowly growing densities and positive for fast ones."""
    return np.maximum(mag, 1e-7 * max(float(np.max(mag)), 1e-30))


def _tangent_tensor(setup: EnergySetup, grad) -> np.ndarray:
    """Per-cell tensor ``w cq (s Id + (max(phi', s) - s) e e^T)``.

    ``s = phi(t)/t`` and ``e = g/t`` with ``t`` the floored magnitude of
    the cell gradient ``g``, given as ``grad = (components, magnitudes)``.
    Where ``phi' >= s`` this is the second variation of ``I``; elsewhere
    the radial curvature is raised to the secant slope, so the tensor
    stays positive definite.  In 1D it reduces to
    ``max(phi'(t), phi(t)/t)``.
    """
    dom = setup.dom
    comps = np.stack([c.ravel() for c in grad[0]])
    t = _floored(grad[1].ravel())
    phi = setup.phi
    # t is finite and positive: the Young functions are evaluated unchecked
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sec = phi._derivative_raw(t) / t
        curv = np.maximum(phi._second_derivative_raw(t), sec)
    e = comps / t
    tensor = (sec * np.eye(dom.ndim)[:, :, None]
              + (curv - sec) * e[:, None, :] * e[None, :, :])
    return tensor * setup.w_cell_qw


def _reaction_curvature(setup: EnergySetup, values: np.ndarray) -> np.ndarray:
    """Diagonal ``qw * w1 * psi'(|u|)`` of the reaction Hessian, with the
    stiffness's magnitude floor."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        curv = setup.psi._second_derivative_raw(_floored(np.abs(values)))
    return setup.dom.node_qw * setup.w1.values * curv


class _Tangent:
    """Tangent stiffness of ``I`` on the interior of one solve.

    Factors in the band layouts of the grid's :class:`StiffnessPattern`
    (Golub and Van Loan, *Matrix Computations*, sec. 4.3).  The unshifted
    tangent is symmetric positive definite by construction, so it takes a
    banded Cholesky factorization of its lower triangle (LAPACK
    ``dpbtrf``/``dpbtrs``): ``k + 1`` band rows and no pivoting.  The
    shifted systems of the saddle polisher and the free-energy probe are
    indefinite and take a row-pivoted banded LU (``dgbtrf``/``dgbtrs``,
    ``3k + 1`` band rows).  A non-positive Cholesky pivot or an exactly
    zero LU pivot raises ``RuntimeError``.  Keeps the last factorization
    and refactors only when the kernel or the assembled values change.
    For a quadratic ``Phi`` the unshifted tangent does not depend on the
    iterate, so it is factored once and later calls return at once.  Each
    solve owns its instance; only the grid's pattern is shared.  Given
    ``penalty_rows`` (the ``b_j`` of :func:`_penalty_rows`),
    :meth:`direction` solves with ``A + sum_j b_j b_j^T`` through the
    Sherman-Morrison-Woodbury identity on the factorization of ``A``,
    keeping ``A^-1 B`` and the small matrix ``Id + B^T A^-1 B`` while the
    factorization is reused.  Factorizations done and reused, and solves,
    are counted in ``stats``.
    """

    def __init__(self, setup: EnergySetup, penalty_rows=None, stats=None):
        self.setup = setup
        self.pat = setup.dom.stiffness_pattern
        self.rows = penalty_rows
        self.stats = _new_stats() if stats is None else stats
        self._constant = setup.phi.indices() == (2.0, 2.0)
        self._data = None
        self._fac = None
        self._piv = None  # None with a Cholesky factor
        self._kb = self._small = None

    def factor(self, grad, shift=None):
        """Factor the tangent at the cell gradient ``grad`` (components,
        magnitudes), minus ``diag(shift)`` on the interior when given;
        kept for :meth:`solve`."""
        cholesky = shift is None
        held = self._fac is not None and (self._piv is None) == cholesky
        if held and cholesky and self._constant:
            self.stats["factor_reuses"] += 1
            return
        pat = self.pat
        data = pat.assemble(_tangent_tensor(self.setup, grad))
        if not cholesky:
            data[pat.diag] -= shift
        if held and np.array_equal(data, self._data):
            self.stats["factor_reuses"] += 1
            return
        # scipy.linalg loads with the first factorization, not with the
        # package
        from scipy.linalg import lapack
        # free the old factors first
        self._fac = self._piv = self._data = self._kb = self._small = None
        k = pat.bandwidth
        size = pat.idx.size
        # column-major band x size, factored in place
        if cholesky:
            band = np.zeros(size * (k + 1))
            band[pat.sym_band] = data[pat.lower]
            fac, info = lapack.dpbtrf(band.reshape(size, k + 1).T,
                                      lower=1, overwrite_ab=1)
            piv = None
        else:
            band = np.zeros(size * (3 * k + 1))
            band[pat.band] = data
            fac, piv, info = lapack.dgbtrf(
                band.reshape(size, 3 * k + 1).T, k, k, overwrite_ab=1)
        if info != 0:
            # info > 0: the leading minor of that order is not positive
            # (Cholesky), or the pivot of that column is exactly zero (LU)
            kernel = "dpbtrf" if cholesky else "dgbtrf"
            raise RuntimeError(f"banded factorization failed "
                               f"({kernel} info {info})")
        self._fac, self._piv, self._data = fac, piv, data
        self.stats["factorizations"] += 1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``A^-1 rhs`` with the last factorization, for one right-hand
        side or a block of them in columns."""
        from scipy.linalg import lapack
        self.stats["solves"] += 1
        if self._piv is None:
            x, info = lapack.dpbtrs(self._fac, rhs, lower=1)
        else:
            k = self.pat.bandwidth
            x, info = lapack.dgbtrs(self._fac, k, k, rhs, self._piv)
        if info != 0:
            raise RuntimeError(f"banded solve failed (info {info})")
        return x

    def direction(self, grad, rho: np.ndarray, shift=None) -> np.ndarray:
        """Solve ``A d = qw * rho`` on the interior, ``A`` the tangent at
        the cell gradient ``grad`` minus ``diag(shift)``, plus
        ``sum_j b_j b_j^T`` for the penalty rows; nodal ``d``, zero
        trace."""
        dom = self.setup.dom
        idx = self.pat.idx
        self.factor(grad, shift)
        d = self.solve((dom.node_qw * rho).ravel()[idx])
        if self.rows is not None:
            if self._kb is None:
                self._kb = self.solve(self.rows.T)
                self._small = np.eye(len(self.rows)) + self.rows @ self._kb
            d -= self._kb @ np.linalg.solve(self._small, self.rows @ d)
        flat = np.zeros(dom.interior.size)
        flat[idx] = d
        return flat.reshape(dom.node_shape)


def _pair(point: _Point, lam: float, iters: int, history=()) -> EigenPair:
    """The pair at ``point`` with multiplier ``lam``, certified afresh."""
    setup = point.setup
    return EigenPair(lam, GridFunction(setup.dom, point.values),
                     point.reaction, point.level,
                     _dual_norm(setup, point.residual(lam)), iters,
                     list(history), point.stats)


def _descend(setup: EnergySetup, alpha: float | None, init: GridFunction,
             opts: SolverOptions, anchors=(), mu: float = 0.0,
             lam0: float = 0.0, stats: dict | None = None):
    """Core preconditioned descent loop; returns (pair, converged).

    Minimizes ``I`` on ``J = alpha``, projecting the start and every trial
    and taking the Rayleigh multiplier.  ``alpha=None`` descends freely on
    ``I - lam0 J`` with multiplier ``lam0`` and stop test
    ``tol * (1 + |I - lam0 J|)``; it first tries the Newton step with the
    tangent minus ``lam0`` times the reaction curvature, because the
    tangent of ``I`` alone only halves the error along the ray through a
    critical point per step (at tol 1e-6 it stopped 3% off in I on the
    n=61 disc), and gives up beyond 1e8 in max norm (not coercive).

    With ``anchors`` the merit is ``I + mu sum_j c_j^2`` and the
    preconditioner adds the penalty's rank-one curvature per anchor
    through the Woodbury identity on the stiffness's factorization.
    Without it the full step overshoots along the anchors and the line
    search backtracks.

    The start and every trial are one :class:`_Point`; an accepted
    trial's point is the next iterate, so the loop head adds only the
    densities of ``I'`` and ``J'`` on its gradient and the multiplier.
    The work is counted in ``stats`` (a fresh dict when not given), which
    the returned pair carries.
    """
    dom = setup.dom
    free = alpha is None
    stats = _new_stats() if stats is None else stats
    penalized = bool(anchors) and mu != 0.0
    tangent = _Tangent(setup, _penalty_rows(dom, anchors, mu)
                       if penalized else None, stats)
    idx = tangent.pat.idx

    def point(values):
        """(merit, point, energy, penalty density) at nodal values."""
        p = _Point(setup, values, stats, alpha)
        energy = p.level - lam0 * p.reaction if free else p.level
        pen, pen_dens = _penalty_density(dom, p.values, anchors, mu)
        return energy + pen, p, energy, pen_dens

    merit, u, energy, pen_dens = point(init.values)
    hist = []
    iters = 0
    lam = lam0
    for iters in range(opts.max_iter + 1):
        if not free:
            # the multiplier must project out the full merit gradient, or
            # the stop test can never fire at a penalized stationary point
            num = _qw_dot(dom, u.d_I, u.values) + (
                _qw_dot(dom, pen_dens, u.values) if penalized else 0.0)
            lam = num / _qw_dot(dom, u.d_J, u.values)
        res_dens = u.residual(lam)
        rho = np.where(dom.interior, res_dens + pen_dens, 0.0)
        res = _dual_norm(setup, rho)
        hist.append(res)
        if res <= opts.tol * (1.0 + abs(energy)):
            stats["iterations"] += iters
            return _pair(u, lam, iters), True
        if iters == opts.max_iter:
            break
        shifts = ((lam0 * _reaction_curvature(setup, u.values).ravel()[idx],
                   None) if free else (None,))
        for shift in shifts:
            try:
                direction = tangent.direction(u.grad, rho, shift)
            except RuntimeError:
                continue  # singular free-energy tangent
            slope = -_qw_dot(dom, rho, direction)
            if slope < 0 and np.all(np.isfinite(direction)):
                break
        else:
            direction = rho
            slope = -_qw_dot(dom, rho, rho)
        step = 1.0
        for _ in range(60):
            stats["trials"] += 1
            trial = point(u.values - step * direction)
            if trial[0] <= merit + _ARMIJO_C1 * step * slope:
                merit, u, energy, pen_dens = trial
                break
            step *= _BACKTRACK
        else:
            break  # line search stalled at machine scale
        if free and float(np.max(np.abs(u.values))) > 1e8:
            break  # free energy not coercive at this multiplier
    if not free:
        lam = u.rayleigh()
    stats["iterations"] += iters
    return _pair(u, lam, iters, hist[-50:]), False


def _newton_polish(setup: EnergySetup, alpha: float, init: GridFunction,
                   opts: SolverOptions, stats: dict | None = None):
    """Converge to the critical point nearest to ``init``, saddles included.

    Damped Newton on the bordered stationarity system

        qw * (I'(u) - lam J'(u)) = 0 on the interior,   J(u) = alpha,

    with the tangent stiffness of ``I`` standing in for its second
    derivative, exact where the curvature dominates the secant slope, and
    the exact diagonal ``qw * w1 * psi'(|u|)`` for that of ``J``.  Steps
    must shrink the algebraic residual square, so the iteration cannot
    slide off a sign-changing saddle toward the ground state the way plain
    energy descent does.  The start and every trial are one
    :class:`_Point`; an accepted trial's point and merit terms are the
    next iterate's, so the loop head adds only ``I`` and the dual norm.
    The work is counted in ``stats`` as in :func:`_descend`.  Returns
    ``(pair, converged)``.
    """
    dom = setup.dom
    stats = _new_stats() if stats is None else stats
    tangent = _Tangent(setup, stats=stats)
    idx = tangent.pat.idx

    def merit_at(p, lam_v):
        """(merit, residual density, its interior weak form, level gap) at
        point p with multiplier lam_v."""
        res_dens = p.residual(lam_v)
        f_vec = (dom.node_qw * res_dens).ravel()[idx]
        jgap = p.reaction - alpha
        return float(f_vec @ f_vec) + jgap * jgap, res_dens, f_vec, jgap

    u = _Point(setup, init.values, stats, alpha)
    lam = u.rayleigh()
    merit, res_dens, f_vec, jgap = merit_at(u, lam)
    hist = []
    iters = 0
    for iters in range(opts.max_iter + 1):
        level = u.level
        res = _dual_norm(setup, res_dens)
        hist.append(res)
        if res <= opts.tol * (1.0 + level) and abs(jgap) <= 1e-9 * alpha:
            stats["iterations"] += iters
            return EigenPair(lam, GridFunction(dom, u.values), alpha + jgap,
                             level, res, iters, stats=stats), True
        if iters == opts.max_iter:
            break
        bdiag = _reaction_curvature(setup, u.values).ravel()[idx]
        bvec = (dom.node_qw * u.d_J).ravel()[idx]
        try:
            tangent.factor(u.grad, shift=lam * bdiag)
            k_f, k_b = tangent.solve(np.column_stack([f_vec, bvec])).T
        except RuntimeError:
            break  # singular linearization
        denom = float(bvec @ k_b)
        if denom == 0.0 or not np.isfinite(denom):
            break
        dlam = (float(bvec @ k_f) - jgap) / denom
        du = -k_f + dlam * k_b
        if not np.all(np.isfinite(du)):
            break
        t = 1.0
        for _ in range(30):
            stats["trials"] += 1
            flat = u.values.ravel().copy()
            flat[idx] += t * du
            trial = _Point(setup, flat.reshape(dom.node_shape), stats)
            lam_t = lam + t * dlam
            terms = merit_at(trial, lam_t)
            if terms[0] <= (1.0 - _ARMIJO_C1 * t) * merit:
                u, lam = trial, lam_t
                merit, res_dens, f_vec, jgap = terms
                break
            t *= _BACKTRACK
        else:
            break
    try:
        lam_fin = u.rayleigh()
    except DomainError:
        lam_fin = lam
    stats["iterations"] += iters
    return _pair(u, lam_fin, iters, hist[-50:]), False


def minimize_on_level(setup: EnergySetup, alpha: float,
                      init: GridFunction | None = None,
                      opts: SolverOptions | None = None) -> EigenPair:
    """Solve the level-constrained minimization and certify the eigenpair.

    Descends from ``init`` (default: the one-signed bump) until the dual
    norm of the projected gradient drops below ``tol * (1 + I(u))``.  The
    minimizer is then replaced by its absolute value, which leaves ``J``
    unchanged, and re-polished if that bumps the residual.  The pair's
    ``stats`` count the work of every step.  Raises
    :class:`NonConvergenceError` with the last iterate and residual
    history when the budget runs out.
    """
    if alpha <= 0:
        raise DomainError("level alpha must be positive")
    if opts is None:
        opts = SolverOptions()
    if init is None:
        init = default_init(setup.dom)
    stats = _new_stats()
    pair, ok = _descend(setup, alpha, init, opts, stats=stats)
    if ok and np.any(pair.u.values < 0):
        flipped = _Point(setup, np.abs(pair.u.values), stats)
        cand = _pair(flipped, flipped.rayleigh(), pair.iterations)
        if cand.residual <= opts.tol * (1.0 + cand.level):
            pair = cand
        else:
            polish, ok2 = _descend(setup, alpha, cand.u, opts, stats=stats)
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
    """Rungs 2..k_max as ``(pair, reliable)``, polished from glued bumps."""
    out = []
    for k in range(2, k_max + 1):
        pieces = [_subinterval_pair(setup, j, k, alpha / k, opts)
                  for j in range(k)]
        glued = np.zeros(setup.dom.n)
        for j, piece in enumerate(pieces):
            glued += (-1.0) ** j * piece
        init = GridFunction(setup.dom, glued)
        # the glue is near a sign-changing saddle, so relax with the
        # saddle-capable polisher, not with energy descent
        out.append(_newton_polish(setup, alpha, init, opts))
    return out


# the 2D ladder's penalized starts: their count and the seed of their
# candidate fields and sign tilts
_LS_STARTS = 8
_LS_SEED = 42


def _overlap(dom: GridDomain, a: np.ndarray, b: np.ndarray) -> float:
    na = math.sqrt(_qw_dot(dom, a, a))
    nb = math.sqrt(_qw_dot(dom, b, b))
    if na == 0 or nb == 0:
        return 0.0
    return abs(_qw_dot(dom, a, b)) / (na * nb)


def _ls_2d(setup: EnergySetup, alpha: float, k_max: int, first: EigenPair,
           opts: SolverOptions) -> list:
    """Rungs 2..k_max as ``(pair, reliable)``, polished from penalized
    multi-start descents against the pairs found so far."""
    dom = setup.dom
    out = []
    prev = first
    found = [(first.u.values, _qw_dot(dom, first.u.values, first.u.values))]
    cands = smooth_candidates(dom, _LS_STARTS, _LS_SEED + 1)
    # exploration only has to land in the right basin, so it runs coarse
    # and capped; certification happens in the polish
    explore = replace(opts, tol=max(1e-5, opts.tol), max_iter=2000)
    relax = replace(opts, max_iter=min(opts.max_iter, 300))
    rng = np.random.default_rng(_LS_SEED)
    for k in range(2, k_max + 1):
        best = None
        # the penalty has to dominate the spectral gap, which scales with
        # the energies themselves; escalate when every start collapses
        mu0 = 10.0 * (1.0 + prev.level)
        for boost in (1.0, 10.0, 100.0):
            for c in cands:
                tilt = c * np.sign(rng.standard_normal(dom.node_shape)
                                   + 0.5) if k > 2 else c
                init = GridFunction(dom, tilt)
                # one start's exploration and polish count as one solve
                stats = _new_stats()
                try:
                    pen_pair, _ = _descend(setup, alpha, init, explore,
                                           anchors=found, mu=boost * mu0,
                                           stats=stats)
                    pair, ok = _newton_polish(setup, alpha, pen_pair.u,
                                              relax, stats)
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
            out.append((prev, False))
            continue
        found.append((best.u.values, _qw_dot(dom, best.u.values,
                                             best.u.values)))
        out.append((best, True))
        prev = best
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
    first = minimize_on_level(setup, alpha, opts=opts)
    if setup.dom.ndim == 1:
        method, rest = "nodal-1d", _ls_1d(setup, alpha, k_max, opts)
    else:
        method, rest = "deflation-2d", _ls_2d(setup, alpha, k_max, first,
                                              opts)
    rungs = [(first, True)] + rest
    return [LSLevel(k, energy_J(setup, scale_to_energy_level(
                        setup, pair.u, alpha)), pair, method, reliable)
            for k, (pair, reliable) in enumerate(rungs, 1)]


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
