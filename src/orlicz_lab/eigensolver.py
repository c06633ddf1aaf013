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
on ``I - lambda J`` for the critical-point probe of the region module, and
extends each full step to the minimizer of a cubic model of the merit
along it.  The other solver loop is the ladder's damped Newton polisher,
which also converges to saddles: its steps pass the natural monotonicity
test.

Both loops run a stack of starts in lockstep, one row each, and return
one ``(pair, converged)`` per start, bit for bit what the start gives
alone: each row keeps its own multiplier, stop test and step length and
leaves the batch when it converges, stalls or fails, and every row
reduction is batch-invariant (one dot product or sum per row; a
matrix-vector product over several rows rounds differently).  A 2D
ladder rung runs its penalized starts as one batch, and so does the
critical-point probe; :func:`minimize_on_level` and the C1 solve of the
region search pass a stack of one.  Both run through one iteration
driver (:func:`_iterate`), which owns the iteration count, the residual
history, the stop test, the shrinking batch and every row's exit
(:func:`_exit`), the one place a row becomes an :class:`EigenPair`; a
loop gives it only its head (multiplier, residual and stop mask) and
its step.  The loops evaluate the starts and every
line-search trial as one point record per batch (:class:`_Point`) on raw
nodal arrays, through the kernels behind the public functions of
:mod:`functionals`: the cell gradient is taken and checked finite once
per point and shared by ``I``, ``I'`` and the tangent, and an accepted
trial's row is that row's next iterate.  The steps share one batched
line search (:func:`_line_search`), given only each loop's trial point
and acceptance test, and one per-row tangent-solve path
(:func:`_directions`).
No ``GridFunction`` or ``DualGridFunction`` is built inside the loops,
only for the returned :class:`EigenPair`, whose ``stats`` count the work
of its batch where it happens: iterations, trials, projections,
evaluations of ``I``, ``J``, ``I'`` and ``J'`` (summed over rows),
factorizations done and reused, and LAPACK solve calls.
:class:`LSLevel` ``stats`` count a whole ladder rung.

The tangent stiffness is the second variation of ``I`` with its radial
curvature ``phi'(t)`` raised to the secant slope ``phi(t)/t`` where it
falls below it.  That keeps the matrix symmetric positive definite for
every admissible Young function, so the preconditioned direction always
descends, and it is the exact Hessian wherever ``phi' >= phi/t`` (powers
``p >= 2``), which removes the linear-rate stall of a secant-only
("frozen coefficient") preconditioner.  For a quadratic ``Phi`` the full
step reproduces inverse power iteration and the matrix is factored once.
The sparsity pattern and its band layout are built once per grid.  The
interior nodes are numbered by anti-diagonals on the disc and row-major
on the box and in 1D, whichever is narrower, so the matrix is banded
(half-bandwidth 28 on the n = 41 disc, ``n - 2`` on the box, 1 in 1D).
The loop decides the kernel, not the shift: the descent factors every
tangent, shifted or not, by a banded Cholesky factorization (LAPACK
``dpbtrf``/``dpbtrs``) of its lower triangle, summed straight into the
symmetric band, and a
batch shares the one factor of a quadratic ``Phi`` and solves all its
rows with one multi-right-hand-side call.  The free-energy probe's
shifted tangent is positive definite near the minimizers it descends
to; where it is not, its pivot fails and the unshifted tangent, from
the same cell tensor, is factored instead.  Only the saddle polisher, whose
bordered systems are indefinite at saddles, takes a row-pivoted banded
LU (``dgbtrf``/``dgbtrs``).  Only a quadratic ``Phi``'s unshifted
tangent is reused; every other tangent is assembled and factored afresh
on each call.

Higher levels of the Ljusternik-Schnirelmann hierarchy are approximated by
structure, not by genus: in 1D, gluing sign-alternating copies of the
scaled one-bump solution over k equal subintervals and relaxing; in 2D, by
multi-start descent penalized against overlap with already-found pairs.
Both are tagged as heuristics in the output.  A penalized descent is
preconditioned with the tangent of the whole merit: the overlap penalty
adds one rank-one term per found pair, which the solve absorbs through the
Sherman-Morrison-Woodbury identity on the same factorization, one
right-hand side at a time.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, NonConvergenceError
from .functionals import (EnergySetup, energy_J, scale_to_energy_level,
                          _check_member, _dual_norm, _energy_I, _energy_J,
                          _gateaux_I, _gateaux_J, _level_scale)
from .norms import (GridDomain, GridFunction, WeightField,
                    gradient_components, smooth_candidates, _cell_magnitude)

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


# Armijo constant of the descent's line search; step factor of both loops;
# longest step of the free descent's cubic extension
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_EXTEND_MAX = 10.0


@dataclass
class EigenPair:
    """A certified point on the constraint manifold.

    ``lam`` is the Rayleigh multiplier, ``level`` the diffusion energy
    ``I(u)``, ``residual`` the discrete dual norm of ``I'(u) - lam J'(u)``.
    ``stats`` counts the work of the solve that produced the pair, every
    row of its batch, as counted by its loops (keys in ``STAT_KEYS``):
    iterations, line-search trials, projections onto the level set,
    evaluations of ``I``, ``J``, ``I'`` and ``J'`` (summed over rows),
    tangent factorizations done and reused, and banded solve calls.
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
    """One rung of the approximate Ljusternik-Schnirelmann ladder.

    ``stats`` counts the whole work of the rung, keys as in
    ``EigenPair.stats``: rung 1 its :func:`minimize_on_level`, a 1D rung
    its subinterval solves and its polish, a 2D rung the exploration and
    polish of every start.
    """

    k: int
    c_k_alpha: float
    pair: EigenPair
    method: str
    reliable: bool = True
    stats: dict = field(default_factory=dict, repr=False)


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


def _qw_dots(dom: GridDomain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadrature inner products of stacked nodal arrays, one per row; each
    row is summed alone, so it equals :func:`_qw_dot` of that row."""
    # a row that overflows sums to inf or NaN, which the caller's stop
    # test rejects
    with np.errstate(over="ignore", invalid="ignore"):
        prod = dom.node_qw * a * b
        return prod.reshape(len(prod), -1).sum(axis=1)


def _qw_dot(dom: GridDomain, a: np.ndarray, b: np.ndarray) -> float:
    return float(_qw_dots(dom, a[None], b)[0])


def _rows(x: np.ndarray, dom: GridDomain) -> np.ndarray:
    """Per-row scalars ``x`` shaped to broadcast against stacked nodal
    layouts."""
    return x.reshape((-1,) + (1,) * dom.ndim)


# the counters of EigenPair.stats
STAT_KEYS = ("iterations", "trials", "projections", "energy_I", "energy_J",
             "gateaux_I", "gateaux_J", "factorizations", "factor_reuses",
             "solves")


def _new_stats() -> dict:
    return dict.fromkeys(STAT_KEYS, 0)


class _Point:
    """Iterates or line-search trials of a solver loop, stacked over a
    leading axis (one row per start) and evaluated once.

    Holds nodal ``values`` and their cell gradient ``grad``, which ``I``,
    ``I'`` and the tangent stiffness share.  Given ``alpha``, the rows are
    first scaled onto ``J = alpha``.  A row that cannot be scaled (zero or
    not finite) or whose gradient overflows is not raised but recorded in
    ``failed`` (row -> :class:`DomainError`), so that it cannot end the
    other rows.  ``I``, ``J`` and the densities of ``I'`` and ``J'`` are
    evaluated for all rows the first time a loop asks for them, through
    the kernels behind the public functions, and counted per row in
    ``stats``.  Every array attribute, these and the terms a loop sets,
    holds one entry per row, so :meth:`take`, :meth:`join` and
    :meth:`put` carry it along.
    """

    def __init__(self, setup: EnergySetup, values: np.ndarray, stats: dict,
                 alpha: float | None = None):
        self.setup, self.stats, self.failed = setup, stats, {}
        if alpha is not None:
            stats["projections"] += len(values)
            scale = _level_scale(setup, values, alpha)
            if not np.isfinite(scale).all():
                for i in np.flatnonzero(~np.isfinite(scale)):
                    self.failed[i] = DomainError(
                        f"t must be finite: the point on the level set "
                        f"J = {alpha:g} overflows" if np.isnan(scale[i]) else
                        "cannot project the zero function onto a level set")
                scale = np.where(np.isfinite(scale), scale, 0.0)
            # the zero scale of a failed row may meet an inf in it
            with np.errstate(invalid="ignore"):
                values = _rows(scale, setup.dom) * values
        comps = gradient_components(setup.dom, values)
        mag = _cell_magnitude(comps)
        if not np.isfinite(mag).all():
            for i in np.flatnonzero(
                    ~np.isfinite(mag).reshape(len(mag), -1).all(axis=1)):
                self.failed.setdefault(i, DomainError("t must be finite"))
        self.values, self.grad = values, (comps, mag)

    def take(self, rows) -> "_Point":
        """The point of the given rows, with everything evaluated so far."""
        def pick(v):
            if isinstance(v, np.ndarray):
                return v[rows]
            return tuple(map(pick, v)) if isinstance(v, tuple) else v
        out = _Point.__new__(_Point)
        out.__dict__.update({k: pick(v) for k, v in self.__dict__.items()},
                            failed={})
        return out

    @staticmethod
    def join(parts) -> "_Point":
        """The rows of ``parts`` stacked in order; each part has the same
        attributes evaluated."""
        def cat(vs):
            if isinstance(vs[0], np.ndarray):
                return np.concatenate(vs)
            return (tuple(map(cat, zip(*vs))) if isinstance(vs[0], tuple)
                    else vs[0])
        out = _Point.__new__(_Point)
        out.__dict__.update({k: cat([p.__dict__[k] for p in parts])
                             for k in parts[0].__dict__}, failed={})
        return out

    def put(self, rows, other: "_Point"):
        """Overwrite the given rows, in place, with the rows of ``other``,
        which has the same attributes evaluated."""
        def copy(mine, theirs):
            if isinstance(mine, np.ndarray):
                mine[rows] = theirs
            elif isinstance(mine, tuple):
                for m, t in zip(mine, theirs):
                    copy(m, t)
        for k, v in self.__dict__.items():
            copy(v, other.__dict__[k])

    def row_grad(self, i: int):
        """The cell gradient of row ``i``."""
        comps, mag = self.grad
        return tuple(c[i] for c in comps), mag[i]

    @cached_property
    def level(self) -> np.ndarray:
        """``I``."""
        self.stats["energy_I"] += len(self.values)
        return _energy_I(self.setup, self.grad[1])

    @cached_property
    def reaction(self) -> np.ndarray:
        """``J``."""
        self.stats["energy_J"] += len(self.values)
        return _energy_J(self.setup, self.values)

    @cached_property
    def d_I(self) -> np.ndarray:
        """Density of ``I'``."""
        self.stats["gateaux_I"] += len(self.values)
        return _gateaux_I(self.setup, *self.grad)

    @cached_property
    def d_J(self) -> np.ndarray:
        """Density of ``J'``."""
        self.stats["gateaux_J"] += len(self.values)
        return _gateaux_J(self.setup, self.values)

    def residual(self, lam) -> np.ndarray:
        """Density of ``I' - lam J'``, with one ``lam`` per row."""
        dom = self.setup.dom
        # an overflowed row gives inf or NaN, which the stop test rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(dom.interior,
                            self.d_I - _rows(lam, dom) * self.d_J, 0.0)

    def rayleigh(self, extra=None):
        """Multipliers ``<I' + extra, u> / <J', u>``, ``extra`` an optional
        density stacked like ``values``; ``<J', u>`` must be positive."""
        dom = self.setup.dom
        num = _qw_dots(dom, self.d_I, self.values)
        if extra is not None:
            num = num + _qw_dots(dom, extra, self.values)
        return num / _qw_dots(dom, self.d_J, self.values)


def rayleigh_multiplier(setup: EnergySetup, u: GridFunction) -> float:
    """Multiplier estimate ``<I'(u), u> / <J'(u), u>``; positive for u != 0."""
    _check_member(setup, u)
    point = _Point(setup, u.values[None], _new_stats())
    if not _qw_dot(setup.dom, point.d_J[0], u.values) > 0.0:
        raise DomainError("multiplier undefined: <J'(u), u> is not positive")
    return float(point.rayleigh()[0])


def residual(setup: EnergySetup, pair: EigenPair) -> float:
    """Weak-solution certificate: dual norm of ``I'(u) - lam J'(u)``."""
    _check_member(setup, pair.u)
    point = _Point(setup, pair.u.values[None], _new_stats())
    return float(_dual_norm(setup, point.residual(np.array([pair.lam])))[0])


def _penalty_density(dom: GridDomain, values: np.ndarray, anchors, mu: float):
    """Per row of the stacked ``values``, the overlap penalty
    mu * sum_j c_j(u)^2 with c_j = <u, u_j> / <u_j, u_j> in the quadrature
    inner product, and its gradient density."""
    if not anchors or mu == 0.0:
        return 0.0, 0.0
    pen = 0.0
    dens = np.zeros(values.shape)
    for a_vals, a_nrm2 in anchors:
        c = _qw_dots(dom, values, a_vals) / a_nrm2
        pen += mu * c * c
        dens += _rows(2.0 * mu * c / a_nrm2, dom) * a_vals
    return pen, dens


def _penalty_rows(dom: GridDomain, anchors, mu: float) -> np.ndarray:
    """Rows ``b_j = sqrt(2 mu) qw u_j / <u_j, u_j>`` on the interior; the
    Hessian of the overlap penalty is ``sum_j b_j b_j^T``."""
    idx = dom.stiffness_pattern.idx
    return np.stack([(math.sqrt(2.0 * mu) / a_nrm2 * dom.node_qw
                      * a_vals).ravel()[idx] for a_vals, a_nrm2 in anchors])


def _floored(mag: np.ndarray) -> np.ndarray:
    """Magnitudes floored at 1e-7 of the maximum of their row (the last
    axis), so secant slopes stay finite for slowly growing densities and
    positive for fast ones."""
    return np.maximum(mag, 1e-7 * np.maximum(
        mag.max(axis=-1, keepdims=True), 1e-30))


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
    # entry (i, j) is gap e_i e_j, plus sec on the diagonal
    gap_e = (curv - sec) * e
    tensor = gap_e[:, None, :] * e[None, :, :]
    tensor.reshape(-1, t.size)[::dom.ndim + 1] += sec
    tensor *= setup.w_cell_qw
    return tensor


def _reaction_curvature(setup: EnergySetup, values: np.ndarray) -> np.ndarray:
    """Diagonal ``qw * w1 * psi'(|u|)`` of the reaction Hessian on the
    interior, one row per stacked layout of ``values``, with the
    stiffness's magnitude floor."""
    flat = np.abs(values).reshape(len(values), -1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        curv = setup.psi._second_derivative_raw(_floored(flat))
    return np.take(setup.w1_node_qw * curv, setup.dom.stiffness_pattern.idx,
                   axis=1)


@cache
def _lapack():
    """scipy's f2py LAPACK extension ``scipy/linalg/_flapack``, loaded once,
    from its file.  Its routines are the ones :mod:`scipy.linalg.lapack`
    re-exports, but loading the file alone skips ``scipy.linalg``'s package
    init and the more than 300 modules it imports (``numpy.f2py`` and
    ``numpy.ma`` among them).  Finding the file imports no scipy module; a
    scipy without it raises ``ImportError`` naming the path."""
    package = importlib.util.find_spec("scipy").submodule_search_locations
    stem = Path(package[0], "linalg", "_flapack")
    paths = [f"{stem}{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if Path(p).is_file()), None)
    if path is None:
        raise ImportError(f"no LAPACK extension at {paths[0]}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Tangent:
    """Tangent stiffness of ``I`` on the interior of one solve.

    Factors the band that :meth:`StiffnessPattern.band` sums straight
    from the cell tensor, in the layout of its kernel (Golub and Van
    Loan, *Matrix Computations*, sec. 4.3), with the LAPACK routines of
    scipy's extension, which the first factorization loads on its own
    (:func:`_lapack`), not through ``scipy.linalg``.  The descent's
    tangents, shifted or not, take a banded Cholesky factorization of
    their lower triangle (LAPACK ``dpbtrf``/``dpbtrs``): ``k + 1`` band
    rows and no pivoting.  The unshifted tangent is symmetric positive
    definite by construction; the free-energy probe's shifted one need
    not be, and where its pivot fails the unshifted band is summed again
    from the same tensor and factored instead.  With ``lu``, the saddle
    polisher's bordered systems, indefinite at saddles, take a
    row-pivoted banded LU of the general band (``dgbtrf``/``dgbtrs``,
    ``3k + 1`` band rows).  A non-positive Cholesky pivot of the
    unshifted tangent or an exactly zero LU pivot raises
    ``RuntimeError``; every factorization is counted, a failed one too.
    Only a quadratic ``Phi``'s unshifted tangent is reused: it does not depend
    on the iterate, so it is factored once, and later unshifted calls
    return at once while the held factor is that one; every other call
    refactors.  The descent on a level set then shares one instance among
    the rows of its batch (see :func:`_tangents`), which solve in one
    multi-right-hand-side call.  Otherwise each row owns its instance;
    only the grid's pattern is shared.  Given ``penalty_rows`` (the ``b_j`` of
    :func:`_penalty_rows`), :meth:`direction` solves with
    ``A + sum_j b_j b_j^T`` through the Sherman-Morrison-Woodbury identity
    on the factorization of ``A``, keeping ``A^-1 B`` and the LU factors
    of the small matrix ``Id + B^T A^-1 B`` while the factorization is
    reused.  Factorizations done and reused, and banded solve calls, are
    counted in ``stats``.
    """

    def __init__(self, setup: EnergySetup, penalty_rows=None, stats=None,
                 lu: bool = False):
        self.setup = setup
        self.pat = setup.dom.stiffness_pattern
        self.rows = penalty_rows
        self.stats = _new_stats() if stats is None else stats
        self._lu = lu
        self._constant = setup.phi.indices() == (2.0, 2.0)
        self._fac = self._piv = None
        self._reusable = False  # the held factor is a constant unshifted one
        self._kb = self._small = None

    def factor(self, grad, shift=None):
        """Factor the tangent at the cell gradient ``grad`` (components,
        magnitudes), minus ``diag(shift)`` on the interior when given;
        kept for :meth:`solve`; a failed shifted Cholesky factorization
        falls back to the unshifted tangent, from the same cell tensor."""
        if shift is None and self._reusable:
            self.stats["factor_reuses"] += 1
            return
        # free the old factors first
        self._fac = self._piv = self._kb = self._small = None
        self._reusable = False
        k = self.pat.bandwidth
        tensor = _tangent_tensor(self.setup, grad)
        # scipy's LAPACK extension loads with the first factorization, not
        # with the package
        lapack = _lapack()
        while True:
            band = self.pat.band(tensor, general=self._lu)
            if shift is not None:
                # the diagonal's band row
                band[2 * k if self._lu else 0] -= shift
            # factored in place
            if self._lu:
                fac, piv, info = lapack.dgbtrf(band, k, k, overwrite_ab=1)
            else:
                fac, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
                piv = None
            # a factorization whose pivot fails ran too
            self.stats["factorizations"] += 1
            if info == 0:
                break
            if shift is None or self._lu:
                # info > 0: the leading minor of that order is not
                # positive (Cholesky), or the pivot of that column is
                # exactly zero (LU)
                kernel = "dgbtrf" if self._lu else "dpbtrf"
                raise RuntimeError(f"banded factorization failed "
                                   f"({kernel} info {info})")
            shift = None
        self._fac, self._piv = fac, piv
        self._reusable = self._constant and shift is None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``A^-1 rhs`` with the last factorization, for one right-hand
        side or a block of them in columns; LAPACK solves each column
        alone, so a column's solution does not depend on the others."""
        lapack = _lapack()
        self.stats["solves"] += 1
        if self._lu:
            k = self.pat.bandwidth
            x, info = lapack.dgbtrs(self._fac, k, k, rhs, self._piv)
        else:
            x, info = lapack.dpbtrs(self._fac, rhs, lower=1)
        if info != 0:
            raise RuntimeError(f"banded solve failed (info {info})")
        return x

    def direction(self, grad, rho: np.ndarray, shift=None) -> np.ndarray:
        """Solve ``A d = qw * rho`` on the interior, ``A`` the tangent at
        the cell gradient ``grad`` minus ``diag(shift)``, plus
        ``sum_j b_j b_j^T`` for the penalty rows; nodal ``d``, zero
        trace.  ``rho`` may stack densities over a leading axis: they are
        solved in one call, and ``d`` keeps the stack."""
        dom = self.setup.dom
        idx = self.pat.idx
        self.factor(grad, shift)
        rhs = np.take((dom.node_qw * rho).reshape(-1, dom.interior.size),
                      idx, axis=1)
        d = self.solve(rhs.T)
        if self.rows is not None:
            lapack = _lapack()
            if self._kb is None:
                self._kb = self.solve(self.rows.T)
                # the LU factors of the small matrix (LAPACK dgetrf, as
                # np.linalg.solve takes them)
                lu, piv, info = lapack.dgetrf(
                    np.eye(len(self.rows)) + self.rows @ self._kb)
                if info != 0:
                    raise RuntimeError(f"Woodbury matrix is singular "
                                       f"(dgetrf info {info})")
                self._small = lu, piv
            # one right-hand side at a time, as a matrix product on the
            # block rounds differently; the columns of the column-major
            # solution are contiguous
            for x in d.T:
                x -= self._kb @ lapack.dgetrs(*self._small,
                                              self.rows @ x)[0]
        flat = np.zeros((d.shape[1], dom.interior.size))
        flat.T[idx] = d
        return flat.reshape(rho.shape)


def _tangents(setup: EnergySetup, count: int, shifted: bool,
              penalty_rows, stats: dict, lu: bool = False) -> list:
    """The tangent of each of ``count`` rows, factored by LU when ``lu``
    and by Cholesky otherwise (see :class:`_Tangent`).  A constant
    tangent that is never shifted is one instance shared by all rows, so
    it is factored once per batch; otherwise each row owns one.  So rows
    share their tangent exactly when the first and the last do."""
    first = _Tangent(setup, penalty_rows, stats, lu)
    if first._constant and not shifted:
        return [first] * count
    return [first] + [_Tangent(setup, penalty_rows, stats, lu)
                      for _ in range(count - 1)]


def _directions(tangents: list, ids, point: _Point, rho: np.ndarray,
                shift=None):
    """Tangent solves (:meth:`_Tangent.direction`) for the stacked
    ``rho``, row ``i`` with the tangent of start ``ids[i]`` at the cell
    gradient of row ``i`` of ``point``, minus ``diag(shift[i])`` when
    ``shift`` is given; a row may stack several densities, as the
    polisher's two.  Rows that share a tangent (never shifted) solve in
    one call.  A failed factorization or solve leaves NaN in its rows."""
    # one call for one row, or for rows sharing their tangent (see
    # _tangents)
    shared = tangents[ids[0]] is tangents[ids[-1]]
    d = np.full(rho.shape, np.nan)
    for i in range(1 if shared else len(ids)):
        part = slice(None) if shared else i
        try:
            d[part] = tangents[ids[i]].direction(
                point.row_grad(i), rho[part],
                None if shift is None else shift[i])
        except RuntimeError:
            pass
    return d


def _single(outcomes: list):
    """The ``(pair, converged)`` of a one-start call of a solver loop,
    raising the start's error."""
    (pair, converged), = outcomes
    if isinstance(pair, Exception):
        raise pair
    return pair, converged


def _evaluated(point: _Point, ids, out: list):
    """``(point, kept)``: the rows of ``point`` that evaluated, ``kept``
    indexing them (``slice(None)`` when all did; ``point`` is None when
    none did).  A failed row's start ``ids[i]`` ends in ``out`` with its
    error."""
    if not point.failed:
        return point, slice(None)
    for i, err in point.failed.items():
        out[ids[i]] = (err, False)
    kept = np.setdiff1d(np.arange(len(ids)), list(point.failed))
    return (point.take(kept) if kept.size else None), kept


def _every(rows, count: int):
    """``rows`` as an index, a slice (no copy) when it holds all
    ``count`` rows of the batch."""
    return rows if len(rows) < count else slice(None)


def _line_search(count: int, search: np.ndarray, trial_at, accept,
                 tries: int, stats: dict):
    """Batched backtracking (Nocedal and Wright, *Numerical Optimization*,
    ch. 3) for the rows ``search`` of a batch of ``count``: each row's step
    is 1 first and halves after each rejected trial, for ``tries`` trials.
    ``trial_at(sel, step)`` evaluates the rows ``sel`` as :func:`_evaluated`
    does, and ``accept(trial, sel, step)`` tests them.  Returns the
    accepted ``(batch rows, trial point)``, in the order the rows were
    accepted (None when no row moved), the rows that stalled, and each
    row's last step."""
    step = np.ones(count)
    accepted = []
    for _ in range(tries):
        if not search.size:
            break
        sel = _every(search, count)
        stats["trials"] += len(search)
        trial, kept = trial_at(sel, step[sel])
        search = search[kept]
        if not search.size:
            break
        sel = _every(search, count)
        ok = accept(trial, sel, step[sel])
        if ok.all():
            accepted.append((search, trial))
            search = search[:0]
            break
        if ok.any():
            accepted.append((search[ok], trial.take(ok)))
        search = search[~ok]
        step[search] *= _BACKTRACK
    if len(accepted) > 1:
        accepted = [(np.concatenate([r for r, _ in accepted]),
                     _Point.join([p for _, p in accepted]))]
    return (accepted[0] if accepted else None), search, step


def _stops(res: np.ndarray, size: np.ndarray, tol: float) -> np.ndarray:
    """The stop test ``res <= tol * (1 + |size|)`` of both loops, per row.
    A row whose residual or size is not finite never passes it, though
    ``inf <= tol * (1 + inf)`` holds."""
    return np.isfinite(res) & np.isfinite(size) & (
        res <= tol * (1.0 + np.abs(size)))


def _exit(p: _Point, ids, out: list, hist: list, iters: int,
          converged: bool, level_set: bool):
    """End the starts ``ids`` at the rows of ``p``: each becomes an
    :class:`EigenPair` with the multiplier ``p.lam``, certified afresh,
    and, unconverged, the last 50 residuals of ``hist``.  An unconverged
    row on a level set takes its Rayleigh multiplier instead.  That is
    always defined there: the row is nonzero with ``J(u)`` near
    ``alpha > 0``, and ``<J'(u), u> >= l1 J(u) > 0`` with ``l1`` the lower
    index of ``Psi``."""
    lam = p.rayleigh() if level_set and not converged else p.lam
    p.stats["iterations"] += iters * len(ids)
    setup = p.setup
    res = _dual_norm(setup, p.residual(lam))
    for i, start in enumerate(ids):
        out[start] = (EigenPair(
            float(lam[i]), GridFunction(setup.dom, p.values[i]),
            float(p.reaction[i]), float(p.level[i]), float(res[i]), iters,
            [] if converged else hist[start][-50:], p.stats), converged)


def _iterate(u: _Point, ids, out: list, opts: SolverOptions, head, step,
             level_set: bool) -> list:
    """The iteration of both solver loops on the evaluated starts ``u``,
    row ``i`` the start ``ids[i]`` (``u`` is None when no start evaluated).
    Each iteration ``head(u)`` returns the residuals and the stop mask,
    with the multipliers in ``u.lam``, and ``step(u, ids)`` returns
    :func:`_line_search`'s ``(moved, stalled)``.  A row leaves through
    :func:`_exit` when it stops, stalls or runs out of budget."""
    if not ids.size:
        return out
    hist = [[] for _ in out]
    iters = 0
    for iters in range(opts.max_iter + 1):
        res, done = head(u)
        for i, r in zip(ids.tolist(), res.tolist()):
            hist[i].append(r)
        if done.any():
            _exit(u.take(done), ids[done], out, hist, iters, True,
                  level_set)
            if done.all():
                return out
            u, ids = u.take(~done), ids[~done]
        if iters == opts.max_iter:
            break
        moved, stalled = step(u, ids)
        if stalled.size:
            _exit(u.take(stalled), ids[stalled], out, hist, iters, False,
                  level_set)
        if moved is None:
            return out
        rows, u = moved
        ids = ids[rows]
    _exit(u, ids, out, hist, iters, False, level_set)
    return out


def _descend(setup: EnergySetup, alpha: float | None, starts: np.ndarray,
             opts: SolverOptions, anchors=(), mu: float = 0.0,
             lam0: float = 0.0, stats: dict | None = None) -> list:
    """Core preconditioned descent loop on a stack of starts.

    ``starts`` stacks zero-trace nodal values over a leading axis; the
    rows iterate in lockstep (:func:`_iterate`), and one
    ``(pair, converged)`` is returned per start, equal to what the start
    gives alone.  A start whose point cannot be evaluated (see
    :class:`_Point`) gets ``(DomainError, False)`` instead, and the other
    rows run on; a one-start caller raises it (:func:`_single`).

    Minimizes ``I`` on ``J = alpha``, projecting the start and every trial
    and taking the Rayleigh multiplier.  ``alpha=None`` descends freely on
    ``I - lam0 J`` with multiplier ``lam0`` and stop test
    ``tol * (1 + |I - lam0 J|)``; its direction is the Newton step with
    the tangent minus ``lam0`` times the reaction curvature, because the
    tangent of ``I`` alone only halves the error along the ray through a
    critical point per step (at tol 1e-6 it stopped 3% off in I on the
    n=61 disc).  That shifted tangent is factored by Cholesky, as every
    tangent of this loop; where it is not positive definite, its pivot
    fails and :meth:`_Tangent.factor` factors the unshifted tangent.  A
    direction that is not finite or does not descend is replaced by the
    steepest descent direction, the residual density.

    Far from a critical point that Newton step only scales the amplitude
    by ``(p - 2)/(p - 1)`` on a ``p``-homogeneous ``I`` (a half for
    ``p = 3``), so the free descent extends every row that takes the
    full step (Nocedal and Wright, *Numerical Optimization*, sec. 3.5):
    the cubic model of its merit ``m(t)`` at ``u - t d`` is fitted to
    ``m(0)``, ``m'(0)``, ``m(1)`` and ``m'(1) = -<rho(trial), d>``, and
    where ``m'(1) < 0`` and the model's local minimizer lies beyond 1,
    that point, capped at ``_EXTEND_MAX``, is one more trial, which
    replaces the row's trial in place when its merit is lower.  An
    extension trial that cannot be evaluated is dropped; it never ends
    its row.  The descent on a level set takes no extension: its trials
    are projected onto ``J = alpha``, off the line the model describes.

    With ``anchors`` the merit is ``I + mu sum_j c_j^2`` and the
    preconditioner adds the penalty's rank-one curvature per anchor
    through the Woodbury identity on the stiffness's factorization.
    Without it the full step overshoots along the anchors and the line
    search backtracks.

    The start and every trial are one :class:`_Point` per batch, which
    carries the merit terms and, at an iterate, the multiplier ``lam``
    and the residual density ``rho``.  Each row keeps its own Armijo
    step.  The work of all rows is counted in ``stats`` (a fresh dict
    when not given), which every returned pair carries.
    """
    dom = setup.dom
    free = alpha is None
    stats = _new_stats() if stats is None else stats
    penalized = bool(anchors) and mu != 0.0
    tangents = _tangents(setup, len(starts), free, _penalty_rows(
        dom, anchors, mu) if penalized else None, stats)
    out = [None] * len(starts)

    def merit_terms(p):
        """Set the merit terms of the point ``p``."""
        p.energy = p.level - lam0 * p.reaction if free else p.level
        pen, p.pen_dens = _penalty_density(dom, p.values, anchors, mu)
        p.merit = p.energy + pen

    def point(values, ids):
        """:func:`_evaluated` at nodal ``values`` of the starts ``ids``,
        with the merit terms."""
        p, kept = _evaluated(_Point(setup, values, stats, alpha), ids, out)
        if p is not None:
            merit_terms(p)
        return p, kept

    def head(u):
        if free:
            u.lam = np.full(len(u.values), float(lam0))
        else:
            # the multiplier must project out the full merit gradient, or
            # the stop test can never fire at a penalized stationary point
            u.lam = u.rayleigh(u.pen_dens if penalized else None)
        # the anchors, and so the penalty density, are zero off the interior
        u.rho = u.residual(u.lam) + u.pen_dens
        res = _dual_norm(setup, u.rho)
        return res, _stops(res, u.energy, opts.tol)

    def step(u, ids):
        rho = u.rho
        d = _directions(tangents, ids, u, rho, lam0 * _reaction_curvature(
            setup, u.values) if free else None)
        # a failed solve's NaN slope is not negative
        slope = -_qw_dots(dom, rho, d)
        steep = ~((slope < 0) & np.isfinite(d).reshape(len(d), -1).all(1))
        if steep.any():
            d[steep] = rho[steep]
            slope[steep] = -_qw_dots(dom, rho[steep], rho[steep])
        moved, stalled, t = _line_search(
            len(ids), np.arange(len(ids)),
            lambda sel, t: point(u.values[sel] - _rows(t, dom) * d[sel],
                                 ids[sel]),
            lambda trial, sel, t: trial.merit <= (
                u.merit[sel] + _ARMIJO_C1 * t * slope[sel]),
            60, stats)
        if free and moved is not None:
            extend(u, d, slope, *moved, t)
        return moved, stalled

    def extend(u, d, slope, rows, trial, t):
        """Replace, in place, each row of ``trial`` that took the full
        step by the minimizer of the cubic model of its merit along the
        line, when that lies beyond 1 and is lower."""
        full = np.flatnonzero(t[rows] == 1.0)
        if not full.size:
            return
        at = rows[full]
        # the model m(s) = f0 + g0 s + c s^2 + e s^3 of the merit at
        # u - s d matches m(0), m'(0), m(1) and m'(1) = -<rho(trial), d>
        grad1 = (trial.residual(np.full(len(trial.values), lam0))
                 + trial.pen_dens)
        f0, g0, f1 = u.merit[at], slope[at], trial.merit[full]
        g1 = -_qw_dots(dom, grad1[full], d[at])
        df = f1 - f0
        c, e = 3.0 * df - 2.0 * g0 - g1, g0 + g1 - 2.0 * df
        # the model's local minimizer; NaN, infinite or not positive where
        # it has none, and a model that falls without end says nothing of
        # the merit
        with np.errstate(divide="ignore", invalid="ignore"):
            s_min = -g0 / (c + np.sqrt(c * c - 3.0 * e * g0))
        grow = np.flatnonzero((g1 < 0) & (s_min > 1.0) & np.isfinite(s_min))
        if not grow.size:
            return
        s_ext = np.minimum(s_min[grow], _EXTEND_MAX)
        at, full = at[grow], full[grow]
        stats["trials"] += grow.size
        ext = _Point(setup, u.values[at] - _rows(s_ext, dom) * d[at], stats)
        # a failed row's terms are not finite and are dropped below
        with np.errstate(over="ignore", invalid="ignore"):
            merit_terms(ext)
        better = ext.merit < trial.merit[full]
        better[list(ext.failed)] = False
        if better.any():
            if not better.all():
                ext = ext.take(better)
            # the trial's densities of I' and J' were taken for m'(1):
            # put overwrites them too
            _ = ext.d_I, ext.d_J
            trial.put(full[better], ext)

    u, kept = point(starts, np.arange(len(starts)))
    return _iterate(u, np.arange(len(starts))[kept], out, opts, head, step,
                    not free)


def _newton_polish(setup: EnergySetup, alpha: float, starts: np.ndarray,
                   opts: SolverOptions, stats: dict | None = None) -> list:
    """Converge to the critical point nearest to each start, saddles
    included.

    Damped Newton on the bordered stationarity system

        qw * (I'(u) - lam J'(u)) = 0 on the interior,   J(u) = alpha,

    with the tangent stiffness of ``I`` standing in for its second
    derivative, exact where the curvature dominates the secant slope, and
    the exact diagonal ``qw * w1 * psi'(|u|)`` for that of ``J``.  A step
    ``t`` passes Deuflhard's natural monotonicity test (*Newton Methods
    for Nonlinear Problems*, Springer 2004, ch. 3) when the simplified
    correction at the trial, one more solve with the row's held
    factorization, is at most ``1 - t/4`` times the Newton correction
    ``(du, dlam)`` in the Euclidean norm.  No merit is descended, so the
    iteration cannot slide off a sign-changing saddle toward the ground
    state the way plain energy descent does.  The start and every trial
    are one :class:`_Point` per batch, which carries the multiplier
    ``lam``, the residual density and the level gap; an accepted trial's
    row is that row's next iterate, so the loop head adds only ``I`` and
    the dual norm.  ``starts`` is a stack as in :func:`_descend`, and so
    are the iteration (:func:`_iterate`), the returned
    ``(pair, converged)`` per start, the errors and ``stats``; each row
    factors its own shifted system by LU.
    """
    dom = setup.dom
    stats = _new_stats() if stats is None else stats
    tangents = _tangents(setup, len(starts), True, None, stats, lu=True)
    idx = dom.stiffness_pattern.idx
    out = [None] * len(starts)

    def residual_at(p, lam):
        """Set the residual terms of ``p`` at the multipliers ``lam``."""
        p.lam = lam
        p.res_dens = p.residual(lam)
        p.jgap = p.reaction - alpha

    def head(u):
        res = _dual_norm(setup, u.res_dens)
        # at convergence |J - alpha| is so small that the pair's J(u) is
        # alpha + jgap exactly (Sterbenz)
        return res, (_stops(res, u.level, opts.tol)
                     & (np.abs(u.jgap) <= 1e-9 * alpha))

    def step(u, ids):
        count = len(ids)
        # the two solves of the bordered system, A (k_f, k_b) = (f, b) with
        # A the tangent minus lam times the reaction curvature and b = qw J';
        # a failed solve leaves NaN, so its row is stuck below
        k = _directions(tangents, ids, u,
                        np.stack([u.res_dens, u.d_J], axis=1),
                        u.lam[:, None] * _reaction_curvature(setup, u.values))
        k = np.take(k.reshape(count, 2, -1), idx, axis=2)
        bvec = np.take((dom.node_qw * u.d_J).reshape(count, -1), idx, axis=1)
        denom = np.array([float(b @ k_b) for b, k_b in zip(bvec, k[:, 1])])

        def correction(i, k_f, jgap):
            """Row ``i``'s correction ``(du, dlam)`` of the bordered system
            and its Euclidean norm, from ``k_f = A^-1 f`` and the row's
            ``k_b`` and ``denom``."""
            dlam_i = (float(bvec[i] @ k_f) - jgap) / denom[i]
            du_i = -k_f + dlam_i * k[i, 1]
            return du_i, dlam_i, math.sqrt(float(du_i @ du_i)
                                           + dlam_i * dlam_i)

        du = np.empty((count, idx.size))
        dlam, norm = np.empty(count), np.full(count, np.nan)
        for i in np.flatnonzero(denom != 0.0):
            du[i], dlam[i], norm[i] = correction(i, k[i, 0], u.jgap[i])

        def trial_at(sel, t):
            """The trial points ``u + t du`` of the rows ``sel``."""
            flat = u.values[sel].reshape(len(t), -1).copy()
            flat[:, idx] += t[:, None] * du[sel]
            return _evaluated(_Point(setup, flat.reshape(
                (-1,) + dom.node_shape), stats), ids[sel], out)

        def accept(trial, sel, t):
            """The natural monotonicity test at the multipliers
            ``lam + t dlam``; a non-finite norm rejects."""
            residual_at(trial, u.lam[sel] + t * dlam[sel])
            # np.take keeps each row contiguous, which a dot product's
            # rounding depends on; fancy indexing on the second axis
            # does not
            f_t = np.take((dom.node_qw * trial.res_dens).reshape(len(t), -1),
                          idx, axis=1)
            rows = np.arange(count)[sel]
            norm_t = np.array([correction(i, tangents[ids[i]].solve(f),
                                          gap)[2]
                               for i, f, gap in zip(rows, f_t, trial.jgap)])
            return norm_t <= (1.0 - 0.25 * t) * norm[rows]

        # a singular linearization (zero or non-finite denom) or a
        # non-finite correction is stuck, as is a stalled row
        stuck = ~np.isfinite(norm)
        moved, stalled, _ = _line_search(count, np.flatnonzero(~stuck),
                                         trial_at, accept, 30, stats)
        stuck[stalled] = True
        return moved, np.flatnonzero(stuck)

    u, kept = _evaluated(_Point(setup, starts, stats, alpha),
                         np.arange(len(starts)), out)
    if u is not None:
        residual_at(u, u.rayleigh())
    return _iterate(u, np.arange(len(starts))[kept], out, opts, head, step,
                    True)


def minimize_on_level(setup: EnergySetup, alpha: float,
                      init: GridFunction | None = None,
                      opts: SolverOptions | None = None) -> EigenPair:
    """Solve the level-constrained minimization and certify the eigenpair.

    Descends from ``init`` (default: the one-signed bump) until the dual
    norm of the projected gradient drops below ``tol * (1 + I(u))``.  A
    minimizer with negative values is handed back to the descent as its
    absolute value, which has the same ``J`` and no larger ``I``: the
    descent's first head certifies it when it is already critical, or the
    descent goes on from there.  The pair's ``iterations`` and ``stats``
    count both descents.  Raises :class:`NonConvergenceError` with the
    last iterate and residual history when the budget of a descent runs
    out or its line search stalls.
    """
    if alpha <= 0:
        raise DomainError("level alpha must be positive")
    if opts is None:
        opts = SolverOptions()
    if init is None:
        init = default_init(setup.dom)
    stats = _new_stats()
    pair, ok = _single(_descend(setup, alpha, init.values[None], opts,
                                stats=stats))
    if ok and np.any(pair.u.values < 0):
        pair, ok = _single(_descend(setup, alpha,
                                    np.abs(pair.u.values)[None], opts,
                                    stats=stats))
    # the loop stops at the budget before it searches a line
    budget = pair.iterations == opts.max_iter
    # one row per descent: the iterations of both
    pair.iterations = stats["iterations"]
    if not ok:
        cause = ("no convergence" if budget
                 else "no convergence: the line search stalled")
        raise NonConvergenceError(
            f"{cause} after {pair.iterations} iterations "
            f"(last residual {pair.residual:.3e})",
            last=pair)
    return pair


# --------------------------------------------------------------------------
# Ljusternik-Schnirelmann ladder


def _subinterval_pair(setup: EnergySetup, j: int, k: int, level: float,
                      opts: SolverOptions):
    """Solve the one-bump problem on the j-th of k equal subintervals,
    restricting both weights by interpolation; returns nodal values of the
    sub-solution interpolated back onto the parent grid (zero outside),
    and the solve's stats."""
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
    return vals, pair.stats


def _ls_1d(setup: EnergySetup, alpha: float, k_max: int,
           opts: SolverOptions) -> list:
    """Rungs 2..k_max as ``(pair, reliable, stats)``, polished from glued
    bumps.  A rung is reliable when its polish converged and its pair
    keeps the k pieces of its glue: k - 1 sign changes among the interior
    values above 1e-3 of max|u|.  The polished pair is kept either way."""
    out = []
    for k in range(2, k_max + 1):
        stats = _new_stats()
        glued = np.zeros(setup.dom.n)
        for j in range(k):
            piece, sub_stats = _subinterval_pair(setup, j, k, alpha / k, opts)
            glued += (-1.0) ** j * piece
            for key in STAT_KEYS:
                stats[key] += sub_stats[key]
        init = GridFunction(setup.dom, glued)
        # the glue is near a sign-changing saddle, so relax with the
        # saddle-capable polisher, not with energy descent
        pair, ok = _single(_newton_polish(setup, alpha, init.values[None],
                                          opts, stats))
        u = pair.u.values[setup.dom.interior]
        signs = np.sign(u[np.abs(u) > 1e-3 * np.max(np.abs(u))])
        nodal = np.count_nonzero(np.diff(signs)) == k - 1
        out.append((pair, bool(ok and nodal), stats))
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
    """Rungs 2..k_max as ``(pair, reliable, stats)``, polished from
    penalized multi-start descents against the pairs found so far.

    The starts of one rung run as one batch through the exploration and
    then through the polish; the candidates are then taken in start
    order, so the choice is the one a start-by-start search makes."""
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
        stats = _new_stats()
        tilts = np.stack([c * np.sign(rng.standard_normal(dom.node_shape)
                                      + 0.5) if k > 2 else c
                          for c in cands])
        # the penalty has to dominate the spectral gap, which scales with
        # the energies themselves
        explored = _descend(setup, alpha, np.where(dom.interior, tilts, 0.0),
                            explore, anchors=found,
                            mu=10.0 * (1.0 + prev.level), stats=stats)
        landed = [i for i, (pen_pair, _) in enumerate(explored)
                  if isinstance(pen_pair, EigenPair)]
        polished = dict(zip(landed, _newton_polish(
            setup, alpha, np.stack([explored[i][0].u.values
                                    for i in landed]), relax, stats)
            if landed else ()))
        for i in landed:
            pair, ok = polished[i]
            if not ok:
                continue
            sep = max((_overlap(dom, pair.u.values, f[0]) for f in found),
                      default=0.0)
            if sep > 0.9:
                continue
            if best is None or (pair.level, pair.residual) < \
                    (best.level, best.residual):
                best = pair
        if best is None:
            # deflation failed to separate; fall back to the previous pair
            out.append((prev, False, stats))
            continue
        found.append((best.u.values, _qw_dot(dom, best.u.values,
                                             best.u.values)))
        out.append((best, True, stats))
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
    rungs = [(first, True, first.stats)] + rest
    return [LSLevel(k, energy_J(setup, scale_to_energy_level(
                        setup, pair.u, alpha)), pair, method, reliable, stats)
            for k, (pair, reliable, stats) in enumerate(rungs, 1)]


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
