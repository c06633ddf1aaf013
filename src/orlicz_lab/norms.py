"""Discretized weighted domains and Orlicz norms.

The continuum objects are a bounded domain, a pair of weights bounded below
by 1, and the modular ``int_Omega w Phi(|u|) dx``.  Here the domain is a
uniform grid over an interval, a square box, or a disc inside its bounding
box; integrals are composite trapezoid sums (mask-clipped on the disc), and
gradients live on cells as forward differences.  The Luxemburg norm is the
level parameter that brings the modular of ``u / xi`` to 1, found by
bisection; that map is continuous and strictly decreasing on a grid, so the
root is unique.

Array layout: nodal values have shape ``(n,)`` in 1D and ``(n, n)`` in 2D
(row-major, x index first).  Cell quantities have one fewer entry per axis.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DomainError, OrliczLabError
from .util import bisect_decreasing
from .young import YoungFunction

__all__ = [
    "GridDomain",
    "WeightField",
    "GridFunction",
    "gradient_components",
    "gradient_magnitude",
    "gradient_adjoint",
    "modular",
    "modular_values",
    "luxemburg_norm",
    "luxemburg_values",
    "gradient_norm",
    "sobolev_norm",
    "holder_check",
    "poincare_estimate",
    "smooth_candidates",
    "save_values_csv",
    "load_values_csv",
    "domain_from_config",
]


class GridDomain:
    """Uniform grid over an interval, a square box, or a disc.

    ``mask`` marks nodes belonging to the closed domain, ``interior`` the
    zero-trace degrees of freedom (mask eroded by one ring).  ``node_qw``
    are trapezoid quadrature weights, zeroed off the mask; ``cell_qw`` is
    the uniform cell volume.  ``x0`` is the center and ``D`` the exact
    inradius, so the ball ``B(x0, D)`` lies inside the domain.
    """

    def __init__(self, kind: str, extent, n: int):
        if n < 4:
            raise DomainError("need at least 4 nodes per axis")
        self.kind = kind
        self.n = int(n)
        if kind == "interval":
            a, b = float(extent[0]), float(extent[1])
            if not b > a:
                raise DomainError("interval extent needs a < b")
            self.ndim = 1
            self.h = (b - a) / (n - 1)
            self.axis = np.linspace(a, b, n)
            self.nodes = self.axis[:, None]
            self.mask = np.ones(n, dtype=bool)
            self.interior = np.zeros(n, dtype=bool)
            self.interior[1:-1] = True
            qw = np.full(n, self.h)
            qw[[0, -1]] = 0.5 * self.h
            self.node_qw = qw
            self.x0 = np.array([0.5 * (a + b)])
            self.D = 0.5 * (b - a)
            self.measure = b - a
            self.extent = (a, b)
        elif kind in ("box", "disc"):
            if kind == "box":
                a, b = float(extent[0]), float(extent[1])
                if not b > a:
                    raise DomainError("box extent needs a < b")
            else:
                radius = float(extent[0])
                if not radius > 0:
                    raise DomainError("disc needs a positive radius")
                a, b = -radius, radius
            self.ndim = 2
            self.h = (b - a) / (n - 1)
            self.axis = np.linspace(a, b, n)
            gx, gy = np.meshgrid(self.axis, self.axis, indexing="ij")
            self.nodes = np.stack([gx, gy], axis=-1)
            self.x0 = np.array([0.5 * (a + b), 0.5 * (a + b)])
            w1 = np.full(n, self.h)
            w1[[0, -1]] = 0.5 * self.h
            if kind == "box":
                self.mask = np.ones((n, n), dtype=bool)
                self.interior = np.zeros((n, n), dtype=bool)
                self.interior[1:-1, 1:-1] = True
                self.node_qw = np.outer(w1, w1)
                self.D = 0.5 * (b - a)
                self.measure = (b - a) ** 2
                self.extent = (a, b)
            else:
                r2 = (gx - self.x0[0]) ** 2 + (gy - self.x0[1]) ** 2
                self.mask = r2 <= radius * radius * (1 + 1e-12)
                inner = self.mask.copy()
                inner[1:, :] &= self.mask[:-1, :]
                inner[:-1, :] &= self.mask[1:, :]
                inner[:, 1:] &= self.mask[:, :-1]
                inner[:, :-1] &= self.mask[:, 1:]
                inner[[0, -1], :] = False
                inner[:, [0, -1]] = False
                self.interior = inner
                self.node_qw = np.outer(w1, w1) * self.mask
                self.D = radius
                self.measure = math.pi * radius * radius
                self.extent = (radius,)
        else:
            raise DomainError(f"unknown domain shape '{kind}'")
        self.node_qw.setflags(write=False)
        self.mask.setflags(write=False)
        self.interior.setflags(write=False)

    @property
    def cell_qw(self) -> float:
        return self.h ** self.ndim

    @property
    def node_shape(self):
        return (self.n,) if self.ndim == 1 else (self.n, self.n)

    @property
    def cell_shape(self):
        m = self.n - 1
        return (m,) if self.ndim == 1 else (m, m)

    @cached_property
    def stiffness_pattern(self) -> "StiffnessPattern":
        """Sparsity of stiffness matrices on the interior nodes, built on
        first use."""
        return StiffnessPattern(self)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<GridDomain {self.kind} n={self.n} h={self.h:.3g}>"


class StiffnessPattern:
    """Interior sparsity of ``sum_c G_c^T A_c G_c`` over the cells.

    ``G_c`` is the local stencil of :func:`gradient_components` (both ends
    of the cell in 1D; base, right and top corner in 2D) and ``A_c`` a
    per-cell ``ndim x ndim`` tensor.  The pattern keeps the entries between
    interior nodes (flat indices ``idx``), their scatter into CSC storage
    and the positions of the diagonal, so assembly only computes values.
    """

    def __init__(self, dom: GridDomain):
        n = dom.n
        if dom.ndim == 1:
            base = np.arange(n - 1)
            self.stencil = np.array([[-1.0, 1.0]]) / dom.h
            nodes = np.stack([base, base + 1])
        else:
            ii, jj = np.meshgrid(np.arange(n - 1), np.arange(n - 1),
                                 indexing="ij")
            base = (ii * n + jj).ravel()
            self.stencil = np.array([[-1.0, 1.0, 0.0],
                                     [-1.0, 0.0, 1.0]]) / dom.h
            nodes = np.stack([base, base + n, base + 1])
        self.idx = np.flatnonzero(dom.interior.ravel())
        size = self.idx.size
        red = np.full(dom.interior.size, -1, dtype=np.int64)
        red[self.idx] = np.arange(size)
        # local entry (i, j) of a cell couples nodes[i] with nodes[j]
        rows = red[np.repeat(nodes, len(nodes), axis=0)].ravel()
        cols = red[np.tile(nodes, (len(nodes), 1))].ravel()
        self.keep = (rows >= 0) & (cols >= 0)
        keys, self.scatter = np.unique(cols[self.keep] * size
                                       + rows[self.keep], return_inverse=True)
        self.indices = keys % size
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // size, minlength=size))])
        self.diag = np.searchsorted(keys, np.arange(size) * (size + 1))
        self.shape = (size, size)

    def assemble(self, tensor: np.ndarray) -> np.ndarray:
        """CSC values for per-cell tensors of shape ``(ndim, ndim, cells)``."""
        local = np.einsum("ki,klc,lj->ijc", self.stencil, tensor,
                          self.stencil)
        return np.bincount(self.scatter, weights=local.ravel()[self.keep],
                           minlength=self.indices.size)

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


class WeightField:
    """Nodal weight samples; the continuum weights are bounded below by 1."""

    def __init__(self, domain: GridDomain, values):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.node_shape:
            raise DomainError("weight values must match the node layout")
        if not np.all(np.isfinite(values)):
            raise DomainError("weights must be finite")
        if np.any(values[domain.mask] < 1.0):
            raise DomainError("weights must be >= 1 everywhere on the domain")
        self.domain = domain
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, domain: GridDomain, value: float = 1.0):
        return cls(domain, np.full(domain.node_shape, float(value)))

    @classmethod
    def from_callable(cls, domain: GridDomain, fn):
        pts = domain.nodes
        if domain.ndim == 1:
            vals = np.asarray([fn(p[0]) for p in pts], dtype=float)
        else:
            vals = np.asarray(
                [[fn(x, y) for y in domain.axis] for x in domain.axis])
        return cls(domain, vals)

    @classmethod
    def from_csv(cls, domain: GridDomain, path):
        return cls(domain, load_values_csv(domain, path))

    def cell_values(self) -> np.ndarray:
        """Corner-mean samples on cells, used for gradient-side integrals."""
        v = self.values
        if self.domain.ndim == 1:
            return 0.5 * (v[:-1] + v[1:])
        return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])


class GridFunction:
    """Nodal values with a trace flag; zero-trace values vanish off the
    interior exactly (they are forced to zero at construction)."""

    def __init__(self, domain: GridDomain, values, trace: str = "zero"):
        if trace not in ("zero", "free"):
            raise DomainError("trace must be 'zero' or 'free'")
        values = np.asarray(values, dtype=float)
        if values.shape != domain.node_shape:
            raise DomainError("values must match the node layout")
        if not np.all(np.isfinite(values)):
            raise DomainError("nodal values must be finite")
        if trace == "zero":
            values = np.where(domain.interior, values, 0.0)
        elif not np.all(values[~domain.mask] == 0.0):
            raise DomainError("values must vanish outside the domain mask")
        self.domain = domain
        self.values = values
        self.trace = trace
        self.values.setflags(write=False)

    @classmethod
    def from_callable(cls, domain: GridDomain, fn, trace: str = "zero"):
        if domain.ndim == 1:
            vals = np.asarray([fn(x) for x in domain.axis], dtype=float)
        else:
            vals = np.asarray(
                [[fn(x, y) for y in domain.axis] for x in domain.axis])
        return cls(domain, vals, trace)

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.domain, s * self.values, self.trace)

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"<GridFunction on {self.domain.kind} "
                f"max|u|={np.max(np.abs(self.values)):.3g}>")


def _same_domain(*objs):
    doms = {id(o.domain) for o in objs}
    if len(doms) != 1:
        raise DomainError("operands live on different domains")
    return objs[0].domain


# --------------------------------------------------------------------------
# gradients on cells


def gradient_components(domain: GridDomain, values: np.ndarray):
    """Forward differences per cell, anchored at the cell's base corner.

    In 2D each component is the difference along one edge leaving the base
    corner.  Unlike edge-averaged stencils this one has no spurious
    checkerboard kernel, and for quadratic energies of zero-trace functions
    it reproduces the classical 5-point stiffness exactly.
    """
    h = domain.h
    if domain.ndim == 1:
        return ((values[1:] - values[:-1]) / h,)
    gx = (values[1:, :-1] - values[:-1, :-1]) / h
    gy = (values[:-1, 1:] - values[:-1, :-1]) / h
    return (gx, gy)


def gradient_magnitude(domain: GridDomain, values: np.ndarray) -> np.ndarray:
    comps = gradient_components(domain, values)
    if len(comps) == 1:
        return np.abs(comps[0])
    return np.hypot(comps[0], comps[1])


def gradient_adjoint(domain: GridDomain, cell_fields) -> np.ndarray:
    """Exact adjoint of :func:`gradient_components` under plain summation:
    returns nodal ``d`` with ``sum(d * v) = sum_c q_c . grad(v)_c``."""
    h = domain.h
    if domain.ndim == 1:
        (q,) = cell_fields
        out = np.zeros(domain.node_shape)
        out[1:] += q / h
        out[:-1] -= q / h
        return out
    qx, qy = cell_fields
    out = np.zeros(domain.node_shape)
    out[1:, :-1] += qx
    out[:-1, :-1] -= qx
    out[:-1, 1:] += qy
    out[:-1, :-1] -= qy
    return out / h


# --------------------------------------------------------------------------
# modulars and norms (raw-array kernels + GridFunction wrappers)


def modular_values(phi: YoungFunction, weight: np.ndarray, qw,
                   rows: np.ndarray) -> np.ndarray:
    """Batched modular ``sum qw * weight * Phi(|row|)`` over leading axes."""
    flat = np.abs(rows).reshape(rows.shape[0], -1)
    with np.errstate(over="ignore"):
        vals = np.asarray(phi.value(flat), dtype=float)
    qw_flat = np.ravel(np.asarray(weight, dtype=float) * qw)
    return vals @ qw_flat


def modular(phi: YoungFunction, w: WeightField, u: GridFunction) -> float:
    """Trapezoid approximation of the weighted modular of ``u``."""
    _same_domain(w, u)
    return float(modular_values(phi, w.values, u.domain.node_qw,
                                u.values[None, ...])[0])


def luxemburg_values(phi: YoungFunction, weight: np.ndarray, qw,
                     rows: np.ndarray) -> np.ndarray:
    """Batched Luxemburg norms of the rows (leading axis indexes functions).

    Bisection on ``xi -> modular(row / xi) - 1`` over the robust bracket
    ``[1e-12, 1e12] * max|row|``; an infinite modular counts as positive,
    which keeps fast-growing Young functions inside the loop.
    """
    rows = np.asarray(rows, dtype=float)
    amax = np.max(np.abs(rows).reshape(rows.shape[0], -1), axis=1)
    out = np.zeros(rows.shape[0])
    live = amax > 0
    if not np.any(live):
        return out
    sub = rows[live]
    scale = amax[live]

    def g(xi):
        return modular_values(phi, weight, qw,
                              sub / xi.reshape((-1,) + (1,) * (sub.ndim - 1))) - 1.0

    out[live] = bisect_decreasing(g, 1e-12 * scale, 1e12 * scale,
                                  iters=160, target_tol=1e-12)
    return out


def luxemburg_norm(phi: YoungFunction, w: WeightField, u: GridFunction) -> float:
    """Luxemburg norm of ``u``; 0 for the zero function."""
    _same_domain(w, u)
    return float(luxemburg_values(phi, w.values, u.domain.node_qw,
                                  u.values[None, ...])[0])


def gradient_norm(phi: YoungFunction, w: WeightField, u: GridFunction) -> float:
    """Luxemburg norm of ``|grad u|`` with cell-sampled weight."""
    dom = _same_domain(w, u)
    mag = gradient_magnitude(dom, u.values)
    return float(luxemburg_values(phi, w.cell_values(), dom.cell_qw,
                                  mag[None, ...])[0])


def sobolev_norm(phi: YoungFunction, psi: YoungFunction, w: WeightField,
                 w1: WeightField, u: GridFunction) -> float:
    """Norm of the zero-trace space: state part plus gradient part."""
    return (luxemburg_norm(psi, w1, u) + gradient_norm(phi, w, u))


def holder_check(phi: YoungFunction, w: WeightField, u: GridFunction,
                 v: GridFunction):
    """Both sides of the weighted Hoelder-type inequality.

    Returns ``(lhs, rhs)`` with ``lhs = int w |u v|`` and
    ``rhs = 2 ||u||_Phi,w ||v||_Phi~,w``; the conjugate norm uses the
    memoized default conjugate table.
    """
    dom = _same_domain(w, u, v)
    lhs = float(np.sum(dom.node_qw * w.values * np.abs(u.values * v.values)))
    rhs = 2.0 * luxemburg_norm(phi, w, u) \
        * luxemburg_norm(phi.conjugate(), w, v)
    return lhs, rhs


# --------------------------------------------------------------------------
# candidate fields and the Poincare-constant estimate


def smooth_candidates(domain: GridDomain, count: int, seed: int = 0) -> np.ndarray:
    """Zero-trace candidate fields: the fundamental bump plus seeded random
    low-frequency combinations (Fourier modes in tensor shapes, radially
    cut-off fields on the disc).  Returns an array of nodal layouts."""
    if count < 1:
        raise DomainError("need at least one candidate")
    rng = np.random.default_rng(seed)
    out = []
    if domain.ndim == 1:
        a, b = domain.extent
        xhat = (domain.axis - a) / (b - a)
        out.append(np.sin(math.pi * xhat))
        while len(out) < count:
            coef = rng.standard_normal(8) / (1.0 + np.arange(8)) ** 2
            u = sum(c * np.sin((k + 1) * math.pi * xhat)
                    for k, c in enumerate(coef))
            out.append(u)
    elif domain.kind == "box":
        a, b = domain.extent
        xhat = (domain.axis - a) / (b - a)
        sx = [np.sin((k + 1) * math.pi * xhat) for k in range(4)]
        out.append(np.outer(sx[0], sx[0]))
        while len(out) < count:
            u = np.zeros(domain.node_shape)
            for k in range(4):
                for l in range(4):
                    c = rng.standard_normal() / (1 + k * k + l * l)
                    u += c * np.outer(sx[k], sx[l])
            out.append(u)
    else:
        radius = domain.D
        dx = domain.nodes[..., 0] - domain.x0[0]
        dy = domain.nodes[..., 1] - domain.x0[1]
        rr = np.hypot(dx, dy) / radius
        base = np.clip(1.0 - rr * rr, 0.0, None)
        out.append(base)
        while len(out) < count:
            p = rng.uniform(1.0, 3.0)
            wobble = 1.0 + 0.3 * np.sin(
                rng.integers(1, 4) * math.pi * dx / radius) * np.cos(
                rng.integers(1, 4) * math.pi * dy / radius)
            out.append(base ** p * wobble)
    cand = np.stack(out[:count])
    return np.where(domain.interior, cand, 0.0)


def poincare_estimate(phi: YoungFunction, psi: YoungFunction, w: WeightField,
                      w1: WeightField, dom: GridDomain, trials: int,
                      seed: int = 0, include_solver: bool = True) -> float:
    """Empirical lower bound for the embedding constant ``C`` in
    ``||u||_Psi,w1 <= C ||grad u||_Phi,w`` over zero-trace fields.

    Maximizes the ratio over seeded smooth candidates, optionally adding one
    constrained-minimizer run, whose optimum is the extremal shape in the
    power case.  If that run fails with one of the package's own errors
    (a structure condition of the setup, or an exhausted iteration budget)
    the sampled bound is returned; any other error propagates.
    """
    if trials < 1:
        raise DomainError("poincare_estimate needs trials >= 1")
    cand = smooth_candidates(dom, trials, seed)
    if include_solver:
        from .eigensolver import SolverOptions, minimize_on_level
        from .functionals import EnergySetup

        # tol 1e-4 takes 8 iterations on the n=81 reference disc against
        # 18 at 1e-6, and the quotient still agrees to 8 digits: it is
        # maximal at the extremal shape, so its error is second order
        opts = SolverOptions(tol=1e-4, max_iter=2000)
        try:
            setup = EnergySetup(phi, psi, w, w1, dom)
            pair = minimize_on_level(setup, 1.0, opts=opts)
        except OrliczLabError:
            pass  # the sampled bound stands on its own
        else:
            cand = np.concatenate([cand, pair.u.values[None, ...]])
    num = luxemburg_values(psi, w1.values, dom.node_qw, cand)
    mags = np.stack([gradient_magnitude(dom, c) for c in cand])
    den = luxemburg_values(phi, w.cell_values(), dom.cell_qw, mags)
    good = den > 0
    if not np.any(good):
        raise DomainError("all candidates degenerate; enlarge trials")
    return float(np.max(num[good] / den[good]))


# --------------------------------------------------------------------------
# I/O and config


def save_values_csv(values: np.ndarray, path):
    np.savetxt(path, np.atleast_2d(values), delimiter=",")


def load_values_csv(domain: GridDomain, path) -> np.ndarray:
    vals = np.loadtxt(path, delimiter=",")
    try:
        return vals.reshape(domain.node_shape)
    except ValueError:
        raise DomainError(
            f"CSV holds {vals.size} values; domain expects "
            f"{int(np.prod(domain.node_shape))}") from None


def domain_from_config(cfg: dict) -> GridDomain:
    """Build a domain from ``{shape: ..., n: ..., extent: [...]}``."""
    if not isinstance(cfg, dict):
        raise ConfigError("domain config must be a mapping")
    body = dict(cfg)
    shape = body.pop("shape", None)
    n = body.pop("n", None)
    extent = body.pop("extent", None)
    if body:
        raise ConfigError(f"unknown key(s) {sorted(body)} in domain config")
    if shape not in ("interval", "box", "disc"):
        raise ConfigError("domain shape must be interval, box, or disc")
    if n is None or extent is None:
        raise ConfigError("domain config needs 'n' and 'extent'")
    try:
        whole = int(n) == n
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"domain 'n' must be an integer, got {n!r}")
    want = 1 if shape == "disc" else 2
    try:
        ext = np.atleast_1d(np.asarray(extent, dtype=float))
    except (TypeError, ValueError):
        ext = None
    if ext is None or ext.shape != (want,):
        raise ConfigError(
            f"domain extent for a {shape} must be a list of {want} "
            f"number(s), got {extent!r}")
    try:
        return GridDomain(str(shape), list(ext), int(n))
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
