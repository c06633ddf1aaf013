"""Discretized weighted domains and Orlicz norms.

The continuum objects are a bounded domain, a pair of weights bounded below
by 1, and the modular ``int_Omega w Phi(|u|) dx``.  Here the domain is a
uniform grid over an interval, a square box, or a disc inside its bounding
box; integrals are composite trapezoid sums (mask-clipped on the disc), and
gradients live on cells as forward differences.  The Luxemburg norm is the
level parameter that brings the modular of ``u / xi`` to 1; that map is
continuous and strictly decreasing on a grid, so the root is unique.
:func:`scale_to_modular` finds it, and every other modular level.

Array layout: nodal values have shape ``(n,)`` in 1D and ``(n, n)`` in 2D
(row-major, x index first).  Cell quantities have one fewer entry per axis.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, OrliczLabError
from .util import REALS, config_values, count, invert_increasing, one_of
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
    "scale_to_modular",
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
    interior nodes (flat indices ``idx``) in column-major order, with their
    interior ``rows`` and ``cols``, the positions of the diagonal, and the
    band layout: the half-bandwidth ``bandwidth = max|i - j|`` and each
    entry's flat position ``band`` in LAPACK general-band storage with
    room for the LU's fill (``3 bandwidth + 1`` rows, column-major).
    Interior nodes keep their row-major numbering, which gives a
    half-bandwidth of ``n - 2`` on the box and 1 in 1D.  Assembly only
    computes values.
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
        self.rows, self.cols = keys % size, keys // size
        self.diag = np.flatnonzero(self.rows == self.cols)
        self.bandwidth = k = int(np.max(np.abs(self.rows - self.cols)))
        # A[i, j] sits in row 2k + i - j of column j: k rows of fill from
        # the row pivoting, then the k superdiagonals, the diagonal and the
        # k subdiagonals
        self.band = self.cols * (3 * k + 1) + 2 * k + self.rows - self.cols

    def assemble(self, tensor: np.ndarray) -> np.ndarray:
        """Entry values for per-cell tensors of shape ``(ndim, ndim, cells)``."""
        local = np.einsum("ki,klc,lj->ijc", self.stencil, tensor,
                          self.stencil)
        return np.bincount(self.scatter, weights=local.ravel()[self.keep],
                           minlength=self.rows.size)


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
    return _modular(phi, np.ravel(np.asarray(weight, dtype=float) * qw), rows)


def _modular(phi: YoungFunction, wq: np.ndarray, rows: np.ndarray
             ) -> np.ndarray:
    """:func:`modular_values` with the weighted quadrature ``wq`` (the
    flattened ``weight * qw``) formed by the caller."""
    flat = np.abs(rows).reshape(rows.shape[0], -1)
    with np.errstate(over="ignore"):
        vals = np.asarray(phi.value(flat), dtype=float)
    return vals @ wq


def modular(phi: YoungFunction, w: WeightField, u: GridFunction) -> float:
    """Trapezoid approximation of the weighted modular of ``u``."""
    _same_domain(w, u)
    return float(modular_values(phi, w.values, u.domain.node_qw,
                                u.values[None, ...])[0])


def scale_to_modular(phi: YoungFunction, wq: np.ndarray, rows: np.ndarray,
                     target: float) -> np.ndarray:
    """Per-row factors ``s`` with ``modular(s * row) = target``; ``inf``
    for a zero row.  ``wq`` is the flattened weighted quadrature
    ``weight * qw`` of the modular.

    With ``ratio = target / modular(row)`` for the row scaled to
    ``max|row| = 1``, the closed-form growth indices ``(l, m)`` of
    ``phi`` (else ``(1, inf)``, which convexity alone gives) bracket the
    factor between ``ratio^(1/l)`` and ``ratio^(1/m)``; for a power the
    bracket has zero width and is the answer.
    """
    if not target > 0:
        raise DomainError("level must be positive")
    rows = np.asarray(rows, dtype=float)
    amax = np.max(np.abs(rows).reshape(rows.shape[0], -1), axis=1)
    live = amax > 0
    scale = np.full(rows.shape[0], np.inf)
    if not np.any(live):
        return scale
    shape = (-1,) + (1,) * (rows.ndim - 1)
    unit = rows[live] / amax[live].reshape(shape)
    l, m = phi.indices() or (1.0, np.inf)
    ratio = target / _modular(phi, wq, unit)
    ends = (ratio ** (1.0 / l), ratio ** (1.0 / m))

    def level(s):
        return _modular(phi, wq, unit * s.reshape(shape))

    scale[live] = invert_increasing(
        level, np.full(ratio.shape, float(target)), lo=np.minimum(*ends),
        hi=np.maximum(*ends), horizon=phi.horizon,
        what=f"{phi.label()} modular") / amax[live]
    return scale


def luxemburg_values(phi: YoungFunction, weight: np.ndarray, qw,
                     rows: np.ndarray) -> np.ndarray:
    """Batched Luxemburg norms of the rows (leading axis indexes functions).

    The norm is ``1 / s`` for the factor ``s`` that brings the modular of
    ``s * row`` to 1; a zero row has norm 0.
    """
    return 1.0 / scale_to_modular(
        phi, np.ravel(np.asarray(weight, dtype=float) * qw), rows, 1.0)


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
                      seed: int = 0) -> float:
    """Empirical lower bound for the embedding constant ``C`` in
    ``||u||_Psi,w1 <= C ||grad u||_Phi,w`` over zero-trace fields.

    Maximizes the ratio over seeded smooth candidates and one
    constrained-minimizer run, whose optimum is the extremal shape in the
    power case.  If that run fails with one of the package's own errors
    (a structure condition of the setup, or an exhausted iteration budget)
    the sampled bound is returned; any other error propagates.
    """
    if trials < 1:
        raise DomainError("poincare_estimate needs trials >= 1")
    cand = smooth_candidates(dom, trials, seed)
    from .eigensolver import SolverOptions, minimize_on_level
    from .functionals import EnergySetup

    # tol 1e-4 takes 8 iterations on the n=81 reference disc against 18 at
    # 1e-6, and the quotient still agrees to 8 digits: it is maximal at the
    # extremal shape, so its error is second order
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
    try:
        vals = np.loadtxt(path, delimiter=",")
    except OSError as exc:
        raise DomainError(f"cannot read CSV {path!r}: {exc}") from None
    except ValueError as exc:
        raise DomainError(f"CSV {path!r} is not numeric: {exc}") from None
    try:
        return vals.reshape(domain.node_shape)
    except ValueError:
        raise DomainError(
            f"CSV holds {vals.size} values; domain expects "
            f"{int(np.prod(domain.node_shape))}") from None


_DOMAIN = {"shape": (one_of("interval", "box", "disc"), ...),
           "n": (count(4), ...), "extent": (REALS, ...)}


def domain_from_config(cfg: dict) -> GridDomain:
    """Build a domain from ``{shape: ..., n: ..., extent: [...]}``."""
    body = config_values(cfg, _DOMAIN, "domain")
    shape, extent = body["shape"], body["extent"]
    want = 1 if shape == "disc" else 2
    if len(extent) != want:
        raise ConfigError(
            f"domain extent for a {shape} must be a list of {want} "
            f"number(s), got {extent!r}")
    try:
        return GridDomain(shape, extent, body["n"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
