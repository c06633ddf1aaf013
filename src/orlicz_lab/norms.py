"""Discretized weighted domains and Orlicz norms.

The continuum objects are a bounded domain, a pair of weights bounded below
by 1, and the modular ``int_Omega w Phi(|u|) dx``.  Here the domain is a
uniform grid over an interval, a square box, or a disc inside its bounding
box; integrals are composite trapezoid sums (mask-clipped on the disc), and
gradients live on cells as forward differences.  That stencil is written
once, as the corner offsets ``GridDomain.corners``: the gradient, its
adjoint, the stiffness pattern and the basis norms of
:mod:`orlicz_lab.functionals` all derive from them.  The Luxemburg norm is
the level parameter that brings the modular of ``u / xi`` to 1; that map
is continuous and strictly decreasing on a grid, so the root is unique.
:func:`scale_to_modular` finds it, and every other modular level.

Array layout: nodal values have shape ``(n,)`` in 1D and ``(n, n)`` in 2D
(row-major, x index first).  Cell quantities have one fewer entry per axis.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, DomainError
from .util import (_HUGE, REALS, config_values, count, invert_increasing,
                   one_of)
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
    "smooth_candidates",
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

    ``corners`` is the cell stencil, the one place it is written: the
    offsets of the base corner ``(0, ..., 0)`` and then of one unit step
    along each axis.  ``corner_ix[k]`` indexes corner ``k`` of every cell
    in a nodal layout, leading axes kept, so ``values[corner_ix[k]]`` has
    the cell layout.  The gradient, its adjoint, the stiffness pattern
    and the basis norms of the energies all derive from these.
    """

    def __init__(self, kind: str, extent, n: int):
        if n < 4:
            raise DomainError("need at least 4 nodes per axis")
        if kind == "disc":
            radius = float(extent[0])
            if not radius > 0:
                raise DomainError("disc needs a positive radius")
            a, b = -radius, radius
            self.extent = (radius,)
        elif kind in ("interval", "box"):
            a, b = float(extent[0]), float(extent[1])
            if not b > a:
                raise DomainError(f"{kind} extent needs a < b")
            self.extent = (a, b)
        else:
            raise DomainError(f"unknown domain shape '{kind}'")
        self.kind = kind
        self.n = int(n)
        self.ndim = 1 if kind == "interval" else 2
        self.h = (b - a) / (n - 1)
        self.axis = np.linspace(a, b, n)
        qw = np.full(n, self.h)
        qw[[0, -1]] = 0.5 * self.h
        qw = reduce(np.multiply.outer, [qw] * self.ndim)
        self.nodes = np.stack(
            np.meshgrid(*[self.axis] * self.ndim, indexing="ij"), axis=-1)
        self.corners = ((0,) * self.ndim,) + tuple(
            tuple(int(i == j) for j in range(self.ndim))
            for i in range(self.ndim))
        self.corner_ix = tuple(
            (Ellipsis,) + tuple(slice(o, o + n - 1) for o in corner)
            for corner in self.corners)
        self.x0 = np.full(self.ndim, 0.5 * (a + b))
        self.D = 0.5 * (b - a)
        self.mask = np.ones(self.node_shape, dtype=bool)
        self.measure = (b - a) ** self.ndim
        if kind == "disc":
            off = self.nodes - self.x0
            self.mask = (off[..., 0] ** 2 + off[..., 1] ** 2
                         <= radius * radius * (1 + 1e-12))
            self.measure = math.pi * radius * radius
        self.node_qw = qw * self.mask
        # a node is interior when it and its neighbours along every axis
        # lie in the mask; the padding puts the grid edge outside
        pad = np.pad(self.mask, 1)
        self.interior = self.mask.copy()
        for ax in range(self.ndim):
            for shift in (-1, 1):
                self.interior &= np.roll(pad, shift, axis=ax)[
                    (slice(1, -1),) * self.ndim]
        self.node_qw.setflags(write=False)
        self.mask.setflags(write=False)
        self.interior.setflags(write=False)

    @property
    def cell_qw(self) -> float:
        return self.h ** self.ndim

    @property
    def node_shape(self):
        return (self.n,) * self.ndim

    @property
    def cell_shape(self):
        return (self.n - 1,) * self.ndim

    @cached_property
    def stiffness_pattern(self) -> "StiffnessPattern":
        """Sparsity of stiffness matrices on the interior nodes, built on
        first use."""
        return StiffnessPattern(self)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<GridDomain {self.kind} n={self.n} h={self.h:.3g}>"


class StiffnessPattern:
    """Interior sparsity of ``sum_c G_c^T A_c G_c`` over the cells.

    ``G_c`` is the local stencil of :func:`gradient_components` on the
    cell's ``corners`` (both ends in 1D; base, right and top corner in
    2D): ``[-1 | Id] / h``, each step corner less the base.  ``A_c`` is a
    per-cell ``ndim x ndim`` tensor.

    Unknown ``r`` is the interior node of flat index ``idx[r]``.  The
    nodes are numbered by the sum of their grid indices, one
    anti-diagonal after the other, where that gives a strictly smaller
    half-bandwidth ``bandwidth = max|i - j|`` than row-major numbering,
    and row-major elsewhere.  The stencil couples ``(i, j)`` only to its
    own anti-diagonal and the two next to it, and a disc's anti-diagonals
    hold about ``1/sqrt(2)`` as many nodes as its rows: the half-bandwidth
    is 28 instead of 38 on the n = 41 disc.  On the box both numberings
    give ``n - 2``, and in 1D they are the same (1).

    :meth:`lower_band` sums the cells' lower-triangle contributions
    straight into LAPACK symmetric-band storage (``bandwidth + 1`` rows,
    column-major, the diagonal first).  :meth:`assemble` sums them into
    the entries between interior nodes, in column-major order with their
    ``rows`` and ``cols``; ``band`` is each entry's flat position in
    LAPACK general-band storage with room for the LU's fill
    (``3 bandwidth + 1`` rows, column-major).  That entry indexing
    (``keep``, ``scatter``, ``rows``, ``cols`` and ``band``) is built on
    first use, as only the saddle polisher's LU reads it.  The products
    of stencil entries are kept as the matrix ``coef``, so assembly only
    computes values: the local entries of every cell in one matrix
    product ``coef @ A``, summed into place.
    """

    def __init__(self, dom: GridDomain):
        # nodes[k] numbers corner k of every cell in the flat node layout
        flat = np.arange(dom.interior.size).reshape(dom.node_shape)
        nodes = np.stack([flat[ix].ravel() for ix in dom.corner_ix])
        unit = np.eye(len(nodes))
        stencil = (unit[1:] - unit[0]) / dom.h

        def corner_unknowns(idx):
            """The unknown of each cell corner, -1 off the interior."""
            red = np.full(dom.interior.size, -1, dtype=np.int64)
            red[idx] = np.arange(idx.size)
            return red[nodes]

        def width(num):
            # a cell's widest coupling joins its highest and its lowest
            # interior corner
            low = np.where(num < 0, dom.interior.size, num).min(axis=0)
            return int(np.max(num.max(axis=0) - low))

        inner = np.flatnonzero(dom.interior.ravel())
        sums = np.indices(dom.node_shape).sum(axis=0).ravel()[inner]
        by_sum = inner[np.argsort(sums, kind="stable")]
        # min keeps the first of equal widths, the row-major numbering
        self.idx, num = min(((idx, corner_unknowns(idx))
                             for idx in (inner, by_sum)),
                            key=lambda pair: width(pair[1]))
        self.bandwidth = k = width(num)
        self._num = num
        rows, cols = self._local_pairs()
        # A[i, j] with i >= j >= 0 sits in row i - j of column j
        self.lower_keep = (cols >= 0) & (rows >= cols)
        low_r, low_c = rows[self.lower_keep], cols[self.lower_keep]
        self.lower_scatter = low_c * (k + 1) + low_r - low_c
        # entry (i, j) of G_c^T A_c G_c is sum_kl G_c[k, i] A_c[k, l]
        # G_c[l, j]: one row of coef per (i, j), one column per (k, l)
        d, m = stencil.shape
        self.coef = np.einsum("ki,lj->ijkl", stencil, stencil).reshape(
            m * m, d * d)

    def _local_pairs(self):
        """The unknowns ``(rows, cols)`` that each local entry couples,
        local entry first, then cell, -1 off the interior: entry (i, j)
        of a cell couples its corners i and j."""
        num = self._num
        return (np.repeat(num, len(num), axis=0).ravel(),
                np.tile(num, (len(num), 1)).ravel())

    def __getattr__(self, name):
        # the entry indexing of the general band is built on first use:
        # only the saddle polisher's LU reads it
        if name not in ("keep", "scatter", "rows", "cols", "band"):
            raise AttributeError(name)
        rows, cols = self._local_pairs()
        self.keep = keep = (rows >= 0) & (cols >= 0)
        size, k = self.idx.size, self.bandwidth
        keys, self.scatter = np.unique(cols[keep] * size + rows[keep],
                                       return_inverse=True)
        self.rows, self.cols = keys % size, keys // size
        # A[i, j] sits in row 2k + i - j of column j: k rows of fill from
        # the row pivoting, then the k superdiagonals, the diagonal and the
        # k subdiagonals
        self.band = self.cols * (3 * k + 1) + 2 * k + self.rows - self.cols
        return getattr(self, name)

    def _local(self, tensor: np.ndarray) -> np.ndarray:
        """Every cell's local entries, local entry first, then cell."""
        return (self.coef @ tensor.reshape(self.coef.shape[1], -1)).ravel()

    def assemble(self, tensor: np.ndarray) -> np.ndarray:
        """Entry values for per-cell tensors of shape ``(ndim, ndim, cells)``."""
        return np.bincount(
            self.scatter, weights=self._local(tensor)[self.keep],
            minlength=self.rows.size)

    def lower_band(self, tensor: np.ndarray) -> np.ndarray:
        """The lower triangle for per-cell tensors of shape
        ``(ndim, ndim, cells)`` in flat symmetric-band storage, each band
        entry summed in the order :meth:`assemble` sums its entry."""
        return np.bincount(
            self.lower_scatter, weights=self._local(tensor)[self.lower_keep],
            minlength=self.idx.size * (self.bandwidth + 1))


class WeightField:
    """Nodal weight samples; the continuum weights are bounded below by 1."""

    def __init__(self, domain: GridDomain, values):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.node_shape:
            raise DomainError("weight values must match the node layout")
        if not np.isfinite(values).all():
            raise DomainError("weights must be finite")
        if (values[domain.mask] < 1.0).any():
            raise DomainError("weights must be >= 1 everywhere on the domain")
        self.domain = domain
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, domain: GridDomain, value: float = 1.0):
        return cls(domain, np.full(domain.node_shape, float(value)))

    @classmethod
    def from_callable(cls, domain: GridDomain, fn):
        return cls(domain, _sample_nodes(domain, fn))

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
        if not np.isfinite(values).all():
            raise DomainError("nodal values must be finite")
        if trace == "zero":
            values = np.where(domain.interior, values, 0.0)
        elif not (values[~domain.mask] == 0.0).all():
            raise DomainError("values must vanish outside the domain mask")
        self.domain = domain
        self.values = values
        self.trace = trace
        self.values.setflags(write=False)

    @classmethod
    def from_callable(cls, domain: GridDomain, fn, trace: str = "zero"):
        return cls(domain, _sample_nodes(domain, fn), trace)

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.domain, s * self.values, self.trace)

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"<GridFunction on {self.domain.kind} "
                f"max|u|={np.max(np.abs(self.values)):.3g}>")


def _sample_nodes(domain: GridDomain, fn) -> np.ndarray:
    """``fn`` at every node in the node layout: ``fn(x)`` in 1D,
    ``fn(x, y)`` in 2D."""
    pts = domain.nodes.reshape(-1, domain.ndim)
    return np.asarray([fn(*p) for p in pts],
                      dtype=float).reshape(domain.node_shape)


def _same_domain(*objs):
    doms = {id(o.domain) for o in objs}
    if len(doms) != 1:
        raise DomainError("operands live on different domains")
    return objs[0].domain


# --------------------------------------------------------------------------
# gradients on cells


def gradient_components(domain: GridDomain, values: np.ndarray):
    """Forward differences per cell, anchored at the cell's base corner.

    Component ``k`` is the difference along the edge from the base corner
    to the step corner ``k + 1`` of ``domain.corners``.  Unlike
    edge-averaged stencils this one has no spurious checkerboard kernel,
    and for quadratic energies of zero-trace functions it reproduces the
    classical 5-point stiffness exactly.  ``values`` may stack nodal
    layouts over leading axes; each component then keeps those axes in
    front of the cell layout, equal slice by slice to the components of
    each layout.
    """
    ix, h = domain.corner_ix, domain.h
    base = values[ix[0]]
    return tuple([(values[end] - base) / h for end in ix[1:]])


def gradient_magnitude(domain: GridDomain, values: np.ndarray) -> np.ndarray:
    """Cell magnitudes of :func:`gradient_components`, stacks included."""
    return _cell_magnitude(gradient_components(domain, values))


def _cell_magnitude(comps) -> np.ndarray:
    """Magnitudes of the cell gradient with components ``comps``."""
    if len(comps) == 1:
        return np.abs(comps[0])
    return np.hypot(comps[0], comps[1])


def gradient_adjoint(domain: GridDomain, cell_fields) -> np.ndarray:
    """Exact adjoint of :func:`gradient_components` under plain summation:
    returns nodal ``d`` with ``sum(d * v) = sum_c q_c . grad(v)_c``.  The
    fields may stack cell layouts over leading axes, as the components
    do; ``d`` then keeps those axes, slice by slice the adjoint of each."""
    ix = domain.corner_ix
    lead = np.shape(cell_fields[0])[:-domain.ndim]
    out = np.zeros(lead + domain.node_shape)
    base = out[ix[0]]  # a view: subtracting from it writes into out
    for end, q in zip(ix[1:], cell_fields):
        out[end] += q
        base -= q
    return out / domain.h


# --------------------------------------------------------------------------
# modulars and norms (raw-array kernels + GridFunction wrappers)
#
# The public functions check their rows once per call, and the kernels
# evaluate the Young functions unchecked: a root search over scaled rows
# pays for no check per evaluation.


def _check_finite(t):
    """The Young evaluators' finiteness check, on rows for the kernels."""
    if not np.isfinite(t).all():
        raise DomainError("t must be finite")


def modular_values(phi: YoungFunction, weight: np.ndarray, qw,
                   rows: np.ndarray) -> np.ndarray:
    """Batched modular ``sum qw * weight * Phi(|row|)`` over leading axes."""
    _check_finite(rows)
    return _modular(phi, np.ravel(np.asarray(weight, dtype=float) * qw), rows)


def _modular(phi: YoungFunction, wq: np.ndarray, rows: np.ndarray
             ) -> np.ndarray:
    """:func:`modular_values` with the weighted quadrature ``wq`` (the
    flattened ``weight * qw``) formed by the caller, on rows the caller
    has checked.

    Each row is reduced by its own dot product, so a row's modular does
    not depend on the rows stacked with it; a matrix-vector product on
    several rows differs from a lone row's dot by up to 1 ulp.
    """
    return _modular_flat(phi, wq, np.abs(rows).reshape(rows.shape[0], -1))


def _modular_flat(phi: YoungFunction, wq: np.ndarray, flat: np.ndarray
                  ) -> np.ndarray:
    """:func:`_modular` of rows given by their absolute values, one
    flattened row each."""
    with np.errstate(over="ignore"):
        vals = phi._value_raw(flat)
    return np.matmul(vals[:, None, :], wq[:, None])[:, 0, 0]


def modular(phi: YoungFunction, w: WeightField, u: GridFunction) -> float:
    """Trapezoid approximation of the weighted modular of ``u``."""
    _same_domain(w, u)
    return float(modular_values(phi, w.values, u.domain.node_qw,
                                u.values[None, ...])[0])


def scale_to_modular(phi: YoungFunction, wq: np.ndarray, rows: np.ndarray,
                     target) -> np.ndarray:
    """Per-row factors ``s`` with ``modular(s * row) = target``; ``inf``
    for a zero row.  ``wq`` is the flattened weighted quadrature
    ``weight * qw`` of the modular.

    With ``ratio = target / modular(row)`` for the row scaled to
    ``max|row| = 1``, the closed-form growth indices ``(l, m)`` of
    ``phi`` (else ``(1, inf)``, which convexity alone gives) bracket the
    factor between ``ratio^(1/l)`` and ``ratio^(1/m)``; for a power the
    bracket has zero width and is the answer, returned here unless it
    lies past the horizon.

    ``target`` is one level, or a 1-D array of levels: then the result
    has one row of factors per level, equal to the factors of that level
    alone.  The row maxima, the unit rows and their modular are formed
    once for all levels, and the root search evaluates the modular one
    level at a time, so no scaled batch is larger than ``rows``.
    """
    targets = np.asarray(target, dtype=float)
    if not (targets > 0).all():
        raise DomainError("level must be positive")
    rows = np.asarray(rows, dtype=float)
    amax = np.abs(rows).reshape(rows.shape[0], -1).max(axis=1)
    # a NaN or an inf in a row is its maximum: one check covers the rows
    _check_finite(amax)
    live = amax > 0
    if not live.all():
        scale = np.full(targets.shape + amax.shape, np.inf)
        if live.any():
            scale[..., live] = scale_to_modular(phi, wq, rows[live], target)
        return scale
    shape = (-1,) + (1,) * (rows.ndim - 1)
    unit = rows / amax.reshape(shape)
    l, m = phi.indices() or (1.0, np.inf)
    levels = targets[..., None]
    ratio = levels / _modular(phi, wq, unit)
    ends = (ratio ** (1.0 / l), ratio ** (1.0 / m))
    if l == m and (ends[0] <= min(phi.horizon, _HUGE)).all():
        # the zero-width bracket inside the horizon, which the root
        # search would return as it is
        return ends[0] / amax

    def level(s):
        return _modular(phi, wq, unit * s.reshape(shape))

    def each_level(s):
        return np.concatenate([level(f) for f in s.reshape(targets.size, -1)])

    return invert_increasing(
        level if targets.ndim == 0 else each_level,
        np.full(ratio.shape, levels), lo=np.minimum(*ends),
        hi=np.maximum(*ends), horizon=phi.horizon,
        what=f"{phi.label()} modular") / amax


def luxemburg_values(phi: YoungFunction, weight: np.ndarray, qw,
                     rows: np.ndarray) -> np.ndarray:
    """Batched Luxemburg norms of the rows (leading axis indexes functions).

    The norm is ``1 / s`` for the factor ``s`` that brings the modular of
    ``s * row`` to 1; a zero row has norm 0, and a row holding a NaN or
    an inf raises :class:`DomainError`.
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


# --------------------------------------------------------------------------
# candidate fields


def smooth_candidates(domain: GridDomain, count: int, seed: int = 0) -> np.ndarray:
    """Zero-trace candidate fields: the fundamental bump plus seeded random
    low-frequency combinations (Fourier modes in tensor shapes, radially
    cut-off fields on the disc).  Returns an array of nodal layouts, the
    blocks of :func:`_candidate_blocks` stacked."""
    return np.concatenate(list(_candidate_blocks(domain, count, seed)))


# rows per block of a streamed draw: a sampler that reduces each block as
# it is drawn holds this many fields, whatever their count.  At 4 rows the
# region sampler's temporaries stay below one solve's on the n=81 disc
_BLOCK_ROWS = 4


def _candidate_blocks(domain: GridDomain, count: int, seed: int = 0):
    """The fields of :func:`smooth_candidates`, drawn from its one seeded
    stream as consecutive blocks of at most ``_BLOCK_ROWS`` rows; each
    block is a new array, filled and masked to zero trace in place."""
    if count < 1:
        raise DomainError("need at least one candidate")
    # a draw of the bump alone needs no generator, and so loads no
    # numpy.random
    rng = np.random.default_rng(seed) if count > 1 else None
    if domain.ndim == 1:
        a, b = domain.extent
        xhat = (domain.axis - a) / (b - a)
        modes = [np.sin((k + 1) * math.pi * xhat) for k in range(8)]
        bump = modes[0]

        def fill(row):
            coef = rng.standard_normal(8) / (1.0 + np.arange(8)) ** 2
            row[...] = sum(c * mode for c, mode in zip(coef, modes))
    elif domain.kind == "box":
        a, b = domain.extent
        xhat = (domain.axis - a) / (b - a)
        sx = [np.sin((k + 1) * math.pi * xhat) for k in range(4)]
        bump = np.outer(sx[0], sx[0])

        def fill(row):
            row[...] = 0.0
            for k in range(4):
                for l in range(4):
                    c = rng.standard_normal() / (1 + k * k + l * l)
                    row += c * np.outer(sx[k], sx[l])
    else:
        radius = domain.D
        dx = domain.nodes[..., 0] - domain.x0[0]
        dy = domain.nodes[..., 1] - domain.x0[1]
        rr = np.hypot(dx, dy) / radius
        bump = np.clip(1.0 - rr * rr, 0.0, None)
        # the factors take three frequencies each: build each once, when
        # it is first drawn
        waves = {}

        def wave(fn, k, d):
            if (fn, k) not in waves:
                waves[fn, k] = fn(k * math.pi * d / radius)
            return waves[fn, k]

        def fill(row):
            p = rng.uniform(1.0, 3.0)
            wobble = 1.0 + 0.3 * wave(np.sin, rng.integers(1, 4), dx) * wave(
                np.cos, rng.integers(1, 4), dy)
            np.multiply(bump ** p, wobble, out=row)

    def blocks():
        outside = ~domain.interior
        for start in range(0, count, _BLOCK_ROWS):
            block = np.empty((min(_BLOCK_ROWS, count - start),)
                             + domain.node_shape)
            for i, row in enumerate(block, start):
                if i == 0:
                    row[...] = bump
                else:
                    fill(row)
            block[:, outside] = 0.0
            yield block
    return blocks()


# --------------------------------------------------------------------------
# I/O and config


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
