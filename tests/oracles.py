"""Independent reference values the test suite checks the package against.

Everything in this module is computed from scipy/numpy primitives or from
hand-derived closed forms; nothing imports orlicz_lab.  A test that agrees
with one of these oracles is therefore a genuine cross-check, not a
tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.optimize import minimize_scalar


def dirichlet_laplacian_eigenvalues(n_nodes: int, extent=(0.0, 1.0),
                                    count: int = 1) -> np.ndarray:
    """Smallest eigenvalues of the 1D Dirichlet stencil Laplacian.

    Dense tridiagonal eigensolve of (2, -1)/h^2 on the interior nodes of a
    uniform grid with ``n_nodes`` nodes including both boundary points.
    """
    a, b = float(extent[0]), float(extent[1])
    h = (b - a) / (n_nodes - 1)
    size = n_nodes - 2
    diag = np.full(size, 2.0 / h ** 2)
    off = np.full(size - 1, -1.0 / h ** 2)
    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, count - 1),
                            eigvals_only=True)
    return np.asarray(vals)


def dirichlet_laplacian_eigenpair(n_nodes: int, extent=(0.0, 1.0)):
    """First discrete eigenvalue and eigenvector (padded with boundary
    zeros) of the 1D Dirichlet stencil Laplacian."""
    a, b = float(extent[0]), float(extent[1])
    h = (b - a) / (n_nodes - 1)
    size = n_nodes - 2
    diag = np.full(size, 2.0 / h ** 2)
    off = np.full(size - 1, -1.0 / h ** 2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    full = np.zeros(n_nodes)
    full[1:-1] = vecs[:, 0]
    return float(vals[0]), full


def weighted_dirichlet_eigenvalues(w: np.ndarray, w1: np.ndarray,
                                   extent=(0.0, 1.0),
                                   count: int = 1) -> np.ndarray:
    """Smallest eigenvalues of the weighted 1D Dirichlet stencil problem.

    Dense generalized eigensolve of ``K u = lam M u`` on the interior nodes
    of a uniform grid whose nodal diffusion and reaction weights are ``w``
    and ``w1`` (boundary nodes included): ``K = G^T diag(h w_c) G`` with
    ``G`` the forward difference over ``h`` and ``w_c`` the cell means of
    ``w``, and ``M = diag(h w1)``, the trapezoid weights of interior nodes.
    """
    w, w1 = np.asarray(w, dtype=float), np.asarray(w1, dtype=float)
    n = w.size
    h = (float(extent[1]) - float(extent[0])) / (n - 1)
    w_c = 0.5 * (w[:-1] + w[1:])
    grad = (np.eye(n - 1, n, k=1) - np.eye(n - 1, n)) / h
    stiff = grad.T @ np.diag(h * w_c) @ grad
    inner = slice(1, n - 1)
    return eigh(stiff[inner, inner], np.diag(h * w1[inner]),
                eigvals_only=True, subset_by_index=(0, count - 1))


def box_laplacian_eigenvalue(n_nodes: int, extent=(0.0, 1.0),
                             modes=(1, 1)) -> float:
    """Closed-form eigenvalue of the 5-point Dirichlet Laplacian on a
    square box grid: sum over axes of (4/h^2) sin^2(j pi / (2(n-1)))."""
    a, b = float(extent[0]), float(extent[1])
    h = (b - a) / (n_nodes - 1)
    return sum((4.0 / h ** 2) * math.sin(j * math.pi / (2 * (n_nodes - 1))) ** 2
               for j in modes)


def plaplace_first_zero(p: float) -> float:
    """First positive zero of the p-Laplacian sine started with unit slope.

    Integrates u' = sign(w)|w|^{1/(p-1)}, w' = -|u|^{p-2} u from
    (u, w) = (0, 1) and locates the first downward crossing of u.
    """
    q = 1.0 / (p - 1.0)

    def rhs(_, y):
        u, w = y
        return [math.copysign(abs(w) ** q, w),
                -math.copysign(abs(u) ** (p - 1.0), u)]

    def crossing(_, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1.0
    sol = solve_ivp(rhs, (0.0, 20.0), [0.0, 1.0], events=crossing,
                    rtol=1e-12, atol=1e-13, dense_output=True)
    if not sol.t_events[0].size:
        raise RuntimeError("no zero crossing found for the p-Laplacian sine")
    return float(sol.t_events[0][0])


def plaplace_eigenvalue(p: float, k: int = 1, length: float = 1.0) -> float:
    """k-th Dirichlet eigenvalue of -(|u'|^{p-2}u')' = lam |u|^{p-2}u on
    (0, length), by shooting: the k-nodal eigenfunction is the unit-slope
    solution compressed so k half-waves fit the interval."""
    return (k * plaplace_first_zero(p) / length) ** p


def plaplace_eigenvalue_closed_form(p: float, k: int = 1,
                                    length: float = 1.0) -> float:
    """Textbook closed form (p-1) (k pi_p / length)^p with
    pi_p = 2 pi / (p sin(pi/p)); used to validate the shooting oracle."""
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (k * pi_p / length) ** p


def legendre_transform(value_fn, s: float, t_hi: float = 1e6) -> float:
    """Brute-force Legendre transform sup_{t>=0} (s t - value_fn(t)).

    Coarse log-grid bracket followed by bounded scalar refinement; accuracy
    is limited by the refinement tolerance, roughly 1e-9 relative.
    """
    ts = np.concatenate([[0.0], np.geomspace(1e-9, t_hi, 4001)])
    gains = s * ts - np.asarray(value_fn(ts), dtype=float)
    i = int(np.argmax(gains))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    if hi <= lo:
        hi = lo + 1e-9
    res = minimize_scalar(lambda t: value_fn(t) - s * t,
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13 * (1 + hi)})
    best = s * res.x - value_fn(res.x)
    return float(max(best, gains[i], 0.0))


def weighted_p_norm(values: np.ndarray, weight: np.ndarray,
                    qw: np.ndarray, p: float) -> float:
    """Discrete weighted L^p norm (sum w qw |u|^p)^{1/p}; the Luxemburg
    norm of Phi(t)=t^p must coincide with it exactly."""
    return float(np.sum(weight * qw * np.abs(values) ** p) ** (1.0 / p))


def ball_volume(n_dim: int, radius: float) -> float:
    """Volume of the Euclidean ball via the Gamma function."""
    return math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0 + 1.0) \
        * radius ** n_dim


# Closed forms for the plateau-ramp test function on the unit disc with
# Phi = t^3/3 and Psi = t^2/2 (unit weights).  The profile equals d on
# B(0, 1/2), falls linearly to 0 on the annulus, so |grad| = 2|d| there:
#   I = Phi(2|d|) * area(annulus) = (8|d|^3/3) (3 pi /4) = 2 pi |d|^3
#   J = Psi(d) pi/4 + 4 pi d^2 int_{1/2}^{1} (1-r)^2 r dr = 11 pi d^2 / 48
def ramp_energy_disc(d: float) -> float:
    return 2.0 * math.pi * abs(d) ** 3


def ramp_reaction_disc(d: float) -> float:
    return 11.0 * math.pi * d * d / 48.0


def central_pairing(energy, u: np.ndarray, v: np.ndarray,
                    eps: float) -> float:
    """Symmetric difference quotient (E(u+eps v) - E(u-eps v)) / (2 eps)."""
    return (energy(u + eps * v) - energy(u - eps * v)) / (2.0 * eps)


# Reference cell stencil, written out per dimension as raw-array slices:
# the base corner and one step along each axis (both ends of the cell in
# 1D; base, right and top corner in 2D).  The package derives the same
# stencil from one set of corner offsets; these formulas check it with ==,
# so each keeps the package's order of floating-point operations.


def stencil_gradient(values: np.ndarray, h: float) -> tuple:
    """Base-corner forward differences of one nodal layout, per axis."""
    if values.ndim == 1:
        return ((values[1:] - values[:-1]) / h,)
    return ((values[1:, :-1] - values[:-1, :-1]) / h,
            (values[:-1, 1:] - values[:-1, :-1]) / h)


def stencil_adjoint(fields, h: float) -> np.ndarray:
    """Adjoint of :func:`stencil_gradient`: each component added at its
    step corner and subtracted at the base corner, divided by h last."""
    out = np.zeros(tuple(m + 1 for m in fields[0].shape))
    if len(fields) == 1:
        (q,) = fields
        out[1:] += q
        out[:-1] -= q
    else:
        qx, qy = fields
        out[1:, :-1] += qx
        out[:-1, :-1] -= qx
        out[:-1, 1:] += qy
        out[:-1, :-1] -= qy
    return out / h


def stencil_pattern(interior: np.ndarray, h: float) -> dict:
    """Interior entries of ``sum_c G_c^T A_c G_c`` with the local stencil
    ``G`` of :func:`stencil_gradient`, from a dense coupling matrix.

    The interior nodes are numbered row-major, or by the sum of their
    grid indices (then by the first index) where that gives a strictly
    smaller half-bandwidth.  Returns the interior flat index ``idx`` of
    each unknown, the coupled ``rows`` and ``cols`` in column-major order,
    the half-bandwidth ``bandwidth`` (k), their flat positions ``band``
    in LAPACK general-band storage (``3k + 1`` rows), the stencil
    products ``coef`` (one row per local entry, one column per tensor
    entry), ``assemble(tensor)``, which sums the local entries
    ``coef @ A_c`` into the dense interior matrix in the order local
    entry, then cell, and reads off the coupled entries, and
    ``lower_band(tensor)``, which reads its lower triangle into flat
    LAPACK symmetric-band storage (``k + 1`` rows).
    """
    n, ndim = interior.shape[0], interior.ndim
    if ndim == 1:
        base = np.arange(n - 1)
        nodes = np.stack([base, base + 1])
        stencil = np.array([[-1.0, 1.0]]) / h
    else:
        ii, jj = np.meshgrid(np.arange(n - 1), np.arange(n - 1),
                             indexing="ij")
        base = (ii * n + jj).ravel()
        nodes = np.stack([base, base + n, base + 1])
        stencil = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]) / h
    m = len(nodes)
    row_major = np.flatnonzero(interior)
    grid = np.indices(interior.shape).reshape(ndim, -1)[:, row_major]
    by_sum = row_major[np.lexsort((grid[0], grid.sum(axis=0)))]

    def numbered(idx):
        pos = np.full(interior.size, -1)
        pos[idx] = np.arange(idx.size)
        pairs = [(pos[nodes[i]], pos[nodes[j]]) for i in range(m)
                 for j in range(m)]
        coupled = np.zeros((idx.size, idx.size), dtype=bool)
        for r, c in pairs:
            live = (r >= 0) & (c >= 0)
            coupled[r[live], c[live]] = True
        cols, rows = np.nonzero(coupled.T)
        return int(np.max(np.abs(rows - cols))), idx, pairs, rows, cols

    # min keeps the first of equal widths, the row-major numbering
    k, idx, pairs, rows, cols = min(
        (numbered(row_major), numbered(by_sum)), key=lambda c: c[0])
    size = idx.size
    lower = rows >= cols
    coef = np.einsum("ki,lj->ijkl", stencil, stencil).reshape(
        m * m, ndim * ndim)

    def dense_of(tensor):
        local = coef @ tensor.reshape(ndim * ndim, -1)
        dense = np.zeros((size, size))
        for (r, c), vals in zip(pairs, local):
            live = (r >= 0) & (c >= 0)
            np.add.at(dense, (r[live], c[live]), vals[live])
        return dense

    def lower_band(tensor):
        band = np.zeros(size * (k + 1))
        band[cols[lower] * (k + 1) + rows[lower] - cols[lower]] = \
            dense_of(tensor)[rows[lower], cols[lower]]
        return band

    return {"idx": idx, "rows": rows, "cols": cols, "bandwidth": k,
            "band": cols * (3 * k + 1) + 2 * k + rows - cols, "coef": coef,
            "assemble": lambda tensor: dense_of(tensor)[rows, cols],
            "lower_band": lower_band}


def stencil_basis_norms(interior: np.ndarray, node_qw: np.ndarray,
                        w_cells: np.ndarray, w1: np.ndarray, h: float,
                        phi, phi_inverse, psi_inverse, solve) -> np.ndarray:
    """Sobolev norms of the interior nodal hats, in interior order.

    The state part inverts ``Psi`` at ``1 / (qw w1)``.  The gradient part
    is the norm of a hat with gradient magnitude 1/h in each of its two
    cells in 1D, which inverts ``Phi`` directly; in 2D sqrt(2)/h in the
    cell whose base corner it is and 1/h in the two whose right or top
    corner it is, solved by ``solve(modular, lo, hi)`` for
    ``modular(s) = 1`` between the brackets from the inverse of ``Phi``.
    """
    xi_state = 1.0 / np.asarray(
        psi_inverse(1.0 / (node_qw * w1)[interior]), dtype=float)
    own = np.zeros(interior.shape)
    if interior.ndim == 1:
        left = np.zeros(interior.shape)
        own[:-1] = w_cells
        left[1:] = w_cells
        fat = h * np.asarray(phi_inverse(
            1.0 / (h * own[interior] + h * left[interior])), dtype=float)
        return xi_state + 1.0 / fat
    left = np.zeros(interior.shape)
    below = np.zeros(interior.shape)
    own[:-1, :-1] = w_cells
    left[1:, :-1] = w_cells
    below[:-1, 1:] = w_cells
    cq = h ** 2
    a = cq * own[interior]
    b = cq * (left[interior] + below[interior])
    root2 = math.sqrt(2.0)
    fat = h * np.asarray(phi_inverse(1.0 / (a + b)), dtype=float)

    def modular(s):
        return a * phi(root2 * s / h) + b * phi(s / h)

    return xi_state + 1.0 / solve(modular, fat / root2, fat)
