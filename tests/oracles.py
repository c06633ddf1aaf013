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
from scipy.linalg import eigh_tridiagonal
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
