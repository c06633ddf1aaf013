"""Energies of the weighted eigenvalue problem and their derivatives.

``I(u) = int w Phi(|grad u|)`` drives the diffusion side and
``J(u) = int w1 Psi(|u|)`` the reaction side.  Both are C1; their Gateaux
derivatives are assembled in discrete weak form as densities paired against
test functions through the nodal quadrature, so a critical point of ``I``
restricted to a level set of ``J`` satisfies the discrete Euler-Lagrange
system exactly.

The dual norm of such a density is evaluated against the finite zero-trace
nodal basis.  A basis hat has a nonzero gradient only in the ``ndim + 1``
cells where its node is one of the grid's stencil ``corners``, so its
Sobolev norm follows from the inverses of the Young functions and one
batched root solve of that few-cell modular.  That turns the residual
check into one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditionFailure, DomainError
from .norms import (GridDomain, GridFunction, WeightField,
                    gradient_adjoint, gradient_components, gradient_magnitude,
                    _cell_magnitude, _check_finite, _modular,
                    scale_to_modular)
from .util import invert_increasing
from .young import YoungFunction, dominates_essentially, simonenko_indices

__all__ = [
    "EnergySetup",
    "DualGridFunction",
    "energy_I",
    "energy_J",
    "gateaux_I",
    "gateaux_J",
    "project_to_level",
    "scale_to_energy_level",
    "dual_norm",
]


class DualGridFunction:
    """A linear functional on zero-trace grid functions.

    Stored as a nodal density ``f``; the pairing is the quadrature sum
    ``<F, v> = sum qw * f * v``.  Boundary and exterior nodes carry zero
    coefficient, matching the zero-trace test space.
    """

    def __init__(self, domain: GridDomain, density):
        density = np.asarray(density, dtype=float)
        if density.shape != domain.node_shape:
            raise DomainError("density must match the node layout")
        self.domain = domain
        self.density = np.where(domain.interior, density, 0.0)
        self.density.setflags(write=False)

    @classmethod
    def _of(cls, domain: GridDomain, density: np.ndarray):
        """The functional with a density already zero off the interior."""
        out = cls.__new__(cls)
        out.domain = domain
        out.density = density
        density.setflags(write=False)
        return out

    def pairing(self, v) -> float:
        vals = v.values if isinstance(v, GridFunction) else np.asarray(v)
        return float((self.domain.node_qw * self.density * vals).sum())

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"<DualGridFunction max|f|="
                f"{np.max(np.abs(self.density)):.3g}>")


class EnergySetup:
    """Problem data: Young pair, weight pair, and the grid.

    Construction verifies the two-sided index bounds on both Young
    functions (the growth assumptions behind every estimate used here) and
    records whether the reaction function grows essentially slower than the
    diffusion one (the compactness route when the stronger growth is not
    doubling; region analysis enforces it).  The weighted quadratures of
    both energies and the basis Sobolev norms are precomputed once.
    """

    def __init__(self, phi: YoungFunction, psi: YoungFunction,
                 w: WeightField, w1: WeightField, dom: GridDomain):
        if w.domain is not dom or w1.domain is not dom:
            raise DomainError("weights and domain must be the same objects")
        self.phi, self.psi = phi, psi
        self.w, self.w1 = w, w1
        self.dom = dom
        self.phi_l, self.phi_m = simonenko_indices(phi)
        self.psi_l, self.psi_m = simonenko_indices(psi)
        if not (1.0 < self.phi_l <= self.phi_m < np.inf):
            raise ConditionFailure(
                "phi1", f"{phi.label()} has indices "
                f"({self.phi_l:g}, {self.phi_m:g}), need 1 < l <= m < inf")
        if not (1.0 < self.psi_l <= self.psi_m < np.inf):
            raise ConditionFailure(
                "psi1", f"{psi.label()} has indices "
                f"({self.psi_l:g}, {self.psi_m:g}), need 1 < l <= m < inf")
        self.dominated = dominates_essentially(psi, phi)
        self.w_cells = w.cell_values()
        # flattened weight * qw of I and of J, the vectors every energy
        # evaluation and level scaling pairs against
        self.w_cell_qw = np.ravel(self.w_cells * dom.cell_qw)
        self.w1_node_qw = np.ravel(w1.values * dom.node_qw)
        # Sobolev norms of the interior nodal hats on the flattened node
        # layout, inf off the interior, where no hat sits
        self._basis_w = np.full(dom.interior.size, np.inf)
        self._basis_w[np.flatnonzero(dom.interior)] = self._basis_norms()

    # -- basis Sobolev norms ----------------------------------------------
    def _basis_norms(self) -> np.ndarray:
        dom = self.dom
        inter = dom.interior
        # State part: the hat is 1 at one node, so the modular of e/xi is
        # qw * w1 * Psi(1/xi) and the norm inverts Psi directly.
        tiny = (dom.node_qw * self.w1.values)[inter]
        xi_state = 1.0 / np.asarray(self.psi.inverse(1.0 / tiny), dtype=float)
        # Gradient part.  The hat's gradient is nonzero in the cells where
        # its node is one of the stencil ``corners``: magnitude sqrt(ndim)/h
        # at the base corner, 1/h at each step corner.  Padding the cell
        # weights by a corner's offset puts at each node the weight of the
        # cell in which the node is that corner.
        h = dom.h
        base, *steps = [np.pad(self.w_cells, [(o, 1 - o) for o in c])[inter]
                        for c in dom.corners]
        a = dom.cell_qw * base
        b = dom.cell_qw * sum(steps)
        root = np.sqrt(dom.ndim)
        # with s = 1/xi the modular lies between (a + b) Phi(s/h) and
        # (a + b) Phi(sqrt(ndim) s/h), which brackets s; in 1D the bracket
        # has zero width and is the answer
        fat = h * np.asarray(self.phi.inverse(1.0 / (a + b)), dtype=float)
        # the root search evaluates positive finite arguments only
        raw = self.phi._value_raw

        def modular(s):
            return a * raw(root * s / h) + b * raw(s / h)

        xi_grad = 1.0 / invert_increasing(
            modular, np.ones_like(a), lo=fat / root, hi=fat,
            what=f"{self.phi.label()} basis norm")
        return xi_state + xi_grad

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"<EnergySetup {self.phi.label()} / {self.psi.label()} "
                f"on {self.dom.kind} n={self.dom.n}>")


def _check_member(setup: EnergySetup, u: GridFunction):
    if u.domain is not setup.dom:
        raise DomainError("grid function lives on a different domain")
    return u


# --------------------------------------------------------------------------
# raw-array kernels
#
# The public functions below check their operands and wrap these; the
# solver loops call them directly on nodal arrays, so each quantity has one
# formula.  The kernels evaluate the Young functions unchecked, on finite
# nodal values and on magnitudes checked by :func:`_gradient`.  They take
# layouts stacked over a leading axis (the energies need it, the others
# take any leading axes, as :func:`gradient_components` does), and each
# row of the result equals the kernel on that row alone.


def _gradient(dom: GridDomain, values: np.ndarray) -> tuple:
    """Cell gradient ``(components, magnitudes)`` of nodal ``values``, the
    magnitudes checked once: finite nodal values still overflow where a
    difference exceeds the largest float."""
    comps = gradient_components(dom, values)
    mag = _cell_magnitude(comps)
    _check_finite(mag)
    return comps, mag


def _energy_I(setup: EnergySetup, mag: np.ndarray) -> np.ndarray:
    """``I`` per row from the stacked cell gradient magnitudes."""
    return _modular(setup.phi, setup.w_cell_qw, mag)


def _energy_J(setup: EnergySetup, values: np.ndarray) -> np.ndarray:
    """``J`` per row at the stacked finite nodal ``values``."""
    return _modular(setup.psi, setup.w1_node_qw, values)


def _gateaux_I(setup: EnergySetup, comps, mag: np.ndarray) -> np.ndarray:
    """Density of ``I'`` from the cell gradient, zero off the interior."""
    dom = setup.dom
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        factor = setup.phi._derivative_raw(mag) / mag
        factor = np.where(mag > 0, factor, 0.0) * setup.w_cells * dom.cell_qw
        nodal = gradient_adjoint(dom, tuple(factor * g for g in comps))
        # interior nodes carry positive quadrature weights
        return np.where(dom.interior, nodal / dom.node_qw, 0.0)


def _gateaux_J(setup: EnergySetup, values: np.ndarray) -> np.ndarray:
    """Density of ``J'`` at finite nodal ``values``, zero off the
    interior."""
    with np.errstate(over="ignore"):
        slope = setup.psi._derivative_raw(np.abs(values))
    density = setup.w1.values * slope * np.sign(values)
    return np.where(setup.dom.interior, density, 0.0)


def _dual_norm(setup: EnergySetup, density: np.ndarray):
    """Dual norm of the functional with ``density``, which is zero off the
    interior."""
    dom = setup.dom
    pairings = np.abs(dom.node_qw * density).reshape(
        density.shape[:density.ndim - dom.ndim] + (-1,))
    return (pairings / setup._basis_w).max(axis=-1, initial=0.0)


def _level_scale(setup: EnergySetup, values: np.ndarray,
                 alpha: float) -> np.ndarray:
    """Per row of the stacked nodal ``values`` of ``u``, the factor ``s``
    with ``J(s u) = alpha``: ``inf`` for a zero row and NaN for a row that
    is not finite, so one row cannot fail the others."""
    try:
        return scale_to_modular(setup.psi, setup.w1_node_qw, values, alpha)
    except DomainError:
        # a row that is not finite; a bad level raises again below
        finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    scale = np.full(len(values), np.nan)
    if finite.any():
        scale[finite] = scale_to_modular(setup.psi, setup.w1_node_qw,
                                         values[finite], alpha)
    return scale


def _one_scale(scale: np.ndarray) -> float:
    """The factor of a one-row :func:`scale_to_modular`."""
    if not np.isfinite(scale[0]):
        raise DomainError("cannot project the zero function onto a level set")
    return float(scale[0])


# --------------------------------------------------------------------------
# checked public functions


def energy_I(setup: EnergySetup, u: GridFunction) -> float:
    """Diffusion energy: cell quadrature of ``w Phi(|grad u|)``."""
    _check_member(setup, u)
    return float(_energy_I(setup, _gradient(setup.dom, u.values[None])[1])[0])


def energy_J(setup: EnergySetup, u: GridFunction) -> float:
    """Reaction energy: nodal quadrature of ``w1 Psi(|u|)``."""
    _check_member(setup, u)
    return float(_energy_J(setup, u.values[None])[0])


def gateaux_I(setup: EnergySetup, u: GridFunction) -> DualGridFunction:
    """Weak form of the weighted phi-Laplacian at ``u``.

    Pairs as ``int w phi(|grad u|)/|grad u| grad u . grad v``; cells with a
    vanishing gradient contribute the limit value 0 because the density of
    the Young function vanishes at 0.
    """
    _check_member(setup, u)
    return DualGridFunction._of(setup.dom, _gateaux_I(
        setup, *_gradient(setup.dom, u.values)))


def gateaux_J(setup: EnergySetup, u: GridFunction) -> DualGridFunction:
    """Weak form of the reaction term: pairs as ``int w1 psi(|u|) sgn(u) v``."""
    _check_member(setup, u)
    return DualGridFunction._of(setup.dom, _gateaux_J(setup, u.values))


def project_to_level(setup: EnergySetup, u: GridFunction,
                     alpha: float) -> GridFunction:
    """Scale ``u`` onto the constraint set ``J = alpha``.

    The scaling factor exists and is unique: ``s -> J(su)`` is continuous,
    strictly increasing, 0 at 0 and unbounded, and the two-sided growth
    bounds ``min(s^l1, s^m1) J(u) <= J(su) <= max(s^l1, s^m1) J(u)``
    bracket it.  The returned level matches to 1e-12 relative.
    """
    _check_member(setup, u)
    return u.scaled(_one_scale(_level_scale(setup, u.values[None], alpha)))


def scale_to_energy_level(setup: EnergySetup, u: GridFunction,
                          level: float) -> GridFunction:
    """Scale ``u`` so the diffusion energy ``I`` hits ``level`` exactly."""
    _check_member(setup, u)
    mag = gradient_magnitude(setup.dom, u.values)
    return u.scaled(_one_scale(scale_to_modular(setup.phi, setup.w_cell_qw,
                                                mag[None], level)))


def dual_norm(setup: EnergySetup, functional: DualGridFunction) -> float:
    """Dual norm against the finite zero-trace basis.

    ``max_i |<F, e_i>| / ||e_i||_W`` over interior nodal hats; a computable
    surrogate for the operator norm that vanishes exactly when the density
    does.
    """
    if functional.domain is not setup.dom:
        raise DomainError("functional lives on a different domain")
    return float(_dual_norm(setup, functional.density))
