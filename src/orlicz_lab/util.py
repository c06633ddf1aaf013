"""Small numerical kernels used throughout the package.

Everything here is vectorized numpy: fixed-order Gauss-Legendre segment
quadrature, cumulative integral tables over log-spaced grids, and bracketed
bisection for monotone scalar maps (single and batched).  These are the only
root-finding and quadrature routines the package uses, so their tolerances
are centralized here.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError, HorizonError

__all__ = [
    "gauss_panels",
    "CumulativeTable",
    "invert_increasing",
    "bisect_decreasing",
    "thread_count",
]

# 8-point Gauss-Legendre rule on [-1, 1]; exact for polynomials up to
# degree 15, which keeps per-panel error near machine precision for the
# smooth integrands used here.
_GX, _GW = np.polynomial.legendre.leggauss(8)


def gauss_panels(f, left, right):
    """Integrate ``f`` over the panels ``[left_i, right_i]``.

    ``left`` and ``right`` are broadcastable arrays of panel edges.  Returns
    an array of per-panel integrals.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    nodes = mid[..., None] + half[..., None] * _GX
    vals = f(nodes)
    return half * (vals @ _GW)


class CumulativeTable:
    """Cumulative integral ``F(x) = int_0^x f`` on a log-spaced grid.

    The table stores ``F`` at the grid knots; a query completes the partial
    panel from the bracketing knot with the same Gauss rule, so there is no
    interpolation error on top of the panel quadrature.  The integrand may
    have an integrable singularity at zero: the initial panel ``[0, x_0]``
    is integrated by the same rule, which never evaluates the endpoints.
    """

    def __init__(self, f, x_min: float, x_max: float, n: int = 4096):
        if not (0.0 < x_min < x_max):
            raise DomainError("table needs 0 < x_min < x_max")
        if n < 16:
            raise DomainError("table needs at least 16 knots")
        self.f = f
        self.grid = np.geomspace(x_min, x_max, int(n))
        head = gauss_panels(f, np.array([0.0]), self.grid[:1])
        panels = gauss_panels(f, self.grid[:-1], self.grid[1:])
        self.cum = np.concatenate([head, head + np.cumsum(panels)])

    @property
    def x_max(self) -> float:
        return float(self.grid[-1])

    def __call__(self, x, what: str = "table"):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if np.any(x > self.grid[-1] * (1 + 1e-12)):
            raise HorizonError(
                f"{what}: argument exceeds the tabulated horizon "
                f"{self.grid[-1]:.3g}; rebuild with a larger horizon"
            )
        pos = x > 0
        xp = np.clip(x[pos], None, self.grid[-1])
        k = np.searchsorted(self.grid, xp, side="right") - 1
        below = k < 0
        k_safe = np.clip(k, 0, None)
        left = self.grid[k_safe]
        base = self.cum[k_safe]
        # Queries below the first knot integrate [0, x] directly.
        left = np.where(below, 0.0, left)
        base = np.where(below, 0.0, base)
        out[pos] = base + gauss_panels(self.f, left, xp)
        return out


def invert_increasing(f, y, max_hi: float = 1e280, iters: int = 80,
                      what: str = "function"):
    """Invert a nondecreasing map ``f`` with ``f(0) = 0`` at points ``y >= 0``.

    Brackets each target by doubling/halving from 1, then bisects.  After
    bracketing, every element's bracket spans a factor of two, so ``iters``
    bisection steps give relative accuracy ``2**-iters``.  Raises
    :class:`HorizonError` if doubling passes ``max_hi`` without covering a
    target, which for Young-function derivatives means the queried slope is
    beyond any representable argument.
    """
    y = np.asarray(y, dtype=float)
    if np.any(~np.isfinite(y)) or np.any(y < 0):
        raise DomainError("inverse queries must be finite and nonnegative")
    shape = y.shape
    y = np.atleast_1d(y).astype(float)
    hi = np.ones_like(y)
    # Expand upward where f(hi) is still below the target.
    with np.errstate(over="ignore", invalid="ignore"):
        need_up = f(hi) < y
        guard = 0
        while np.any(need_up):
            hi[need_up] *= 2.0
            if np.any(hi > max_hi):
                raise HorizonError(
                    f"{what}: no argument below {max_hi:.2g} reaches the "
                    "requested value; extend the horizon"
                )
            need_up = f(hi) < y
            guard += 1
            if guard > 2000:  # pragma: no cover - defensive
                raise HorizonError(f"{what}: bracketing failed to terminate")
        # Shrink downward where even f(1) overshoots, to regain a tight
        # bracket [hi/2, hi] for every element.
        need_down = f(hi / 2.0) > y
        guard = 0
        while np.any(need_down):
            hi[need_down] /= 2.0
            tiny = hi < 1e-290
            if np.any(tiny):
                hi[tiny] = 0.0
                need_down &= ~tiny
            need_down = need_down & (f(hi / 2.0) > y)
            guard += 1
            if guard > 2000:
                break
        lo = hi / 2.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            high = f(mid) >= y
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
    out = 0.5 * (lo + hi)
    out[y == 0] = 0.0
    return out.reshape(shape) if shape else float(out[0])


def bisect_decreasing(g, lo, hi, iters: int = 200, target_tol: float = 1e-10):
    """Root of a strictly decreasing ``g`` on ``[lo, hi]`` (batched).

    ``g`` maps an array of abscissae to an array of values and may return
    ``inf`` (treated as positive).  Stops early once ``|g(mid)| <= target_tol``
    everywhere.  Returns the final midpoints.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    mid = 0.5 * (lo + hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if np.all(np.abs(val) <= target_tol):
            break
        pos = val > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if np.all((hi - lo) <= 1e-16 * np.maximum(1.0, np.abs(hi))):
            mid = 0.5 * (lo + hi)
            break
    return mid


def thread_count() -> int:
    """Worker cap for parallel sweeps, from ``ORLICZ_LAB_THREADS``.

    Unset or invalid values mean serial execution, and the cap never
    exceeds the core count; results never depend on this because every
    sweep merges by key.
    """
    raw = os.environ.get("ORLICZ_LAB_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, os.cpu_count() or 1))
