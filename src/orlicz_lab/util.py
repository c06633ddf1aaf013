"""Small numerical kernels used throughout the package.

Everything here is vectorized numpy: fixed-order Gauss-Legendre segment
quadrature, cumulative integral tables over log-spaced grids, and one
batched root kernel for monotone scalar maps.  These are the only
root-finding and quadrature routines the package uses, so their tolerances
are centralized here.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ConfigError, DomainError, HorizonError

__all__ = [
    "gauss_panels",
    "CumulativeTable",
    "invert_increasing",
    "thread_count",
    "config_int",
]

# 8-point Gauss-Legendre rule on [-1, 1]; exact for polynomials up to
# degree 15, which keeps per-panel error near machine precision for the
# smooth integrands used here.
_GX, _GW = np.polynomial.legendre.leggauss(8)

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
_LN2 = math.log(2.0)
# false position with the Illinois rule converges superlinearly; this cap
# only guards against a map that is not monotone
_MAX_STEPS = 200


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


def invert_increasing(f, y, lo=None, hi=None, horizon: float = math.inf,
                      what: str = "function"):
    """Solve ``f(s) = y`` for a nondecreasing ``f`` with ``f(0) = 0``, batched.

    ``f`` maps a flat array of arguments, one per target, to values; ``lo
    <= hi`` are scalars or arrays of the shape of ``y``.  The search
    starts from the bracket ``[lo, hi]`` (default ``[1/2, 1]``), capped at
    ``horizon``; an end that does not bracket the root moves outward by
    doubling steps in ``log s``.  A zero-width bracket inside the horizon
    is returned without calling ``f``.  The root is then refined by false
    position with the Illinois rule on ``log f`` against ``log s``, which
    is exact in one step for a power; a step that would leave the bracket,
    or meets a non-finite value, takes the log-midpoint instead.  Each
    element stops once ``|log f - log y| <= 1e-13`` or its bracket has
    rounding width.  Raises :class:`HorizonError` when no argument up to
    ``horizon`` reaches a target.
    """
    y = np.asarray(y, dtype=float)
    if not ((y >= 0) & (y < math.inf)).all():
        raise DomainError("inverse queries must be finite and nonnegative")
    shape, y = y.shape, y.ravel()
    top = min(float(horizon), _HUGE)
    zero = np.zeros_like(y)
    hi = zero + (1.0 if hi is None else np.ravel(hi))
    lo = 0.5 * hi if lo is None else zero + np.ravel(lo)
    out = np.where(y > 0, lo, 0.0)
    # a zero-width bracket is the answer, unless it lies past the horizon
    solved = (y > 0) & ((lo < hi) | (hi > top))
    if not solved.any():
        return out.reshape(shape) if shape else float(out[0])
    hi = np.clip(hi, _TINY, top)
    lo = np.where(lo < hi, np.maximum(lo, _TINY), 0.5 * hi)
    x_top, x_bot = math.log(top), math.log(_TINY)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_y = np.log(y)

        def g(x):
            return np.log(np.asarray(f(np.minimum(np.exp(x), top)),
                                     dtype=float)) - log_y

        a, b = np.log(lo), np.log(hi)
        ga, gb = g(a), g(b)
        live = solved.copy()
        step = _LN2
        while True:
            up = live & (gb < 0)
            # a root below the smallest normal number is returned there
            down = live & (ga > 0) & (a > x_bot)
            if not (np.any(up) or np.any(down)):
                break
            if np.any(up & (b >= x_top)):
                raise HorizonError(
                    f"{what}: no argument below {top:.3g} reaches the "
                    "requested value; extend the horizon")
            x = np.where(up, np.minimum(b + step, x_top),
                         np.where(down, np.maximum(a - step, x_bot), a))
            gx = g(x)
            a, ga, b, gb = (np.where(up, b, np.where(down, x, a)),
                            np.where(up, gb, np.where(down, gx, ga)),
                            np.where(up, x, np.where(down, a, b)),
                            np.where(up, gx, np.where(down, ga, gb)))
            step *= 2.0
        at_b = live & (np.abs(gb) <= 1e-13)
        live &= ~(at_b | (np.abs(ga) <= 1e-13))
        x = np.where(at_b, b, a)
        side = np.zeros_like(a)
        for _ in range(_MAX_STEPS):
            if not np.any(live):
                break
            trial = b - gb * (b - a) / (gb - ga)
            midpoint = ~np.isfinite(trial) | (trial <= a) | (trial >= b)
            x = np.where(live, np.where(midpoint, 0.5 * (a + b), trial), x)
            gx = g(x)
            left = live & (gx < 0)
            right = live & ~(gx < 0)
            # Illinois: halve the stale end's value when one end repeats
            ga = np.where(right & (side > 0), 0.5 * ga, ga)
            gb = np.where(left & (side < 0), 0.5 * gb, gb)
            a, ga = np.where(left, x, a), np.where(left, gx, ga)
            b, gb = np.where(right, x, b), np.where(right, gx, gb)
            side = np.where(left, -1.0, np.where(right, 1.0, side))
            width = b - a <= 4.0 * _EPS * np.maximum(1.0, np.maximum(
                np.abs(a), np.abs(b)))
            live &= ~((np.abs(gx) <= 1e-13) | width)
    out[solved] = np.minimum(np.exp(x[solved]), top)
    return out.reshape(shape) if shape else float(out[0])


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


def config_int(value, name: str) -> int:
    """A config value that must be a whole number, as an int; anything
    else (a string, a list, 2.5, inf) raises :class:`ConfigError`."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)
