"""Small numerical kernels used throughout the package.

Everything here is vectorized numpy: fixed-order Gauss-Legendre segment
quadrature, cumulative integral tables over log-spaced grids, one monotone
cubic interpolant and one batched root kernel for monotone scalar maps.
These are the only root-finding, quadrature and interpolation routines the
package uses, so their tolerances are centralized here.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ConfigError, DomainError, HorizonError

__all__ = [
    "gauss_panels",
    "CumulativeTable",
    "MonotoneCubic",
    "invert_increasing",
    "clip_to_horizon",
    "config_values",
]

# 8-point Gauss-Legendre rule on [-1, 1]; exact for polynomials up to
# degree 15, which keeps per-panel error near machine precision for the
# smooth integrands used here.  The values are numpy's ``leggauss(8)``,
# written out so that importing the package loads no ``numpy.polynomial``.
_GX = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GW = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
_LN2 = math.log(2.0)
# false position with the Illinois rule converges superlinearly; this cap
# only guards against a map that is not monotone
_MAX_STEPS = 200
# queries per block of a MonotoneCubic evaluation
_BLOCK = 8192
# log-spaced knots of every CumulativeTable
_TABLE_KNOTS = 4096


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
    Callers keep queries inside ``[0, x_max]``.
    """

    def __init__(self, f, x_min: float, x_max: float):
        if not (0.0 < x_min < x_max):
            raise DomainError("table needs 0 < x_min < x_max")
        self.f = f
        grid = np.geomspace(x_min, x_max, _TABLE_KNOTS)
        head = gauss_panels(f, np.array([0.0]), grid[:1])
        panels = gauss_panels(f, grid[:-1], grid[1:])
        # knots and values with the origin in front, indexed by the count
        # of knots <= x: a query below the first knot integrates [0, x]
        self._left = np.concatenate([[0.0], grid])
        self._base = np.concatenate([[0.0], head, head + np.cumsum(panels)])
        self.grid, self.cum = self._left[1:], self._base[1:]

    @property
    def x_max(self) -> float:
        return float(self.grid[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        k = np.searchsorted(self.grid, xp, side="right")
        out[pos] = self._base[k] + gauss_panels(self.f, self._left[k], xp)
        return out


class MonotoneCubic:
    """Shape-preserving piecewise cubic through the knots ``(x, y)``.

    Fritsch-Carlson monotone interpolation (SIAM J. Numer. Anal. 17, 1980)
    with scipy's PCHIP slopes: the weighted harmonic mean of the adjacent
    secants inside, zero where they change sign or one vanishes, and Moler's
    one-sided three-point estimate at both ends.  Coefficients and
    evaluation order follow scipy's ``CubicHermiteSpline`` and ``PPoly``, so
    the value (``nu=0``) and the first two derivatives are bit-identical to
    ``PchipInterpolator(x, y)`` and its derivatives.  Needs at least three
    strictly increasing knots; queries outside ``[x0, x[-1]]`` continue the
    end pieces.

    On evenly spaced knots (every knot within half a spacing of its place
    on the uniform grid, as on the log-uniform grids of conjugate tables) a
    query's knot is guessed directly and corrected by one step each way,
    which is exact and O(1); other knots are binary-searched.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d = np.concatenate([[_end_slope(h[0], h[1], m[0], m[1])],
                                np.where(flat, 0.0, 1.0 / mean),
                                [_end_slope(h[-1], h[-2], m[-1], m[-2])]])
        t = (d[:-1] + d[1:] - 2 * m) / h
        c0, c1, c2 = t / h, (m - d[:-1]) / h - t, d[:-1]
        # Everything is indexed by the knot count searchsorted(x, q, "right")
        # in 0..n: the pieces are padded with a copy of the first in front
        # and of the last behind, so the count needs no clamp.
        # per derivative order nu = 0, 1, 2, coefficients of the powers of s,
        # highest first; + 0.0 matches PPoly's zero accumulator on a -0.0
        self._coef = tuple(tuple(_pad_ends(c) for c in coef) for coef in (
            (c0, c1, c2, y[:-1] + 0.0), (3 * c0, 2 * c1, c2 + 0.0),
            (6 * c0, 2 * c1 + 0.0)))
        self._left = _pad_ends(x[:-1])
        self.x = x
        n = x.size
        scale = (n - 1) / (x[-1] - x[0])
        self._guess = None
        if np.abs((x - x[0]) * scale - np.arange(n)).max() <= 0.5:
            # count k holds q iff x[k-1] <= q < x[k]; the missing bounds of
            # 0 and n are nan, which fails every comparison, so the
            # correction stops there for every query, +-inf included
            self._guess = (x[0], scale, np.concatenate([[np.nan], x]),
                           np.concatenate([x, [np.nan]]))

    def _interval(self, q):
        """``searchsorted(x, q, side="right")``: the number of knots <= q."""
        if self._guess is None:
            return np.searchsorted(self.x, q, side="right")
        # every knot is within half a spacing of its uniform place, so the
        # truncated guess is off the count by at most one
        x0, scale, lo, hi = self._guess
        k = np.fmin(np.fmax((q - x0) * scale + 1.0, 0.0), lo.size - 1)
        k = k.astype(np.intp)
        k -= q < lo.take(k)
        k += q >= hi.take(k)
        return k

    def __call__(self, q, nu: int = 0):
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        out = np.empty(flat.shape)
        coef = self._coef[nu]
        # blocks keep the temporaries in cache on long batches
        for start in range(0, flat.size, _BLOCK):
            part = flat[start:start + _BLOCK]
            k = self._interval(part)
            s = part - self._left.take(k)
            val = coef[-1].take(k) + coef[-2].take(k) * s
            power = s
            for c in coef[-3::-1]:
                power = power * s
                val += c.take(k) * power
            out[start:start + _BLOCK] = val
        return out.reshape(q.shape)


def _pad_ends(a):
    """``a`` with a copy of its first entry in front and of its last behind."""
    return np.concatenate([a[:1], a, a[-1:]])


def _end_slope(h0, h1, m0, m1):
    """PCHIP's one-sided three-point end slope, shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        d = 0.0
    elif np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        d = 3.0 * m0
    return d


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


def clip_to_horizon(x, horizon: float, what, remedy: str):
    """``x`` as a float array, with arguments past ``horizon`` by rounding
    set to it; past it by more, :class:`HorizonError` names ``what``
    (formatted only then) and the ``remedy``."""
    x = np.asarray(x, dtype=float)
    over = x > horizon
    if over.any():
        if np.any(x[over] > horizon * (1 + 1e-12)):
            raise HorizonError(f"{what}: argument exceeds the horizon "
                               f"{horizon:.3g}; {remedy}")
        x = np.minimum(x, horizon)
    return x


# a kind of config value: ``convert`` returns the plain value of a
# well-formed entry and raises TypeError or ValueError on anything else;
# ``what`` is what the error message says the entry must be
ConfigKind = namedtuple("ConfigKind", "what convert")


def _finite(value) -> float:
    if isinstance(value, bool):
        raise TypeError
    x = float(value)
    if not math.isfinite(x):
        raise ValueError
    return x


def _positive(value) -> float:
    x = _finite(value)
    if not x > 0:
        raise ValueError
    return x


def _finite_list(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise TypeError
    if not value:
        raise ValueError
    return [_finite(x) for x in value]


def _of_type(cls):
    def convert(value):
        if not isinstance(value, cls):
            raise TypeError
        return value
    return convert


def count(lo: int) -> ConfigKind:
    """Whole numbers ``>= lo``; YAML booleans are not whole numbers."""
    def convert(value):
        if isinstance(value, bool) or int(value) != value or value < lo:
            raise ValueError
        return int(value)
    return ConfigKind(f"an integer >= {lo}", convert)


def one_of(*names: str) -> ConfigKind:
    def convert(value):
        if value not in names:
            raise ValueError
        return value
    return ConfigKind("one of " + ", ".join(names), convert)


REAL = ConfigKind("a finite number", _finite)
POSITIVE = ConfigKind("a positive finite number", _positive)
REALS = ConfigKind("a nonempty list of finite numbers", _finite_list)
PATH = ConfigKind("a path string", _of_type(str))
# a section that its own reader walks with its own table
SECTION = ConfigKind("a mapping", _of_type(dict))


def _config_value(kind, value, name: str):
    if isinstance(kind, dict):
        if not (isinstance(value, dict) and len(value) == 1
                and next(iter(value)) in kind):
            raise ConfigError(f"{name} must be a one-key mapping with key "
                              f"{' or '.join(kind)}, got {value!r}")
        (key, inner), = value.items()
        return key, _config_value(kind[key], inner, f"{name} {key}")
    try:
        return kind.convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {kind.what}, got {value!r}") \
            from None


def config_values(body, table: dict, section: str = "") -> dict:
    """The plain values of the config mapping ``body``, read by ``table``.

    ``table`` maps each allowed key to ``(kind, default)``, where
    ``default`` is ``...`` for a key that must be given.  A kind is
    a :class:`ConfigKind`, or a dict from key to kind for a one-key
    mapping, read as the pair ``(key, value)``.  Absent keys take their
    default.  An unknown key, a missing required key or a value of the
    wrong kind raises :class:`ConfigError` naming ``section`` (empty at the
    config's top level) and the key.
    """
    where = section or "the config"
    if not isinstance(body, dict):
        raise ConfigError(f"{where} must be a mapping, got {body!r}")
    unknown = set(body) - set(table)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown, key=str)} in {where}")
    values = {}
    for key, (kind, default) in table.items():
        if key in body:
            values[key] = _config_value(kind, body[key],
                                        f"{section} {key}".lstrip())
        elif default is ...:
            raise ConfigError(f"{where} needs key {key!r}")
        else:
            values[key] = default
    return values
