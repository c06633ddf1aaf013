"""Young functions and their calculus.

A Young function ``Phi(t) = int_0^t phi(s) ds`` is described by its density
``phi``: right-continuous, nondecreasing, ``phi(0) = 0``, positive on
``(0, inf)`` and unbounded.  This module provides the built-in catalog
(powers, power sums, plasticity-type log-powers, elasticity-type roots,
generalized-Newtonian integrands, the exponential-square growth example and
tabulated data), plus the derived calculus on top of them:

* conjugate functions (Legendre transforms) as first-class Young functions,
* growth indices ``l <= t phi(t)/Phi(t) <= m`` (closed form where known,
  dense scan otherwise),
* the doubling-condition check ``Phi(2t) <= K Phi(t)``,
* essential domination ``Psi(ct)/Phi(t) -> 0``.

All evaluators are vectorized over numpy arrays and accept scalars.
"""

from __future__ import annotations

import csv as _csv
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .util import (PATH, REAL, CumulativeTable, MonotoneCubic,
                   clip_to_horizon, config_values, gauss_panels,
                   invert_increasing)

__all__ = [
    "YoungFunction",
    "Power",
    "PowerSum",
    "Plasticity",
    "Elasticity",
    "Newtonian",
    "ExpSquare",
    "Tabulated",
    "ConjugateFunction",
    "Delta2Report",
    "simonenko_indices",
    "check_delta2",
    "dominates_essentially",
    "sqrt_convexity_holds",
    "catalog",
    "from_config",
]

# sampled checks and derived tables run up to _T_MAX, cut to just inside a
# finite horizon; all but the domination test start at _T_MIN
_T_MIN, _T_MAX = 1e-6, 1e6


def _checked(t, name: str = "t"):
    """``t`` as a float array, and whether it was a scalar; raises unless
    every entry is finite and nonnegative, testing finiteness first.

    Two reductions accept the common case, since a NaN fails either
    comparison; only a rejected input pays for picking the message.
    """
    arr = np.asarray(t, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite")
        raise DomainError(f"{name} must be nonnegative")
    return arr, arr.ndim == 0


def _ret(arr, scalar: bool):
    return float(arr) if scalar else arr


class YoungFunction:
    """Base class: generic numerics on top of ``_value_raw``/``_derivative_raw``.

    Instances are immutable by convention; derived tables (conjugates) are
    memoized behind a lock so concurrent readers are safe.
    """

    kind = "custom"

    def __init__(self):
        self._conj = None
        self._lock = threading.Lock()
        self._validate()

    # -- subclass surface ------------------------------------------------
    def _value_raw(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    def _derivative_raw(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    def _second_derivative_raw(self, t):
        """Central difference of the density with a relative step, one-sided
        where the stencil would leave ``[0, horizon]``."""
        step = 6e-6 * np.maximum(t, 1e-12)
        lo = np.maximum(t - step, 0.0)
        hi = np.minimum(t + step, self.horizon)
        return (self._derivative_raw(hi) - self._derivative_raw(lo)) / (hi - lo)

    def params(self) -> dict:
        return {}

    def indices(self):
        """Closed-form growth indices ``(l, m)`` when known, else ``None``."""
        return None

    @property
    def horizon(self) -> float:
        """Largest argument the evaluator accepts (``inf`` for closed forms)."""
        return math.inf

    @property
    def _inverse_density_horizon(self) -> float:
        """Largest argument :meth:`derivative_inverse` accepts."""
        return (math.inf if math.isinf(self.horizon)
                else float(self._derivative_raw(np.asarray(self.horizon))))

    # -- public evaluators -----------------------------------------------
    def value(self, t):
        arr, scalar = _checked(t)
        with np.errstate(over="ignore"):
            out = self._value_raw(arr)
        return _ret(out, scalar)

    __call__ = value

    def derivative(self, t):
        arr, scalar = _checked(t)
        with np.errstate(over="ignore"):
            out = self._derivative_raw(arr)
        return _ret(out, scalar)

    def second_derivative(self, t):
        """Derivative of the density; ``inf`` where it blows up at 0."""
        arr, scalar = _checked(t)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = self._second_derivative_raw(arr)
        return _ret(out, scalar)

    def derivative_inverse(self, s):
        """Generalized inverse of the density, up to the horizon."""
        arr, scalar = _checked(s, "s")
        out = invert_increasing(self._derivative_raw, arr,
                                horizon=self.horizon,
                                what=f"{self.label()} density inverse")
        return _ret(out, scalar)

    def inverse(self, y):
        """Inverse of the Young function itself (it is strictly increasing)."""
        arr, scalar = _checked(y, "y")
        out = invert_increasing(self._value_raw, arr, horizon=self.horizon,
                                what=f"{self.label()} inverse")
        return _ret(out, scalar)

    def conjugate(self) -> "ConjugateFunction":
        """The conjugate Young function, built once."""
        with self._lock:
            if self._conj is None:
                self._conj = ConjugateFunction(self)
            return self._conj

    def label(self) -> str:
        inner = ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.params().items())
        return f"{self.kind}({inner})" if inner else self.kind

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<YoungFunction {self.label()}>"

    # -- construction-time checks ----------------------------------------
    def _validate(self):
        z = self._value_raw(np.asarray(0.0))
        if not np.isclose(float(z), 0.0, atol=1e-300):
            raise DomainError(f"{self.label()}: value at 0 must be 0")
        hi = min(self.horizon, 1e6)
        ts = np.geomspace(1e-3, max(hi * 0.999, 2e-3), 64)
        with np.errstate(over="ignore"):
            ph = np.asarray(self._derivative_raw(ts), dtype=float)
        if np.any(ph <= 0.0):
            raise DomainError(
                f"{self.label()}: density must be positive away from 0 "
                "(flat-zero densities are rejected)")
        finite = np.isfinite(ph)
        pf = ph[finite]
        if np.any(np.diff(pf) < -1e-9 * np.maximum(1.0, pf[:-1])):
            raise DomainError(f"{self.label()}: density must be nondecreasing")
        # Unbounded-density surrogate: strict growth across the top decades.
        if np.isinf(self.horizon) and pf.size >= 2:
            if not pf[-1] > pf[0]:
                raise DomainError(
                    f"{self.label()}: density must grow without bound")


class Power(YoungFunction):
    """``coeff * t**p`` with ``p > 1``; the default ``coeff`` is ``1/p``."""

    kind = "power"

    def __init__(self, p: float, coeff: float | None = None):
        if not p > 1:
            raise DomainError("power kind needs p > 1")
        self.p = float(p)
        self.coeff = float(coeff) if coeff is not None else 1.0 / self.p
        if not self.coeff > 0:
            raise DomainError("power kind needs coeff > 0")
        super().__init__()

    def params(self):
        d = {"p": self.p}
        if self.coeff != 1.0 / self.p:
            d["coeff"] = self.coeff
        return d

    def indices(self):
        return (self.p, self.p)

    def _value_raw(self, t):
        return self.coeff * t ** self.p

    def _derivative_raw(self, t):
        return self.coeff * self.p * t ** (self.p - 1.0)

    def _second_derivative_raw(self, t):
        return self.coeff * self.p * (self.p - 1.0) * t ** (self.p - 2.0)

    def derivative_inverse(self, s):
        arr, scalar = _checked(s, "s")
        out = (arr / (self.coeff * self.p)) ** (1.0 / (self.p - 1.0))
        return _ret(out, scalar)

    def inverse(self, y):
        arr, scalar = _checked(y, "y")
        return _ret((arr / self.coeff) ** (1.0 / self.p), scalar)


class PowerSum(YoungFunction):
    """``t**p / p + t**q / q`` with ``1 < p < q``."""

    kind = "power-sum"

    def __init__(self, p: float, q: float):
        if not (1 < p < q):
            raise DomainError("power-sum kind needs 1 < p < q")
        self.p, self.q = float(p), float(q)
        super().__init__()

    def params(self):
        return {"p": self.p, "q": self.q}

    def indices(self):
        return (self.p, self.q)

    def _value_raw(self, t):
        return t ** self.p / self.p + t ** self.q / self.q

    def _derivative_raw(self, t):
        return t ** (self.p - 1.0) + t ** (self.q - 1.0)

    def _second_derivative_raw(self, t):
        return ((self.p - 1.0) * t ** (self.p - 2.0)
                + (self.q - 1.0) * t ** (self.q - 2.0))


class Plasticity(YoungFunction):
    """``t**alpha * log(1+t)**beta`` with ``alpha >= 1``, ``beta > 0``."""

    kind = "plasticity"

    def __init__(self, alpha: float, beta: float):
        if not alpha >= 1:
            raise DomainError("plasticity kind needs alpha >= 1")
        if not beta > 0:
            raise DomainError("plasticity kind needs beta > 0")
        self.alpha, self.beta = float(alpha), float(beta)
        super().__init__()

    def params(self):
        return {"alpha": self.alpha, "beta": self.beta}

    def indices(self):
        # t phi/Phi = alpha + beta*t/((1+t)log(1+t)), which decreases from
        # alpha+beta at 0+ to alpha at infinity.
        return (self.alpha, self.alpha + self.beta)

    def _value_raw(self, t):
        return t ** self.alpha * np.log1p(t) ** self.beta

    def _derivative_raw(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        tp = t[pos]
        lg = np.log1p(tp)
        out[pos] = (self.alpha * tp ** (self.alpha - 1.0) * lg ** self.beta
                    + self.beta * tp ** self.alpha * lg ** (self.beta - 1.0)
                    / (1.0 + tp))
        return out

    def _second_derivative_raw(self, t):
        a, b = self.alpha, self.beta
        t = np.asarray(t, dtype=float)
        # Phi ~ t^(a+b) at 0, so Phi'' tends to inf, 2 or 0 there
        out = np.full_like(t, math.inf if a + b < 2.0 else
                           (2.0 if a + b == 2.0 else 0.0))
        pos = t > 0
        tp = t[pos]
        lg = np.log1p(tp)
        tq = 1.0 + tp
        out[pos] = (a * (a - 1.0) * tp ** (a - 2.0) * lg ** b
                    + 2.0 * a * b * tp ** (a - 1.0) * lg ** (b - 1.0) / tq
                    + b * tp ** a * lg ** (b - 2.0) * ((b - 1.0) - lg) / tq ** 2)
        return out


class Elasticity(YoungFunction):
    """``(1 + t**2)**gamma - 1`` with ``gamma > 1/2``."""

    kind = "elasticity"

    def __init__(self, gamma: float):
        if not gamma > 0.5:
            raise DomainError("elasticity kind needs gamma > 1/2")
        self.gamma = float(gamma)
        super().__init__()

    def params(self):
        return {"gamma": self.gamma}

    def indices(self):
        return (min(2.0, 2.0 * self.gamma), max(2.0, 2.0 * self.gamma))

    def _value_raw(self, t):
        # expm1/log1p form avoids cancellation for small t.
        return np.expm1(self.gamma * np.log1p(t * t))

    def _derivative_raw(self, t):
        return 2.0 * self.gamma * t * (1.0 + t * t) ** (self.gamma - 1.0)

    def _second_derivative_raw(self, t):
        g, tt = self.gamma, t * t
        return 2.0 * g * (1.0 + tt) ** (g - 2.0) * (1.0 + (2.0 * g - 1.0) * tt)


class Newtonian(YoungFunction):
    """Integral of ``s**(1-alpha) * asinh(s)**beta``, ``0 <= alpha <= 1``.

    The primitive has no closed form; values come from a cumulative
    quadrature table over a log grid up to ``t_max``, so arguments beyond
    it raise :class:`HorizonError`.
    """

    kind = "newtonian"

    def __init__(self, alpha: float, beta: float, t_max: float = 1e8):
        if not (0.0 <= alpha <= 1.0):
            raise DomainError("newtonian kind needs 0 <= alpha <= 1")
        if not beta > 0:
            raise DomainError("newtonian kind needs beta > 0")
        self.alpha, self.beta = float(alpha), float(beta)
        self._table = CumulativeTable(self._derivative_raw, 1e-8, t_max)
        super().__init__()

    def params(self):
        return {"alpha": self.alpha, "beta": self.beta}

    def indices(self):
        # The density is s^{1-alpha} g(s)^beta with g = asinh concave through
        # the origin, which pins the ratio between its two asymptotic limits.
        return (2.0 - self.alpha, 2.0 - self.alpha + self.beta)

    @property
    def horizon(self):
        return self._table.x_max

    def _value_raw(self, t):
        return self._table(clip_to_horizon(t, self.horizon, self,
                                           "build it with a larger t_max"))

    def _derivative_raw(self, t):
        return t ** (1.0 - self.alpha) * np.arcsinh(t) ** self.beta

    def _second_derivative_raw(self, t):
        a, b = self.alpha, self.beta
        t = np.asarray(t, dtype=float)
        # the density is ~ t^(1-a+b) at 0
        out = np.full_like(t, math.inf if b < a else
                           (1.0 - a + b if b == a else 0.0))
        pos = t > 0
        tp = t[pos]
        ash = np.arcsinh(tp)
        out[pos] = ((1.0 - a) * tp ** (-a) * ash ** b
                    + b * tp ** (1.0 - a) * ash ** (b - 1.0)
                    / np.sqrt(1.0 + tp * tp))
        return out


class ExpSquare(YoungFunction):
    """``(exp(t**2) - 1) / 2``, the standard doubling-condition violator."""

    kind = "exp-square"

    def indices(self):
        return (2.0, math.inf)

    def _value_raw(self, t):
        return 0.5 * np.expm1(t * t)

    def _derivative_raw(self, t):
        return t * np.exp(t * t)

    def _second_derivative_raw(self, t):
        return (1.0 + 2.0 * t * t) * np.exp(t * t)


class Tabulated(YoungFunction):
    """Young function built from sampled ``(t, Phi(t))`` pairs.

    Input rows must have strictly increasing ``t`` and strictly increasing
    values; a leading ``(0, 0)`` row is prepended when absent.  Values come
    from the in-package monotone cubic :class:`~orlicz_lab.util.MonotoneCubic`
    through the knots, the density and its slope from its first and second
    derivatives, so value and density stay nondecreasing between knots.
    Evenly spaced knots are found by a direct guess, other knots by binary
    search.
    """

    kind = "tabulated"

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 3:
            raise DomainError("tabulated kind needs >= 3 (t, value) rows")
        if np.any(np.diff(knots) <= 0):
            raise DomainError("tabulated kind needs strictly increasing t")
        if knots[0] > 0:
            knots = np.concatenate([[0.0], knots])
            values = np.concatenate([[0.0], values])
        if knots[0] < 0 or values[0] != 0.0:
            raise DomainError("tabulated kind needs t >= 0 and value(0) = 0")
        if np.any(np.diff(values) <= 0):
            raise DomainError("tabulated kind needs strictly increasing values")
        slopes = np.diff(values) / np.diff(knots)
        if np.any(np.diff(slopes) < -1e-9 * np.maximum(1.0, slopes[:-1])):
            raise DomainError("tabulated kind needs convex values")
        self.knots, self.values = knots, values
        self._interp = MonotoneCubic(knots, values)
        super().__init__()

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        try:
            with open(path, newline="") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(
                f"tabulated kind csv {path!r} cannot be read: {exc}") from None
        rows = []
        for row in _csv.reader(lines):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                # tolerate one leading header row of column names
                if rows:
                    raise DomainError(f"tabulated kind csv {path!r} has a "
                                      f"non-numeric data row {row!r}")
        if not rows:
            raise DomainError(f"tabulated kind csv {path!r} has no data rows")
        arr = np.asarray(rows)
        return cls(arr[:, 0], arr[:, 1])

    def params(self):
        return {"rows": int(self.knots.size)}

    @property
    def horizon(self):
        return float(self.knots[-1])

    def _guard(self, t):
        return clip_to_horizon(t, self.horizon, self, "extend the table")

    def _value_raw(self, t):
        return self._interp(self._guard(t))

    def _derivative_raw(self, t):
        out = self._interp(self._guard(t), 1)
        return np.maximum(out, 0.0)

    def _second_derivative_raw(self, t):
        return self._interp(self._guard(t), 2)

    def _validate(self):
        # The generic probe samples past small tables; the constructor
        # already enforced monotonicity and convexity knot-by-knot.
        if self._interp(0.0) != 0.0:
            raise DomainError("tabulated kind needs value(0) = 0")


class ConjugateFunction(YoungFunction):
    """Conjugate ``Phi~(s) = sup_t (st - Phi(t))`` of a Young function.

    Knot values are the cumulative integral of the inverse density (the two
    forms agree for convex ``Phi``) over a log-spaced table of 4096 knots
    on ``[1e-6, min(1e6, top)]``.  ``top`` is the largest argument the
    base's inverse density accepts: the base's density at its horizon
    (``inf`` for closed forms), or for a conjugate base that base's own
    horizon.  Queries
    interpolate the knots in log-log coordinates with the in-package
    monotone cubic :class:`~orlicz_lab.util.MonotoneCubic`, which is exact
    for power laws; past the last knot where the integral is finite, one
    Gauss panel from that knot gives the value, ``inf`` once the integral
    overflows.  The table is uniform in ``log s``, so the direct
    interval lookup finds each query's knot in O(1), which keeps evaluation
    cheap enough for the norm root solves built on top.  Below the first
    knot the log-log tail is continued linearly, where the conjugate is
    itself asymptotically a power.  The density of the conjugate is the
    inverse density of the base, and vice versa, which makes conjugation an
    involution here up to table error.
    """

    kind = "conjugate"

    def __init__(self, base: YoungFunction):
        self.base = base
        s_max = min(_T_MAX, base._inverse_density_horizon)
        self._table = CumulativeTable(self._derivative_raw, _T_MIN, s_max)
        # a density that overflows (the double conjugate of ExpSquare, past
        # t ~ 26.6) leaves inf knots at the top; interpolate the finite ones
        finite = int(np.searchsorted(self._table.cum, np.inf))
        self._s_top = float(self._table.grid[finite - 1])
        self._cum_top = float(self._table.cum[finite - 1])
        self._log_grid = np.log(self._table.grid[:finite])
        self._log_cum = np.log(self._table.cum[:finite])
        self._interp = MonotoneCubic(self._log_grid, self._log_cum)
        self._tail_slope = ((self._log_cum[1] - self._log_cum[0])
                            / (self._log_grid[1] - self._log_grid[0]))
        super().__init__()

    def params(self):
        return {"of": self.base.label()}

    def label(self):
        return f"conjugate[{self.base.label()}]"

    def indices(self):
        got = self.base.indices()
        if got is None:
            return None
        l, m = got
        if not (l > 1 and np.isfinite(m)):
            return None
        return (m / (m - 1.0), l / (l - 1.0))

    @property
    def horizon(self):
        return self._table.x_max

    @property
    def _inverse_density_horizon(self):
        """The inverse density is the base's density, which stops at the
        base's horizon."""
        return self.base.horizon

    def _value_raw(self, s):
        s = clip_to_horizon(s, self.horizon, self,
                            "the range follows the base's density, up to 1e6")
        out = np.zeros_like(s)
        pos = s > 0
        ls = np.log(s[pos])
        below = ls < self._log_grid[0]
        vals = np.empty_like(ls)
        vals[~below] = np.exp(self._interp(ls[~below]))
        vals[below] = np.exp(self._log_cum[0]
                             + self._tail_slope * (ls[below]
                                                   - self._log_grid[0]))
        out[pos] = vals
        # past the last finite knot one Gauss panel from it gives the
        # value, inf where the integral overflows
        over = s > self._s_top
        if over.any():
            out[over] = self._cum_top + gauss_panels(
                self._derivative_raw, self._s_top, s[over])
        return out

    def _derivative_raw(self, s):
        return np.asarray(self.base.derivative_inverse(s), dtype=float)

    def derivative_inverse(self, t):
        arr, scalar = _checked(t)
        with np.errstate(over="ignore"):
            out = np.asarray(self.base._derivative_raw(arr), dtype=float)
        return _ret(out, scalar)

    def _validate(self):
        # Base validation already certified the density; the derived table
        # is monotone by construction.  Check the anchor only.
        if float(self._table(np.asarray(0.0))) != 0.0:  # pragma: no cover
            raise DomainError("conjugate table must vanish at 0")


# --------------------------------------------------------------------------
# module-level operations


@dataclass(frozen=True)
class Delta2Report:
    """Outcome of the doubling-condition scan."""

    satisfied: bool
    bound: float | None = None
    witness: float | None = None

    def __str__(self):
        if self.satisfied:
            return f"satisfied (ratio bound {self.bound:.4g})"
        return f"violated (ratio grows through t ~ {self.witness:.4g})"


def _ratio_scan(phi: YoungFunction, t_hi: float, samples: int):
    ts = np.geomspace(_T_MIN, t_hi, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        num = ts * np.asarray(phi.derivative(ts), dtype=float)
        den = np.asarray(phi.value(ts), dtype=float)
        ratio = num / den
    keep = np.isfinite(ratio) & (den > 0)
    return ts[keep], ratio[keep]


def simonenko_indices(phi: YoungFunction):
    """Growth indices ``(l, m)`` of ``t phi(t) / Phi(t)``.

    Catalog kinds with known closed forms return them exactly; otherwise the
    ratio is scanned on 2000 log-spaced points of ``[1e-6, 1e6]`` and its
    extrema are reported.
    """
    got = phi.indices()
    if got is not None:
        return got
    ts, ratio = _ratio_scan(phi, min(_T_MAX, phi.horizon * 0.999), 2000)
    if ratio.size == 0:
        raise DomainError(f"{phi.label()}: index ratio is nowhere finite")
    return (float(ratio.min()), float(ratio.max()))


def check_delta2(phi: YoungFunction) -> Delta2Report:
    """Doubling-condition classification by ratio scan.

    The condition is equivalent to a bounded ``t phi(t)/Phi(t)``; the scan
    of ``[1e-6, 1e6]`` at 64 points per decade declares a violation when
    the ratio still increases across the last decade and has passed 1e3.
    Fast-growing functions overflow doubles early; the scan stops at the
    last finite sample, which is where the witness is reported.
    """
    t_hi = min(_T_MAX, phi.horizon * 0.999)
    decades = max(1, int(round(np.log10(t_hi / _T_MIN))))
    ts, ratio = _ratio_scan(phi, t_hi, decades * 64)
    if ratio.size < 8:
        raise DomainError(f"{phi.label()}: ratio is nowhere finite")
    top = ts[-1]
    in_last = ts >= top / 10.0
    tail = ratio[in_last]
    growing = (np.all(np.diff(tail) > -1e-9 * np.abs(tail[:-1]))
               and tail[-1] > tail[0])
    peak = float(ratio.max())
    if growing and peak > 1e3:
        return Delta2Report(False, witness=float(ts[int(np.argmax(ratio))]))
    return Delta2Report(True, bound=peak)


def dominates_essentially(psi: YoungFunction, phi: YoungFunction) -> bool:
    """Empirical essential-domination test ``Psi(ct)/Phi(t) -> 0``.

    True when, for every ``c`` in 0.5, 1, 2 and 10, the ratio is below 1e-2
    at the top of the scan (1e6, or just inside a finite horizon) and still
    decreasing across the final decade.
    """
    for c in (0.5, 1.0, 2.0, 10.0):
        t_hi = min(_T_MAX, phi.horizon * 0.999, psi.horizon * 0.999 / c)
        ts = np.geomspace(1e-2, t_hi, 600)
        with np.errstate(over="ignore", invalid="ignore"):
            num = np.asarray(psi.value(c * ts), dtype=float)
            den = np.asarray(phi.value(ts), dtype=float)
            ratio = num / den
        keep = np.isfinite(ratio) & (den > 0)
        ts_k, ratio_k = ts[keep], ratio[keep]
        if ratio_k.size < 8:
            return False
        top = ts_k[-1]
        r_end = float(ratio_k[-1])
        r_prev = float(np.interp(top / 10.0, ts_k, ratio_k))
        # a ratio that underflowed to exact zero has finished decreasing
        decreasing = r_end < r_prev * (1.0 - 1e-9) or r_end == 0.0
        if not (r_end <= 1e-2 and decreasing):
            return False
    return True


def sqrt_convexity_holds(phi: YoungFunction) -> bool:
    """Midpoint-convexity of ``t -> Phi(sqrt(t))`` on 512 log-spaced points
    of ``[1e-6, 1e6]``."""
    ts = np.geomspace(_T_MIN, min(_T_MAX, phi.horizon * 0.999), 512)
    a, b = ts[:-2], ts[2:]
    with np.errstate(over="ignore"):
        left = np.asarray(phi.value(np.sqrt(0.5 * (a + b))), dtype=float)
        right = 0.5 * (np.asarray(phi.value(np.sqrt(a)), dtype=float)
                       + np.asarray(phi.value(np.sqrt(b)), dtype=float))
    keep = np.isfinite(left) & np.isfinite(right)
    return bool(np.all(left[keep] <= right[keep] * (1 + 1e-9) + 1e-300))


def catalog():
    """The built-in showcase: four doubling-friendly growths and one violator."""
    return [
        ("power", Power(2.0)),
        ("power-sum", PowerSum(2.0, 4.0)),
        ("plasticity", Plasticity(2.0, 1.0)),
        ("elasticity", Elasticity(1.5)),
        ("exp-square", ExpSquare()),
    ]


# per kind: the constructor and the table of its keyword arguments
_KINDS = {
    "power": (Power, {"p": (REAL, ...), "coeff": (REAL, None)}),
    "power-sum": (PowerSum, {"p": (REAL, ...), "q": (REAL, ...)}),
    "plasticity": (Plasticity, {"alpha": (REAL, ...), "beta": (REAL, ...)}),
    "elasticity": (Elasticity, {"gamma": (REAL, ...)}),
    "newtonian": (Newtonian, {"alpha": (REAL, ...), "beta": (REAL, ...),
                              "t_max": (REAL, 1e8)}),
    "exp-square": (ExpSquare, {}),
    "tabulated": (lambda csv: Tabulated.from_csv(csv), {"csv": (PATH, ...)}),
}


def from_config(cfg: dict) -> YoungFunction:
    """Build a Young function from a config mapping ``{kind: ..., params...}``."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(
            f"Young function config must be a mapping with a 'kind' key, "
            f"got {cfg!r}")
    body = dict(cfg)
    kind = str(body.pop("kind")).replace("_", "-")
    if kind not in _KINDS:
        raise ConfigError(f"unknown Young function kind '{kind}'")
    make, table = _KINDS[kind]
    return make(**config_values(body, table, f"{kind} kind"))
