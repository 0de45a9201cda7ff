"""Deterministic transport between jumps.

The scale s is strictly increasing with s(1) = 0, and the semi-flow is
phi(x, t) = s^{-1}(s(x) + t).  For speed-c growth, s is built once as a
cumulative-quadrature table with exact node derivatives 1/c and cubic
Hermite interpolation; inversion goes through the inverse Hermite table
(derivative c) followed by one Newton polish, so the round trip
s(phi(x,t)) = s(x) + t holds to near machine precision by construction.
Queries read the splines through HermiteTable, a plain-Python evaluator
that returns scipy's bits without its per-call overhead.
"""

from __future__ import annotations

import warnings
from array import array
from bisect import bisect_right

import numpy as np
from scipy import integrate, optimize
from scipy.interpolate import CubicHermiteSpline

from .errors import DomainError, QuadratureDivergence, RangeExtensionFailure
from .model import GrowthSpec, _quad

_EXTENSION_CEILING = 1e6   # table never extends past x_max * ceiling
_INV_TOL = 1e-12           # inversion tolerance, in s-units
_KINK_RATIO = 1.025        # node clustering ratio around declared kinks
_KINK_INNER = 1e-7         # innermost node offset at a kink


def _panel_integral(c, a, b):
    """int_a^b dy/c(y), tolerant of integrable endpoint singularities."""
    with warnings.catch_warnings(), np.errstate(divide="ignore", over="ignore"):
        warnings.simplefilter("ignore")
        val, err = integrate.quad(lambda y: 1.0 / c(y), a, b,
                                  epsabs=1e-14, epsrel=1e-12, limit=200)
        if np.isfinite(val) and err <= 1e-12 * (1.0 + abs(val)):
            return val
        # integrable singularity at one endpoint: y = a + (b-a) tau^4
        # flattens power-law blowups with exponent < 3/4
        width = b - a
        for sub in (lambda t: a + width * t ** 4,
                    lambda t: b - width * t ** 4):
            val, err = integrate.quad(
                lambda t: 4.0 * width * t ** 3 / c(sub(t)), 0.0, 1.0,
                epsabs=1e-14, epsrel=1e-12, limit=200)
            if np.isfinite(val) and err <= 1e-10 * (1.0 + abs(val)):
                return abs(val)
        # last resort: local power-law model c(y) ~ C |y - edge|^alpha
        # at the singular edge (alpha < 1 for an integrable scale)
        for edge, sgn in ((a, 1.0), (b, -1.0)):
            d1, d2 = 1e-3 * width, 2e-3 * width
            c1, c2 = c(edge + sgn * d1), c(edge + sgn * d2)
            if not (np.isfinite(c1) and np.isfinite(c2) and c1 > 0 and c2 > 0):
                continue
            alpha = np.log(c2 / c1) / np.log(2.0)
            if not 0.0 < alpha < 1.0:
                continue
            coef = c1 / d1 ** alpha
            val = width ** (1.0 - alpha) / (coef * (1.0 - alpha))
            if np.isfinite(val):
                return val
    raise QuadratureDivergence(
        f"scale integral on ({a:.6g},{b:.6g}) diverged")


class HermiteTable:
    """Scalar evaluator of a piecewise quadratic or cubic scipy ``PPoly``.

    Returns the same bits as ``ppoly(x)`` (extrapolation included): the
    interval is scipy's, half-open except the closed last one and clamped
    to the end pieces outside the knots, and the local polynomial is
    summed in the order of scipy's ``evaluate_poly1``.  A NaN query
    gives NaN.
    """

    __slots__ = ("_x", "_c0", "_c1", "_c2", "_c3", "_top")

    def __init__(self, ppoly):
        rows = [array("d", row) for row in ppoly.c[::-1]]  # constant first
        if len(rows) not in (3, 4):
            raise DomainError("HermiteTable needs a quadratic or cubic PPoly")
        self._x = array("d", ppoly.x)
        self._c0, self._c1, self._c2 = rows[:3]
        self._c3 = rows[3] if len(rows) == 4 else None
        self._top = len(self._x) - 2

    def __call__(self, x):
        xs = self._x
        i = bisect_right(xs, x) - 1
        if i < 0:
            i = 0
        elif i > self._top:
            i = self._top
        s = x - xs[i]
        z = s * s
        res = 0.0 + self._c0[i] + self._c1[i] * s + self._c2[i] * z
        if self._c3 is not None:
            res += self._c3[i] * (z * s)
        return res


class FlowEngine:
    """Scale table, semi-flow and arc integrals for one growth law."""

    def __init__(self, growth: GrowthSpec, x_min=1e-4, x_max=1e4,
                 nodes_per_decade=320):
        self.growth = growth
        self.x_hard_max = x_max * _EXTENSION_CEILING
        self.nodes_per_decade = nodes_per_decade
        if growth.kind == "speed-c":
            self._build_table(x_min, x_max)
        else:
            self._s = growth.s
            self._s_inv = growth.s_inverse
            self._x_lo, self._x_hi = x_min, x_max

    # -- table construction (speed-c) -----------------------------------

    def _node_set(self, x_lo, x_hi):
        n = max(int(np.log10(x_hi / x_lo) * self.nodes_per_decade), 16)
        nodes = set(np.geomspace(x_lo, x_hi, n))
        nodes.add(1.0)
        for kink in self.growth.kinks:
            if not x_lo < kink < x_hi:
                continue
            nodes.add(kink)
            off = _KINK_INNER * max(kink, 1.0)
            while off < 0.25 * kink:
                if kink + off < x_hi:
                    nodes.add(kink + off)
                if kink - off > x_lo:
                    nodes.add(kink - off)
                off *= _KINK_RATIO
        return np.array(sorted(nodes))

    def _build_table(self, x_lo, x_hi):
        c = self.growth.c
        xs = self._node_set(x_lo, x_hi)
        panels = np.array([_panel_integral(c, a, b)
                           for a, b in zip(xs[:-1], xs[1:])])
        svals = np.concatenate([[0.0], np.cumsum(panels)])
        # anchor s(1) = 0 exactly
        i1 = int(np.searchsorted(xs, 1.0))
        if xs[i1] != 1.0:  # pragma: no cover - 1.0 is always a node
            raise DomainError("scale table must contain the anchor x=1")
        svals -= svals[i1]
        if np.any(np.diff(svals) <= 0.0):
            raise DomainError("scale is not strictly increasing on the table")
        self._install(xs, svals)

    def _install(self, xs, svals):
        c = self.growth.c
        deriv = np.empty_like(xs)
        for i, x in enumerate(xs):
            cx = c(x)
            deriv[i] = 1.0 / cx if (np.isfinite(cx) and cx > 1e-300) else 0.0
        # replace unusable node slopes by secants so Hermite stays monotone
        bad = deriv <= 0.0
        if np.any(bad):
            sec = np.gradient(svals, xs)
            deriv[bad] = sec[bad]
        fwd = CubicHermiteSpline(xs, svals, deriv)
        self._fwd = HermiteTable(fwd)
        self._fwd_slope = HermiteTable(fwd.derivative())
        inv_deriv = np.array([c(x) for x in xs])
        inv_deriv[~np.isfinite(inv_deriv)] = 0.0
        self._inv = HermiteTable(CubicHermiteSpline(svals, xs, inv_deriv))
        # plain floats: numpy scalars cost more per comparison
        self._x_lo, self._x_hi = float(xs[0]), float(xs[-1])
        self._s_hi = float(svals[-1])

    def _extend(self, x_needed):
        """Grow the table so that x_needed is covered."""
        if self._x_lo <= x_needed <= self._x_hi:
            return
        if x_needed > self.x_hard_max:
            raise RangeExtensionFailure(
                f"flow query at x={x_needed:g} beyond hard ceiling "
                f"{self.x_hard_max:g}")
        new_lo = min(self._x_lo, x_needed / 2.0)
        new_hi = max(self._x_hi, x_needed * 2.0)
        self._build_table(new_lo, new_hi)

    # -- queries ----------------------------------------------------------

    def s_of(self, x):
        """s(x); strictly increasing, s(1) = 0 exactly."""
        if x <= 0.0:
            raise DomainError(f"s queried at x={x} <= 0")
        if self.growth.kind == "explicit-s":
            return float(self._s(x))
        if x == 1.0:
            return 0.0
        if not self._x_lo <= x <= self._x_hi:
            self._extend(x)
        return float(self._fwd(x))

    def s_lower_limit(self, probe_eps=(1e-6, 1e-9, 1e-12)):
        """s(0+): finite value if the integral converges, else -inf.

        Convergence is judged from the trend of s at shrinking probes.
        """
        vals = []
        for eps in probe_eps:
            if self.growth.kind == "explicit-s":
                vals.append(float(self._s(eps)))
            else:
                if eps < self._x_lo:
                    self._extend(eps)
                vals.append(self.s_of(max(eps, self._x_lo)))
        d1 = vals[-2] - vals[-3]
        d2 = vals[-1] - vals[-2]
        if abs(d2) < 1e-9 * (1.0 + abs(vals[-1])):
            return vals[-1]
        if abs(d1) > 0.0 and abs(d2 / d1) <= 0.7:
            # geometric decay of the probe increments: extrapolate the tail
            r = d2 / d1
            return vals[-1] + d2 * r / (1.0 - r)
        return -np.inf

    def flow_at(self, x, t):
        """phi(x, t) = s^{-1}(s(x) + t)."""
        if x <= 0.0:
            raise DomainError(f"flow queried at x={x} <= 0")
        if t < 0.0:
            raise DomainError(f"flow queried at negative duration t={t}")
        if t == 0.0:
            return x
        target = self.s_of(x) + t
        return self._invert(target)

    def _invert(self, target):
        if self.growth.kind == "explicit-s":
            if self._s_inv is not None:
                return float(self._s_inv(target))
            return self._invert_explicit(target)
        while target > self._s_hi:
            self._extend(self._x_hi * 4.0)
        y = float(self._inv(target))
        y = min(max(y, self._x_lo), self._x_hi)
        # one Newton polish on the forward spline
        for _ in range(3):
            resid = float(self._fwd(y)) - target
            if abs(resid) <= _INV_TOL:
                break
            slope = float(self._fwd_slope(y))
            if slope <= 0.0:
                break
            step = resid / slope
            y_new = y - step
            if not self._x_lo <= y_new <= self._x_hi:
                break
            y = y_new
        return y

    def _invert_explicit(self, target):
        lo, hi = self._x_lo, self._x_hi
        while self._s(hi) < target:
            hi *= 4.0
            if hi > self.x_hard_max:
                raise RangeExtensionFailure(
                    f"scale inversion bracket beyond {self.x_hard_max:g}")
        while self._s(lo) > target:
            lo /= 4.0
            if lo < 1.0 / self.x_hard_max:
                raise RangeExtensionFailure("scale inversion bracket underflow")
        return float(optimize.brentq(lambda y: self._s(y) - target, lo, hi,
                                     xtol=1e-300, rtol=4e-16))

    def speed_at(self, x):
        """dx/ds at x (equals c(x) for speed-c growth)."""
        if self.growth.kind == "speed-c":
            return float(self.growth.c(x))
        eps = 1e-7 * max(x, 1.0)
        return eps / (self._s(x + eps) - self._s(x))

    def integrate_along_flow(self, g, x, t, rtol=1e-8):
        """int_0^t g(phi(x, u)) du by adaptive quadrature."""
        if t == 0.0:
            return 0.0
        if self.growth.kind == "speed-c":
            # substitute y = phi(x,u): du = dy / c(y)
            y_end = self.flow_at(x, t)
            c = self.growth.c
            pts = [k for k in self.growth.kinks if x < k < y_end] or None
            return _quad(lambda y: g(y) / c(y), x, y_end, rtol=rtol,
                         limit=200, points=pts)
        return _quad(lambda u: g(self.flow_at(x, u)), 0.0, t, rtol=rtol,
                     limit=200)
