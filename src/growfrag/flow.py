"""Deterministic transport between jumps.

The scale s is strictly increasing with s(1) = 0, and the semi-flow is
phi(x, t) = s^{-1}(s(x) + t).  s is a cumulative-quadrature table,
widened by appending panels, with exact node derivatives 1/c and cubic
Hermite interpolation; inversion goes through the inverse Hermite table
(derivative c) followed by one Newton polish, so the round trip
s(phi(x,t)) = s(x) + t holds to near machine precision by construction.
Queries read the splines through HermiteTable, a plain-Python evaluator
that returns scipy's bits without its per-call overhead.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_right

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline

from .errors import DomainError, QuadratureDivergence, RangeExtensionFailure
from .model import GrowthSpec

_EXTENSION_CEILING = 1e6   # table never extends past x_max * ceiling
_INV_TOL = 1e-12           # inversion tolerance, in s-units
_KINK_RATIO = 1.025        # node clustering ratio around declared kinks
_KINK_INNER = 1e-7         # innermost node offset at a kink
_NODES_PER_DECADE = 320    # geometric table nodes per decade of x
_S0_PROBES = (1e-6, 1e-9, 1e-12)   # probes of the trend of s at 0+


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


def _lattice(k):
    """The lattice node 10^(k/320); 10^0 = 1 is the anchor."""
    return 10.0 ** (k / _NODES_PER_DECADE)


def _kink_clusters(kinks):
    """Each declared kink with its nodes at offsets growing by the ratio
    _KINK_RATIO from _KINK_INNER (relative to max(kink, 1)) to kink/4."""
    nodes = set()
    for kink in kinks:
        if not kink > 0.0:
            continue
        nodes.add(float(kink))
        off = _KINK_INNER * max(kink, 1.0)
        while off < 0.25 * kink:
            nodes.update((kink + off, kink - off))
            off *= _KINK_RATIO
    return nodes


class FlowEngine:
    """Scale table, semi-flow and arc integrals for one growth law.

    The table's nodes are the points 10^(k/320) of a fixed lattice plus
    the clusters around the declared kinks, and its values are panel
    integrals summed outward from s(1) = 0.  Widening the table only
    integrates and appends the new panels: the nodes, values and Hermite
    coefficients already in it keep their bits, so s(x) does not depend
    on which earlier queries widened the table.
    """

    def __init__(self, growth: GrowthSpec, x_min=1e-4, x_max=1e4):
        self.growth = growth
        self.x_hard_max = x_max * _EXTENSION_CEILING
        self._clusters = sorted(_kink_clusters(growth.kinks))
        self._xs, self._svals = [1.0], [0.0]
        self._speed = [growth.c(1.0)]
        self._k_lo = self._k_hi = 0   # lattice indices of the table ends
        self._s_memo = (np.nan, 0.0)   # (x, s(x)) of the last flow_at
        self._build_table(x_min, x_max)

    # -- table construction -----------------------------------------------

    def _nodes(self, k0, k1):
        """Nodes in [10^(k0/320), 10^(k1/320)], ascending."""
        lo, hi = _lattice(k0), _lattice(k1)
        nodes = {_lattice(k) for k in range(k0, k1 + 1)}
        nodes.update(x for x in self._clusters if lo <= x <= hi)
        return sorted(nodes)

    def _build_table(self, x_lo, x_hi):
        """Widen the table to cover [x_lo, x_hi], appending panels."""
        c = self.growth.c
        k_lo = math.floor(math.log10(x_lo) * _NODES_PER_DECADE)
        while _lattice(k_lo) > x_lo:
            k_lo -= 1
        k_hi = math.ceil(math.log10(x_hi) * _NODES_PER_DECADE)
        while _lattice(k_hi) < x_hi:
            k_hi += 1
        below, above = [], []
        if k_lo < self._k_lo:
            below = self._nodes(k_lo, self._k_lo)[:-1]
        if k_hi > self._k_hi:
            above = self._nodes(self._k_hi, k_hi)[1:]
        # sum outward from the current ends; nothing inside them moves
        s_above, s = [], self._svals[-1]
        for a, b in zip([self._xs[-1]] + above[:-1], above):
            s_above.append(s + _panel_integral(c, a, b))
            s = s_above[-1]
        s_below, s = [], self._svals[0]
        for b, a in zip([self._xs[0]] + below[::-1][:-1], below[::-1]):
            s_below.append(s - _panel_integral(c, a, b))
            s = s_below[-1]
        svals = s_below[::-1] + self._svals + s_above
        if any(b <= a for a, b in zip(svals[:-1], svals[1:])):
            raise DomainError("scale is not strictly increasing on the table")
        self._xs = below + self._xs + above
        self._svals = svals
        self._speed = [c(x) for x in below] + self._speed \
            + [c(x) for x in above]
        self._k_lo, self._k_hi = min(k_lo, self._k_lo), max(k_hi, self._k_hi)
        self._install()

    def _install(self):
        xs, svals = np.array(self._xs), np.array(self._svals)
        speed = np.array(self._speed, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            usable = np.isfinite(speed) & (speed > 1e-300)
            deriv = np.where(usable, 1.0 / speed, 0.0)
        # a node where 1/c is unusable takes the secant of its neighbours,
        # so that Hermite stays monotone and the slope stays local
        bad = np.flatnonzero(~usable)
        left = np.maximum(bad - 1, 0)
        right = np.minimum(bad + 1, len(xs) - 1)
        deriv[bad] = (svals[right] - svals[left]) / (xs[right] - xs[left])
        fwd = CubicHermiteSpline(xs, svals, deriv)
        self._fwd = HermiteTable(fwd)
        self._fwd_slope = HermiteTable(fwd.derivative())
        inv_deriv = np.where(np.isfinite(speed), speed, 0.0)
        self._inv = HermiteTable(CubicHermiteSpline(svals, xs, inv_deriv))
        # plain floats: numpy scalars cost more per comparison
        self._x_lo, self._x_hi = self._xs[0], self._xs[-1]
        self._s_hi = self._svals[-1]

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
        if x == 1.0:
            return 0.0
        if not self._x_lo <= x <= self._x_hi:
            self._extend(x)
        return float(self._fwd(x))

    def s_lower_limit(self):
        """s(0+): finite value if the integral converges, else -inf.

        Convergence is judged from the trend of s at shrinking probes.
        """
        vals = []
        for eps in _S0_PROBES:
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
        """phi(x, t) = s^{-1}(s(x) + t).

        s(x) of the last x queried is kept, so a run of queries from one
        x reads it once.
        """
        if x <= 0.0:
            raise DomainError(f"flow queried at x={x} <= 0")
        if t < 0.0:
            raise DomainError(f"flow queried at negative duration t={t}")
        if t == 0.0:
            return x
        memo_x, s_x = self._s_memo
        if x != memo_x:
            s_x = self.s_of(x)
            self._s_memo = (x, s_x)
        return self._invert(s_x + t)

    def _invert(self, target):
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

    def speed_at(self, x):
        """dx/ds at x, the speed c(x)."""
        return float(self.growth.c(x))
