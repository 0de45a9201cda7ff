"""Simulation of the h-tilted sub-Markov process X.

Between jumps the particle follows the deterministic flow; at total rate
r(x) = k_h(x,(0,x)) + q(x) it either dies (probability q(x)/r(x), with
killing rate q(x) = b - A h(x)/h(x)) or picks a child from the h-tilted
kernel k_h(x,dy) = h(y)/h(x) k(x,dy).  Since

    A h(x)/h(x) = d ln h/ds(x) + k_h(x,(0,x)) - K(x),

the total rate collapses to r(x) = b + K(x) - d ln h/ds(x), so jump
*times* are sampled by thinning without a kernel integral or h, against
majorants of r read from a lazily built table (Lewis & Shedler 1979).
The tilted mass only enters the kill test at accepted jumps, and there
it is read from a second lazily built table that brackets it; the exact
quadrature runs only when the uniform of the test falls inside the
bracket (the squeeze principle, Devroye 1986, II.5), so the outcome is
the exact test's.

The semigroup is recovered through the h-transform
T_t f(x) = e^{bt} h(x) E_x[ f(X_t)/h(X_t); t < zeta ].
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (DomainError, ExplosionGuard, GrowfragError,
                     MajorantOverflow, RejectionStall)
from .flow import FlowEngine
from .model import ModelSpec, WeightFunction, tilted_generator


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


CEMETERY = _Sentinel("CEMETERY")
NO_JUMP = _Sentinel("NO_JUMP")

_MAJORANT_CEILING = 1e12
_MAJORANT_SAFETY = 1.05
_MAJORANT_POINTS = 9   # points of a piece (or window) where r is read
_JUMP_CAP = 10_000_000
_REJECTION_CAP = 1_000_000
_GUARD_FACTOR = 1e3
_TILT_PROBES = tuple(np.geomspace(1e-6, 0.999999, 48).tolist())
# the tables of k_h and of the majorant of r have their panels between
# the nodes 10^(j/32); a k_h piece is a cubic fitted at its ends and
# log-thirds
_PANELS_PER_DECADE = 32
_KH_SAFETY = 100.0   # band half-width per unit of measured panel error
# least band half-width, far above the error of kh_mass (QUAD_RTOL = 1e-8,
# with quad split at the kinks of h).  It stays below the least killing
# rate over k_h that b's margin of 1e-4 (1 + |b|) leaves (about 5e-5 and
# up), so that the band can rule out q < 0 where q is smallest.
_KH_FLOOR = 3e-5


class VarianceBlowup(UserWarning):
    """Monte Carlo standard error exceeds the estimate itself, or fewer
    than two paths contribute a nonzero value (the jackknife error of
    non-negative samples never exceeds their mean, so such runs would
    otherwise pass silently)."""


def make_rng(seed: int, stream_id: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, stream-id).

    Distinct stream ids give statistically independent, reproducible
    streams regardless of scheduling order.
    """
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class PdmpState:
    """One particle: position (or CEMETERY), clock, and its RNG stream."""

    position: object
    clock: float
    rng: np.random.Generator

    @staticmethod
    def fresh(x0, seed=0, stream_id=0):
        if not (isinstance(x0, (int, float)) and x0 > 0.0):
            raise DomainError(f"initial position must be positive, got {x0}")
        return PdmpState(position=float(x0), clock=0.0,
                         rng=make_rng(seed, stream_id))


def _cubic(coef, s):
    """c0 + c1 s + c2 s^2 + c3 s^3 by Horner's rule."""
    c0, c1, c2, c3 = coef
    return c0 + s * (c1 + s * (c2 + s * c3))


class _LatticeTable:
    """Pieces of the panels [10^(j/32), 10^((j+1)/32)], split at kinks.

    Panel j is built the first time a query lands in it, each piece
    [a, b) from build(a, b) alone, so its contents depend on its index
    and never on the order of the queries.  build is passed per query,
    not kept, so that a table holds no reference back to its law.
    """

    def __init__(self, kinks):
        self._kinks = sorted(set(kinks))
        self.panels = {}   # panel index -> [(upper edge b, build(a, b))]

    def pieces(self, j, build):
        """[(upper edge, content)] of the pieces of panel j."""
        got = self.panels.get(j)
        if got is None:
            lo = 10.0 ** (j / _PANELS_PER_DECADE)
            hi = 10.0 ** ((j + 1) / _PANELS_PER_DECADE)
            edges = [lo] + [k for k in self._kinks if lo < k < hi] + [hi]
            got = self.panels[j] = [(b, build(a, b))
                                    for a, b in zip(edges[:-1], edges[1:])]
        return got

    def locate(self, x, build):
        """(j, i) such that piece i of panel j holds x."""
        j = math.floor(math.log10(x) * _PANELS_PER_DECADE)
        if x < 10.0 ** (j / _PANELS_PER_DECADE):   # log10 rounded up
            j -= 1
        for i, (top, _) in enumerate(self.pieces(j, build)):
            if x < top:
                return j, i
        return j + 1, 0

    def following(self, j, i):
        """(j, i) of the piece above piece i of the built panel j."""
        return (j, i + 1) if i + 1 < len(self.panels[j]) else (j + 1, 0)

    def contents(self):
        return [c for pieces in self.panels.values() for _, c in pieces]


class TiltedJumpLaw:
    """Jump mechanism of X: tilted kernel mass and total jump rate.

    kh_bracket serves the kill test from a table of ln k_h(x,(0,x)),
    split where k_h has kinks: at each kink kappa of h and at kappa/u for
    each atom u of the ratio measure, where h(ux) kinks.  next_jump_time
    reads majorants of r, with s at the piece tops, from a second table,
    split at the kinks of h and of the growth, where r may jump.  Both
    are _LatticeTables, built piece by piece as paths reach them.
    jumps, kills and kh_exact_calls count the outcomes of
    post_jump_sample and the exact masses it needed; proposals and
    majorant_doublings count the thinning proposals of next_jump_time
    and the windows it redid (see work_counters).
    """

    def __init__(self, model: ModelSpec, h: WeightFunction, b: float,
                 flow: Optional[FlowEngine] = None):
        self.model = model
        self.h = h
        self.b = float(b)
        self.flow = flow if flow is not None else \
            FlowEngine(model.growth, *model.domain_hint)
        atoms = [u for u, _ in model.frag.ratio_measure.atoms]
        self._kh = _LatticeTable(
            set(h.kinks) | {kink / u for kink in h.kinks for u in atoms})
        self._edge_log_kh = {}
        self._majorants = _LatticeTable(set(h.kinks)
                                        | set(model.growth.kinks))
        self.jumps = self.kills = self.kh_exact_calls = 0
        self.proposals = self.majorant_doublings = 0

    def kh_mass(self, x: float) -> float:
        """k_h(x,(0,x)) = int h(y)/h(x) k(x,dy), split at the kinks of h."""
        val = tilted_generator(self.model, self.h, x)[0]
        if not np.isfinite(val):
            raise DomainError(f"tilted kernel mass diverges at x={x:g}")
        return val

    def kh_exact(self, x: float) -> float:
        """kh_mass(x) for a kill test the table cannot decide, counted."""
        self.kh_exact_calls += 1
        return self.kh_mass(x)

    def kh_bracket(self, x: float) -> Tuple[float, float]:
        """(lo, hi) with lo <= kh_mass(x) <= hi, lo < hi, from the table;
        (v, v) with v = kh_exact(x) where the panel of x has no band."""
        j, i = self._kh.locate(x, self._fit)
        fit = self._kh.panels[j][i][1]
        if fit is None:
            val = self.kh_exact(x)
            return val, val
        t0, width, coef, eps = fit
        y = _cubic(coef, (math.log(x) - t0) / width)
        return math.exp(y - eps), math.exp(y + eps)

    def _fit(self, a, b):
        """Cubic in ln x through ln k_h at a, b and the log-thirds between,
        with band half-width eps = safety * (its larger error at the two
        log-sixths next to a and b) + floor; None where a node has no
        finite positive mass."""
        t0 = math.log(a)
        width = math.log(b) - t0
        nodes = [math.exp(t0 + f * width) for f in (1 / 3, 2 / 3)]
        checks = [math.exp(t0 + f * width) for f in (1 / 6, 5 / 6)]
        ys = [self._edge(a)] + [self._log_kh(x) for x in nodes] \
            + [self._edge(b)]
        found = [self._log_kh(x) for x in checks]
        if None in ys or None in found:
            return None
        y0, y1, y2, y3 = ys
        # Newton differences on the nodes 0, 1/3, 2/3, 1, expanded in s
        d1, d2, d3 = y1 - y0, y2 - 2.0 * y1 + y0, y3 - 3.0 * (y2 - y1) - y0
        coef = (y0, 3.0 * (d1 - 0.5 * d2 + d3 / 3.0), 4.5 * (d2 - d3),
                4.5 * d3)
        err = max(abs(_cubic(coef, (math.log(x) - t0) / width) - y)
                  for x, y in zip(checks, found))
        eps = _KH_SAFETY * err + _KH_FLOOR
        return (t0, width, coef, eps) if math.isfinite(eps) else None

    def _edge(self, x):
        """_log_kh at a panel edge, shared by the panels on both sides."""
        if x not in self._edge_log_kh:
            self._edge_log_kh[x] = self._log_kh(x)
        return self._edge_log_kh[x]

    def _log_kh(self, x):
        """ln kh_mass(x), or None where it raises or is not positive."""
        try:
            val = self.kh_mass(x)
        except GrowfragError:
            return None
        return math.log(val) if val > 0.0 else None

    def work_counters(self) -> dict:
        """Deterministic work counts of the runs made with this law."""
        eps = [fit[-1] for fit in self._kh.contents() if fit is not None]
        return {"jumps": self.jumps, "kills": self.kills,
                "kh_panels": len(self._kh.panels),
                "kh_exact_calls": self.kh_exact_calls,
                "kh_max_eps": max(eps, default=0.0),
                "r_pieces": len(self._majorants.contents()),
                "proposals": self.proposals,
                "majorant_doublings": self.majorant_doublings}

    def r(self, x: float) -> float:
        """Total jump rate r(x) = b + K(x) - d ln h/ds(x)."""
        val = self.b + self.model.frag.loss_rate(x) - self.h.log_slope(x)
        if not np.isfinite(val):
            raise DomainError(f"jump rate not finite at x={x:g}")
        return val

    def _majorant(self, a, b):
        """(s(b), r_bar) of the piece [a, b): r_bar is _MAJORANT_SAFETY
        times the largest r at _MAJORANT_POINTS log-spaced points of the
        piece, its top read just below b; None where r raises or the bound
        passes _MAJORANT_CEILING."""
        s_top = self.flow.s_of(b)
        t0, width = math.log(a), math.log(b / a)
        last = _MAJORANT_POINTS - 1
        xs = [a] + [math.exp(t0 + width * k / last) for k in range(1, last)]
        try:
            peak = max(self.r(x) for x in xs + [math.nextafter(b, a)])
        except GrowfragError:
            return s_top, None
        r_bar = _MAJORANT_SAFETY * peak
        return s_top, (r_bar if r_bar <= _MAJORANT_CEILING else None)

    def sup_tilt_ratio(self, x: float) -> float:
        """Upper bound for h(ux)/h(x) over u in (0,1), with safety margin."""
        atoms = tuple(u for u, _ in self.model.frag.ratio_measure.atoms)
        tilt = self.h.tilt(x)
        peak = max(tilt(u * x) for u in _TILT_PROBES + atoms)
        return 1.2 * max(peak, 1e-300)


def next_jump_time(state: PdmpState, law: TiltedJumpLaw, horizon: float):
    """First jump time by thinning against the majorant table of r.

    Samples tau with P(tau > t) = exp(-int_0^t r(phi(x,u)) du) for
    t <= horizon; returns NO_JUMP when tau exceeds the horizon.  The flow
    from x crosses the pieces of law's majorant table in turn; a window
    runs from where it enters a piece to where it leaves it, at
    t = s(top) - s(x), or to the horizon if that comes first.  Proposals
    in a window are spaced by exponentials at the piece's majorant r_bar
    and accepted with probability r/r_bar; a proposal with r > r_bar
    doubles r_bar and redoes the window.  A piece with no majorant takes
    one from r at _MAJORANT_POINTS points of the window's own arc.
    """
    if state.position is CEMETERY:
        raise DomainError("jump time queried from the cemetery")
    if horizon <= 0.0:
        return NO_JUMP
    x, rng, flow, table = state.position, state.rng, law.flow, law._majorants
    build = law._majorant
    s_x = flow.s_of(x)
    j, i = table.locate(x, build)
    t0 = 0.0
    while t0 < horizon:
        _, (s_top, r_bar) = table.pieces(j, build)[i]
        t1 = min(s_top - s_x, horizon)
        if r_bar is None:
            last = _MAJORANT_POINTS - 1
            r_bar = _MAJORANT_SAFETY * max(
                law.r(flow.flow_at(x, t0 + (t1 - t0) * k / last))
                for k in range(_MAJORANT_POINTS))
        while True:
            if r_bar > _MAJORANT_CEILING:
                raise MajorantOverflow(
                    f"thinning majorant {r_bar:g} exceeds {_MAJORANT_CEILING:g}")
            if r_bar <= 0.0:
                break
            t = t0
            violated = False
            while True:
                t += rng.standard_exponential() / r_bar
                if t >= t1:
                    break
                law.proposals += 1
                r_t = law.r(flow.flow_at(x, t))
                if r_t > r_bar:
                    # majorant violated: double it and redo this window
                    r_bar = 2.0 * max(r_bar, r_t)
                    law.majorant_doublings += 1
                    violated = True
                    break
                if rng.random() * r_bar <= r_t:
                    return t
            if not violated:
                break
        t0 = t1
        j, i = table.following(j, i)
    return NO_JUMP


def post_jump_sample(state: PdmpState, law: TiltedJumpLaw):
    """Outcome of an accepted jump at the current position.

    Returns CEMETERY with probability q(x)/r(x), where the killing rate
    q(x) = b - A h(x)/h(x) = r(x) - k_h(x,(0,x)); otherwise a child drawn
    from the normalized tilted kernel k_h(x,.)/k_h(x,(0,x)).  The test
    U r < max(q, 0) reads k_h from law.kh_bracket and calls the exact
    kh_mass only when the bracket leaves it open; the one uniform drawn
    and the outcome are those of the exact test.
    """
    x, rng = state.position, state.rng
    if x is CEMETERY:
        raise DomainError("jump sampled from the cemetery")
    r = law.r(x)
    lo, hi = law.kh_bracket(x)
    if lo < hi and r - hi < -1e-9:
        # the bracket cannot rule out a negative killing rate
        lo = hi = law.kh_exact(x)
    q = r - hi
    if q < -1e-9:
        raise DomainError(
            f"negative killing rate q({x:g}) = {q:g}; the supplied b "
            "is not an upper bound of A h/h")
    if r <= 0.0:
        raise DomainError(f"jump accepted at x={x:g} where r <= 0")
    draw = rng.random() * r
    if lo < hi and max(q, 0.0) <= draw < max(r - lo, 0.0):
        # U r falls between the bracket's killing rates
        lo = hi = law.kh_exact(x)
    if draw < max(r - hi, 0.0):
        law.kills += 1
        return CEMETERY
    law.jumps += 1
    measure = law.model.frag.ratio_measure
    tilt = law.h.tilt(x)
    if measure.density is None:
        # atomic measure: exact categorical over tilted weights
        weights = np.array([w * tilt(u * x) for u, w in measure.atoms])
        pick = rng.random() * weights.sum()
        for (u, _), w in zip(measure.atoms, np.cumsum(weights)):
            if pick <= w:
                return u * x
        return measure.atoms[-1][0] * x
    bound = law.sup_tilt_ratio(x)
    for _ in range(_REJECTION_CAP):
        u = measure.sample(rng.random)
        ratio = tilt(u * x)
        if ratio > bound:
            bound = 1.2 * ratio
            continue
        if rng.random() * bound <= ratio:
            return u * x
    raise RejectionStall(
        f"tilted child sampler acceptance below {1.0 / _REJECTION_CAP:g} "
        f"at x={x:g}")


@dataclass
class PathTrace:
    """Cadlag record of one simulated path: jumps plus the terminal event."""

    x0: float
    points: List[Tuple[float, object, str]] = field(default_factory=list)

    @property
    def alive(self):
        return bool(self.points) and self.points[-1][2] == "end"

    @property
    def endpoint(self):
        return self.points[-1][1] if self.points else self.x0

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "event"])
            for t, pos, event in self.points:
                writer.writerow([format(t, ".17g"), "" if pos is CEMETERY
                                 else format(pos, ".17g"), event])


def simulate_path(model: ModelSpec, law: TiltedJumpLaw, x0: float,
                  t_end: float, seed: int = 0, stream_id: int = 0,
                  state: Optional[PdmpState] = None) -> PathTrace:
    """Simulate one path of X on [0, t_end] (or until killing).

    A given ``state`` is continued from its clock (x0 must be its
    position) and is left at the path's end: the terminal position and
    clock t_end, or CEMETERY and the kill time.
    """
    if x0 <= 0.0:
        raise DomainError(f"initial position must be positive, got {x0}")
    if state is None:
        state = PdmpState.fresh(x0, seed=seed, stream_id=stream_id)
    guard = model.domain_hint[1] * _GUARD_FACTOR
    trace = PathTrace(x0=x0)
    jumps = 0
    while True:
        remaining = t_end - state.clock
        tau = next_jump_time(state, law, remaining)
        if tau is NO_JUMP:
            state.position = law.flow.flow_at(state.position, remaining)
            state.clock = t_end
            trace.points.append((t_end, state.position, "end"))
            return trace
        state.position = law.flow.flow_at(state.position, tau)
        state.clock += tau
        child = post_jump_sample(state, law)
        if child is CEMETERY:
            state.position = CEMETERY
            trace.points.append((state.clock, CEMETERY, "kill"))
            return trace
        state.position = child
        trace.points.append((state.clock, child, "jump"))
        jumps += 1
        if jumps > _JUMP_CAP:
            raise ExplosionGuard(f"more than {_JUMP_CAP} jumps before t_end")
        if child > guard:
            raise ExplosionGuard(
                f"position {child:g} beyond working-domain guard {guard:g}")


def _jackknife_se(vals: np.ndarray) -> float:
    n = len(vals)
    if n < 2:
        return float("inf")
    total = vals.sum()
    leave_one_out = (total - vals) / (n - 1)
    mean = total / n
    return float(np.sqrt((n - 1) / n * np.sum((leave_one_out - mean) ** 2)))


def mc_semigroup(model: ModelSpec, law: TiltedJumpLaw, f: Callable,
                 x0: float, t: float, n_paths: int, seed: int = 0
                 ) -> Tuple[float, float, PathTrace]:
    """Monte Carlo estimate of T_t f(x0) = e^{bt} h(x0) E[f/h(X_t); alive].

    Returns (estimate, jackknife standard error, trace of path 0).  Paths
    use independent streams (seed, path-index), so the result is
    reproducible and independent of evaluation order.
    """
    if n_paths < 2:
        raise DomainError("mc_semigroup needs at least two paths")
    h = law.h
    vals = np.empty(n_paths)
    for i in range(n_paths):
        trace = simulate_path(model, law, x0, t, seed=seed, stream_id=i)
        if i == 0:
            first = trace
        if trace.alive:
            y = trace.endpoint
            vals[i] = f(y) / h(y)
        else:
            vals[i] = 0.0
    scale = float(np.exp(law.b * t)) * h(x0)
    estimate = scale * float(vals.mean())
    std_error = scale * _jackknife_se(vals)
    contributing = int(np.count_nonzero(vals))
    if contributing < 2:
        warnings.warn(
            f"only {contributing} of {n_paths} paths contribute a nonzero "
            f"value; estimate {estimate:g}, standard error {std_error:g}",
            VarianceBlowup)
    elif estimate != 0.0 and std_error / abs(estimate) > 1.0:
        warnings.warn(
            f"standard error {std_error:g} exceeds estimate {estimate:g}",
            VarianceBlowup)
    return estimate, std_error, first
