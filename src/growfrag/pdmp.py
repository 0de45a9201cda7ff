"""Simulation of the h-tilted sub-Markov process X.

Between jumps the particle follows the deterministic flow; at total rate
r(x) = k_h(x,(0,x)) + q(x) it either dies (probability q(x)/r(x), with
killing rate q(x) = b - A h(x)/h(x)) or picks a child from the h-tilted
kernel k_h(x,dy) = h(y)/h(x) k(x,dy).  Since

    A h(x)/h(x) = (dh/ds)(x)/h(x) + k_h(x,(0,x)) - K(x),

the total rate collapses to r(x) = b + K(x) - (dh/ds)(x)/h(x), so jump
*times* are sampled by thinning without any kernel integral; the tilted
mass is only evaluated at accepted jump positions.

The semigroup is recovered through the h-transform
T_t f(x) = e^{bt} h(x) E_x[ f(X_t)/h(X_t); t < zeta ].
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (DomainError, ExplosionGuard, MajorantOverflow,
                     RejectionStall)
from .flow import FlowEngine
from .model import ModelSpec, WeightFunction


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
_ARC_SAMPLES = 5
_JUMP_CAP = 10_000_000
_REJECTION_CAP = 1_000_000
_GUARD_FACTOR = 1e3


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


class TiltedJumpLaw:
    """Jump mechanism of X: tilted kernel mass and total jump rate."""

    def __init__(self, model: ModelSpec, h: WeightFunction, b: float,
                 flow: Optional[FlowEngine] = None):
        self.model = model
        self.h = h
        self.b = float(b)
        self.flow = flow if flow is not None else \
            FlowEngine(model.growth, *model.domain_hint)

    def kh_mass(self, x: float) -> float:
        """k_h(x,(0,x)) = int h(y)/h(x) k(x,dy)."""
        val = self.model.frag.integrate(x, self.h.tilt(x))
        if not np.isfinite(val):
            raise DomainError(f"tilted kernel mass diverges at x={x:g}")
        return val

    def r(self, x: float) -> float:
        """Total jump rate r(x) = b + K(x) - (dh/ds)(x)/h(x)."""
        val = self.b + self.model.frag.loss_rate(x) \
            - self.h.s_derivative(x) / self.h(x)
        if not np.isfinite(val):
            raise DomainError(f"jump rate not finite at x={x:g}")
        return val

    def sup_tilt_ratio(self, x: float) -> float:
        """Upper bound for h(ux)/h(x) over u in (0,1), with safety margin."""
        us = np.concatenate([np.geomspace(1e-6, 0.999999, 48),
                             [u for u, _ in
                              self.model.frag.ratio_measure.atoms]])
        tilt = self.h.tilt(x)
        peak = max(tilt(u * x) for u in us)
        return 1.2 * max(peak, 1e-300)


def next_jump_time(state: PdmpState, law: TiltedJumpLaw, horizon: float):
    """First jump time by thinning against windowed majorants.

    Samples tau with P(tau > t) = exp(-int_0^t r(phi(x,u)) du) for
    t <= horizon; returns NO_JUMP when tau exceeds the horizon.  The
    majorant is the arc supremum of r over each window of length
    horizon/16 (split additionally at declared speed kinks) times a
    safety factor, doubled and retried if the arc sampling missed a peak.
    """
    if state.position is CEMETERY:
        raise DomainError("jump time queried from the cemetery")
    if horizon <= 0.0:
        return NO_JUMP
    x, rng, flow = state.position, state.rng, law.flow
    s_x = flow.s_of(x)
    # window breakpoints: 16 equal panes plus kink crossings along the arc
    breaks = set(np.linspace(0.0, horizon, 17))
    for kink in law.flow.growth.kinks:
        if kink > x:
            t_k = flow.s_of(kink) - s_x
            if 0.0 < t_k < horizon:
                breaks.add(t_k)
    breaks = sorted(breaks)
    for t0, t1 in zip(breaks[:-1], breaks[1:]):
        arc = np.linspace(t0, t1, _ARC_SAMPLES)
        r_bar = _MAJORANT_SAFETY * max(law.r(flow.flow_at(x, u)) for u in arc)
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
                r_t = law.r(flow.flow_at(x, t))
                if r_t > r_bar:
                    # majorant violated: double it and redo this window
                    r_bar = 2.0 * max(r_bar, r_t)
                    violated = True
                    break
                if rng.random() * r_bar <= r_t:
                    return t
            if not violated:
                break
    return NO_JUMP


def post_jump_sample(state: PdmpState, law: TiltedJumpLaw):
    """Outcome of an accepted jump at the current position.

    Returns CEMETERY with probability q(x)/r(x), where the killing rate
    q(x) = b - A h(x)/h(x) = r(x) - k_h(x,(0,x)); otherwise a child drawn
    from the normalized tilted kernel k_h(x,.)/k_h(x,(0,x)).
    """
    x, rng = state.position, state.rng
    if x is CEMETERY:
        raise DomainError("jump sampled from the cemetery")
    r = law.r(x)
    q = r - law.kh_mass(x)
    if q < -1e-9:
        raise DomainError(
            f"negative killing rate q({x:g}) = {q:g}; the supplied b "
            "is not an upper bound of A h/h")
    if r <= 0.0:
        raise DomainError(f"jump accepted at x={x:g} where r <= 0")
    if rng.random() * r < max(q, 0.0):
        return CEMETERY
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
