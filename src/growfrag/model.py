"""Coefficient declarations for growth-fragmentation models.

A model is a growth speed c > 0, with scale s(x) = int_1^x dy/c(y), and a
relative fragmentation kernel k(x,.) = K(x) * p o m_x^{-1}: a rate K and
a measure p on the child/parent ratio u in (0,1), with m_x(u) = x*u.
The generator acts on weight functions as

    A f(x) = df/ds(x) + int_(0,x) f(y) k(x,dy) - K(x) f(x).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.special import roots_jacobi, roots_legendre

from .errors import (DomainError, GrowfragError, MomentDivergence,
                     QuadratureDivergence)

QUAD_RTOL = 1e-8
QUAD_LIMIT = 50
_N_PROBE = 256    # log-uniform probe points of every spot check
_RULE_N = 8              # Gauss nodes per panel of the coarse sum; the value
                         # sums 2 _RULE_N
_RULE_PANELS = 8         # panels per piece, halving in width toward its top
# their edges as fractions of the piece: 0, 1/2, 3/4, ..., 1
_PANEL_FRACTIONS = np.append(1.0 - 0.5 ** np.arange(_RULE_PANELS), 1.0)
_RULE_RTOL = 1e-10       # relative error estimate above which a probe falls
                         # back to tilted_generator
_RULE_BLOCK = 2 ** 13    # nodes read per block of probes, about 1 MB of
                         # temporaries


def _quad(func, a, b, rtol=QUAD_RTOL, limit=QUAD_LIMIT, points=None):
    """scipy quad wrapper that raises QuadratureDivergence on failure;
    points are breakpoints of func inside (a, b)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(
                func, a, b, epsabs=0.0, epsrel=rtol, limit=limit,
                points=points
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureDivergence(
                f"quadrature on ({a:g},{b:g}) did not converge: {exc}"
            ) from exc
    if not np.isfinite(val):
        raise QuadratureDivergence(f"quadrature on ({a:g},{b:g}) is not finite")
    if abs(err) > rtol * (1.0 + abs(val)) * 10:
        raise QuadratureDivergence(
            f"quadrature error {err:g} exceeds tolerance for value {val:g}"
        )
    return val


@dataclass(frozen=True)
class GrowthSpec:
    """Growth law given by a positive speed c.

    kinks lists x-locations where c is discontinuous or singular; the
    flow table is densified there and evaluation is from the right.
    """

    c: Callable[[float], float]
    kinks: tuple = ()

    @staticmethod
    def from_speed(c, kinks=()):
        return GrowthSpec(c=c, kinks=tuple(kinks))


class RatioMeasure:
    """Measure p on (0,1): atoms plus, when theta is given, the power
    density (theta+2) u^theta du with theta > -1.

    The density part has the exact cumulative P(u) = p((0,u]) =
    (theta+2)/(theta+1) u^(theta+1), read by cdf(); its normalized law
    has CDF u^(theta+1), which draws invert in closed form.  The density
    is singular at 0 for theta < 0; moments of it that diverge raise
    MomentDivergence.
    """

    def __init__(self, atoms: Sequence[tuple] = (), theta=None):
        self.atoms = tuple((float(u), float(w)) for u, w in atoms)
        for u, w in self.atoms:
            if not 0.0 < u < 1.0:
                raise DomainError(f"ratio atom at u={u} outside (0,1)")
            if w < 0.0:
                raise DomainError("ratio atom weights must be non-negative")
        self.theta, self.density = theta, None
        if theta is not None:
            if not -1.0 < theta < np.inf:
                raise DomainError(
                    f"power density needs finite theta > -1, got {theta}")
            coef = theta + 2.0
            self.density = lambda u: coef * u ** theta
        self._mass = None

    def integral(self, g, rtol=QUAD_RTOL, kinks=()):
        """int_(0,1) g(u) p(du); atoms exactly, density by quadrature.

        kinks are points of (0, 1) where g kinks; quad splits there.
        """
        total = sum(w * g(u) for u, w in self.atoms)
        if self.density is not None:
            dens = self.density
            try:
                total += _quad(lambda u: g(u) * dens(u), 0.0, 1.0, rtol=rtol,
                               points=kinks or None)
            except QuadratureDivergence:
                # one retry splitting at 1/2 and at the kinks; catches
                # mild endpoint issues
                edges = sorted({0.0, 0.5, 1.0, *kinks})
                for a, b in zip(edges[:-1], edges[1:]):
                    total += _quad(lambda u: g(u) * dens(u), a, b, rtol=rtol)
        return total

    def moment(self, a):
        """int u^a p(du); raises MomentDivergence when infinite."""
        try:
            val = self.integral(lambda u: u ** a)
        except QuadratureDivergence as exc:
            raise MomentDivergence(f"moment of order {a} diverges") from exc
        if not np.isfinite(val):
            raise MomentDivergence(f"moment of order {a} diverges")
        return val

    def mass(self):
        """p((0,1)), integrated once per measure."""
        if self._mass is None:
            self._mass = self.moment(0.0)
        return self._mass

    def mean(self):
        return self.moment(1.0)

    def cdf(self, u):
        """P(u) = p((0,u]) of the density part, exact; u in [0, 1]."""
        theta = self.theta
        return (theta + 2.0) / (theta + 1.0) * u ** (theta + 1.0)

    def sample(self, rng_uniform):
        """Draw one ratio from the normalized measure.

        rng_uniform is a callable returning U(0,1) variates.
        """
        pick = rng_uniform() * self.mass()
        for u, w in self.atoms:
            pick -= w
            if pick <= 0.0:
                return u
        # the normalized density (theta+1) u^theta has CDF u^(theta+1)
        return float(rng_uniform() ** (1.0 / (self.theta + 1.0)))


@dataclass
class FragmentationKernel:
    """Relative child-size kernel: rate K times the ratio measure p.

    kinks lists x-locations where K is not smooth (a jump, a corner, a
    zero it leaves); a table of int K s(dy) is densified there.
    """

    rate: Callable[[float], float]
    ratio_measure: RatioMeasure
    mass_conserving: bool = False
    kinks: tuple = ()

    def __post_init__(self):
        if self.mass_conserving:
            mean = self.ratio_measure.mean()
            if abs(mean - 1.0) > 1e-8:
                raise DomainError(
                    f"kernel declared mass-conserving but int u p(du)={mean!r}"
                )

    @staticmethod
    def relative(rate, ratio_measure, mass_conserving=False, kinks=()):
        return FragmentationKernel(rate=rate, ratio_measure=ratio_measure,
                                   mass_conserving=mass_conserving,
                                   kinks=tuple(kinks))

    def integrate(self, x, f, kinks=()):
        """int_(0,x) f(y) k(x, dy) = K(x) int f(u x) p(du); quad splits
        at the kinks of f below x, and its failure names x."""
        if x <= 0.0:
            raise DomainError(f"kernel queried at x={x} <= 0")
        ratios = tuple(sorted({k / x for k in kinks if 0.0 < k < x}))
        try:
            return self.rate(x) * self.ratio_measure.integral(
                lambda u: f(u * x), kinks=ratios)
        except QuadratureDivergence as exc:
            raise QuadratureDivergence(
                f"kernel integral at x={x:g}: {exc}") from exc

    def loss_rate(self, x):
        """K(x): the fragmentation event rate entering the generator."""
        return self.rate(x)


# Common ratio measures -------------------------------------------------

def uniform_ratio():
    """p(du) = 2 du: mass-conserving uniform repartition, the power
    density at theta = 0; its draw u = U returns U's own bits."""
    return power_ratio(0.0)


def mitosis_ratio():
    """p = 2 delta_{1/2}: equal mitosis."""
    return RatioMeasure(atoms=[(0.5, 2.0)])


def power_ratio(theta):
    """p(du) = (theta+2) u^theta du, mass-conserving for theta > -1.

    Moments go through quadrature of the density, so theta must be one
    it resolves: DomainError where the quadrature p((0,1)) fails or is
    off the exact (theta+2)/(theta+1) by more than 1e-8 relative.
    """
    measure = RatioMeasure(theta=theta)
    exact = measure.cdf(1.0)
    try:
        mass = measure.moment(0.0)
    except MomentDivergence as exc:
        raise DomainError(f"quadrature cannot resolve u^{theta}: {exc}") \
            from exc
    if abs(mass - exact) > 1e-8 * exact:
        raise DomainError(f"quadrature gives p((0,1)) = {mass!r} for "
                          f"u^{theta}, not {exact!r}")
    return measure


@dataclass(frozen=True)
class WeightFunction:
    """Positive function f together with d ln f/ds = (df/ds)/f, the
    logarithmic derivative along the scale s.

    log_value, when supplied, evaluates ln f(x) directly so that ratios
    f(y)/f(x) stay computable where f itself overflows.  log_values, when
    supplied, is log_value at every point of an array, with log_value's
    bits point by point.
    """

    value: Callable[[float], float]
    log_slope: Callable[[float], float]
    label: str = ""
    kinks: tuple = ()
    log_value: Optional[Callable[[float], float]] = None
    log_values: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x):
        return self.value(x)

    def tilt(self, x):
        """The map y -> f(y) / f(x), with f(x) evaluated once; via log
        differences when available."""
        if self.log_value is not None:
            log_value, log_x = self.log_value, self.log_value(x)
            return lambda y: float(np.exp(log_value(y) - log_x))
        value, value_x = self.value, self.value(x)
        return lambda y: value(y) / value_x


def identity_weight(growth):
    """f(x) = x; d ln f/ds = c(x)/x, with c the speed of the given growth."""
    return WeightFunction(value=lambda x: x,
                          log_slope=lambda x: float(growth.c(x)) / x,
                          label="id", log_value=lambda x: float(np.log(x)),
                          log_values=np.log)


def constant_weight(c=1.0):
    log_c = float(np.log(c))
    return WeightFunction(value=lambda x: c, log_slope=lambda x: 0.0,
                          label="one" if c == 1.0 else f"const:{c}",
                          log_value=lambda x: log_c,
                          log_values=lambda ys: np.full(np.shape(ys), log_c))


@dataclass
class ModelSpec:
    """Full coefficient set plus the declared irreducibility that backs
    the Fleming-Viot estimator (spot-checked only)."""

    growth: GrowthSpec
    frag: FragmentationKernel
    domain_hint: tuple = (1e-3, 1e3)
    irreducible: bool = False

    def __post_init__(self):
        lo, hi = self.domain_hint
        if not (0.0 < lo < 1.0 < hi):
            raise DomainError("domain_hint must satisfy 0 < x_min < 1 < x_max")

    def probe_grid(self):
        """Log-uniform probe points used for all spot checks."""
        lo, hi = self.domain_hint
        return np.geomspace(lo, hi, _N_PROBE)


def tilted_generator(model: ModelSpec, w: WeightFunction, x: float):
    """(k_w(x,(0,x))/w(x), A w(x)/w(x)): the tilted mass
    K(x) int w(ux)/w(x) p(du), the one kernel integral of a weight (read
    through w.tilt, split at w.kinks), and A w/w = d ln w/ds + it - K(x).
    """
    tilted = model.frag.integrate(x, w.tilt(x), w.kinks)
    return tilted, w.log_slope(x) + tilted - model.frag.loss_rate(x)


@dataclass(frozen=True)
class ProbeRule:
    """Record of the fixed rule over one or more probe passes: the largest
    relative error estimate |I_n - I_2n| / |I_2n| among the probes it kept,
    and the number of probes it sent to tilted_generator instead."""

    max_rel_error: float = 0.0
    fallbacks: int = 0

    def merge(self, other):
        return ProbeRule(max(self.max_rel_error, other.max_rel_error),
                         self.fallbacks + other.fallbacks)


@lru_cache(maxsize=None)
def _rule_nodes(theta):
    """(t, w) of Gauss-Legendre on [0, 1], then (t, w) of Gauss-Jacobi
    for the weight t^theta on [0, 1]; each lists the n-point rule's nodes,
    n = _RULE_N, then the 2n-point rule's."""
    legendre, jacobi = [], []
    for n in (_RULE_N, 2 * _RULE_N):
        t, wt = roots_legendre(n)
        legendre.append(((1.0 + t) / 2.0, wt / 2.0))
        t, wt = roots_jacobi(n, 0.0, theta)
        jacobi.append(((1.0 + t) / 2.0, wt / 2.0 ** (theta + 1.0)))
    return tuple(np.concatenate(pair) for pair in zip(*legendre)) \
        + tuple(np.concatenate(pair) for pair in zip(*jacobi))


def _density_nodes(measure, xs, kinks):
    """(u, weights, coarse) of the density part of p for the probes xs,
    each with the kinks below it: (0, 1) is cut at kink/x into pieces,
    each piece into _RULE_PANELS panels halving toward its top; the
    panel at u = 0 takes Gauss-Jacobi for u^theta, the others
    Gauss-Legendre times the density.  Arrays are (probes, panels, 3n);
    coarse marks the n-point nodes along the last axis."""
    theta = measure.theta
    leg_t, leg_w, jac_t, jac_w = _rule_nodes(theta)
    edges = np.stack([np.zeros_like(xs), *(k / xs for k in kinks),
                      np.ones_like(xs)], axis=1)
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    lo = (a + (b - a) * _PANEL_FRACTIONS[:-1]).reshape(len(xs), -1, 1)
    hi = (a + (b - a) * _PANEL_FRACTIONS[1:]).reshape(len(xs), -1, 1)
    u = lo + (hi - lo) * leg_t
    weights = (theta + 2.0) * (hi - lo) * leg_w * u ** theta
    top = hi[:, 0]
    u[:, 0] = top * jac_t
    weights[:, 0] = (theta + 2.0) * top ** (theta + 1.0) * jac_w
    return u, weights, np.arange(3 * _RULE_N) < _RULE_N


def _tilt_rows(w, xs, ys):
    """w(ys[i]) / w(xs[i]) for each probe i; by log differences from one
    log_values read where w has it, else point by point through w.tilt."""
    if w.log_values is not None:
        logs = w.log_values(np.concatenate([ys, xs[:, None]], axis=1))
        return np.exp(logs[:, :-1] - logs[:, -1:])
    rows = []
    for x, row in zip(xs, ys):
        tilt = w.tilt(x)
        rows.append([tilt(y) for y in row])
    return np.array(rows, dtype=float)


def _rule_block(measure, w, xs, kinks):
    """(int w(ux)/w(x) p(du), its relative error estimate) for the probes
    xs, each with the kinks below it.  Atoms are summed exactly; the
    density part sums 2n nodes a panel, estimated by the panels' summed
    |I_n - I_2n|."""
    atoms = np.array([u for u, _ in measure.atoms])
    masses = np.array([m for _, m in measure.atoms])
    if measure.density is None:
        g = _tilt_rows(w, xs, atoms * xs[:, None])
        return g @ masses, np.zeros(len(xs))
    u, weights, coarse = _density_nodes(measure, xs, kinks)
    shape = u.shape
    ys = np.concatenate([(u * xs[:, None, None]).reshape(len(xs), -1),
                         atoms * xs[:, None]], axis=1)
    g = _tilt_rows(w, xs, ys)
    terms = (g[:, :u[0].size] * weights.reshape(len(xs), -1)).reshape(shape)
    fine = terms[:, :, ~coarse].sum(axis=2)
    total = fine.sum(axis=1) + g[:, u[0].size:] @ masses
    error = np.abs(terms[:, :, coarse].sum(axis=2) - fine).sum(axis=1)
    return total, error / np.abs(total)


def tilted_generator_batch(model: ModelSpec, w: WeightFunction, xs):
    """tilted_generator at each point of the ascending array xs, by one
    fixed rule on blocks of probes, and the ProbeRule of the pass.

    The rule (_rule_block) sums the atoms of p exactly and the density
    (theta+2) u^theta on panels split at kink/x for the kinks of w below
    x: n- and 2n-point Gauss rules a panel, the 2n sum the value and
    |I_n - I_2n| its error estimate.  A probe whose estimate exceeds
    _RULE_RTOL relative, whose sum is not finite, or whose block's reads
    of w raise goes through tilted_generator alone and is counted.
    """
    xs = np.asarray(xs, dtype=float)
    measure = model.frag.ratio_measure
    kinks = sorted({float(k) for k in w.kinks if k > 0.0})
    integral = np.full(len(xs), np.nan)
    error = np.full(len(xs), np.inf)
    # probes past the same kinks share one layout of pieces
    bounds = [0, *np.searchsorted(xs, kinks, side="right"), len(xs)]
    for m, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        per_probe = (m + 1) * _RULE_PANELS * 3 * _RULE_N
        step = max(1, _RULE_BLOCK // per_probe)
        for i in range(start, stop, step):
            block = slice(i, min(i + step, stop))
            try:
                with np.errstate(all="ignore"):
                    integral[block], error[block] = _rule_block(
                        measure, w, xs[block], kinks[:m])
            except (GrowfragError, ArithmeticError, ValueError):
                continue
    kept = np.isfinite(integral) & (error <= _RULE_RTOL)
    tilted = np.empty(len(xs))
    ratio = np.empty(len(xs))
    for i, x in enumerate(xs):
        if kept[i]:
            rate = model.frag.loss_rate(x)
            tilted[i] = rate * integral[i]
            ratio[i] = w.log_slope(x) + tilted[i] - rate
        else:
            tilted[i], ratio[i] = tilted_generator(model, w, x)
    worst = float(np.max(error[kept])) if kept.any() else 0.0
    return tilted, ratio, ProbeRule(worst, int(np.sum(~kept)))
