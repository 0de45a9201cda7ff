"""Coefficient declarations for growth-fragmentation models.

A model is a growth law (either the monotone scale s directly or a speed
c > 0 with s(x) = int_1^x dy/c(y)), a fragmentation rate K and a
fragmentation kernel k.  The generator acts on weight functions as

    A f(x) = df/ds(x) + int_(0,x) f(y) k(x,dy) - K(x) f(x).

Relative kernels factor as k(x,.) = K(x) * p o m_x^{-1} with m_x(u) = x*u
and p a measure on the child/parent ratio u in (0,1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import DomainError, MomentDivergence, QuadratureDivergence

QUAD_RTOL = 1e-8
QUAD_LIMIT = 50


def _quad(func, a, b, rtol=QUAD_RTOL, limit=QUAD_LIMIT, points=None):
    """scipy quad wrapper that raises QuadratureDivergence on failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(
                func, a, b, epsabs=0.0, epsrel=rtol, limit=limit, points=points
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
    """Growth law, as an explicit scale s or a positive speed c.

    kinks lists x-locations where c (or ds/dx) is discontinuous or
    singular; the flow table is densified there and evaluation is from
    the right.
    """

    kind: str  # "speed-c" or "explicit-s"
    c: Optional[Callable[[float], float]] = None
    s: Optional[Callable[[float], float]] = None
    s_inverse: Optional[Callable[[float], float]] = None
    kinks: tuple = ()

    def __post_init__(self):
        if self.kind == "speed-c":
            if self.c is None:
                raise DomainError("speed-c growth needs a speed callable")
        elif self.kind == "explicit-s":
            if self.s is None:
                raise DomainError("explicit-s growth needs a scale callable")
        else:
            raise DomainError(f"unknown growth kind {self.kind!r}")

    @staticmethod
    def from_speed(c, kinks=()):
        return GrowthSpec(kind="speed-c", c=c, kinks=tuple(kinks))

    @staticmethod
    def from_scale(s, s_inverse=None, kinks=()):
        return GrowthSpec(kind="explicit-s", s=s, s_inverse=s_inverse,
                          kinks=tuple(kinks))


def _elementwise(f):
    """f applied to each entry of a 1-d array, called on Python floats
    (as np.vectorize calls it, without its per-element overhead)."""
    return lambda x: np.fromiter(map(f, x.tolist()), float, len(x))


def _gauss8(f, a, b):
    """8-point Gauss-Legendre integral of f over (a, b), elementwise."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = 0
    for g, w in zip(*np.polynomial.legendre.leggauss(8)):
        total = total + w * f(mid + half * g)
    return half * total


class RatioMeasure:
    """Measure p on (0,1): atoms plus an absolutely continuous part.

    Densities may be sigma-finite near 0 as long as the moments actually
    requested converge; divergent moment integrals raise MomentDivergence.
    density_inverse_cdf, when given, maps U(0,1) to an exact draw from the
    normalized density part; otherwise draws invert cdf_table().
    """

    def __init__(self, atoms: Sequence[tuple] = (), density=None,
                 density_singular_at_zero=False, density_inverse_cdf=None):
        self.atoms = tuple((float(u), float(w)) for u, w in atoms)
        for u, w in self.atoms:
            if not 0.0 < u < 1.0:
                raise DomainError(f"ratio atom at u={u} outside (0,1)")
            if w < 0.0:
                raise DomainError("ratio atom weights must be non-negative")
        self.density = density
        self.density_singular_at_zero = density_singular_at_zero
        self.density_inverse_cdf = density_inverse_cdf
        self._cdf_table = None
        self._mass = None

    def integral(self, g, rtol=QUAD_RTOL):
        """int_(0,1) g(u) p(du); atoms exactly, density by quadrature."""
        total = sum(w * g(u) for u, w in self.atoms)
        if self.density is not None:
            dens = self.density
            try:
                total += _quad(lambda u: g(u) * dens(u), 0.0, 1.0, rtol=rtol)
            except QuadratureDivergence:
                # one retry splitting at 1/2; catches mild endpoint issues
                total += _quad(lambda u: g(u) * dens(u), 0.0, 0.5, rtol=rtol)
                total += _quad(lambda u: g(u) * dens(u), 0.5, 1.0, rtol=rtol)
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

    def cdf_table(self):
        """Cumulative P(u) = p((0,u]) of the density part, as (grid, P).

        Built once per measure: 8-point Gauss panels on (0, 1e-12], on
        2047 geometric cells up to 1e-2 and on 8191 uniform cells up
        to 1; interval masses follow by interpolating P.  For a density
        singular at 0 the Gauss nodes miss most of the first panel's
        mass, so that panel is integrated adaptively.  Draws invert
        the table linearly inside each panel, which is not the law in
        the first one: for (theta+2) u^theta at theta = -0.9 it holds
        about 6% of the mass (1e-12^0.1).
        """
        if self._cdf_table is None:
            # geometric refinement near 0 to absorb integrable singularities
            left = np.geomspace(1e-12, 1e-2, 2048)
            right = np.linspace(1e-2, 1.0, 8192)[1:]
            grid = np.concatenate([[0.0], left, right])
            panel = _gauss8(_elementwise(self.density), grid[:-1], grid[1:])
            if self.density_singular_at_zero:
                panel[0] = _quad(self.density, 0.0, grid[1])
            self._cdf_table = (grid,
                               np.concatenate([[0.0], np.cumsum(panel)]))
        return self._cdf_table

    def sample(self, rng_uniform):
        """Draw one ratio from the normalized measure.

        rng_uniform is a callable returning U(0,1) variates.
        """
        pick = rng_uniform() * self.mass()
        for u, w in self.atoms:
            pick -= w
            if pick <= 0.0:
                return u
        if self.density_inverse_cdf is not None:
            return float(self.density_inverse_cdf(rng_uniform()))
        grid, cum = self.cdf_table()
        return float(np.interp(rng_uniform() * cum[-1], cum, grid))


@dataclass
class FragmentationKernel:
    """Child-size kernel, either relative (rate K times ratio measure p)
    or general (an explicit density k(x, y) on (0, x))."""

    kind: str  # "relative" or "general"
    rate: Optional[Callable[[float], float]] = None  # K(x), relative only
    ratio_measure: Optional[RatioMeasure] = None
    general_density: Optional[Callable[[float, float], float]] = None
    mass_conserving: bool = False

    def __post_init__(self):
        if self.kind == "relative":
            if self.rate is None or self.ratio_measure is None:
                raise DomainError("relative kernel needs rate and ratio measure")
            if self.mass_conserving:
                mean = self.ratio_measure.mean()
                if abs(mean - 1.0) > 1e-8:
                    raise DomainError(
                        f"kernel declared mass-conserving but int u p(du)={mean!r}"
                    )
        elif self.kind == "general":
            if self.general_density is None:
                raise DomainError("general kernel needs a density k(x, y)")
        else:
            raise DomainError(f"unknown kernel kind {self.kind!r}")

    @staticmethod
    def relative(rate, ratio_measure, mass_conserving=False):
        return FragmentationKernel(kind="relative", rate=rate,
                                   ratio_measure=ratio_measure,
                                   mass_conserving=mass_conserving)

    @staticmethod
    def general(density):
        return FragmentationKernel(kind="general", general_density=density)

    def integrate(self, x, f, rtol=QUAD_RTOL):
        """int_(0,x) f(y) k(x, dy)."""
        if x <= 0.0:
            raise DomainError(f"kernel queried at x={x} <= 0")
        if self.kind == "relative":
            return self.rate(x) * self.ratio_measure.integral(
                lambda u: f(u * x), rtol=rtol)
        return _quad(lambda y: f(y) * self.general_density(x, y), 0.0, x,
                     rtol=rtol)

    def total_mass(self, x):
        """k(x, (0, x))."""
        return self.integrate(x, lambda y: 1.0)

    def loss_rate(self, x):
        """K(x): the fragmentation event rate entering the generator."""
        if self.kind == "relative":
            return self.rate(x)
        # general kernels are used with K equal to the kernel mass
        return self.total_mass(x)


# Common ratio measures -------------------------------------------------

def uniform_ratio():
    """p(du) = 2 du: mass-conserving uniform repartition."""
    # the normalized density is uniform, so U(0,1) is already a draw
    return RatioMeasure(density=lambda u: 2.0,
                        density_inverse_cdf=lambda v: v)


def mitosis_ratio():
    """p = 2 delta_{1/2}: equal mitosis."""
    return RatioMeasure(atoms=[(0.5, 2.0)])


def power_ratio(theta):
    """p(du) = (theta+2) u^theta du, mass-conserving for theta > -1."""
    if theta <= -1.0:
        raise DomainError("power ratio needs theta > -1")
    coef, expo = theta + 2.0, 1.0 / (theta + 1.0)
    # the normalized density (theta+1) u^theta has CDF u^(theta+1)
    return RatioMeasure(density=lambda u: coef * u ** theta,
                        density_singular_at_zero=theta < 0.0,
                        density_inverse_cdf=lambda v: v ** expo)


@dataclass(frozen=True)
class WeightFunction:
    """Positive function together with its derivative along the scale s.

    log_value, when supplied, evaluates ln f(x) directly so that ratios
    f(y)/f(x) stay computable where f itself overflows.
    """

    value: Callable[[float], float]
    s_derivative: Callable[[float], float]
    label: str = ""
    kinks: tuple = ()
    log_value: Optional[Callable[[float], float]] = None

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


def identity_weight(flow):
    """f(x) = x; df/ds = c(x) along the given flow's scale."""
    return WeightFunction(value=lambda x: x,
                          s_derivative=lambda x: flow.speed_at(x),
                          label="id")


def constant_weight(c=1.0):
    return WeightFunction(value=lambda x: c, s_derivative=lambda x: 0.0,
                          label="one" if c == 1.0 else f"const:{c}")


@dataclass
class DoeblinDeclaration:
    """User declarations of the mixing assumptions (spot-checked only)."""

    irreducible: bool = False


@dataclass
class ModelSpec:
    """Full coefficient set plus declared structural assumptions."""

    growth: GrowthSpec
    frag: FragmentationKernel
    domain_hint: tuple = (1e-3, 1e3)
    doeblin: DoeblinDeclaration = field(default_factory=DoeblinDeclaration)
    n_probe: int = 256

    def __post_init__(self):
        lo, hi = self.domain_hint
        if not (0.0 < lo < 1.0 < hi):
            raise DomainError("domain_hint must satisfy 0 < x_min < 1 < x_max")

    def probe_grid(self):
        """Log-uniform probe points used for all spot checks."""
        lo, hi = self.domain_hint
        return np.geomspace(lo, hi, self.n_probe)

    def validate(self, flow=None):
        """Spot-check the structural invariants on the probe grid.

        Returns a list of (name, ok) pairs; raises DomainError for hard
        violations (non-positive speed, non-monotone scale).
        """
        checks = []
        probes = self.probe_grid()
        if self.growth.kind == "speed-c":
            cvals = np.array([self.growth.c(x) for x in probes])
            if np.any(cvals <= 0.0):
                raise DomainError("speed c must be positive on the probe grid")
            checks.append(("speed_positive", True))
        if flow is not None:
            svals = np.array([flow.s_of(x) for x in probes])
            if np.any(np.diff(svals) <= 0.0):
                raise DomainError("scale s is not strictly increasing")
            checks.append(("scale_monotone", True))
            checks.append(("scale_anchor", abs(flow.s_of(1.0)) < 1e-9))
        if self.frag.kind == "relative":
            pm = self.frag.ratio_measure
            if self.frag.mass_conserving:
                checks.append(("mass_conserving",
                               abs(pm.mean() - 1.0) <= 1e-8))
        return checks


def s_derivative_fd(flow, f, x, delta=None):
    """One-sided finite-difference df/ds used by validation checks."""
    if delta is None:
        delta = 1e-6 * max(x, 1.0)
    return (f(x + delta) - f(x)) / (flow.s_of(x + delta) - flow.s_of(x))


def generator_apply(model: ModelSpec, f: WeightFunction, x: float,
                    rtol=QUAD_RTOL):
    """A f(x) = df/ds(x) + int f(y) k(x,dy) - K(x) f(x)."""
    if x <= 0.0:
        raise DomainError(f"generator queried at x={x} <= 0")
    jump = model.frag.integrate(x, f.value, rtol=rtol)
    return f.s_derivative(x) + jump - model.frag.loss_rate(x) * f.value(x)


def mass_conservation_defect(model: ModelSpec, x: float):
    """int (y/x) k(x,dy) - K(x); 0 for conservative kernels.

    Positive values report size creation at splits, negative destruction.
    """
    if x <= 0.0:
        raise DomainError(f"defect queried at x={x} <= 0")
    return model.frag.integrate(x, lambda y: y / x) - model.frag.loss_rate(x)
