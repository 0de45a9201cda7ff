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
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import DomainError, MomentDivergence, QuadratureDivergence

QUAD_RTOL = 1e-8
QUAD_LIMIT = 50
_N_PROBE = 256    # log-uniform probe points of every spot check


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

    def cdf_table(self):
        """Cumulative P(u) = p((0,u]) of the density part, as (grid, P).

        Built once per measure: 8-point Gauss panels on (0, 1e-12], on
        2047 geometric cells up to 1e-2 and on 8191 uniform cells up
        to 1; interval masses follow by interpolating P.  For a density
        singular at 0 the Gauss nodes miss most of the first panel's
        mass, so that panel is integrated adaptively.
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
        v = rng_uniform() * cum[-1]
        if v < cum[1]:
            # the first panel (0, g1] has no inner nodes: invert the local
            # power law P(u) = P(g1) (u/g1)^a, a read off the first two
            # panels, which is exact for a power density
            a = np.log(cum[2] / cum[1]) / np.log(grid[2] / grid[1])
            return float(grid[1] * (v / cum[1]) ** (1.0 / a))
        return float(np.interp(v, cum, grid))


@dataclass
class FragmentationKernel:
    """Relative child-size kernel: rate K times the ratio measure p."""

    rate: Callable[[float], float]
    ratio_measure: RatioMeasure
    mass_conserving: bool = False

    def __post_init__(self):
        if self.mass_conserving:
            mean = self.ratio_measure.mean()
            if abs(mean - 1.0) > 1e-8:
                raise DomainError(
                    f"kernel declared mass-conserving but int u p(du)={mean!r}"
                )

    @staticmethod
    def relative(rate, ratio_measure, mass_conserving=False):
        return FragmentationKernel(rate=rate, ratio_measure=ratio_measure,
                                   mass_conserving=mass_conserving)

    def integrate(self, x, f, kinks=()):
        """int_(0,x) f(y) k(x, dy) = K(x) int f(u x) p(du); quad splits
        at the kinks of f below x."""
        if x <= 0.0:
            raise DomainError(f"kernel queried at x={x} <= 0")
        ratios = tuple(sorted({k / x for k in kinks if 0.0 < k < x}))
        return self.rate(x) * self.ratio_measure.integral(
            lambda u: f(u * x), kinks=ratios)

    def loss_rate(self, x):
        """K(x): the fragmentation event rate entering the generator."""
        return self.rate(x)


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


def identity_weight(growth):
    """f(x) = x; df/ds = c(x), the speed of the given growth."""
    return WeightFunction(value=lambda x: x,
                          s_derivative=lambda x: float(growth.c(x)),
                          label="id")


def constant_weight(c=1.0):
    return WeightFunction(value=lambda x: c, s_derivative=lambda x: 0.0,
                          label="one" if c == 1.0 else f"const:{c}")


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


def generator_apply(model: ModelSpec, f: WeightFunction, x: float):
    """A f(x) = df/ds(x) + int f(y) k(x,dy) - K(x) f(x)."""
    if x <= 0.0:
        raise DomainError(f"generator queried at x={x} <= 0")
    jump = model.frag.integrate(x, f.value)
    return f.s_derivative(x) + jump - model.frag.loss_rate(x) * f.value(x)
