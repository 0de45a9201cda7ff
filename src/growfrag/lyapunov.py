"""Candidate weight functions and admissibility criteria.

This module builds the Lyapunov-type weights h, psi, psi' for the four
constructive regimes (entrance boundary, pseudo-entrance boundary,
near-logarithmic scale, near-constant rate), verifies boundedness of
A h / h numerically on a probe grid, and evaluates the closed-form
thresholds that decide whether a model falls in the spectral-gap regime.

Limits at 0 and infinity are always approximated by extrapolating
monotone trends over the first/last two decades of the probe grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import (CriterionViolated, DomainError, EntranceBoundaryAbsent,
                     GrowfragError, MomentDivergence, QuadratureDivergence,
                     UnboundedAbove)
from .flow import FlowEngine, _slowness
from .model import (FragmentationKernel, GrowthSpec, ModelSpec,
                    WeightFunction, constant_weight, identity_weight,
                    tilted_generator, _quad)

GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


# -- optimizer ----------------------------------------------------------

def golden_minimize(f, lo, hi, tol=GOLDEN_TOL, expand_hi=None):
    """Golden-section minimum of f on [lo, hi] with bracket auto-expansion.

    When the minimum sits on the upper boundary the bracket is doubled
    (up to expand_hi) before the section search starts.  Returns
    (argmin, minimum).
    """
    if not lo < hi:
        raise DomainError(f"empty optimizer bracket ({lo}, {hi})")
    for _ in range(64):
        width = hi - lo
        if expand_hi is None or hi >= expand_hi or \
                not f(hi) < f(hi - 1e-3 * width):
            break
        hi = min(hi + width, expand_hi)
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


# -- probe-grid asymptotics --------------------------------------------

def _tail_mask(probes, side, decades=2.0):
    logs = np.log10(probes)
    if side == "zero":
        return logs <= logs[0] + decades
    return logs >= logs[-1] - decades


def _tail_extreme(probes, vals, side, extreme):
    """Limsup (extreme=np.max) or liminf (np.min) of vals at side
    ("zero" or "inf"), read off the two outermost probe decades."""
    return float(extreme(vals[_tail_mask(probes, side)]))


# -- report type --------------------------------------------------------

@dataclass
class AssumptionReport:
    """Numeric verification record for one Lyapunov regime."""

    regime: str
    h: WeightFunction
    b: float
    lambda1: float
    lambda2: float
    compact_set: Tuple[float, float]
    checks: List[Tuple[str, float, bool]] = field(default_factory=list)

    @property
    def passed(self):
        return all(ok for _, _, ok in self.checks)

    def to_json(self):
        return {
            "regime": self.regime,
            "b": self.b,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "L": [self.compact_set[0], self.compact_set[1]],
            "checks": [{"name": name, "margin": margin, "pass": ok}
                       for name, margin, ok in self.checks],
        }


def _assumption4_fit(probes, ratio):
    """Largest lambda1 with A psi <= -lambda1 psi + C 1_L on the probes,
    for some C, given ratio = A psi/psi there.

    L is the smallest log-centered sub-interval of the probe grid
    achieving that lambda1.  Returns (lambda1, (lo, hi)).
    """
    n = len(probes)
    mid = n // 2
    j_max = min(mid, n - mid) - 2
    best = None
    for j in range(1, j_max + 1):
        inside = np.zeros(n, dtype=bool)
        inside[mid - j:mid + j + 1] = True
        lam = -float(np.max(ratio[~inside]))
        if best is None or lam > best[0] + 1e-12 * (1.0 + abs(lam)):
            best = (lam, (float(probes[mid - j]), float(probes[mid + j])))
    return best


def _sup_generator_ratio(model, h, probes, ahh):
    """Upper bound b >= sup A h/h, refined beyond the probe grid.

    The discrete max is sharpened by golden search around the argmax and
    around every declared kink of h (where the ratio can peak between
    probes), then padded by a small relative margin so that the killing
    rate b - A h/h stays non-negative everywhere.  Any b above the true
    sup is admissible: it only adds uniform extra killing.
    """
    b = float(np.max(ahh))
    spots = [probes[int(np.argmax(ahh))]]
    spots.extend(k for k in getattr(h, "kinks", ())
                 if probes[0] < k < probes[-1])
    step = float(np.exp(np.log(probes[-1] / probes[0]) / (len(probes) - 1)))
    for x_star in spots:
        lo = max(x_star / step, probes[0])
        hi = min(x_star * step, probes[-1])
        try:
            _, neg_min = golden_minimize(
                lambda x: -tilted_generator(model, h, x)[1], lo, hi,
                tol=1e-10 * x_star)
            b = max(b, -neg_min)
        except GrowfragError:
            continue
    return b + 1e-4 * (1.0 + abs(b))


class Lambda2Bound(float):
    """The bound -inf A psi'/psi', flagged when the ratio is constant."""

    def __new__(cls, value, is_constant, spread):
        obj = super().__new__(cls, value)
        obj.is_constant = is_constant
        obj.spread = spread
        return obj


def _probe_pass(model: ModelSpec, w: WeightFunction):
    """k_w(x,(0,x))/w(x) and A w/w on the probe grid, from tilted_generator.

    Values of w are read only to check that w is positive; one that
    overflows to inf is.
    """
    probes = model.probe_grid()
    with np.errstate(over="ignore"):
        vals = np.array([w.value(x) for x in probes])
    if np.any(vals <= 0.0):
        raise DomainError("weight must be positive on the probe grid")
    tilted, ratio = zip(*(tilted_generator(model, w, x) for x in probes))
    return np.array(tilted), np.array(ratio)


def lambda2_bound(model: ModelSpec, psi_prime: WeightFunction):
    """lambda2 = -inf over the probe grid of A psi'/psi'.

    The returned float carries .is_constant (ratio spread below 1e-9),
    which decides whether the upper bound lambda0 <= lambda2 is strict.
    """
    ratio = _probe_pass(model, psi_prime)[1]
    spread = float(np.max(ratio) - np.min(ratio))
    return Lambda2Bound(-float(np.min(ratio)), spread <= 1e-9, spread)


def _report(model, regime, h, ahh, b, checks, psi_prime_ratio):
    """Fit Assumption 4 with psi = h and assemble the regime's report,
    given A h/h and A psi'/psi' on the probes."""
    lambda1, compact = _assumption4_fit(model.probe_grid(), ahh)
    return AssumptionReport(regime=regime, h=h, b=b, lambda1=lambda1,
                            lambda2=-float(np.min(psi_prime_ratio)),
                            compact_set=compact, checks=checks)


# -- weight constructions ------------------------------------------------

def _two_sided_exp(left, right, scale, label, slope=lambda x: 1.0):
    """w(x) = exp(coef scale(x)), coef = left for x < 1 and right from 1 on.

    slope(x) is dscale/ds, so d ln w/ds = coef slope(x).
    """
    def log_value(x):
        return (left if x < 1.0 else right) * scale(x)

    def value(x):
        return float(np.exp(log_value(x)))

    def log_slope(x):
        return (left if x < 1.0 else right) * slope(x)

    return WeightFunction(value=value, log_slope=log_slope,
                          label=label, kinks=(1.0,), log_value=log_value)


def build_h_pseudo_entrance(model: ModelSpec, alpha: float) -> WeightFunction:
    """Two-sided exponential of the cumulative rate integral.

    h(x) = exp(-a0 G(x)) for x < 1 and exp(a_inf G(x)) for x >= 1, with
    G(x) = int_1^x K(y) s(dy); a0 exceeds the kernel mass minus one and
    a_inf is picked inside (alpha/ell, 1 - p_alpha) so that the tilted
    kernel mass stays below p_alpha.  Requires G(0+) finite and the rate
    to outgrow -alpha ln(u) / (1 - p_alpha) over dyadic windows at
    infinity.
    """
    if alpha <= 1.0:
        raise DomainError("pseudo-entrance construction needs alpha > 1")
    frag = model.frag
    measure = frag.ratio_measure
    c, rate = model.growth.c, frag.loss_rate

    def rate_speed(y):
        # G is the scale of the speed c/K, which is infinite where K = 0
        k = rate(y)
        return c(y) / k if k else math.inf

    cum = FlowEngine(GrowthSpec.from_speed(rate_speed, model.growth.kinks),
                     *model.domain_hint).s_of

    # precondition: int_(0,1) K(y) s(dy) < +infinity
    try:
        _quad(lambda y: _slowness(rate_speed, y), 0.0, 1.0, rtol=1e-6,
              limit=200)
    except QuadratureDivergence as exc:
        raise CriterionViolated(
            "near-zero rate integral int_(0,1) K s(dy) diverges") from exc

    x_probe = model.domain_hint[1] / 2.0
    atoms = [u for u, _ in measure.atoms]
    u_probes = sorted(set(np.linspace(0.01, 0.99, 25)) | set(atoms))

    current = alpha
    for _ in range(9):
        p_alpha = measure.moment(current)
        base = current / (1.0 - p_alpha)

        def epsilon(u):
            window = cum(x_probe) - cum(u * x_probe)
            return window / (-np.log(u)) - base

        # dyadic-window growth condition, with the failing probe reported
        margins = [(u, epsilon(u)) for u in u_probes]
        worst_u, worst = min(margins, key=lambda t: t[1])
        if worst <= 0.0:
            raise CriterionViolated(
                f"rate window int_(ux,x) K s(dy) too small at u={worst_u:g}",
                probe=worst_u, margin=worst)

        ell = base + 0.5 * epsilon(0.5)
        lo, hi = current / ell, 1.0 - p_alpha
        a_inf = None
        if lo < hi:
            for t in (0.99, 0.9, 0.75, 0.5, 0.25, 0.1):
                cand = lo + t * (hi - lo)
                tilted = measure.integral(
                    lambda u: u ** (cand * (epsilon(u) + base)))
                if tilted < p_alpha:
                    a_inf = cand
                    break
        if a_inf is not None:
            break
        # empty selection window: bisect alpha toward 1 and retry
        current = 1.0 + 0.5 * (current - 1.0)
    else:
        raise CriterionViolated(
            "no admissible tilt exponent a_inf after bisecting alpha")

    a0 = max(measure.mass() - 1.0, 0.0) + 1.0
    return _two_sided_exp(-a0, a_inf, cum, "pseudo-entrance",
                          slope=frag.loss_rate)


def build_h_powerlaw(model: ModelSpec, alpha: float,
                     beta: float) -> WeightFunction:
    """h(x) = exp(alpha s(x)) for x < 1 and exp(beta s(x)) for x >= 1.

    Admissible when alpha stays below inf c(x)/x, beta above the
    limsup of c(x)/x at infinity, and the kernel moments at the matched
    exponents are finite.
    """
    if alpha < 0.0 or beta < 0.0:
        raise DomainError("power-law exponents must be non-negative")
    frag = model.frag
    measure = frag.ratio_measure
    flow = FlowEngine(model.growth, *model.domain_hint)
    probes = model.probe_grid()
    speed = np.array([model.growth.c(x) for x in probes])
    cx_ratio = speed / probes

    # zero exponents make the corresponding side of h constant, which is
    # admissible without any speed-growth condition
    checks = []
    if alpha > 0.0:
        checks.append(("alpha-below-inf-speed-ratio",
                       float(np.min(cx_ratio)) - alpha))
    if beta > 0.0:
        checks.append(("beta-above-tail-speed-ratio",
                       beta - _tail_extreme(probes, cx_ratio, "inf",
                                            np.max)))
    for name, margin in checks:
        if margin <= 0.0:
            raise CriterionViolated(f"{name} fails", margin=margin)
    # moment conditions at the matched exponents
    below = probes < 1.0
    inf_inv_below = float(np.min((probes / speed)[below])) if np.any(below) \
        else 0.0
    inf_inv_above = float(np.min((probes / speed)[~below]))
    measure.moment(alpha * inf_inv_below)
    measure.moment(beta * inf_inv_above)
    return _two_sided_exp(alpha, beta, flow.s_of, "powerlaw")


# -- closed-form thresholds ----------------------------------------------

def uniform_kernel_objective(alpha):
    """Normalized window threshold for p(du) = 2 du."""
    return alpha * (alpha + 1.0) / (alpha - 1.0)


def mitosis_kernel_objective(alpha):
    """Normalized window threshold for p = 2 delta_{1/2}."""
    return alpha / (1.0 - 2.0 ** (1.0 - alpha))


def criterion_uniform_kernel():
    """Best (smallest) admissible window threshold for p(du) = 2 du.

    Returns (threshold, argmin) of alpha(alpha+1)/(alpha-1) over alpha>1;
    the minimum is 3 + 2 sqrt(2), attained at alpha = 1 + sqrt(2).
    """
    argmin, threshold = golden_minimize(uniform_kernel_objective,
                                        1.0 + 1e-9, 8.0, expand_hi=1e6)
    return threshold, argmin


def criterion_mitosis_kernel():
    """Best admissible window threshold for equal mitosis p = 2 delta_{1/2}."""
    argmin, threshold = golden_minimize(mitosis_kernel_objective,
                                        1.0 + 1e-9, 8.0, expand_hi=1e6)
    return threshold, argmin


def criterion_lnx(p: FragmentationKernel):
    """Sharp rate bounds for the logarithmic-scale regime.

    Returns (low, high) where the admissibility condition is
    limsup_{x->0} K(x) < low and liminf_{x->inf} K(x) > high, with
    low = sup_{a<1} (1-a)/(p_a - 1) and high = inf_{b>1} (b-1)/(1-p_b).
    """
    measure = p.ratio_measure

    def low_objective(a):
        pa = measure.integral(lambda u: u ** a, rtol=1e-12)
        return (1.0 - a) / (pa - 1.0)

    def high_objective(b):
        pb = measure.integral(lambda u: u ** b, rtol=1e-12)
        return (b - 1.0) / (1.0 - pb)

    # both objectives tend to -1 / int u ln(u) p(du) as the exponent -> 1;
    # evaluating them there directly is a 0/0 and is avoided
    boundary = -1.0 / measure.integral(lambda u: u * np.log(u), rtol=1e-12)

    # sup over a < 1: dense sweep over the finite-moment range, then refine
    a_lo = 0.0
    while a_lo > -20.0:
        try:
            measure.moment(a_lo - 1.0)
            a_lo -= 1.0
        except MomentDivergence:
            break
    edge = 1e-4
    a_grid = np.linspace(a_lo + edge, 1.0 - edge, 400)
    low_vals = np.array([low_objective(a) for a in a_grid])
    i = int(np.argmax(low_vals))
    lo_b = a_grid[max(i - 1, 0)]
    hi_b = a_grid[min(i + 1, len(a_grid) - 1)]
    _, neg_low = golden_minimize(lambda a: -low_objective(a), lo_b, hi_b)
    low = max(-neg_low, boundary)

    b_grid = np.linspace(1.0 + edge, 50.0, 400)
    high_vals = np.array([high_objective(b) for b in b_grid])
    j = int(np.argmin(high_vals))
    lo_b = b_grid[max(j - 1, 0)]
    hi_b = b_grid[min(j + 1, len(b_grid) - 1)]
    _, high = golden_minimize(high_objective, lo_b, hi_b)
    high = min(high, boundary)
    return low, high


def criterion_reggen(c0: float, c_inf: float):
    """Near-zero rate threshold for two-slope linear speed.

    c(x) = c0 x below the crossover and c_inf x above it (0 < c_inf < c0);
    the admissible bound on limsup_{x->0} K is
    3 c0 - c_inf - 2 sqrt(2 c0 (c0 - c_inf)), cross-checked against the
    maximum of (alpha + c0)(c_inf - alpha)/(c0 - alpha) over [0, c_inf).
    """
    if not 0.0 < c_inf < c0:
        raise DomainError(f"need 0 < c_inf < c0, got c0={c0}, c_inf={c_inf}")
    closed = 3.0 * c0 - c_inf - 2.0 * np.sqrt(2.0 * c0 * (c0 - c_inf))

    def objective(a):
        return (a + c0) * (c_inf - a) / (c0 - a)

    # the closed form is the stationary value of the objective; its
    # stationary point can sit below 0 when c_inf < c0/2, so the
    # cross-check brackets the whole positivity interval (-c0, c_inf)
    _, neg_max = golden_minimize(lambda a: -objective(a),
                                 -c0 * (1.0 - 1e-12),
                                 c_inf * (1.0 - 1e-12))
    if abs(closed + neg_max) > 1e-6:
        raise CriterionViolated(
            "closed-form threshold disagrees with the optimizer",
            margin=abs(closed + neg_max))
    return closed


def criterion_K_constant(model: ModelSpec) -> AssumptionReport:
    """Sandwich criterion for near-constant rates.

    Requires limsup_{x->inf} c(x)/x < -int ln(u) p(du) < liminf_{x->0}
    c(x)/x, a finite u^{-delta} moment, s(0+) = -infinity, and the rate
    pinched in (0, 1].
    """
    frag = model.frag
    measure = frag.ratio_measure
    threshold = measure.integral(lambda u: -np.log(u))

    delta = None
    for cand in (0.5, 0.25, 0.1, 0.01):
        try:
            measure.moment(-cand)
            delta = cand
            break
        except MomentDivergence:
            continue
    if delta is None:
        raise MomentDivergence(
            "no probed delta in {0.5,0.25,0.1,0.01} gives a finite "
            "u^{-delta} moment")

    flow = FlowEngine(model.growth, *model.domain_hint)
    probes = model.probe_grid()
    speed = np.array([model.growth.c(x) for x in probes])
    rate = np.array([frag.loss_rate(x) for x in probes])
    cx_ratio = speed / probes
    p0 = measure.mass()
    inf_rate = float(np.min(rate))
    sup_rate = float(np.max(rate))

    checks = []
    checks.append(("rate-positive", inf_rate, inf_rate > 0.0))
    checks.append(("rate-at-most-one", 1.0 - sup_rate, sup_rate <= 1.0 + 1e-12))
    s0 = flow.s_lower_limit()
    checks.append(("scale-diverges-at-zero",
                   -s0 if np.isfinite(s0) else np.inf, not np.isfinite(s0)))
    top = threshold - _tail_extreme(probes, cx_ratio, "inf", np.max)
    bot = _tail_extreme(probes, cx_ratio, "zero", np.min) - threshold
    checks.append(("speed-ratio-below-entropy-at-infinity", top, top > 0.0))
    checks.append(("speed-ratio-above-entropy-at-zero", bot, bot > 0.0))

    # exponents for the two-sided exponential weight, per the small-tilt
    # window: tilted mass below alpha + p((0,1)) on the left and below
    # -beta + p((0,1)) on the right
    sup_inv_below = _tail_extreme(probes, probes / speed, "zero", np.max)
    inf_inv_above = float(np.min((probes / speed)[probes >= 1.0]))
    liminf_inv_inf = _tail_extreme(probes, probes / speed, "inf", np.min)
    ladder = [0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001]
    alpha = beta = None
    for cand in ladder:
        if cand < delta / max(sup_inv_below, 1e-300) and \
                measure.moment(-cand * sup_inv_below) < cand + p0:
            alpha = cand
            break
    for cand in ladder:
        if cand < 1.0 / max(inf_inv_above, 1e-300) and \
                measure.moment(cand * liminf_inv_inf) < -cand + p0:
            beta = cand
            break
    checks.append(("left-tilt-window", -1.0 if alpha is None else alpha,
                   alpha is not None))
    checks.append(("right-tilt-window", -1.0 if beta is None else beta,
                   beta is not None))
    alpha = alpha if alpha is not None else 1e-3
    beta = beta if beta is not None else 1e-3

    h = _two_sided_exp(-alpha, beta, flow.s_of, "K-constant")
    ahh = _probe_pass(model, h)[1]
    b = _sup_generator_ratio(model, h, probes, ahh)
    return _report(model, "K-constant-critical", h, ahh, b, checks,
                   _probe_pass(model, constant_weight(1.0))[1])


def criterion_entrance(model: ModelSpec,
                       lambda0_estimate: float) -> AssumptionReport:
    """Entrance-boundary criterion: finite s(0+) and net tail killing.

    Requires limsup_{x->inf} (k(x,(0,x)) - K(x)) < -lambda0; the weight is
    exponential in s - s(0+) below 1 and capped affine in s above 1.
    """
    flow = FlowEngine(model.growth, *model.domain_hint)
    s0 = flow.s_lower_limit()
    if not np.isfinite(s0):
        raise EntranceBoundaryAbsent(
            "s(0+) diverges on the flow table; no entrance boundary")
    probes = model.probe_grid()
    # with w = 1, k_w(x,(0,x))/w is the kernel mass and A w/w the net
    # growth k(x,(0,x)) - K(x), which is also A psi'/psi' for psi' = 1
    kernel_mass, net = _probe_pass(model, constant_weight(1.0))
    margin = -lambda0_estimate - _tail_extreme(probes, net, "inf", np.max)

    limsup0 = _tail_extreme(probes, kernel_mass, "zero", np.max)
    bound = -limsup0 - lambda0_estimate
    a = min(0.0, bound - 0.1) if bound <= 0.0 else min(0.0, bound - 0.5 * bound)
    # x0 >= 1 solves exp(-a s(0+)) + s(x0) = 1
    shift = float(np.exp(-a * s0))
    x0 = flow.flow_at(1.0, max(1.0 - shift, 0.0))

    def value(x):
        if x < 1.0:
            return float(np.exp(a * (flow.s_of(x) - s0)))
        return min(1.0, shift + flow.s_of(x))

    def log_slope(x):
        if x < 1.0:
            return a
        return 1.0 / value(x) if x < x0 else 0.0

    h = WeightFunction(value=value, log_slope=log_slope,
                       label="entrance", kinks=(1.0, x0))
    ahh = _probe_pass(model, h)[1]
    b = _sup_generator_ratio(model, h, probes, ahh)
    checks = [
        ("entrance-scale-finite", -s0, True),
        ("tail-killing-margin", margin, margin > 0.0),
    ]
    return _report(model, "entrance", h, ahh, b, checks, net)


def verify_assumption1(model: ModelSpec, h: WeightFunction) -> AssumptionReport:
    """Probe-grid verification that A h / h is bounded above and the
    tilted kernel mass is finite on bounded sets."""
    probes = model.probe_grid()
    tilted, ahh = _probe_pass(model, h)
    tail = ahh[_tail_mask(probes, "inf", 1.0)]
    if len(tail) >= 3 and np.all(np.diff(tail) > 0.0):
        raise UnboundedAbove(
            "A h/h increases monotonically over the last probe decade",
            rise=float(tail[-1] - tail[0]))
    b = _sup_generator_ratio(model, h, probes, ahh)

    checks = [("generator-ratio-finite", b if np.isfinite(b) else -1.0,
               bool(np.isfinite(b)))]
    sup_levels = sorted({1.0, 10.0, 100.0, model.domain_hint[1]})
    for level in sup_levels:
        mask = probes <= level
        if not np.any(mask):
            continue
        sup = float(np.max(tilted[mask]))
        checks.append((f"tilted-mass-sup-below-{level:g}", sup,
                       bool(np.isfinite(sup))))
    return _report(model, "custom", h, ahh, b, checks,
                   _probe_pass(model, identity_weight(model.growth))[1])
