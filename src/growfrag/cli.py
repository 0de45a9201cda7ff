"""Command-line front end: config parsing, dispatch, stable output.

Subcommands: check, simulate, pde, spectral, qsd, converge.  Runs are
configured by a sectioned key=value file ([model], [numerics], [run]),
identified by its SHA-256 hash in every output, and emit JSON with a
fixed key order and 17-significant-digit decimal floats so reruns with
the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lyapunov, pde, qsd, spectral
from .errors import (CFLViolation, ConfigError, CriterionViolated,
                     DomainError, GrowfragError, MomentDivergence,
                     QuadratureDivergence, Reducible, UnboundedAbove)
from .flow import _EXTENSION_CEILING
from .model import (FragmentationKernel, GrowthSpec, ModelSpec,
                    constant_weight, mitosis_ratio, power_ratio,
                    uniform_ratio)
from .pdmp import TiltedJumpLaw, mc_semigroup

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_CONFIG = 2

_KNOWN_KEYS = {
    "model": {"growth", "growth_c0", "growth_exponent", "kernel",
              "kernel_theta", "rate", "rate_k0", "rate_exponent",
              "mass_conserving", "irreducible"},
    "numerics": {"grid_n", "x_min", "x_max", "dt", "method"},
    "run": {"seed", "n_paths", "n_particles", "t_end", "checkpoints", "x0",
            "f", "regime", "alpha", "beta", "burn_in", "lambda0_estimate"},
}


# -- stable JSON ----------------------------------------------------------

def dumps_stable(obj, indent=0) -> str:
    """JSON with insertion key order and %.17g floats; rejects NaN/inf."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {dumps_stable(str(k))}: {dumps_stable(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(dumps_stable(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not np.isfinite(val):
            raise ConfigError(f"non-finite value {val} in JSON output")
        return format(val, ".17g")
    if isinstance(obj, str):
        # escapes quotes, backslashes and control characters
        return json.dumps(obj, ensure_ascii=False)
    raise ConfigError(f"unserializable value of type {type(obj).__name__}")


# -- configuration --------------------------------------------------------

@dataclass
class RunConfig:
    """Validated run configuration plus the raw-file hash."""

    model: ModelSpec
    kernel_name: str
    sha256: str
    grid_n: int
    x_min: float
    x_max: float
    dt: Optional[float]
    method: str
    seed: int
    n_paths: int
    n_particles: int
    t_end: float
    checkpoints: list
    x0: float
    f_name: str
    regime: str
    alpha: float
    beta: float
    burn_in: Optional[float]
    lambda0_estimate: float

    def functional(self):
        name = self.f_name
        if name == "one":
            return lambda x: 1.0
        if name == "id":
            return lambda x: x
        if name.startswith("indicator:"):
            try:
                a, b = (float(v) for v in name.split(":")[1:])
            except ValueError:
                raise ConfigError(f"bad indicator spec {name!r}", key="f")
            # finite, a < b and b > 0, else the functional vanishes on sizes
            if not (-np.inf < a < b < np.inf and b > 0.0):
                raise ConfigError(f"indicator {name!r} needs finite a < b "
                                  "with b > 0", key="f")
            return lambda x: 1.0 if a <= x <= b else 0.0
        raise ConfigError(f"unknown functional {name!r}", key="f")


def _get(parser, section, key, cast, default=None, positive=False,
         minimum=None):
    if not parser.has_option(section, key):
        if default is None and cast is not bool:
            return None
        return default
    raw = parser.get(section, key)
    try:
        # booleans follow configparser: 1/yes/true/on or 0/no/false/off
        val = parser.getboolean(section, key) if cast is bool else cast(raw)
    except ValueError:
        raise ConfigError(
            f"cannot parse [{section}] {key} = {raw!r}", key=key)
    if cast is float and not np.isfinite(val):
        raise ConfigError(f"[{section}] {key} must be finite, got {val}",
                          key=key)
    if positive and val <= 0:
        raise ConfigError(f"[{section}] {key} must be positive, got {val}",
                          key=key)
    if minimum is not None and val < minimum:
        raise ConfigError(
            f"[{section}] {key} must be at least {minimum}, got {val}",
            key=key)
    return val


def _build_growth(parser) -> GrowthSpec:
    kind = _get(parser, "model", "growth", str, "constant").strip()
    c0 = _get(parser, "model", "growth_c0", float, 1.0, positive=True)
    if kind == "constant":
        return GrowthSpec.from_speed(lambda x: c0)
    if kind == "linear":
        return GrowthSpec.from_speed(lambda x: c0 * x)
    if kind == "power":
        expo = _get(parser, "model", "growth_exponent", float, 1.0)
        return GrowthSpec.from_speed(lambda x: c0 * x ** expo)
    raise ConfigError(f"unknown growth kind {kind!r}", key="growth")


def _build_kernel(parser) -> FragmentationKernel:
    kind = _get(parser, "model", "kernel", str, "uniform").strip()
    if kind == "uniform":
        ratio = uniform_ratio()
    elif kind == "mitosis":
        ratio = mitosis_ratio()
    elif kind == "power":
        theta = _get(parser, "model", "kernel_theta", float, 1.0)
        try:
            ratio = power_ratio(theta)
        except DomainError as exc:
            raise ConfigError(f"[model] kernel_theta = {theta}: {exc}",
                              key="kernel_theta") from exc
    else:
        raise ConfigError(f"unknown kernel kind {kind!r}", key="kernel")
    rate_kind = _get(parser, "model", "rate", str, "constant").strip()
    k0 = _get(parser, "model", "rate_k0", float, 1.0, positive=True)
    if rate_kind == "constant":
        rate = lambda x: k0
    elif rate_kind == "linear":
        rate = lambda x: k0 * x
    elif rate_kind == "power":
        expo = _get(parser, "model", "rate_exponent", float, 1.0)
        rate = lambda x: k0 * x ** expo
    else:
        raise ConfigError(f"unknown rate kind {rate_kind!r}", key="rate")
    conserving = _get(parser, "model", "mass_conserving", bool, False)
    try:
        return FragmentationKernel.relative(rate, ratio,
                                            mass_conserving=conserving)
    except (DomainError, MomentDivergence, QuadratureDivergence) as exc:
        raise ConfigError(f"[model] mass_conserving = true: {exc}",
                          key="mass_conserving") from exc


def load_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    sha = hashlib.sha256(raw).hexdigest()
    # no interpolation: a '%' in a value is literal
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"unparseable config: {exc}")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]", key=section)
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key [{section}] {key}", key=key)

    x_min = _get(parser, "numerics", "x_min", float, 1e-3, positive=True)
    x_max = _get(parser, "numerics", "x_max", float, 1e3, positive=True)
    if not x_min < 1.0 < x_max:
        raise ConfigError(
            f"domain must satisfy x_min < 1 < x_max, got ({x_min}, {x_max})",
            key="x_min")
    grid_n = _get(parser, "numerics", "grid_n", int, 256, minimum=2)
    dt = _get(parser, "numerics", "dt", float, None, minimum=pde._MIN_DT)
    method = _get(parser, "numerics", "method", str, "euler").strip()
    if method not in ("euler", "heun"):
        raise ConfigError(f"unknown time stepper {method!r}", key="method")

    irreducible = _get(parser, "model", "irreducible", bool, True)
    model = ModelSpec(growth=_build_growth(parser),
                      frag=_build_kernel(parser),
                      domain_hint=(x_min, x_max), irreducible=irreducible)

    seed = _get(parser, "run", "seed", int, 0)
    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}",
                          key="seed")
    checkpoints = []
    raw_cp = _get(parser, "run", "checkpoints", str, "")
    if raw_cp:
        try:
            checkpoints = [float(v) for v in raw_cp.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"bad checkpoint list {raw_cp!r}",
                              key="checkpoints")
        if not np.all(np.isfinite(checkpoints)):
            raise ConfigError(f"non-finite checkpoint in {raw_cp!r}",
                              key="checkpoints")
    cfg = RunConfig(
        model=model,
        kernel_name=_get(parser, "model", "kernel", str, "uniform").strip(),
        sha256=sha, grid_n=grid_n, x_min=x_min, x_max=x_max,
        dt=dt, method=method, seed=seed,
        n_paths=_get(parser, "run", "n_paths", int, 1000, minimum=2),
        n_particles=_get(parser, "run", "n_particles", int, 200, minimum=2),
        t_end=_get(parser, "run", "t_end", float, 1.0, positive=True),
        checkpoints=checkpoints,
        x0=_get(parser, "run", "x0", float, 1.0, positive=True),
        f_name=_get(parser, "run", "f", str, "one").strip(),
        regime=_get(parser, "run", "regime", str, "pseudo-entrance").strip(),
        alpha=_get(parser, "run", "alpha", float, 2.0),
        beta=_get(parser, "run", "beta", float, 0.0),
        burn_in=_get(parser, "run", "burn_in", float, None, positive=True),
        lambda0_estimate=_get(parser, "run", "lambda0_estimate", float, 0.0),
    )
    cfg.functional()   # raises ConfigError naming f for an unknown name
    if cfg.burn_in is not None and cfg.burn_in >= cfg.t_end:
        raise ConfigError(f"[run] burn_in = {cfg.burn_in} must lie below "
                          f"t_end = {cfg.t_end}", key="burn_in")
    if cfg.regime == "pseudo-entrance" and cfg.alpha <= 1.0:
        raise ConfigError(f"[run] alpha = {cfg.alpha}: the pseudo-entrance "
                          "construction needs alpha > 1", key="alpha")
    for key in ("alpha", "beta"):
        if cfg.regime == "powerlaw" and getattr(cfg, key) < 0.0:
            raise ConfigError(f"[run] {key} = {getattr(cfg, key)}: power-law "
                              "exponents must be non-negative", key=key)
    return cfg


def _build_weight(cfg: RunConfig):
    """Tilting weight h and its rate bound b for the configured regime."""
    if cfg.regime == "pseudo-entrance":
        h = lyapunov.build_h_pseudo_entrance(cfg.model, cfg.alpha)
    elif cfg.regime == "powerlaw":
        h = lyapunov.build_h_powerlaw(cfg.model, cfg.alpha, cfg.beta)
    elif cfg.regime == "constant":
        h = constant_weight(1.0)
    else:
        raise ConfigError(f"no weight construction for regime "
                          f"{cfg.regime!r}", key="regime")
    report = lyapunov.verify_assumption1(cfg.model, h)
    return h, report


def _grid(cfg: RunConfig) -> pde.SizeGrid:
    return pde.SizeGrid.log_uniform(cfg.x_min, cfg.x_max, cfg.grid_n)


def _check_marks(marks, t_end):
    """Reject checkpoints outside [0, t_end] before any assembly."""
    outside = [t for t in marks if not 0.0 <= t <= t_end]
    if outside:
        raise ConfigError(
            f"checkpoints {', '.join(f'{t:g}' for t in outside)} lie "
            f"outside [0, t_end = {t_end:g}]", key="checkpoints")


def _check_start(cfg: RunConfig):
    """Reject a point-mass start outside the size grid."""
    if not cfg.x_min <= cfg.x0 <= cfg.x_max:
        raise ConfigError(
            f"x0 = {cfg.x0:g} lies outside the grid [x_min, x_max] = "
            f"[{cfg.x_min:g}, {cfg.x_max:g}]", key="x0")


def _check_ceiling(cfg: RunConfig):
    """Reject a Monte Carlo start above the flow table's hard ceiling."""
    ceiling = cfg.x_max * _EXTENSION_CEILING
    if cfg.x0 > ceiling:
        raise ConfigError(
            f"x0 = {cfg.x0:g} lies above the flow table's ceiling "
            f"x_max * {_EXTENSION_CEILING:g} = {ceiling:g}", key="x0")


def _solve(cfg: RunConfig, grid, marks, operator=None):
    """pde.solve on the configured start, horizon, dt and method; a dt
    above the positivity bound is a config error naming dt."""
    try:
        return pde.solve(cfg.model, grid, cfg.x0, cfg.t_end, dt=cfg.dt,
                         method=cfg.method, checkpoints=marks,
                         operator=operator)
    except CFLViolation as exc:
        raise ConfigError(f"[numerics] dt = {cfg.dt}: {exc}",
                          key="dt") from exc


# -- subcommands ----------------------------------------------------------

def cmd_check(cfg: RunConfig, out_dir: str) -> dict:
    checks = []
    thresholds = {}
    if cfg.kernel_name == "uniform":
        thr, arg = lyapunov.criterion_uniform_kernel()
        thresholds["uniform_kernel"] = {"threshold": thr, "argmin": arg}
    elif cfg.kernel_name == "mitosis":
        thr, arg = lyapunov.criterion_mitosis_kernel()
        thresholds["mitosis_kernel"] = {"threshold": thr, "argmin": arg}

    if cfg.regime == "lnx":
        low, high = lyapunov.criterion_lnx(cfg.model.frag)
        thresholds["lnx"] = {"low": low, "high": high}
        probes = cfg.model.probe_grid()
        k_vals = np.array([cfg.model.frag.rate(x) for x in probes])
        tail = max(4, len(probes) // 8)
        k_at_zero = float(np.max(k_vals[:tail]))
        k_at_inf = float(np.min(k_vals[-tail:]))
        checks.append({"name": "rate-below-low-threshold-at-zero",
                       "margin": low - k_at_zero,
                       "pass": bool(k_at_zero < low)})
        checks.append({"name": "rate-above-high-threshold-at-infinity",
                       "margin": k_at_inf - high,
                       "pass": bool(k_at_inf > high)})
        report_json = None
    elif cfg.regime == "K-constant":
        report = lyapunov.criterion_K_constant(cfg.model)
        report_json = report.to_json()
        checks.extend(report_json["checks"])
    elif cfg.regime == "entrance":
        report = lyapunov.criterion_entrance(cfg.model, cfg.lambda0_estimate)
        report_json = report.to_json()
        checks.extend(report_json["checks"])
    else:
        try:
            _, report = _build_weight(cfg)
        except UnboundedAbove as exc:
            report_json = None
            checks.append({"name": "generator-ratio-bounded-above",
                           "margin": -exc.rise, "pass": False})
        else:
            report_json = report.to_json()
            checks.extend(report_json["checks"])

    passed = all(c["pass"] for c in checks)
    return {
        "command": "check",
        "regime": cfg.regime,
        "passed": passed,
        "checks": checks,
        "thresholds": thresholds,
        "report": report_json,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
    }


def cmd_simulate(cfg: RunConfig, out_dir: str) -> dict:
    _check_ceiling(cfg)
    h, report = _build_weight(cfg)
    law = TiltedJumpLaw(cfg.model, h, b=report.b)
    [(estimate, std_error)], trace = mc_semigroup(
        cfg.model, law, [cfg.functional()], cfg.x0, cfg.t_end, cfg.n_paths,
        seed=cfg.seed)
    trace.to_csv(os.path.join(out_dir, "path.csv"))
    return {
        "command": "simulate",
        "estimate": estimate,
        "std_error": std_error,
        "n_paths": cfg.n_paths,
        "t_end": cfg.t_end,
        "x0": cfg.x0,
        "f": cfg.f_name,
        "b": report.b,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        "work": law.work_counters(),
    }


def cmd_pde(cfg: RunConfig, out_dir: str) -> dict:
    _check_marks(cfg.checkpoints, cfg.t_end)
    _check_start(cfg)
    grid = _grid(cfg)
    traj = _solve(cfg, grid, cfg.checkpoints or None)
    traj.to_csv(os.path.join(out_dir, "density.csv"))
    return {
        "command": "pde",
        "summary": traj.summary(),
        "below_domain_mass": traj.below_domain_mass,
        "steps": traj.steps,
        "floored_mass": traj.floored_mass,
        "floor_scans": traj.floor_scans,
        "grid_n": cfg.grid_n,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
    }


def _spectral_triple(cfg: RunConfig):
    grid = _grid(cfg)
    op = pde.build_discrete_operator(cfg.model, grid)
    try:
        triple = spectral.principal_eigen(op, constant_weight(1.0))
    except Reducible as exc:
        if not cfg.model.irreducible:
            raise
        # the model is declared irreducible, so the grid lost the coupling
        raise ConfigError(f"[numerics] grid_n = {cfg.grid_n} is too coarse "
                          f"for the kernel: {exc}", key="grid_n") from exc
    return grid, op, triple


def cmd_spectral(cfg: RunConfig, out_dir: str) -> dict:
    _, _, triple = _spectral_triple(cfg)
    triple.to_csv(os.path.join(out_dir, "triple.csv"))
    return {
        "command": "spectral",
        "lambda0": triple.lambda0,
        "residuals": {"right": triple.residuals[0],
                      "left": triple.residuals[1]},
        "grid_n": cfg.grid_n,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        "work": triple.work,
    }


def cmd_qsd(cfg: RunConfig, out_dir: str) -> dict:
    _check_ceiling(cfg)
    h, report = _build_weight(cfg)
    law = TiltedJumpLaw(cfg.model, h, b=report.b)
    res = qsd.fv_run(cfg.model, law, cfg.n_particles, cfg.t_end,
                     burn_in=cfg.burn_in, x0=cfg.x0, seed=cfg.seed)
    qsd.ParticleEnsemble(res.snapshots[-1]).to_csv(
        os.path.join(out_dir, "ensemble.csv"))
    return {
        "command": "qsd",
        "lambda0X": res.lambda0X,
        "ci": [res.ci[0], res.ci[1]],
        "N": res.n_particles,
        "burn_in": res.burn_in,
        "kills": res.kills,
        "b": report.b,
        "lambda0": res.lambda0X - report.b,
        "supported": res.supported,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        "lambda0_ci": [res.ci[0] - report.b, res.ci[1] - report.b],
        "work": law.work_counters(),
    }


def cmd_converge(cfg: RunConfig, out_dir: str) -> dict:
    horizon = cfg.t_end
    marks = cfg.checkpoints or list(np.linspace(
        0.25 * horizon, horizon, 12))
    _check_marks(marks, horizon)
    _check_start(cfg)
    try:
        # the times solve records, t_end included
        spectral.fit_window(sorted(set(marks) | {horizon}))
    except DomainError as exc:
        raise ConfigError(str(exc), key="checkpoints") from exc
    grid, op, triple = _spectral_triple(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pde.BoundaryLeak)
        traj = _solve(cfg, grid, marks, operator=op)
    if traj.steps == 0:
        # every checkpoint holds the start: a fit window of zero length
        raise ConfigError(f"[run] t_end = {cfg.t_end:g} ends before the "
                          "march's first step: no decay to fit",
                          key="t_end")
    rate_positive = False
    gamma = r_squared = None
    try:
        gamma, r_squared = spectral.fit_gap_rate(traj.states, triple,
                                                 cfg.functional())
    except spectral.RatePositive:
        rate_positive = True
    return {
        "command": "converge",
        "lambda0": triple.lambda0,
        "gamma": gamma,
        "r_squared": r_squared,
        "rate_positive": rate_positive,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
    }


_COMMANDS = {
    "check": cmd_check,
    "simulate": cmd_simulate,
    "pde": cmd_pde,
    "spectral": cmd_spectral,
    "qsd": cmd_qsd,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="growfrag",
        description="Growth-fragmentation semigroups: checks, simulation, "
                    "densities, spectra and quasi-stationary estimates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed)
        os.makedirs(args.out, exist_ok=True)
        result = _COMMANDS[args.command](cfg, args.out)
        text = dumps_stable(result) + "\n"
    except ConfigError as exc:
        sys.stderr.write(dumps_stable(
            {"error": "config", "message": str(exc),
             "key": getattr(exc, "key", None)}) + "\n")
        return EXIT_CONFIG
    except CriterionViolated as exc:
        sys.stderr.write(dumps_stable(
            {"error": "criterion", "message": str(exc)}) + "\n")
        return EXIT_FAILED_CHECK
    except GrowfragError as exc:
        sys.stderr.write(dumps_stable(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_FAILED_CHECK
    sys.stdout.write(text)
    with open(os.path.join(args.out, f"{args.command}.json"), "w") as fh:
        fh.write(text)
    if args.command == "check" and not result["passed"]:
        return EXIT_FAILED_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
