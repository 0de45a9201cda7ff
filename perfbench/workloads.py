"""The workloads: generated configs, subcommands, set-up and output checks.

Every workload runs the canonical model (c = 1, K(x) = x, p(du) = 2 du)
on the domain (0.01, 40) through ``growfrag.cli.main``.  A round is one
run of the workload's subcommands on one generated config; its outputs
are read back from the ``--out`` artifacts and checked against the
closed forms in ``checks``.
"""

from __future__ import annotations

import csv
import json
import os
import random

import numpy as np

import checks
import layers

CONFIG = """\
[model]
growth = constant
growth_c0 = 1.0
kernel = uniform
rate = linear
rate_k0 = 1.0
irreducible = true

[numerics]
grid_n = {grid_n}
x_min = {x_min!r}
x_max = {x_max!r}
method = euler

[run]
seed = {seed}
n_paths = {n_paths}
n_particles = {n_particles}
t_end = {t_end!r}
checkpoints = {checkpoints}
x0 = {x0!r}
f = id
regime = pseudo-entrance
alpha = {alpha!r}
"""

DEFAULTS = dict(grid_n=256, x_min=0.01, x_max=40.0, n_paths=1000,
                n_particles=200, t_end=1.0, checkpoints="", x0=1.0, alpha=2.0)


def round_seeds(seed):
    """Program seeds of successive rounds, a function of --seed alone."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2 ** 31)


def _read_json(out_dir, command):
    with open(os.path.join(out_dir, f"{command}.json")) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One workload: the subcommands of a round and how to judge them."""

    name = ""
    commands = ()
    params = {}
    setup_reps = 0       # set-ups before and again after the rounds

    def config_text(self, program_seed):
        values = dict(DEFAULTS, **self.params, seed=program_seed)
        return CONFIG.format(**values)

    def value(self, key):
        return self.params.get(key, DEFAULTS[key])

    def requested_paths(self):
        return 0

    def setup_once(self, gf, cfg):
        """The set-up a subcommand does, called directly."""
        raise NotImplementedError

    def setup_samples(self, tracer):
        """Set-up durations recorded during one round."""
        raise NotImplementedError

    def work_rate(self, tracer, wall):
        """Work units per second of the round's solve phase."""
        raise NotImplementedError

    def check(self, command, out_dir):
        raise NotImplementedError


class _MonteCarlo(Workload):
    """simulate and qsd: the tilted weight and jump law are the set-up."""

    setup_reps = 2

    def setup_once(self, gf, cfg):
        h = gf.lyapunov.build_h_pseudo_entrance(cfg.model, cfg.alpha)
        report = gf.lyapunov.verify_assumption1(cfg.model, h)
        gf.pdmp.TiltedJumpLaw(cfg.model, h, b=report.b)

    def setup_samples(self, tracer):
        return [sum(sum(tracer.durations(name))
                    for name in layers.SETUP_SPANS)]

    def work_rate(self, tracer, wall):
        after_setup = wall - self.setup_samples(tracer)[0] \
            - sum(tracer.durations("cli.load_config"))
        return self.work_units() / after_setup


class Simulate(_MonteCarlo):
    name = "simulate"
    commands = ("simulate",)
    params = dict(n_paths=1000, t_end=1.0, x0=1.0)

    def requested_paths(self):
        return self.value("n_paths")

    def work_units(self):
        return self.value("n_paths")

    def check(self, command, out_dir):
        res = _read_json(out_dir, "simulate")
        t, x0 = self.value("t_end"), self.value("x0")
        found = checks.check_mc_estimate(res["estimate"], res["std_error"],
                                         checks.size(t, x0))
        shape = {"name": "mc_run", "value": res["n_paths"],
                 "expected": self.value("n_paths"), "allowed": 0,
                 "ok": res["n_paths"] == self.value("n_paths")
                 and res["t_end"] == t and res["x0"] == x0}
        return [found, shape]


class Qsd(_MonteCarlo):
    name = "qsd"
    commands = ("qsd",)
    params = dict(n_particles=200, t_end=3.0, x0=1.0)

    def work_units(self):
        return self.value("n_particles") * self.value("t_end")

    def check(self, command, out_dir):
        res = _read_json(out_dir, "qsd")
        b = res["b"]
        found = checks.check_fv_lambda0(res["lambda0"], res["ci"][0] - b,
                                        res["ci"][1] - b)
        rows = _read_csv(os.path.join(out_dir, "ensemble.csv"))
        xs = np.array([float(r["x"]) for r in rows])
        ensemble = {"name": "fv_ensemble", "value": len(xs),
                    "expected": self.value("n_particles"), "allowed": 0,
                    "ok": len(xs) == self.value("n_particles")
                    and bool(np.all(xs > 0.0)) and res["kills"] > 0
                    and abs(res["lambda0"] - (res["lambda0X"] - b)) < 1e-12}
        return [found, ensemble]


class Density(Workload):
    name = "density"
    commands = ("pde", "spectral")
    params = dict(grid_n=1024, t_end=2.0, checkpoints="0.5, 1.0, 1.5",
                  x0=1.0)
    setup_reps = 4

    def delta(self):
        return checks.grid_delta(self.value("x_min"), self.value("x_max"),
                                 self.value("grid_n"))

    def work_units(self):
        return self.value("grid_n") * self.value("t_end")

    def setup_once(self, gf, cfg):
        grid = gf.pde.SizeGrid.log_uniform(cfg.x_min, cfg.x_max, cfg.grid_n)
        gf.pde.build_discrete_operator(cfg.model, grid)

    def setup_samples(self, tracer):
        return tracer.durations(layers.ASSEMBLY_SPAN)

    def work_rate(self, tracer, wall):
        march = tracer.summary()["pde.solve"]["self_s"]
        return self.work_units() / march

    def check(self, command, out_dir):
        delta = self.delta()
        if command == "pde":
            res = _read_json(out_dir, "pde")
            found = checks.check_moments(res["summary"], self.value("x0"),
                                         delta)
            marks = [rec["t"] for rec in res["summary"]]
            want = [0.5, 1.0, 1.5, self.value("t_end")]
            shape = {"name": "pde_checkpoints", "value": marks,
                     "expected": want, "allowed": 0, "ok": marks == want}
            return [found, shape]
        res = _read_json(out_dir, "spectral")
        rows = _read_csv(os.path.join(out_dir, "triple.csv"))
        centers = np.array([float(r["x"]) for r in rows])
        edges = np.geomspace(self.value("x_min"), self.value("x_max"),
                             self.value("grid_n") + 1)
        return [
            checks.check_lambda0_grid(res["lambda0"], delta),
            checks.check_eigenmeasure(edges,
                                      [float(r["m"]) for r in rows], delta),
            checks.check_eigenfunction(centers,
                                       [float(r["phi"]) for r in rows],
                                       delta),
        ]


WORKLOADS = {w.name: w for w in (Simulate(), Qsd(), Density())}
