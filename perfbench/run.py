"""Run one growfrag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 \
        --trace 0

Builds nothing: growfrag is imported from ``src/`` of the checkout that
holds this file, and the run stops with an error when it is not there.
With ``--trace 0`` the run does a few set-ups, then rounds of the
workload's subcommands until the next round would end after
``--seconds``, then the set-ups again, and reports the end-to-end
metrics as medians.  With ``--trace 1`` it runs one round untraced and the same
round traced, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Artifacts, configs
and traces go to ``.perfbench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import layers
from tracing import Tracer
from workloads import WORKLOADS, round_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def load_growfrag():
    """growfrag's modules, imported from this checkout's sources only."""
    if not (SRC / "growfrag" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no growfrag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from growfrag import (cli, flow, lyapunov, model, pde, pdmp, qsd,
                          spectral)
    if Path(cli.__file__).resolve().parent != SRC / "growfrag":
        raise SystemExit(f"perfbench: growfrag was imported from "
                         f"{cli.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=cli, flow=flow, lyapunov=lyapunov,
                                 model=model, pde=pde, pdmp=pdmp, qsd=qsd,
                                 spectral=spectral)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Run:
    """Counts, checks and samples of one benchmark run."""

    def __init__(self, gf, workload, seed, out_dir):
        self.gf = gf
        self.workload = workload
        self.seeds = round_seeds(seed)
        self.out_dir = out_dir
        self.threads = cores()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = 0

    def new_config(self):
        path = self.out_dir / f"round{self.rounds}.ini"
        path.write_text(self.workload.config_text(next(self.seeds)))
        return path

    def round(self, config, tracer):
        """Run the workload's subcommands once; returns their wall time."""
        wl = self.workload
        out = self.out_dir / config.stem
        wall = 0.0
        for command in wl.commands:
            argv = [command, "--config", str(config), "--out", str(out),
                    "--threads", str(self.threads)]
            self.attempted += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.gf.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            wall += time.perf_counter() - start
            if code != 0:
                self.failed += 1
                print(f"{wl.name} {config.stem} {command}: exit {code}")
                continue
            for result in wl.check(command, str(out)):
                self.correct &= result["ok"]
                print(f"{wl.name} {config.stem} {command} check "
                      f"{result['name']}: {'ok' if result['ok'] else 'FAIL'} "
                      f"value={result['value']} expected={result['expected']}"
                      f" allowed={result['allowed']}")
        self.rounds += 1
        return wall


def _tracer(gf, install):
    tracer = Tracer()
    install(tracer, gf)
    return tracer


def _setups(run, cfg):
    """Durations of the workload's set-up, run setup_reps times."""
    samples = []
    for _ in range(run.workload.setup_reps):
        tracer = _tracer(run.gf, layers.install_phases)
        try:
            run.workload.setup_once(run.gf, cfg)
        finally:
            tracer.uninstall()
        samples.extend(run.workload.setup_samples(tracer))
    return samples


def measure(run, seconds):
    """Set-ups, rounds until the next one would pass the deadline, set-ups.

    Set-ups run both before and after the rounds, so that the median
    samples the machine at both ends of the run.
    """
    gf, wl = run.gf, run.workload
    deadline = time.perf_counter() + seconds
    walls, rates = [], []
    config = run.new_config()
    cfg = gf.cli.load_config(str(config))
    setups = _setups(run, cfg)
    while True:
        tracer = _tracer(gf, layers.install_phases)
        try:
            wall = run.round(config, tracer)
        finally:
            tracer.uninstall()
        walls.append(wall)
        if run.failed == 0:
            setups.extend(wl.setup_samples(tracer))
            rates.append(wl.work_rate(tracer, wall))
        if time.perf_counter() + wall > deadline:
            break
        config = run.new_config()
    setups.extend(_setups(run, cfg))
    print(f"{wl.name} setup samples: "
          + " ".join(f"{v:.4f}" for v in setups))
    print(f"{wl.name} round walls: " + " ".join(f"{v:.4f}" for v in walls))
    if not rates:
        return {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "work_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def measure_traced(run):
    """One round untraced, then the same round traced."""
    gf = run.gf
    config = run.new_config()
    tracer = _tracer(gf, layers.install_phases)
    try:
        untraced = run.round(config, tracer)
    finally:
        tracer.uninstall()
    tracer = _tracer(gf, layers.install_full)
    try:
        traced = run.round(config, tracer)
    finally:
        tracer.uninstall()
    tracer.save(run.out_dir / "trace.npz")
    summary = tracer.summary()
    with open(run.out_dir / "trace_summary.json", "w") as fh:
        json.dump({"summary": summary, "counts": tracer.counts()}, fh,
                  indent=1, sort_keys=True)
    metrics = layers.per_layer_metrics(
        summary, tracer.counts(), traced, untraced,
        run.workload.requested_paths())
    covered = sum(metrics[f"{layer}.self_s"]["value"]
                  for layer in layers.LAYERS)
    if abs(covered + metrics["trace.uncovered_s"]["value"] - traced) \
            > 1e-6 * traced:
        raise RuntimeError("layer self times do not add up to the wall time")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gf = load_growfrag()
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = Run(gf, workload, args.seed, out_dir)
    if args.trace:
        metrics = measure_traced(run)
    else:
        metrics = measure(run, args.seconds)
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{workload.name} rounds={run.rounds} attempted={run.attempted} "
          f"failed={run.failed} correct={run.correct}")
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
