"""Tests of the span recorder's accounting, without growfrag."""

import json
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import layers
from tracing import Tracer


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _fake_module():
    mod = types.SimpleNamespace()

    def leaf(seconds):
        _busy(seconds)
        return seconds

    def outer():
        _busy(0.01)
        mod.leaf(0.02)
        mod.leaf(0.01)
        return "done"

    def pooled(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(mod.leaf, [0.005] * n))

    mod.leaf, mod.outer, mod.pooled = leaf, outer, pooled
    return mod


def _install(tracer, mod):
    for name in ("leaf", "outer", "pooled"):
        tracer.patch(mod, name, lambda fn, name=name:
                     tracer.span(fn, f"fake.{name}"))


def test_nested_self_time_is_duration_minus_children():
    mod = _fake_module()
    tracer = Tracer()
    _install(tracer, mod)
    start = time.perf_counter()
    assert mod.outer() == "done"
    wall = time.perf_counter() - start
    summary = tracer.summary()
    assert summary["fake.leaf"]["calls"] == 2
    assert summary["fake.outer"]["self_s"] == pytest.approx(
        summary["fake.outer"]["incl_s"] - summary["fake.leaf"]["incl_s"])
    covered = sum(rec["self_s"] for rec in summary.values())
    assert covered == pytest.approx(summary["fake.outer"]["incl_s"])
    assert covered <= wall


def test_thread_pool_time_is_shared_not_double_counted():
    mod = _fake_module()
    tracer = Tracer()
    _install(tracer, mod)
    start = time.perf_counter()
    assert mod.pooled(40) == pytest.approx(0.2)
    wall = time.perf_counter() - start
    summary = tracer.summary()
    assert summary["fake.leaf"]["calls"] == 40
    covered = sum(rec["self_s"] for rec in summary.values())
    assert covered == pytest.approx(summary["fake.pooled"]["incl_s"])
    assert covered <= wall
    # the pool's caller only waits while workers run
    assert summary["fake.pooled"]["self_s"] < 0.5 * covered


def test_patch_and_uninstall_restore_originals():
    mod = types.ModuleType("fake_mod")
    other = types.ModuleType("fake_user")

    def work():
        return 1

    mod.work = other.work = work
    tracer = Tracer()
    assert tracer.patch(mod, "work", lambda fn: tracer.counter(fn, "n"),
                        also_in=[other])
    assert not tracer.patch(mod, "missing", lambda fn: fn)
    mod.work()
    other.work()
    assert tracer.counts() == {"n": 2}
    tracer.uninstall()
    assert mod.work is work and other.work is work


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["wall_s", "setup_s", "work_per_s", "peak_rss_mb"]
