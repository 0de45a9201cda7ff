"""Command-line interface: exit codes, stable JSON, artifacts."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import growfrag
from growfrag.cli import dumps_stable, main
from growfrag.errors import ConfigError
from growfrag.pdmp import VarianceBlowup
from growfrag.qsd import StallWarning

CANONICAL = """
[model]
growth = constant
growth_c0 = 1.0
kernel = uniform
rate = linear
rate_k0 = 1.0
irreducible = true

[numerics]
grid_n = 128
x_min = 0.01
x_max = 40.0

[run]
seed = 11
n_paths = 60
n_particles = 120
t_end = 0.5
x0 = 1.0
f = id
regime = pseudo-entrance
alpha = 2.0
"""

CRITICAL = """
[model]
growth = linear
growth_c0 = 1.0
kernel = uniform
rate = constant
rate_k0 = 1.0

[numerics]
grid_n = 128
x_min = 0.02
x_max = 40.0
method = heun

[run]
seed = 3
t_end = 3.0
regime = lnx
"""

MITOSIS = """
[model]
growth = constant
kernel = mitosis
rate = constant

[numerics]
grid_n = 96
x_min = 0.01
x_max = 40.0

[run]
seed = 5
n_particles = 120
t_end = 1.0
regime = constant
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- stable JSON -------------------------------------------------------------

def test_dumps_stable_orders_and_formats():
    text = dumps_stable({"b": 1, "a": [1.5, True, None], "c": "x\"y"})
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')
    assert json.loads(text) == {"b": 1, "a": [1.5, True, None], "c": 'x"y'}


def test_dumps_stable_rejects_nonfinite():
    with pytest.raises(ConfigError):
        dumps_stable({"x": float("nan")})


# -- check -----------------------------------------------------------------

def test_check_canonical_passes(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL)
    code, out, _ = _run(capsys, "check", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    thr = payload["thresholds"]["uniform_kernel"]["threshold"]
    assert thr == pytest.approx(5.8284271247461907, abs=1e-6)
    assert (tmp_path / "check.json").read_text() == out


def test_check_critical_fails(tmp_path, capsys):
    # constant rate cannot exceed the high threshold at infinity
    cfg = _write(tmp_path, CRITICAL)
    code, out, _ = _run(capsys, "check", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = [c["name"] for c in payload["checks"] if not c["pass"]]
    assert failed == ["rate-above-high-threshold-at-infinity"]


# reports of the two criteria on CANONICAL (c = 1, K(x) = x, p(du) = 2 du on
# (0.01, 40)), pinned to the values the criteria gave before they shared one
# probe pass per weight, up to the last bits that b, lambda1 and the scale
# margins moved by when the scale table went onto a fixed node lattice, and
# b and lambda1 by about 1e-10 when the probe pass split its tilted mass at
# the kinks of h.  probe_rule is the fixed probe rule's record: its largest
# relative error estimate and no probe sent to the adaptive reference; b,
# lambda1 and lambda2 kept their bits when the probe passes moved onto the
# rule.  Both fail, so `check` exits 1
ENTRANCE_REPORT = {
    "regime": "entrance", "b": 38.08855076223529,
    "lambda1": -38.08464229800549, "lambda2": -0.01,
    "L": [0.6222531917560458, 0.6640772216232578],
    "checks": [
        {"name": "entrance-scale-finite", "margin": 0.9999999999990025,
         "pass": True},
        {"name": "tail-killing-margin", "margin": -40, "pass": False},
    ],
    "probe_rule": {"max_rel_error": 4.166460255610309e-16, "fallbacks": 0},
}
K_CONSTANT_REPORT = {
    "regime": "K-constant-critical", "b": 38.42798760145186,
    "lambda1": -38.42404519693217, "lambda2": -0.01,
    "L": [0.6222531917560458, 0.6640772216232578],
    "checks": [
        {"name": "rate-positive", "margin": 0.01, "pass": True},
        {"name": "rate-at-most-one", "margin": -39, "pass": False},
        {"name": "scale-diverges-at-zero", "margin": 0.9999999999990025,
         "pass": False},
        {"name": "speed-ratio-below-entropy-at-infinity",
         "margin": -0.45282914545663755, "pass": False},
        {"name": "speed-ratio-above-entropy-at-zero",
         "margin": -0.9807687972761017, "pass": False},
        {"name": "left-tilt-window", "margin": -1, "pass": False},
        {"name": "right-tilt-window", "margin": -1, "pass": False},
    ],
    "probe_rule": {"max_rel_error": 3.365259542244939e-16, "fallbacks": 0},
}


@pytest.mark.parametrize("regime, report", [
    ("entrance", ENTRANCE_REPORT),
    ("K-constant", K_CONSTANT_REPORT),
])
def test_check_criterion_reports_are_pinned(tmp_path, capsys, regime,
                                            report):
    cfg = _write(tmp_path, CANONICAL.replace(
        "regime = pseudo-entrance", f"regime = {regime}"))
    code, out, _ = _run(capsys, "check", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["report"] == report
    assert payload["checks"] == report["checks"]
    assert (tmp_path / "check.json").read_text() == out


def test_check_on_an_atom_kernel_writes_its_report(tmp_path, capsys):
    # MITOSIS's ratio measure sums its one atom in numpy, so the K-constant
    # criterion's margins and pass flags are numpy numbers: they reach the
    # JSON report as numbers and booleans, and the failed criterion exits 1
    cfg = _write(tmp_path, MITOSIS.replace("regime = constant",
                                           "regime = K-constant"))
    code, out, err = _run(capsys, "check", "--config", cfg, "--out",
                          str(tmp_path))
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["report"]["regime"] == "K-constant-critical"
    assert payload["checks"] == payload["report"]["checks"]
    failed = {c["name"] for c in payload["checks"] if c["pass"] is False}
    assert {"speed-ratio-below-entropy-at-infinity",
            "speed-ratio-above-entropy-at-zero"} <= failed
    assert all(type(c["margin"]) in (int, float) for c in payload["checks"])
    assert (tmp_path / "check.json").read_text() == out


def test_check_constant_regime_reports_unbounded_ratio(tmp_path, capsys):
    # with h = 1, A h/h = x on CANONICAL, so it rises from about 4 to 40
    # over the last probe decade; the failed check is written, not raised
    cfg = _write(tmp_path, CANONICAL.replace(
        "regime = pseudo-entrance", "regime = constant"))
    code, out, _ = _run(capsys, "check", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["report"] is None
    [check] = payload["checks"]
    assert check["name"] == "generator-ratio-bounded-above"
    assert check["pass"] is False
    assert -40.0 < check["margin"] < -35.0
    assert (tmp_path / "check.json").read_text() == out
    code, out, err = _run(capsys, "simulate", "--config", cfg, "--out",
                          str(tmp_path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "UnboundedAbove"


# -- config validation ---------------------------------------------------------

def test_unknown_key_rejected(tmp_path, capsys):
    # spectral_json once replaced converge's lambda0 by one read from a file
    for key in ("bogus_knob", "spectral_json"):
        cfg = _write(tmp_path, CANONICAL + f"\n{key} = 1\n")
        code, out, err = _run(capsys, "check", "--config", cfg, "--out",
                              str(tmp_path))
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert payload["key"] == key


def test_nonpositive_path_count_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL.replace("n_paths = 60", "n_paths = 0"))
    code, _, err = _run(capsys, "simulate", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 2
    assert json.loads(err)["key"] == "n_paths"


@pytest.mark.parametrize("command, old, new, argv, key", [
    ("simulate", "seed = 11", "seed = -1", (), "seed"),
    ("simulate", "seed = 11", f"seed = {2 ** 64}", (), "seed"),
    ("simulate", "seed = 11", "seed = 11", ("--seed", "-1"), "seed"),
    ("pde", "t_end = 0.5", "t_end = nan", (), "t_end"),
    ("simulate", "x0 = 1.0", "x0 = inf", (), "x0"),
    ("simulate", "alpha = 2.0", "alpha = -inf", (), "alpha"),
    ("pde", "t_end = 0.5", "t_end = 0.5\ncheckpoints = 0.1, nan", (),
     "checkpoints"),
    ("simulate", "n_paths = 60", "n_paths = 1", (), "n_paths"),
    ("qsd", "n_particles = 120", "n_particles = 1", (), "n_particles"),
    ("qsd", "irreducible = true", "irreducible = ture", (), "irreducible"),
    ("check", "irreducible = true",
     "irreducible = true\nmass_conserving = yse", (), "mass_conserving"),
    ("pde", "x_max = 40.0", "x_max = 40.0\nmethod = eulr", (), "method"),
    ("check", "f = id", "f = id%", (), "f"),
    ("simulate", "regime = pseudo-entrance", "regime = pseudo-entrance%", (),
     "regime"),
    ("converge", "t_end = 0.5", "t_end = 2.0\ncheckpoints = 0.5, 1.0, 1.5",
     (), "checkpoints"),
    ("pde", "t_end = 0.5", "t_end = 0.5\ncheckpoints = 0.25, 1.0", (),
     "checkpoints"),
    ("converge", "t_end = 0.5", "t_end = 2.0\ncheckpoints = -0.1, 0.6, 0.8, "
     "1.0, 1.2, 1.4, 1.6, 1.8", (), "checkpoints"),
    ("spectral", "grid_n = 128", "grid_n = 1", (), "grid_n"),
    ("qsd", "t_end = 0.5", "t_end = 0.5\nburn_in = 0.5", (), "burn_in"),
    ("simulate", "alpha = 2.0", "alpha = 1.0", (), "alpha"),
    ("check", "alpha = 2.0", "alpha = -3", (), "alpha"),
    ("pde", "x0 = 1.0", "x0 = 100", (), "x0"),
    ("converge", "x0 = 1.0", "x0 = 0.005", (), "x0"),
    ("pde", "x_max = 40.0", "x_max = 40.0\ndt = 5", (), "dt"),
    ("simulate", "f = id", "f = indicator:nan:inf", (), "f"),
    ("qsd", "f = id", "f = indicator:2:1", (), "f"),
    ("simulate", "regime = pseudo-entrance", "regime = powerlaw\nbeta = -1",
     (), "beta"),
    ("check", "pseudo-entrance\nalpha = 2.0", "powerlaw\nalpha = -0.5", (),
     "alpha"),
    ("simulate", "x0 = 1.0", "x0 = 1.22683e217", (), "x0"),
    ("qsd", "x0 = 1.0", "x0 = 1.22683e217", (), "x0"),
    ("converge", "t_end = 0.5", "t_end = 1e-300", (), "t_end"),
    # exponents whose density the moment quadrature cannot resolve
    ("pde", "kernel = uniform", "kernel = power\nkernel_theta = 1e10", (),
     "kernel_theta"),
    ("simulate", "kernel = uniform", "kernel = power\nkernel_theta = 1e5", (),
     "kernel_theta"),
])
def test_bad_value_exits_2_naming_key(tmp_path, capsys, command, old, new,
                                      argv, key):
    cfg = _write(tmp_path, CANONICAL.replace(old, new))
    code, out, err = _run(capsys, command, "--config", cfg, *argv, "--out",
                          str(tmp_path))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["key"] == key


def test_missing_config_rejected(tmp_path, capsys):
    code, _, err = _run(capsys, "check", "--config",
                        str(tmp_path / "absent.ini"))
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_bad_domain_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL.replace("x_min = 0.01", "x_min = 2.0"))
    code, _, err = _run(capsys, "check", "--config", cfg)
    assert code == 2
    assert json.loads(err)["key"] == "x_min"


# -- numerical subcommands -------------------------------------------------------

def test_spectral_reports_negative_lambda0(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL)
    code, out, _ = _run(capsys, "spectral", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda0"] < 0.0
    assert payload["residuals"]["right"] <= 1e-14
    assert (tmp_path / "triple.csv").exists()


def test_spectral_ends_with_work_counters(tmp_path, capsys):
    # three rounds of inverse iteration, twelve solves per vector each, on
    # a factor whose size grows like n
    works = []
    for n in (128, 1024):
        cfg = _write(tmp_path, CANONICAL.replace("grid_n = 128",
                                                 f"grid_n = {n}"))
        code, out, _ = _run(capsys, "spectral", "--config", cfg, "--out",
                            str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[-1] == "work"
        works.append(payload["work"])
    assert works[0] == {"factorizations": 3, "solves": 72,
                        "factor_nnz": 1972}
    assert works[1]["factor_nnz"] <= 64 * 1024


def test_spectral_assembles_singular_power_kernel(tmp_path, capsys):
    # p(du) = 1.5 u^-0.5 du conserves mass, so with c = 1 and K(x) = x the
    # moments obey N' = (p0 - 1) M1, M1' = N: the rate is sqrt(1/(theta+1))
    cfg = _write(tmp_path, CANONICAL.replace(
        "kernel = uniform", "kernel = power\nkernel_theta = -0.5"))
    code, out, _ = _run(capsys, "spectral", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    assert json.loads(out)["lambda0"] == pytest.approx(-2.0 ** 0.5, abs=0.05)


def test_simulate_runs_and_reports(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL)
    code, out, _ = _run(capsys, "simulate", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] > 0.0
    assert payload["n_paths"] == 60
    assert (tmp_path / "path.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nonfinite_result_exits_2_without_traceback(tmp_path, capsys):
    # exp(b t) overflows at t_end = 300, so the estimate is nan
    cfg = _write(tmp_path, CANONICAL.replace("t_end = 0.5", "t_end = 300")
                 .replace("n_paths = 60", "n_paths = 2"))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "simulate", "--config", cfg, "--seed", "1",
                          "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "config"
    assert not (out_dir / "simulate.json").exists()


# speeds and rates that overflow, or underflow to 0, inside the range of a
# scale table: c = x^60 and c = x^200 vanish near 0, c = x^-60 overflows
# there, and c = x^200 and K = x^200 overflow above x = 34.97
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("old, new", [
    ("growth = constant", "growth = power\ngrowth_exponent = 60"),
    ("growth = constant", "growth = power\ngrowth_exponent = -60"),
    ("growth = constant", "growth = power\ngrowth_exponent = 200"),
    ("rate = linear", "rate = power\nrate_exponent = 200"),
], ids=["growth-x60", "growth-x-60", "growth-x200", "rate-x200"])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_extreme_coefficient_exits_1_without_traceback(tmp_path, capsys,
                                                       command, old, new):
    cfg = _write(tmp_path, CANONICAL.replace(old, new))
    code, out, err = _run(capsys, command, "--config", cfg, "--out",
                          str(tmp_path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] in ("criterion", "DomainError",
                                        "QuadratureDivergence")


def test_overflowing_weight_warns_nothing_and_names_x(tmp_path, capsys):
    # with c = x^-60, h = exp(a_inf G) with G ~ x^62/62 overflows at the
    # top probes; the kernel integrals read tilts, which are differences of
    # ln h, and the run ends at the first probe whose tilted mass quad
    # cannot resolve, x = 1.27, which the error names
    cfg = _write(tmp_path, CANONICAL.replace(
        "growth = constant", "growth = power\ngrowth_exponent = -60"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "check", "--config", cfg, "--out",
                              str(tmp_path))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
        == []
    assert code == 1
    assert out == ""
    assert "RuntimeWarning" not in err
    payload = json.loads(err)
    assert payload["error"] == "QuadratureDivergence"
    assert "at x=1.27" in payload["message"]


@pytest.mark.parametrize("x0, code", [("1e-30", 0), ("1e-300", 1)])
def test_start_far_below_the_domain_names_x_or_runs(tmp_path, capsys, x0,
                                                    code):
    # below about 1e-16 the scale of c = 1 is flat in floating point, which
    # the flow never inverts there; below about 1e-300 the cubic of a
    # scale piece overflows, and the run names x instead of reading NaN
    cfg = _write(tmp_path, CANONICAL.replace("x0 = 1.0", f"x0 = {x0}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = _run(capsys, "simulate", "--config", cfg, "--out",
                             str(tmp_path))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
        == []
    assert got == code
    if code:
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert f"x={x0}" in payload["message"]


@pytest.mark.parametrize("seed, warns", [(1, True), (4, True), (2, False)])
def test_simulate_warns_when_few_paths_contribute(tmp_path, capsys, seed,
                                                  warns):
    # with 8 paths to t = 1, seed 1 keeps one surviving path (std_error
    # equals the estimate), seed 4 none (0 +- 0) and seed 2 several
    cfg = _write(tmp_path, CANONICAL.replace("t_end = 0.5", "t_end = 1.0")
                 .replace("n_paths = 60", "n_paths = 8")
                 .replace("f = id", "f = one"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = _run(capsys, "simulate", "--config", cfg, "--seed",
                          str(seed), "--out", str(tmp_path))
    assert code == 0
    blowups = [w for w in caught if issubclass(w.category, VarianceBlowup)]
    assert bool(blowups) == warns


# outputs on CANONICAL and MITOSIS, pinned to the values the Monte Carlo
# gives since jump times are thinned against the majorant table of r on
# the append-only scale table, with r read from d ln h/ds and one
# exponential spent across the table's pieces per proposal, and children
# are drawn against the running-maximum table of ln h.  The kill-free
# MITOSIS run reports the Poisson 95% limit ln 20 / (N (t_end - burn_in))
@pytest.mark.parametrize("config, command, pinned", [
    (CANONICAL, "simulate", {"estimate": 1.4757878406358687,
                             "std_error": 0.2887776343548905}),
    (CANONICAL, "qsd", {"lambda0X": 1.9761904761904763,
                        "ci": [1.5060583467088429, 2.4463226056721097],
                        "kills": 94}),
    (MITOSIS, "qsd", {"lambda0X": 0.0, "ci": [0.0, 0.03566347944707132],
                      "kills": 0}),
])
def test_monte_carlo_outputs_are_pinned(tmp_path, capsys, config, command,
                                        pinned):
    cfg = _write(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = _run(capsys, command, "--config", cfg, "--out",
                            str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert {key: payload[key] for key in pinned} == pinned


@pytest.mark.parametrize("config", [CANONICAL, MITOSIS],
                         ids=["canonical", "mitosis"])
@pytest.mark.parametrize("command", ["simulate", "qsd"])
def test_thinning_never_doubles_a_table_majorant(tmp_path, capsys, config,
                                                command):
    cfg = _write(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = _run(capsys, command, "--config", cfg, "--out",
                            str(tmp_path))
    assert code == 0
    work = json.loads(out)["work"]
    assert work["proposals"] >= work["jumps"] + work["kills"]
    assert work["majorant_doublings"] == 0
    assert work["tilt_raises"] == 0


@pytest.mark.parametrize("command", ["simulate", "qsd"])
def test_monte_carlo_runs_end_with_work_counters(tmp_path, capsys, command):
    cfg = _write(tmp_path, CANONICAL)
    code, out, _ = _run(capsys, command, "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[-1] == "work"
    work = payload["work"]
    assert list(work) == ["jumps", "kills", "kh_panels", "kh_exact_calls",
                          "kh_max_eps", "r_pieces", "proposals",
                          "majorant_doublings", "tilt_raises"]
    assert work["jumps"] + work["kills"] > work["kh_exact_calls"]
    assert work["kh_panels"] > 0
    assert 0.0 < work["kh_max_eps"] < 1.0
    if command == "qsd":
        # every Fleming-Viot kill is a kill of the jump process
        assert work["kills"] == payload["kills"]
        # the interval on lambda0 is ci shifted by b, and precedes work
        ci, b = payload["ci"], payload["b"]
        assert payload["lambda0_ci"] == [ci[0] - b, ci[1] - b]
        assert list(payload)[-2] == "lambda0_ci"


def test_pde_runs_and_reports(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL)
    code, out, _ = _run(capsys, "pde", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"][-1]["t"] == pytest.approx(0.5)
    assert (tmp_path / "density.csv").exists()
    # every cell behind the front stays above the floor, so no step
    # scans the whole vector
    assert payload["steps"] > 0 and payload["floor_scans"] == 0


def test_pde_runs_on_a_grid_whose_edges_multiply_past_overflow(tmp_path,
                                                              capsys):
    # edges up to 1e200: a cell center as sqrt(e_i e_{i+1}) would overflow
    cfg = _write(tmp_path, MITOSIS.replace("x_max = 40.0", "x_max = 1e200")
                 .replace("grid_n = 96", "grid_n = 64"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = _run(capsys, "pde", "--config", cfg, "--out",
                            str(tmp_path))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
        == []
    assert code == 0
    assert json.loads(out)["summary"][-1]["t"] == pytest.approx(1.0)


def test_qsd_without_kills_in_a_short_window_is_unsupported(tmp_path,
                                                          capsys):
    # 120 particles for 7e-301 after burn-in: at the law's rate b = 3.39
    # they would expect 3e-298 kills, so a kill-free run identifies nothing
    cfg = _write(tmp_path, CANONICAL.replace("t_end = 0.5", "t_end = 1e-300"))
    with pytest.warns(StallWarning):
        code, out, _ = _run(capsys, "qsd", "--config", cfg, "--out",
                            str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["kills"] == 0
    assert payload["supported"] is False


@pytest.mark.parametrize("command, irreducible, code", [
    ("spectral", "true", 2), ("converge", "true", 2), ("spectral", "false", 1),
])
def test_grid_too_coarse_for_an_irreducible_kernel_names_grid_n(
        tmp_path, capsys, command, irreducible, code):
    # cells of 3.2 decades keep every mitosis child in its parent's cell,
    # so the assembled operator has 64 strong components
    cfg = _write(tmp_path, MITOSIS.replace("x_max = 40.0", "x_max = 1e200")
                 .replace("grid_n = 96", "grid_n = 64")
                 .replace("rate = constant",
                          f"rate = constant\nirreducible = {irreducible}"))
    got, out, err = _run(capsys, command, "--config", cfg, "--out",
                         str(tmp_path))
    assert got == code
    assert out == ""
    payload = json.loads(err)
    if code == 2:
        assert payload["key"] == "grid_n"
    else:
        assert payload["error"] == "Reducible"


def test_qsd_reports_rate_identity(tmp_path, capsys):
    cfg = _write(tmp_path, MITOSIS)
    code, out, _ = _run(capsys, "qsd", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda0"] == pytest.approx(
        payload["lambda0X"] - payload["b"], abs=1e-15)
    ci, b = payload["ci"], payload["b"]
    assert payload["lambda0_ci"] == [ci[0] - b, ci[1] - b]
    assert payload["supported"] is True
    assert (tmp_path / "ensemble.csv").exists()


def test_converge_critical_has_no_gap(tmp_path, capsys):
    cfg = _write(tmp_path, CRITICAL)
    code, out, _ = _run(capsys, "converge", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rate_positive"] or payload["r_squared"] < 0.9


def test_time_step_floor_binds_the_marching_commands_only(tmp_path, capsys):
    # K(x) = 1e12 x puts the positivity step near 2e-14, below the 1e-12
    # floor: only the commands that march refuse the operator
    cfg = _write(tmp_path, CANONICAL.replace("rate_k0 = 1.0",
                                             "rate_k0 = 1e12"))
    code, out, _ = _run(capsys, "spectral", "--config", cfg, "--out",
                        str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda0"] == pytest.approx(-1.0329291862613903e10,
                                               rel=1e-9)
    assert max(payload["residuals"].values()) < 1e-12
    for command in ("pde", "converge"):
        code, out, err = _run(capsys, command, "--config", cfg, "--out",
                              str(tmp_path))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "CFLUnsatisfiable"


# -- determinism --------------------------------------------------------------

def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL)
    outputs = []
    for sub in ("out1", "out2"):
        code, out, _ = _run(capsys, "simulate", "--config", cfg, "--out",
                            str(tmp_path / sub))
        assert code == 0
        outputs.append((tmp_path / sub / "simulate.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_threading_does_not_change_results(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL)
    results = []
    for threads, sub in (("1", "t1"), ("3", "t3")):
        code, out, _ = _run(capsys, "simulate", "--config", cfg,
                            "--threads", threads, "--out",
                            str(tmp_path / sub))
        assert code == 0
        results.append(out)
    assert results[0] == results[1]


def test_blas_thread_count_does_not_change_results(tmp_path):
    # the march does no BLAS product; at n = 2048 only spectral's SuperLU
    # factorization can split its BLAS calls over two threads
    cfg = _write(tmp_path, CANONICAL.replace("grid_n = 128", "grid_n = 2048")
                 .replace("t_end = 0.5", "t_end = 0.02"))
    src = os.path.dirname(os.path.dirname(growfrag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        for command in ("pde", "spectral"):
            subprocess.run([sys.executable, "-m", "growfrag.cli", command,
                            "--config", cfg, "--out", str(out)],
                           env=env, check=True, capture_output=True)
        artifacts.append([(out / name).read_bytes() for name in (
            "pde.json", "density.csv", "spectral.json", "triple.csv")])
    assert artifacts[0] == artifacts[1]


def test_seed_override_changes_output(tmp_path, capsys):
    cfg = _write(tmp_path, CANONICAL)
    _, out_a, _ = _run(capsys, "simulate", "--config", cfg, "--seed", "1",
                       "--out", str(tmp_path / "s1"))
    _, out_b, _ = _run(capsys, "simulate", "--config", cfg, "--seed", "2",
                       "--out", str(tmp_path / "s2"))
    assert json.loads(out_a)["estimate"] != json.loads(out_b)["estimate"]
