"""Fleming-Viot particle system and quasi-stationary reconstruction."""

import warnings

import numpy as np
import pytest

from growfrag.errors import DomainError
from growfrag.flow import FlowEngine
from growfrag.model import (
    WeightFunction,
    constant_weight,
)
from growfrag.pdmp import TiltedJumpLaw
from growfrag.pde import SizeGrid
from growfrag.qsd import (
    EtaEstimate,
    ParticleEnsemble,
    StallWarning,
    UnsupportedModel,
    eta_estimate,
    fv_run,
    reconstruct_m_phi,
)

from conftest import make_mitosis


def _mitosis_law(b):
    model = make_mitosis()
    flow = FlowEngine(model.growth, *model.domain_hint)
    return model, TiltedJumpLaw(model, constant_weight(1.0), b, flow)


# -- killing-free sanity -------------------------------------------------

def test_no_killing_gives_zero_rate():
    # b = 1 equals sup A1/1 = K (p0 - 1) = 1 exactly: q == 0 everywhere
    model, law = _mitosis_law(1.0)
    with pytest.warns(StallWarning):
        res = fv_run(model, law, n_particles=120, t_end=3.0, seed=0)
    assert res.kills == 0
    assert res.lambda0X == 0.0
    assert res.ci[0] <= 0.0 <= res.ci[1]


def test_no_killing_eta_is_one():
    model, law = _mitosis_law(1.0)
    probes = np.array([0.5, 1.0, 2.0])
    eta = eta_estimate(model, law, probes, t_probe=1.0, lambda0X=0.0,
                       n_paths=40, seed=1)
    assert np.allclose(eta.values, 1.0)
    assert np.allclose(eta.values_late, 1.0)
    assert eta.consistency == 0.0


# -- uniform killing: exact rate oracle -------------------------------------

def test_uniform_killing_rate_recovered():
    # raising b by 0.3 adds killing at exactly rate 0.3 per particle
    model, law = _mitosis_law(1.3)
    res = fv_run(model, law, n_particles=400, t_end=4.0, seed=2)
    half = 0.5 * (res.ci[1] - res.ci[0])
    assert abs(res.lambda0X - 0.3) <= max(half, 1e-9)
    assert res.ci[0] <= 0.3 <= res.ci[1]
    assert res.kills > 0


def test_ci_shrinks_with_particle_count():
    model, law = _mitosis_law(1.3)
    halves = []
    for n in (300, 1200):
        res = fv_run(model, law, n_particles=n, t_end=4.0, seed=5)
        halves.append(0.5 * (res.ci[1] - res.ci[0]))
    ratio = halves[0] / halves[1]
    assert 1.3 <= ratio <= 3.0


def test_uniform_killing_eta_is_flat():
    # eta(x) = e^{lambda0X t} P(t < zeta) = 1 for state-independent killing.
    # 1320 paths put the 0.1 bounds at 4 standard errors: 0.907/sqrt(n)
    # for eta, 0.799/sqrt(n) for the drift between the two horizons
    model, law = _mitosis_law(1.3)
    probes = np.array([0.5, 1.0, 2.0])
    eta = eta_estimate(model, law, probes, t_probe=2.0, lambda0X=0.3,
                       n_paths=1320, seed=3)
    assert np.max(np.abs(eta.values - 1.0)) <= 0.1
    assert eta.consistency <= 0.1


# -- reconstruction ----------------------------------------------------------

def test_reconstruct_untilted_equals_histogram():
    rng = np.random.default_rng(7)
    samples = rng.uniform(0.05, 10.0, 5000)
    grid = SizeGrid.log_uniform(0.01, 40.0, 32)
    m, phi = reconstruct_m_phi(samples, None, constant_weight(1.0), grid)
    hist, _ = np.histogram(samples, bins=grid.edges)
    assert np.allclose(m, hist / hist.sum())
    assert phi is None
    assert m.sum() == pytest.approx(1.0)


def test_reconstruct_untilts_weighted_samples():
    # samples drawn proportional to h collapse back once divided by h
    rng = np.random.default_rng(11)
    grid = SizeGrid.log_uniform(0.1, 10.0, 16)
    h = WeightFunction(value=lambda x: x, log_slope=lambda x: 1.0 / x)
    base = rng.uniform(0.2, 5.0, 200_000)
    keep = base[rng.random(len(base)) < base / 5.0]   # size-biased draw
    m, _ = reconstruct_m_phi(keep, None, h, grid)
    hist, _ = np.histogram(base, bins=grid.edges)
    expect = hist / hist.sum()
    sel = expect > 0
    assert np.max(np.abs(m[sel] - expect[sel])) <= 0.01


def test_reconstruct_phi_from_eta():
    grid = SizeGrid.log_uniform(0.1, 10.0, 8)
    probes = grid.centers
    eta = EtaEstimate(probes=probes, values=np.full(8, 0.5),
                      values_late=np.full(8, 0.5), t_probe=1.0)
    h = WeightFunction(value=lambda x: x, log_slope=lambda x: 1.0 / x)
    samples = np.full(100, 1.0)
    m, phi = reconstruct_m_phi(samples, eta, h, grid)
    # phi = eta * h = x/2, then normalized to max 1
    expect = probes / probes.max()
    assert np.allclose(phi, expect, rtol=1e-12)


def test_rescaling_h_changes_nothing():
    model = make_mitosis()
    flow = FlowEngine(model.growth, *model.domain_hint)
    h2 = WeightFunction(value=lambda x: 2.0, log_slope=lambda x: 0.0)
    law_a = TiltedJumpLaw(model, constant_weight(1.0), 1.3, flow)
    law_b = TiltedJumpLaw(model, h2, 1.3, flow)
    res_a = fv_run(model, law_a, n_particles=150, t_end=2.0, seed=9)
    res_b = fv_run(model, law_b, n_particles=150, t_end=2.0, seed=9)
    assert res_a.lambda0X == res_b.lambda0X
    assert np.array_equal(res_a.nu_hat, res_b.nu_hat)


def test_fv_run_reproducible():
    model, law = _mitosis_law(1.3)
    a = fv_run(model, law, n_particles=150, t_end=2.0, seed=4)
    b = fv_run(model, law, n_particles=150, t_end=2.0, seed=4)
    assert a.lambda0X == b.lambda0X
    assert np.array_equal(a.nu_hat, b.nu_hat)


# -- guardrails ---------------------------------------------------------------

def test_missing_mixing_declaration_warns():
    model = make_mitosis()
    model.irreducible = False   # nothing declared
    flow = FlowEngine(model.growth, *model.domain_hint)
    law = TiltedJumpLaw(model, constant_weight(1.0), 1.3, flow)
    with pytest.warns(UnsupportedModel):
        res = fv_run(model, law, n_particles=120, t_end=1.0, seed=0)
    assert not res.supported


def test_input_validation():
    model, law = _mitosis_law(1.3)
    with pytest.raises(DomainError):
        fv_run(model, law, n_particles=1, t_end=1.0)
    with pytest.raises(DomainError):
        fv_run(model, law, n_particles=10, t_end=1.0, burn_in=2.0)
    with pytest.raises(DomainError):
        eta_estimate(model, law, np.array([1.0]), t_probe=-1.0,
                     lambda0X=0.0)


def test_eta_path_count_keeps_streams_disjoint():
    # probe k uses stream ids (k+1)*2^20 + i, so i must stay below 2^20;
    # the check runs before any path is simulated
    model, law = _mitosis_law(1.3)
    for n_paths in (0, 2 ** 20 + 1):
        with pytest.raises(DomainError):
            eta_estimate(model, law, np.array([1.0, 2.0]), t_probe=1.0,
                         lambda0X=0.0, n_paths=n_paths)


def test_result_artifacts(tmp_path):
    model, law = _mitosis_law(1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = fv_run(model, law, n_particles=120, t_end=1.0, seed=6)
    import json
    from growfrag.cli import dumps_stable
    payload = json.loads(dumps_stable({
        "lambda0X": res.lambda0X,
        "ci": [res.ci[0], res.ci[1]],
        "N": res.n_particles,
        "burn_in": res.burn_in,
        "kills": res.kills,
    }))
    assert set(payload) >= {"lambda0X", "ci", "N", "burn_in", "kills"}
    assert payload["lambda0X"] == res.lambda0X
    assert payload["ci"] == [res.ci[0], res.ci[1]]
    assert payload["kills"] == res.kills
    assert res.snapshots.shape == (200, 120)
    assert np.array_equal(res.nu_hat, res.snapshots.ravel())
    snap = ParticleEnsemble(res.snapshots[-1])
    out = tmp_path / "ensemble.csv"
    snap.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "particle,x"
    assert len(lines) == snap.n + 1
