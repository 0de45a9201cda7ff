"""Fleming-Viot particle estimator of the quasi-stationary objects.

N particles follow independent copies of the killed process X; whenever
one is killed it instantly respawns at the position of a uniformly
chosen surviving particle, so the ensemble size is conserved.  The
post-burn-in kill rate per particle estimates the extinction exponent
lambda0X of X, the time-averaged empirical measure estimates the
quasi-stationary law nu_QS, and the eigenelements are reconstructed via
m(g) = nu_QS(g/h) and phi(x) = eta(x) h(x), where eta is the survival
limit eta(x) = lim e^{lambda0X t} P_x(t < zeta), estimated by
independent survival Monte Carlo.
"""

from __future__ import annotations

import csv
import heapq
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import stats

from .errors import DomainError, Extinction, InconsistentEta
from .model import ModelSpec, WeightFunction, constant_weight
from .pdmp import PdmpState, TiltedJumpLaw, make_rng, simulate_path
from .pde import SizeGrid

_BURN_IN_FRACTION = 0.3
_N_BATCHES = 20
_N_SNAPSHOTS = 200
_SNAPSHOT_CHUNK = 25   # snapshot rows per array flow read
_ETA_DRIFT_TOL = 0.10
_MIN_PARTICLES = 100
_ETA_STREAM_STRIDE = 2 ** 20   # eta stream ids are (k+1)*stride + path
_RULE_OF_THREE = float(np.log(20.0))   # -ln 0.05, Poisson 95% bound


class StallWarning(UserWarning):
    """Fleming-Viot kill rate is (near) zero; lambda0X is not identifiable."""


class UnsupportedModel(UserWarning):
    """Model lacks the mixing declaration backing the estimator."""


@dataclass
class _Particle:
    """One FV particle: its PDMP state plus flow anchors for replay.

    times[k], positions[k] are the post-jump (or respawn) anchors; the
    position at any t >= times[k] before the next anchor is the flow
    from it, so other particles can be queried at kill times.
    """

    state: PdmpState
    times: list
    positions: list
    next_kill: float   # pending kill time, inf if the path survives t_end

    def position_at(self, t: float, flow) -> float:
        k = bisect_right(self.times, t) - 1
        return flow.flow_at(self.positions[k], t - self.times[k])

    def run(self, model: ModelSpec, law: TiltedJumpLaw, t_end: float):
        """Simulate until the particle is killed or reaches t_end.

        Jumps become anchors; on killing next_kill is set to the kill
        time and the caller handles the respawn.
        """
        trace = simulate_path(model, law, self.state.position, t_end,
                              state=self.state)
        for t, x, event in trace.points:
            if event == "jump":
                self.times.append(t)
                self.positions.append(x)
        self.next_kill = np.inf if trace.alive else trace.points[-1][0]


@dataclass
class ParticleEnsemble:
    """Positions of the FV particles at one instant."""

    positions: np.ndarray

    @property
    def n(self):
        return len(self.positions)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["particle", "x"])
            for i, x in enumerate(self.positions):
                writer.writerow([i, repr(float(x))])


@dataclass
class FVResult:
    """Output of a Fleming-Viot run."""

    nu_hat: np.ndarray          # pooled post-burn-in snapshot positions
    lambda0X: float
    ci: Tuple[float, float]
    kills: int
    n_particles: int
    burn_in: float
    t_end: float
    supported: bool
    snapshots: np.ndarray       # (200, N) positions at the snapshot times
    kill_times: np.ndarray


def fv_run(model: ModelSpec, law: TiltedJumpLaw, n_particles: int,
           t_end: float, burn_in: Optional[float] = None,
           x0: float = 1.0, seed: int = 0) -> FVResult:
    """Fleming-Viot estimate of (nu_QS, lambda0X).

    All particles start at x0 and evolve independently between kill
    events; each kill respawns the particle at the position of a
    uniformly chosen other particle at the kill instant.  The pending
    kills sit in a heap of (kill time, index), which yields the earliest
    kill, the lowest index among equal times, and the other particles
    dying at that instant, which cannot be respawn sources; Extinction
    is raised when no other particle survives it.  The snapshots are
    replayed from the particles' anchors after the last kill (see
    _replay).  lambda0X is
    the post-burn-in kill count per particle-time, with a batch-means
    confidence interval over 20 equal time batches.  A run with no kill
    after burn-in bounds lambda0X only by the Poisson 95% limit
    -ln(0.05) / (N (t_end - burn_in)), which is then its interval
    (0, limit); it is reported supported only if
    that limit lies below the law's rate b, so that a kill rate of b
    would have shown about three kills.
    """
    if n_particles < 2:
        raise DomainError("Fleming-Viot needs at least two particles")
    if t_end <= 0.0:
        raise DomainError("t_end must be positive")
    if burn_in is None:
        burn_in = _BURN_IN_FRACTION * t_end
    if not 0.0 <= burn_in < t_end:
        raise DomainError("burn_in must lie in [0, t_end)")
    supported = model.irreducible
    if not supported:
        warnings.warn(
            "model carries no mixing declaration; Fleming-Viot results "
            "are reported unsupported", UnsupportedModel)
    if n_particles < _MIN_PARTICLES:
        warnings.warn(
            f"N={n_particles} < {_MIN_PARTICLES}: confidence intervals are "
            "unreliable", UnsupportedModel)

    resample_rng = make_rng(seed, 2 ** 32)
    particles = []
    for i in range(n_particles):
        state = PdmpState.fresh(x0, seed=seed, stream_id=i)
        particles.append(_Particle(state=state, times=[0.0],
                                   positions=[float(x0)], next_kill=np.inf))
        particles[-1].run(model, law, t_end)

    # (next_kill, index) of the particles with a pending kill: the top is
    # the earliest kill, the lowest index first among equal times
    pending = [(p.next_kill, i) for i, p in enumerate(particles)
               if p.next_kill < np.inf]
    heapq.heapify(pending)
    kill_times = []
    while pending:
        t_kill, i_star = heapq.heappop(pending)
        # the others dying by t_kill tie with it, since it is the least
        ties = sum(1 for t, _ in pending if t <= t_kill) \
            if pending and pending[0][0] <= t_kill else 0
        if n_particles - 1 - ties == 0:
            raise Extinction(
                f"no surviving particle to respawn from at t={t_kill:g}")
        kill_times.append(t_kill)
        j = i_star
        while j == i_star or particles[j].next_kill <= t_kill:
            j = int(resample_rng.integers(n_particles))
        x_new = particles[j].position_at(t_kill, law.flow)
        victim = particles[i_star]
        victim.state.position = float(x_new)
        victim.state.clock = t_kill
        victim.times.append(t_kill)
        victim.positions.append(float(x_new))
        victim.run(model, law, t_end)
        if victim.next_kill < np.inf:
            heapq.heappush(pending, (victim.next_kill, i_star))

    kill_times = np.array(kill_times)
    kills_post = int(np.sum(kill_times > burn_in))
    elapsed = t_end - burn_in
    lambda0X = kills_post / (n_particles * elapsed)
    if kills_post == 0:
        warnings.warn("no kills after burn-in: lambda0X ~ 0", StallWarning)
        supported = supported and \
            _RULE_OF_THREE < law.b * n_particles * elapsed
        ci = (0.0, _RULE_OF_THREE / (n_particles * elapsed))
    else:
        # batch means over 20 equal post-burn-in windows
        edges = np.linspace(burn_in, t_end, _N_BATCHES + 1)
        counts, _ = np.histogram(kill_times, bins=edges)
        rates = counts / (n_particles * np.diff(edges))
        if rates.std(ddof=1) > 0.0:
            half = (stats.t.ppf(0.975, _N_BATCHES - 1)
                    * rates.std(ddof=1) / np.sqrt(_N_BATCHES))
        else:
            half = 0.0
        ci = (float(lambda0X - half), float(lambda0X + half))

    obs_times = np.linspace(burn_in, t_end, _N_SNAPSHOTS + 1)[1:]
    snapshots = _replay(particles, obs_times, law.flow)
    if np.any(snapshots <= 0.0):
        raise DomainError("all ensemble positions must be positive")
    return FVResult(nu_hat=snapshots.ravel(), lambda0X=float(lambda0X),
                    ci=ci, kills=len(kill_times), n_particles=n_particles,
                    burn_in=float(burn_in), t_end=float(t_end),
                    supported=supported, snapshots=snapshots,
                    kill_times=kill_times)


def _replay(particles, obs_times, flow):
    """Positions of the particles at obs_times, one row per time.

    Each particle's position is the flow from its last anchor at or
    before the time, as _Particle.position_at reads it; the rows are read
    _SNAPSHOT_CHUNK at a time, by one flow_at_array call each, so that no
    temporary spans every row.
    """
    anchors = [(np.array(p.times), np.array(p.positions)) for p in particles]
    out = np.empty((len(obs_times), len(particles)))
    starts = np.empty((_SNAPSHOT_CHUNK, len(particles)))
    durations = np.empty_like(starts)
    for r0 in range(0, len(obs_times), _SNAPSHOT_CHUNK):
        ts = obs_times[r0:r0 + _SNAPSHOT_CHUNK]
        rows = len(ts)
        for col, (times, positions) in enumerate(anchors):
            k = np.searchsorted(times, ts, side="right") - 1
            starts[:rows, col] = positions[k]
            durations[:rows, col] = ts - times[k]
        out[r0:r0 + rows] = flow.flow_at_array(starts[:rows],
                                               durations[:rows])
    return out


@dataclass
class EtaEstimate:
    """Pointwise survival-limit estimates on a set of probes."""

    probes: np.ndarray
    values: np.ndarray          # eta_hat at t_probe
    values_late: np.ndarray     # eta_hat at 1.5 * t_probe
    t_probe: float

    @property
    def consistency(self) -> float:
        """Max relative drift between the two probe horizons."""
        base = np.maximum(np.abs(self.values), 1e-12)
        return float(np.max(np.abs(self.values_late - self.values) / base))


def eta_estimate(model: ModelSpec, law: TiltedJumpLaw, grid, t_probe: float,
                 lambda0X: float, n_paths: int = 400,
                 seed: int = 0) -> EtaEstimate:
    """eta_hat(x) = e^{lambda0X t} P_x(t < zeta) by survival Monte Carlo.

    Each probe runs independent paths to 1.5*t_probe; survival at
    t_probe and 1.5*t_probe gives the two-horizon consistency check
    (InconsistentEta beyond 10% relative drift).  At most 2^20 paths
    per probe keep the per-probe random streams disjoint.  The paths run
    in turn on one generator, rekeyed to each path's stream.
    """
    if t_probe <= 0.0:
        raise DomainError("t_probe must be positive")
    if not 1 <= n_paths <= _ETA_STREAM_STRIDE:
        raise DomainError(
            f"n_paths must lie in [1, {_ETA_STREAM_STRIDE}], got {n_paths}")
    probes = grid.centers if isinstance(grid, SizeGrid) \
        else np.asarray(grid, dtype=float)
    if np.any(probes <= 0.0):
        raise DomainError("probe positions must be positive")
    t_late = 1.5 * t_probe
    values = np.empty(len(probes))
    values_late = np.empty(len(probes))
    rng = make_rng(seed, _ETA_STREAM_STRIDE)
    for k, x in enumerate(probes):
        alive_mid = alive_late = 0
        for i in range(n_paths):
            state = PdmpState.fresh(
                float(x), seed=seed,
                stream_id=(k + 1) * _ETA_STREAM_STRIDE + i, rng=rng)
            trace = simulate_path(model, law, float(x), t_late, state=state)
            death = np.inf if trace.alive else trace.points[-1][0]
            if death > t_probe:
                alive_mid += 1
            if death > t_late:
                alive_late += 1
        values[k] = np.exp(lambda0X * t_probe) * alive_mid / n_paths
        values_late[k] = np.exp(lambda0X * t_late) * alive_late / n_paths
    est = EtaEstimate(probes=probes, values=values,
                      values_late=values_late, t_probe=float(t_probe))
    if est.consistency > _ETA_DRIFT_TOL:
        raise InconsistentEta(
            f"survival estimates drift by {est.consistency:.1%} between "
            f"t={t_probe:g} and t={t_late:g}")
    return est


def reconstruct_m_phi(nu_hat: np.ndarray, eta_hat: Optional[EtaEstimate],
                      h: WeightFunction, grid: SizeGrid,
                      psi: Optional[WeightFunction] = None):
    """Eigenmeasure and eigenfunction from the FV output.

    m is the h-untilted binning of nu_hat on the grid (weights 1/h per
    sample), normalized to m(psi) = 1; phi = eta_hat * h at the probe
    points, normalized to max |phi/psi| = 1.  With eta_hat None only m
    is returned (phi None).
    """
    if psi is None:
        psi = constant_weight(1.0)
    samples = np.asarray(nu_hat, dtype=float)
    if len(samples) == 0:
        raise DomainError("empty empirical measure")
    weights = np.array([1.0 / h(x) for x in samples])
    inside = (samples >= grid.edges[0]) & (samples <= grid.edges[-1])
    idx = np.clip(np.searchsorted(grid.edges, samples[inside],
                                  side="right") - 1, 0, grid.n_cells - 1)
    m = np.bincount(idx, weights=weights[inside], minlength=grid.n_cells)
    centers = grid.centers
    psi_vals = np.array([psi(x) for x in centers])
    norm = float(psi_vals @ m)
    if norm <= 0.0:
        raise DomainError("empirical measure has no mass on the grid")
    m = m / norm

    phi = None
    if eta_hat is not None:
        phi_probe = eta_hat.values * np.array(
            [h(x) for x in eta_hat.probes])
        phi = np.interp(np.log(centers), np.log(eta_hat.probes), phi_probe)
        scale = float(np.max(np.abs(phi / psi_vals)))
        if scale <= 0.0:
            raise DomainError("eta estimate vanishes everywhere")
        phi = phi / scale
    return m, phi
