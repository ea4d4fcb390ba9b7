"""Two independent continuous-time walkers and their coincidence time.

Each walker holds at its current vertex for an Exp(1) time, then jumps to
a neighbor chosen uniformly (a self-loop counts as one neighbor choice,
so traversing it is a jump that lands where it started).  Both walkers
start from the degree-proportional stationary distribution.  The
coincidence time tau is the total time the two occupy the same vertex up
to the horizon, and the infection probability is 1 - exp(-beta * tau).

The simulation runs on the merged event process: with two independent
rate-1 clocks, events arrive at rate 2 and a fair coin decides which
walker jumps.  Coincidence accrues between events, where positions are
constant.

Every replicate owns three derived streams -- event stream (holding
times and coins), one stream per walker (initial vertex and jump
targets) -- so replacing one walker's stream leaves the other walker's
trajectory bit-identical.  ``simulate_pair`` is the scalar reference;
``simulate_batch`` runs many replicates in vectorized lockstep and
produces bit-identical results replicate for replicate, for any chunk
size (both paths evaluate the same numpy kernels on the same draws).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, theorem1_bounds
from .rng import (GAMMA_U64, Stream, derive_child_seeds, derive_seed,
                  derive_seeds, mix64_vec, uniform_from_u64)

_U64_ZERO = np.uint64(0)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a coincidence-time Monte Carlo run."""

    t_horizon: float
    beta: float = 0.0
    replicates: int = 1
    master_seed: int = 0
    chunk_size: int = 1 << 15

    def __post_init__(self):
        if not (math.isfinite(self.t_horizon) and self.t_horizon >= 0):
            raise ValueError("t_horizon must be finite and non-negative")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and non-negative")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


@dataclass(frozen=True)
class CoincidenceResult:
    """Outcome of one replicate."""

    tau: float
    infection_prob: float
    jumps_x: int
    jumps_y: int
    final_x: int
    final_y: int


@dataclass(frozen=True)
class ReplicateBatch:
    """Per-replicate outcomes of a batch run, aligned by replicate index."""

    taus: np.ndarray
    infection_probs: np.ndarray
    jumps_x: np.ndarray
    jumps_y: np.ndarray
    final_x: np.ndarray
    final_y: np.ndarray
    master_seed: int
    t_horizon: float
    beta: float

    @property
    def replicates(self) -> int:
        return int(self.taus.size)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo means with standard errors (ddof = 1)."""

    mean_tau: float
    stderr_tau: float
    mean_infection_prob: float
    stderr_infection_prob: float
    replicates: int
    elapsed_wall_time: float


@dataclass(frozen=True)
class Theorem1Check:
    """Monte Carlo estimates side by side with the closed-form predictions.

    ``tau_z_score`` is |mean_tau - predicted| in standard-error units;
    ``jensen_satisfied`` records whether the mean infection probability
    stayed at or below its upper bound, with a 3-standard-error allowance
    for Monte Carlo noise.
    """

    mc: MCEstimate
    predicted_tau: float
    gamma_upper: float
    tau_z_score: float
    jensen_satisfied: bool


def _stationary_cumsum(g: Graph) -> np.ndarray:
    if g.total_degree == 0:
        raise ValueError("graph has no edges")
    return g.degree_cumsum.astype(np.float64)


def simulate_pair(g: Graph, t_horizon: float, beta: float, seed: int) -> CoincidenceResult:
    """Run one replicate event by event (scalar reference path).

    The replicate's three streams are derived as (seed, 0) for events,
    (seed, 1) for walker X and (seed, 2) for walker Y.  Each event draws a
    holding time from the event stream; the coincidence integral advances;
    if the horizon was not crossed, a coin from the event stream picks the
    mover and the mover's own stream picks the destination.  All float
    arithmetic goes through the same numpy scalar kernels the batch path
    uses, so results match ``simulate_batch`` bit for bit.
    """
    return _simulate_streams(g, t_horizon, beta, derive_seed(seed, 0),
                             derive_seed(seed, 1), derive_seed(seed, 2))


def _simulate_streams(g: Graph, t_horizon: float, beta: float,
                      ev_seed: int, x_seed: int, y_seed: int) -> CoincidenceResult:
    """Scalar engine over explicit stream seeds.

    Exposing the three seeds separately makes the stream-isolation
    property testable: walker Y's trajectory is a function of the event
    stream and Y's stream only, so changing ``x_seed`` must leave Y's
    jump count and final vertex bit-identical.
    """
    if t_horizon < 0:
        raise ValueError("t_horizon must be non-negative")
    cum = _stationary_cumsum(g)
    if g.n == 1:
        return CoincidenceResult(
            tau=float(t_horizon),
            infection_prob=float(-np.expm1(-beta * t_horizon)),
            jumps_x=0, jumps_y=0, final_x=0, final_y=0)
    ev = Stream(ev_seed)
    sx = Stream(x_seed)
    sy = Stream(y_seed)
    total = cum[-1]
    x = int(np.searchsorted(cum, sx.uniform() * total, side="right"))
    y = int(np.searchsorted(cum, sy.uniform() * total, side="right"))
    offs, nbrs = g.offsets, g.neighbors
    degs = g.degrees
    t = 0.0
    tau = 0.0
    jx = jy = 0
    while True:
        dt = -0.5 * float(np.log1p(-ev.uniform()))
        t_next = t + dt
        if x == y:
            tau += min(t_next, t_horizon) - t
        if t_next >= t_horizon:
            break
        t = t_next
        if ev.uniform() < 0.5:
            deg = int(degs[x])
            k = min(int(sx.uniform() * float(deg)), deg - 1)
            x = int(nbrs[offs[x] + k])
            jx += 1
        else:
            deg = int(degs[y])
            k = min(int(sy.uniform() * float(deg)), deg - 1)
            y = int(nbrs[offs[y] + k])
            jy += 1
    return CoincidenceResult(
        tau=tau,
        infection_prob=float(-np.expm1(-beta * tau)),
        jumps_x=jx, jumps_y=jy, final_x=x, final_y=y)


def _simulate_chunk(g: Graph, t_horizon: float, rep_seeds: np.ndarray,
                    out: tuple[np.ndarray, ...], base: int) -> None:
    """Advance one chunk of replicates in lockstep until all cross the horizon.

    State lives in flat arrays over live replicates; a lane that crosses
    the horizon is written to the output slice and compacted away.  Stream
    states advance by the splitmix64 increment only in lanes that actually
    draw, which is what keeps every lane bit-identical to the scalar path.
    """
    taus_out, jx_out, jy_out, fx_out, fy_out = out
    size = rep_seeds.size
    ev = derive_child_seeds(rep_seeds, 0)
    sx = derive_child_seeds(rep_seeds, 1)
    sy = derive_child_seeds(rep_seeds, 2)
    cum = _stationary_cumsum(g)
    total = cum[-1]
    offs, nbrs = g.offsets, g.neighbors
    degs = g.degrees
    degs_f = degs.astype(np.float64)
    sx = sx + GAMMA_U64
    x = np.searchsorted(cum, uniform_from_u64(mix64_vec(sx)) * total, side="right")
    sy = sy + GAMMA_U64
    y = np.searchsorted(cum, uniform_from_u64(mix64_vec(sy)) * total, side="right")
    t = np.zeros(size)
    tau = np.zeros(size)
    jx = np.zeros(size, dtype=np.int64)
    jy = np.zeros(size, dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    while idx.size:
        ev = ev + GAMMA_U64
        dt = -0.5 * np.log1p(-uniform_from_u64(mix64_vec(ev)))
        t_next = t + dt
        tau = tau + np.where(x == y, np.minimum(t_next, t_horizon) - t, 0.0)
        crossed = t_next >= t_horizon
        if crossed.any():
            done = idx[crossed]
            taus_out[base + done] = tau[crossed]
            jx_out[base + done] = jx[crossed]
            jy_out[base + done] = jy[crossed]
            fx_out[base + done] = x[crossed]
            fy_out[base + done] = y[crossed]
            keep = ~crossed
            ev, sx, sy = ev[keep], sx[keep], sy[keep]
            x, y, t, tau = x[keep], y[keep], t[keep], tau[keep]
            jx, jy, idx, t_next = jx[keep], jy[keep], idx[keep], t_next[keep]
            if not idx.size:
                break
        t = t_next
        ev = ev + GAMMA_U64
        coin = uniform_from_u64(mix64_vec(ev)) < 0.5
        sx = sx + np.where(coin, GAMMA_U64, _U64_ZERO)
        ux = uniform_from_u64(mix64_vec(sx))
        kx = np.minimum((ux * degs_f[x]).astype(np.int64), degs[x] - 1)
        x = np.where(coin, nbrs[offs[x] + kx].astype(np.int64), x)
        jx += coin
        sy = sy + np.where(coin, _U64_ZERO, GAMMA_U64)
        uy = uniform_from_u64(mix64_vec(sy))
        ky = np.minimum((uy * degs_f[y]).astype(np.int64), degs[y] - 1)
        y = np.where(coin, y, nbrs[offs[y] + ky].astype(np.int64))
        jy += ~coin


def simulate_batch(g: Graph, cfg: SimConfig) -> ReplicateBatch:
    """Run cfg.replicates independent replicates (vectorized path).

    Replicate r uses the derived seed (master_seed, r), so the result for
    each replicate is independent of chunk size and of how many
    replicates run alongside it, and matches ``simulate_pair`` with that
    seed bit for bit.
    """
    if g.total_degree == 0:
        raise ValueError("graph has no edges")
    n_rep = cfg.replicates
    taus = np.empty(n_rep)
    jumps_x = np.empty(n_rep, dtype=np.int64)
    jumps_y = np.empty(n_rep, dtype=np.int64)
    final_x = np.empty(n_rep, dtype=np.int64)
    final_y = np.empty(n_rep, dtype=np.int64)
    if g.n == 1:
        taus.fill(cfg.t_horizon)
        jumps_x.fill(0)
        jumps_y.fill(0)
        final_x.fill(0)
        final_y.fill(0)
    else:
        rep_seeds = derive_seeds(cfg.master_seed, np.arange(n_rep, dtype=np.uint64))
        out = (taus, jumps_x, jumps_y, final_x, final_y)
        for base in range(0, n_rep, cfg.chunk_size):
            chunk = rep_seeds[base:base + cfg.chunk_size]
            _simulate_chunk(g, cfg.t_horizon, chunk, out, base)
    infection = -np.expm1(-cfg.beta * taus)
    return ReplicateBatch(
        taus=taus, infection_probs=infection,
        jumps_x=jumps_x, jumps_y=jumps_y,
        final_x=final_x, final_y=final_y,
        master_seed=cfg.master_seed, t_horizon=cfg.t_horizon, beta=cfg.beta)


def estimate_tau(g: Graph, cfg: SimConfig) -> MCEstimate:
    """Monte Carlo mean of tau and of the infection probability."""
    if cfg.replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    start = time.perf_counter()
    batch = simulate_batch(g, cfg)
    elapsed = time.perf_counter() - start
    root = math.sqrt(cfg.replicates)
    return MCEstimate(
        mean_tau=float(batch.taus.mean()),
        stderr_tau=float(batch.taus.std(ddof=1)) / root,
        mean_infection_prob=float(batch.infection_probs.mean()),
        stderr_infection_prob=float(batch.infection_probs.std(ddof=1)) / root,
        replicates=cfg.replicates,
        elapsed_wall_time=elapsed,
    )


def verify_theorem1(g: Graph, cfg: SimConfig) -> Theorem1Check:
    """Compare Monte Carlo estimates against the closed-form predictions.

    The prediction for E[tau] is t * sum(pi_v^2); the infection
    probability is checked against its concavity (upper-bound) prediction
    1 - exp(-beta * t * sum(pi_v^2)).
    """
    mc = estimate_tau(g, cfg)
    bounds = theorem1_bounds(g, cfg.t_horizon, cfg.beta)
    if mc.stderr_tau > 0:
        z = abs(mc.mean_tau - bounds.expected_tau) / mc.stderr_tau
    else:
        z = 0.0 if mc.mean_tau == bounds.expected_tau else math.inf
    allowance = 3.0 * mc.stderr_infection_prob
    return Theorem1Check(
        mc=mc,
        predicted_tau=bounds.expected_tau,
        gamma_upper=bounds.gamma_upper,
        tau_z_score=z,
        jensen_satisfied=bool(mc.mean_infection_prob <= bounds.gamma_upper + allowance),
    )
