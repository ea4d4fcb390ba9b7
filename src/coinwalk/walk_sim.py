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
constant.  Both engines keep the walkers' positions as pairs indexed by
the mover (0 for X, 1 for Y), so an event touches only the mover's
entry.  The scalar engine counts each walker's jumps; the batch engine
counts Y's jumps and the lockstep steps, whose difference is X's.  The
batch engine adds to tau only on the lanes where the walkers meet, and
compacts lazily: a lane past the horizon is written out once and masked
off, and the finished lanes are dropped together once a fixed share of
the chunk is done, not at every step where one finishes.

Draw order: every replicate owns one splitmix64 stream, seeded with the
replicate seed.  It first draws X's initial vertex, then Y's; each event
then draws a holding time and, unless the horizon was crossed, a coin
(below 1/2 moves X) and then the mover's destination.  Every draw comes
from its own counter position of the stream, so the two walkers' draws
are distinct.  ``simulate_pair`` is the scalar reference;
``simulate_batch`` runs many replicates in vectorized lockstep and
produces bit-identical results replicate for replicate, for any chunk
size (both paths evaluate the same numpy kernels, or exact rewrites of
them, on the same draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, theorem1_bounds
from .rng import GAMMA_U64, U53_INV, Stream, derive_seeds, mix64_into, mix64_vec, uniform_from_u64

#: Replicates that ``simulate_batch`` advances in lockstep at a time.  It
#: bounds the engine's working memory; results do not depend on it.
CHUNK_SIZE = 1 << 15

#: Share of a chunk's lanes that must be done before they are compacted away.
_COMPACT_SHARE = 0.25

_TOP_BIT = np.uint64(63)

#: A lane's two int32 positions, read as one uint64 word a + b * 2**32: the
#: word times 1 - 2**32 is a + ((b - a) mod 2**32) * 2**32 modulo 2**64,
#: below 2**32 exactly when a == b, that is, when the walkers coincide.
_MEET_MULT = np.uint64((1 - (1 << 32)) % (1 << 64))
_HALF_RANGE = np.uint64(1 << 32)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a coincidence-time Monte Carlo run."""

    t_horizon: float
    beta: float = 0.0
    replicates: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.t_horizon) and self.t_horizon >= 0):
            raise ValueError("t_horizon must be finite and non-negative")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and non-negative")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
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

    @property
    def replicates(self) -> int:
        return int(self.taus.size)


@dataclass(frozen=True)
class Theorem1Check:
    """Monte Carlo estimates side by side with the closed-form predictions.

    Standard errors use ddof = 1.  ``tau_z_score`` is |mean_tau -
    predicted| in standard-error units; ``jensen_satisfied`` records
    whether the mean infection probability stayed at or below its upper
    bound, with a 3-standard-error allowance for Monte Carlo noise.

    The score divides by the standard error of the same tau sample, so its
    signed form has a heavy left tail when few replicates coincide: on
    3-regular n = 2e5 at t = 100 about 52 of 1e5 do, and scores above 5
    have been seen there on correct code.
    """

    mean_tau: float
    stderr_tau: float
    mean_infection_prob: float
    stderr_infection_prob: float
    predicted_tau: float
    gamma_upper: float
    tau_z_score: float
    jensen_satisfied: bool


def _stationary_cumsum(g: Graph) -> np.ndarray:
    if g.total_degree == 0:
        raise ValueError("graph has no edges")
    return np.cumsum(g.degrees, dtype=np.float64)


def simulate_pair(g: Graph, t_horizon: float, beta: float, seed: int) -> CoincidenceResult:
    """Run one replicate event by event (scalar reference path).

    Every draw comes from ``Stream(seed)`` in the module's draw order.  All
    float arithmetic goes through the same numpy scalar kernels the batch
    path uses, so results match ``simulate_batch`` bit for bit.
    """
    if t_horizon < 0:
        raise ValueError("t_horizon must be non-negative")
    cum = _stationary_cumsum(g)
    if g.n == 1:
        return CoincidenceResult(
            tau=float(t_horizon),
            infection_prob=float(-np.expm1(-beta * t_horizon)),
            jumps_x=0, jumps_y=0, final_x=0, final_y=0)
    stream = Stream(seed)
    total = cum[-1]
    pos = [int(np.searchsorted(cum, stream.uniform() * total, side="right")) for _ in range(2)]
    jumps = [0, 0]
    offs, nbrs, degs = g.offsets, g.neighbors, g.degrees
    t = 0.0
    tau = 0.0
    while True:
        dt = -0.5 * float(np.log1p(-stream.uniform()))
        t_next = t + dt
        if pos[0] == pos[1]:
            tau += min(t_next, t_horizon) - t
        if t_next >= t_horizon:
            break
        t = t_next
        mover = int(stream.uniform() >= 0.5)
        v = pos[mover]
        deg = int(degs[v])
        k = min(int(stream.uniform() * float(deg)), deg - 1)
        pos[mover] = int(nbrs[offs[v] + k])
        jumps[mover] += 1
    return CoincidenceResult(
        tau=tau,
        infection_prob=float(-np.expm1(-beta * tau)),
        jumps_x=jumps[0], jumps_y=jumps[1], final_x=pos[0], final_y=pos[1])


def _simulate_chunk(g: Graph, cum: np.ndarray, t_horizon: float,
                    rep_seeds: np.ndarray, out: tuple[np.ndarray, ...], base: int) -> None:
    """Advance one chunk of replicates in lockstep until all cross the horizon.

    Lane i's stream state is ``state[i]``, which starts at the replicate
    seed, and its walkers' positions are row i of the C-contiguous
    (lanes, 2) array ``pos`` (vertex ids in the adjacency's int32), so flat
    index 2*i + mover names the one entry an event changes.  Every lane
    draws three words and jumps once per step, so the lane keeps only Y's
    jump count and X's is the step count minus it.  Coincidence is added
    only on the lanes whose walkers share a vertex, found with
    ``flatnonzero`` on one contiguous test per lane's (int32, int32) row
    read as a uint64 word (see ``_MEET_MULT``).

    Compaction is lazy.  A lane that crosses the horizon is written to the
    output slice once and masked off by ``alive``; it keeps stepping, but
    nothing reads its state again.  Only when ``_COMPACT_SHARE`` of the
    lanes are done does one ``take`` per state array drop them all.  The
    per-step words and floats live in scratch buffers that are reused, not
    reallocated.
    """
    taus_out, jumps_out, final_out = out
    total = cum[-1]
    offs, nbrs = g.offsets, g.neighbors
    degs_f = g.degrees.astype(np.float64)
    width = rep_seeds.size
    state = rep_seeds.copy()
    pos = np.empty((width, 2), dtype=nbrs.dtype)
    for walker in (0, 1):
        state += GAMMA_U64
        pos[:, walker] = np.searchsorted(cum, uniform_from_u64(mix64_vec(state)) * total,
                                         side="right")
    jumps_y = np.zeros(width, dtype=np.int64)
    t = np.zeros(width)
    tau = np.zeros(width)
    idx = np.arange(width)
    alive = np.ones(width, dtype=bool)
    same = np.empty(width, dtype=bool)
    lanes2 = 2 * idx
    word, tmp = np.empty(width, dtype=np.uint64), np.empty(width, dtype=np.uint64)
    u, t_next = np.empty(width), np.empty(width)
    flat = np.empty(width, dtype=np.int64)
    dead = 0
    step = 0
    while True:
        state += GAMMA_U64
        # dt = -0.5 * log1p(-uniform), the negation folded into the scale
        _scale_top53(mix64_into(state, word, tmp), -U53_INV, u)
        np.log1p(u, out=u)
        u *= -0.5
        np.add(t, u, out=t_next)
        np.multiply(pos.view(np.uint64).reshape(-1), _MEET_MULT, out=word)
        meet = np.flatnonzero(np.less(word, _HALF_RANGE, out=same))
        if meet.size:
            tau[meet] += np.minimum(t_next.take(meet), t_horizon) - t.take(meet)
        ended = np.flatnonzero((t_next >= t_horizon) & alive)
        if ended.size:
            alive[ended] = False
            done = base + idx.take(ended)
            taus_out[done] = tau.take(ended)
            jy = jumps_y.take(ended)
            jumps_out[done, 0] = step - jy
            jumps_out[done, 1] = jy
            final_out[done] = pos.take(ended, axis=0)
            dead += ended.size
            if dead == width:
                return
            if dead >= _COMPACT_SHARE * width:
                live = np.flatnonzero(alive)
                # take() along axis 0: boolean masks copy (lanes, 2) rows an order slower
                state, pos, jumps_y, idx, t_next, tau = (
                    a.take(live, axis=0) for a in (state, pos, jumps_y, idx, t_next, tau))
                width, dead = live.size, 0
                alive, same, lanes2, word, tmp, u, t, flat = (
                    a[:width] for a in (alive, same, lanes2, word, tmp, u, t, flat))
                alive[:] = True
        t, t_next = t_next, t
        # Row selection keeps ``pos`` C-contiguous, so this reshape is a
        # view and writes through it reach the positions.
        pos_f = pos.reshape(-1)
        state += GAMMA_U64
        # The coin's uniform is >= 1/2 (Y moves) exactly when its word's top bit is set.
        coin = np.right_shift(mix64_into(state, word, tmp), _TOP_BIT, out=word).view(np.int64)
        jumps_y += coin
        step += 1
        np.add(lanes2, coin, out=flat)
        # take() converts int32 indices on every call: one conversion serves both gathers
        v = pos_f.take(flat).astype(np.intp)
        deg = degs_f.take(v)
        state += GAMMA_U64
        _scale_top53(mix64_into(state, word, tmp), U53_INV, u)
        u *= deg
        deg -= 1.0
        # min(floor(x), deg - 1) == floor(min(x, deg - 1)): the clamp on one gather
        k = np.minimum(u, deg, out=u).astype(np.int64)
        k += offs.take(v)
        pos_f[flat] = nbrs.take(k)


def _scale_top53(words: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """``uniform_from_u64(words) * scale`` into ``out``, shifting ``words`` in place."""
    np.right_shift(words, 11, out=words)
    return np.multiply(words, scale, out=out)


def simulate_batch(g: Graph, cfg: SimConfig) -> ReplicateBatch:
    """Run cfg.replicates independent replicates (vectorized path).

    Replicate r uses the derived seed (master_seed, r), so the result for
    each replicate is independent of ``CHUNK_SIZE`` and of how many
    replicates run alongside it, and matches ``simulate_pair`` with that
    seed bit for bit.
    """
    cum = _stationary_cumsum(g)
    n_rep = cfg.replicates
    taus = np.full(n_rep, float(cfg.t_horizon))
    jumps = np.zeros((n_rep, 2), dtype=np.int64)
    final = np.zeros((n_rep, 2), dtype=np.int64)
    if g.n > 1:
        rep_seeds = derive_seeds(cfg.master_seed, np.arange(n_rep, dtype=np.uint64))
        for base in range(0, n_rep, CHUNK_SIZE):
            _simulate_chunk(g, cum, cfg.t_horizon, rep_seeds[base:base + CHUNK_SIZE],
                            (taus, jumps, final), base)
    return ReplicateBatch(
        taus=taus, infection_probs=-np.expm1(-cfg.beta * taus),
        jumps_x=jumps[:, 0], jumps_y=jumps[:, 1],
        final_x=final[:, 0], final_y=final[:, 1])


def verify_theorem1(g: Graph, cfg: SimConfig) -> Theorem1Check:
    """Compare Monte Carlo estimates against the closed-form predictions.

    The prediction for E[tau] is t * sum(pi_v^2); the infection
    probability is checked against its concavity (upper-bound) prediction
    1 - exp(-beta * t * sum(pi_v^2)).
    """
    if cfg.replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    batch = simulate_batch(g, cfg)
    bounds = theorem1_bounds(g, cfg.t_horizon, cfg.beta)
    root = math.sqrt(cfg.replicates)
    mean_tau = float(batch.taus.mean())
    stderr_tau = float(batch.taus.std(ddof=1)) / root
    mean_infection = float(batch.infection_probs.mean())
    stderr_infection = float(batch.infection_probs.std(ddof=1)) / root
    if stderr_tau > 0:
        z = abs(mean_tau - bounds.expected_tau) / stderr_tau
    else:
        z = 0.0 if mean_tau == bounds.expected_tau else math.inf
    return Theorem1Check(
        mean_tau=mean_tau,
        stderr_tau=stderr_tau,
        mean_infection_prob=mean_infection,
        stderr_infection_prob=stderr_infection,
        predicted_tau=bounds.expected_tau,
        gamma_upper=bounds.gamma_upper,
        tau_z_score=z,
        jensen_satisfied=bool(mean_infection <= bounds.gamma_upper + 3.0 * stderr_infection),
    )
