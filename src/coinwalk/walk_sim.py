"""Two independent continuous-time walkers and their coincidence time.

Each walker holds at its current vertex for an Exp(1) time, then jumps to
a neighbor chosen uniformly (a self-loop counts as one neighbor choice,
so traversing it is a jump that lands where it started).  Both walkers
start from the degree-proportional stationary distribution.  The
coincidence time tau is the total time the two occupy the same vertex up
to the horizon t, and the infection probability is 1 - exp(-beta * tau).

The simulation runs on the jump chain of the merged event process.  With
two independent rate-1 clocks, events arrive at rate 2 and a fair coin
decides which walker jumps, so the number of events N in [0, t] is
Poisson(2t).  Given N, the event times are uniform order statistics on
[0, t] (Ross, *Stochastic Processes*, Thm 2.3.1): the N + 1 intervals
between them are t times a Dirichlet(1, ..., 1) vector, independent of the
coins and destinations.  If the walkers share a vertex on m of those
intervals, tau is therefore t times the sum of m of the Dirichlet
coordinates, which is t * Beta(m, N + 1 - m): 0 when m = 0, t when
m = N + 1, and otherwise t * E_1..m / E_1..N+1 for N + 1 Exp(1) draws.  No
holding time is drawn per event.

Draw order: every replicate owns one splitmix64 stream, seeded with the
replicate seed.  It draws X's initial vertex, then Y's, then the event
count N (by inverting a cumulative Poisson table, as the start vertices
invert the stationary one), then one word per event: bit 0 is the coin
(1 moves Y) and the top 53 bits pick the mover's destination.  Only when
0 < m < N + 1 does it go on to draw the N + 1 uniforms of the Exp(1)
variables.  ``simulate_batch`` runs many replicates in vectorized lockstep;
each lane evaluates its own draws only, so replicate r's result does not
depend on the chunk size or on the replicates run alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph_core import Graph, theorem1_bounds
from .rng import GAMMA_U64, MASK64, U53_INV, derive_seeds, gamma_ramp, lane_uniforms, mix64_into

#: Replicates that ``simulate_batch`` advances in lockstep at a time.  It
#: bounds the engine's working memory; results do not depend on it.
CHUNK_SIZE = 1 << 15

#: The event-count table spans 2t +- 12 standard deviations of Poisson(2t),
#: plus 30 entries on the right for small t: the mass outside it is below
#: 1e-25, far under a uniform's 2**-53.
_POISSON_SPREAD = 12.0
_POISSON_TAIL = 30

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
        if self.master_seed > MASK64:
            raise ValueError("master_seed must be below 2**64")


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


@lru_cache(maxsize=8)
def _event_count_cdf(t_horizon: float) -> tuple[int, np.ndarray]:
    """``(lo, cdf)``: cdf[i] = P(N <= lo + i) for the event count N ~ Poisson(2t).

    The table spans lam +- 12 sqrt(lam) (plus a short right tail for small
    lam), so its length grows like sqrt(lam).  The pmf is built outward from
    the mode by the ratios p(k) / p(k - 1) = lam / k and normalized over the
    window, and the table ends at its first entry equal to 1.0, so
    ``lo + searchsorted(cdf, u, side="right")`` is N for every u in [0, 1).
    It is built on first use for each horizon and cached.
    """
    lam = 2.0 * t_horizon
    spread = _POISSON_SPREAD * math.sqrt(lam)
    lo = max(0, math.floor(lam - spread))
    hi = math.ceil(lam + spread) + _POISSON_TAIL
    mode = math.floor(lam)
    pmf = np.empty(hi - lo + 1)
    pmf[mode - lo] = 1.0
    np.cumprod(lam / np.arange(mode + 1, hi + 1), out=pmf[mode - lo + 1:])
    pmf[:mode - lo] = np.cumprod(np.arange(mode, lo, -1) / lam)[::-1]
    cdf = pmf.cumsum()
    cdf /= cdf[-1]
    cdf = cdf[:int(cdf.searchsorted(1.0)) + 1]
    cdf.setflags(write=False)
    return lo, cdf


def _shared_fraction(uniforms: np.ndarray, counts: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Per lane, E_1..m / E_1..c for the lane's c = counts[i] Exp(1) variables.

    ``uniforms`` holds each lane's c uniforms back to back, lane after lane;
    E = -log1p(-u), and m = shared[i], with 0 < m < c.  The result is
    Beta(m, c - m).  It is computed with the signs of all E flipped, which
    leaves the ratio exact, and each lane's two sums run over its own
    segment only, so a lane's value does not depend on its neighbours.  The
    denominator is the sum of the two parts, so the ratio is at most 1.
    ``uniforms`` is overwritten.
    """
    logs = np.log1p(np.negative(uniforms, out=uniforms), out=uniforms)
    cuts = np.empty(2 * counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=cuts[2::2])
    cuts[0] = 0
    np.add(cuts[0::2], shared, out=cuts[1::2])
    sums = np.add.reduceat(logs, cuts)
    num, rest = sums[0::2], sums[1::2]
    return num / (num + rest)


def _simulate_chunk(g: Graph, cum: np.ndarray, t_horizon: float,
                    rep_seeds: np.ndarray, out: tuple[np.ndarray, ...], base: int) -> None:
    """Run one chunk of replicates in lockstep on the jump chain.

    Lane i's stream state is ``state[i]``, which starts at the replicate
    seed, and its walkers' positions are row i of the C-contiguous
    (lanes, 2) array ``pos`` (vertex ids in the adjacency's int32), so flat
    index 2*i + mover names the one entry an event changes.  After the
    start vertices and the event counts are drawn, the lanes are sorted by
    event count, largest first: the lanes that step at step s are then the
    prefix of those with more than s events, and every array is used
    through that shrinking prefix.  A step draws one word per live lane,
    moves the mover and counts, per lane, Y's jumps and the intervals
    spent together (one contiguous test per lane's (int32, int32) row read
    as a uint64 word, see ``_MEET_MULT``).  X's jumps are the event count
    minus Y's.

    At the end, the lanes that met on some but not all intervals draw their
    Exp(1) variables in groups that fit buffers of max(CHUNK_SIZE, largest
    count) entries, and every lane is written to the output slice once,
    through the inverse of the sort.
    """
    taus_out, jumps_out, final_out = out
    total = cum[-1]
    offs, nbrs = g.offsets, g.neighbors
    degs_f = g.degrees.astype(np.float64)
    lo, cdf = _event_count_cdf(t_horizon)
    width = rep_seeds.size
    state = rep_seeds.copy()
    ramp = gamma_ramp(3 * width)  # also the word buffer: the ramp is not needed again
    starts = lane_uniforms(state, np.full(width, 3), ramp, np.empty(3 * width), ramp)
    starts = starts.reshape(width, 3)
    pos = np.searchsorted(cum, starts[:, :2] * total, side="right").astype(nbrs.dtype)
    events = np.searchsorted(cdf, starts[:, 2], side="right")
    events += lo
    order = np.argsort(-events, kind="stable")
    events, state = events.take(order), state.take(order)
    pos = pos.take(order, axis=0)
    pos_f, pos_u = pos.reshape(-1), pos.view(np.uint64).reshape(-1)
    n_max = int(events[0])
    # lanes with more than s events, for s < n_max: the prefix that steps at s
    lives = width - np.bincount(events, minlength=n_max + 1).cumsum()[:n_max]
    word, tmp = np.empty(width, dtype=np.uint64), np.empty(width, dtype=np.uint64)
    u, flat = np.empty(width), np.empty(width, dtype=np.int64)
    same = np.less(np.multiply(pos_u, _MEET_MULT, out=word), _HALF_RANGE)
    shared = same.astype(np.int64)
    jumps_y = np.zeros(width, dtype=np.int64)
    lanes2 = 2 * np.arange(width)
    for live in lives.tolist():
        st, w, tm, uu, fl = state[:live], word[:live], tmp[:live], u[:live], flat[:live]
        st += GAMMA_U64
        mix64_into(st, w, tm)
        coin = np.bitwise_and(w, 1, out=tm).view(np.int64)
        jumps_y[:live] += coin
        np.add(lanes2[:live], coin, out=fl)
        # take() converts int32 indices on every call: one conversion serves both gathers
        v = pos_f.take(fl).astype(np.intp)
        deg = degs_f.take(v)
        np.right_shift(w, 11, out=w)
        np.multiply(w, U53_INV, out=uu)
        uu *= deg
        deg -= 1.0
        # min(floor(x), deg - 1) == floor(min(x, deg - 1)): the clamp on one gather
        k = np.minimum(uu, deg, out=uu).astype(np.int64)
        k += offs.take(v)
        pos_f[fl] = nbrs.take(k)
        np.multiply(pos_u[:live], _MEET_MULT, out=w)
        shared[:live] += np.less(w, _HALF_RANGE, out=same[:live])
    tau = np.zeros(width)
    tau[shared > events] = t_horizon
    part = np.flatnonzero((shared > 0) & (shared <= events))
    if part.size:
        frac = _shared_fractions_in_groups(state.take(part), events.take(part) + 1,
                                           shared.take(part), max(CHUNK_SIZE, n_max + 1))
        tau[part] = t_horizon * frac
    done = base + order
    taus_out[done] = tau
    jumps_out[done, 0] = events - jumps_y
    jumps_out[done, 1] = jumps_y
    final_out[done] = pos


def _shared_fractions_in_groups(states: np.ndarray, counts: np.ndarray, shared: np.ndarray,
                                cap: int) -> np.ndarray:
    """``_shared_fraction`` for lanes whose streams continue at ``states``.

    Lane i draws its counts[i] uniforms from its own stream.  The lanes are
    taken in consecutive groups of at most ``cap`` draws in all (no lane
    needs more), which reuse one pair of buffers.
    """
    ramp, buf, words = gamma_ramp(cap), np.empty(cap), np.empty(cap, dtype=np.uint64)
    ends = counts.cumsum()
    frac = np.empty(counts.size)
    a = 0
    while a < counts.size:
        b = int(ends.searchsorted((ends[a - 1] if a else 0) + cap, side="right"))
        block = lane_uniforms(states[a:b], counts[a:b], ramp, buf, words)
        frac[a:b] = _shared_fraction(block, counts[a:b], shared[a:b])
        a = b
    return frac


def simulate_batch(g: Graph, cfg: SimConfig) -> ReplicateBatch:
    """Run cfg.replicates independent replicates in vectorized lockstep.

    Replicate r runs the module's draw order on the stream of the derived
    seed (master_seed, r), so its result is independent of ``CHUNK_SIZE``
    and of how many replicates run alongside it.
    """
    cum = _stationary_cumsum(g)
    n_rep = cfg.replicates
    taus = np.empty(n_rep)
    jumps = np.empty((n_rep, 2), dtype=np.int64)
    final = np.empty((n_rep, 2), dtype=np.int64)
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
