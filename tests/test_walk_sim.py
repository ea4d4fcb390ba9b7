"""Tests for the two-walker coincidence simulator.

Two checks are load-bearing.  ``replay`` re-runs one replicate event by
event from its own stream in the documented draw order, and replicate r of
a batch must agree with it on the derived seed (master_seed, r): jumps and
final vertices exactly, tau to rounding.  And a batch must give the same
bits for any ``CHUNK_SIZE``.  Everything downstream (acceptance checks,
sweeps) leans on those two.
"""

import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from coinwalk import walk_sim
from coinwalk.generators import gen_complete, gen_gnp
from coinwalk.graph_core import build_graph
from coinwalk.rng import MASK64, Stream, derive_seeds, mix64_into
from coinwalk.walk_sim import SimConfig, simulate_batch, verify_theorem1


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def star3():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


def replay(g, t_horizon, seed):
    """One replicate, replayed from ``Stream(seed)`` in the documented draw order.

    X's start, Y's start, the event count, one word per event (bit 0 the
    coin, the top 53 bits the destination), then N + 1 Exp(1) variables when
    the walkers met on some but not all of the N + 1 intervals.  Returns
    (jumps_x, jumps_y, final_x, final_y, tau).
    """
    stream = Stream(seed)
    cum = np.cumsum(g.degrees)
    pos = [int(np.searchsorted(cum, stream.uniform() * cum[-1], side="right"))
           for _ in range(2)]
    lo, cdf = walk_sim._event_count_cdf(t_horizon)
    events = lo + int(np.searchsorted(cdf, stream.uniform(), side="right"))
    jumps = [0, 0]
    together = int(pos[0] == pos[1])
    for _ in range(events):
        word = stream.next_u64()
        mover, v = word & 1, pos[word & 1]
        k = int((word >> 11) * 2.0**-53 * int(g.degrees[v]))
        pos[mover] = int(g.neighbors[g.offsets[v] + k])
        jumps[mover] += 1
        together += pos[0] == pos[1]
    if 0 < together <= events:
        exps = -np.log1p(-stream.uniforms(events + 1))
        tau = t_horizon * math.fsum(exps[:together]) / math.fsum(exps)
    else:
        tau = t_horizon * (together > 0)
    return (*jumps, *pos, tau)


def assert_batch_follows_replay(g, cfg, monkeypatch):
    """Run cfg at ``CHUNK_SIZE`` 64 and check every replicate against ``replay``."""
    monkeypatch.setattr(walk_sim, "CHUNK_SIZE", 64)
    batch = simulate_batch(g, cfg)
    seeds = derive_seeds(cfg.master_seed, np.arange(cfg.replicates)).tolist()
    for r, seed in enumerate(seeds):
        *path, tau = replay(g, cfg.t_horizon, seed)
        got = (batch.jumps_x[r], batch.jumps_y[r], batch.final_x[r], batch.final_y[r])
        assert tuple(map(int, got)) == tuple(path), r
        assert batch.taus[r] == pytest.approx(tau, rel=1e-13, abs=0.0), r
        assert batch.infection_probs[r] == pytest.approx(
            -math.expm1(-cfg.beta * tau), rel=1e-13, abs=0.0), r
    return batch


def assert_same_batch(a, b):
    for field in ("taus", "infection_probs", "jumps_x", "jumps_y", "final_x", "final_y"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# ---------------------------------------------------------------------------
# configuration and inputs


def test_sim_config_validation():
    with pytest.raises(ValueError, match="t_horizon"):
        SimConfig(t_horizon=-1.0)
    with pytest.raises(ValueError, match="beta"):
        SimConfig(t_horizon=1.0, beta=-0.5)
    with pytest.raises(ValueError, match="replicates"):
        SimConfig(t_horizon=1.0, replicates=0)
    # the top 64-bit seed is a master seed like any other: a point's derived
    # seed can take it, and master seed 2**64 is refused (test_harness.py)
    batch = simulate_batch(path3(), SimConfig(t_horizon=1.0, replicates=3, master_seed=MASK64))
    assert batch.taus.size == 3


def test_simulation_rejects_edgeless_graph():
    g = build_graph(3, [])
    with pytest.raises(ValueError, match="no edges"):
        simulate_batch(g, SimConfig(t_horizon=1.0))


# ---------------------------------------------------------------------------
# engine semantics


def test_tau_is_bounded_by_horizon():
    batch = simulate_batch(path3(), SimConfig(t_horizon=3.0, beta=0.5, replicates=50))
    assert np.all((0.0 <= batch.taus) & (batch.taus <= 3.0))
    assert np.all((0.0 <= batch.infection_probs) & (batch.infection_probs < 1.0))
    assert np.allclose(batch.infection_probs, -np.expm1(-0.5 * batch.taus), rtol=1e-15, atol=0)


def test_single_vertex_graph_coincides_always():
    # one vertex with a self-loop: walkers never separate, tau = t exactly
    g = build_graph(1, [(0, 0)], allow_self_loops=True)
    batch = simulate_batch(g, SimConfig(t_horizon=7.5, replicates=8, master_seed=1))
    assert np.all(batch.taus == 7.5)
    assert np.all(batch.final_x == 0) and np.all(batch.final_y == 0)


def test_k2_determinism_and_flip_parity():
    # on K_2 every jump flips the walker, so the final gap is determined by
    # the initial gap and the total jump parity; at horizon 0 the same
    # replicate stops before the first jump, so its final vertices are the
    # start ones
    cfg = SimConfig(t_horizon=50.0, replicates=200, master_seed=11)
    res = simulate_batch(gen_complete(2), cfg)
    init = simulate_batch(gen_complete(2), SimConfig(t_horizon=0.0, replicates=200,
                                                     master_seed=11))
    assert np.all(init.jumps_x + init.jumps_y == 0)
    started_together = init.final_x == init.final_y
    assert started_together.any() and not started_together.all()
    parity_even = (res.jumps_x + res.jumps_y) % 2 == 0
    assert np.array_equal(res.final_x == res.final_y, started_together == parity_even)
    assert_same_batch(res, simulate_batch(gen_complete(2), cfg))


# ---------------------------------------------------------------------------
# the jump chain: event counts, draw order and tau


@pytest.mark.parametrize("t_horizon", [0.0, 0.25, 100.0, 1e5])
def test_event_count_table_is_the_poisson_cdf(t_horizon):
    lo, cdf = walk_sim._event_count_cdf(t_horizon)
    k = lo + np.arange(cdf.size)
    assert np.max(np.abs(cdf - poisson.cdf(k, 2 * t_horizon))) < 1e-12
    # the mass outside the table is within the table's own rounding
    assert poisson.cdf(lo - 1, 2 * t_horizon) < 1e-16
    assert poisson.sf(k[-1], 2 * t_horizon) < 1e-13
    assert cdf[-1] == 1.0 and not cdf.flags.writeable


def test_event_count_table_at_a_large_horizon():
    # scipy 1.17's Poisson cdf is off by up to 1.6e-9 on about 1600 entries
    # of this window (k near 2006374 to 2007953), so the oracle is the
    # regularized incomplete gamma Q(k + 1, 2t) in 30-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    lam = 2e6
    lo, cdf = walk_sim._event_count_cdf(lam / 2)
    with mpmath.workdps(30):
        for i in np.linspace(0, cdf.size - 1, 25).astype(int):
            exact = mpmath.gammainc(lo + int(i) + 1, lam, mpmath.inf, regularized=True)
            assert abs(float(exact) - cdf[i]) < 1e-12
    assert poisson.cdf(lo - 1, lam) < 1e-16 and cdf[-1] == 1.0


def test_event_count_table_grows_like_the_square_root_of_the_rate():
    sizes = [walk_sim._event_count_cdf(t)[1].size for t in (1e2, 1e4, 1e6)]
    # each hundredfold rate makes the table about ten times longer
    for short, long in zip(sizes, sizes[1:]):
        assert 7 < long / short < 13, sizes
    assert sizes[-1] < 30 * math.sqrt(2e6)


def test_event_counts_are_poisson_of_twice_the_horizon():
    # jumps_x + jumps_y is the event count N, drawn from its table: on K_5,
    # 1e5 replicates at t = 5 against Poisson(10), bins of expected count
    # 20 or more with the tails pooled
    t_horizon, reps = 5.0, 10**5
    batch = simulate_batch(gen_complete(5), SimConfig(t_horizon=t_horizon, replicates=reps,
                                                      master_seed=20261021))
    events = batch.jumps_x + batch.jumps_y
    support = np.flatnonzero(poisson.pmf(np.arange(60), 2 * t_horizon) * reps >= 20)
    lo, hi = int(support[0]), int(support[-1])
    counts = np.bincount(np.clip(events, lo, hi) - lo, minlength=hi - lo + 1)
    probs = poisson.pmf(np.arange(lo, hi + 1), 2 * t_horizon)
    probs[0] = poisson.cdf(lo, 2 * t_horizon)
    probs[-1] = poisson.sf(hi - 1, 2 * t_horizon)
    assert chisquare(counts, probs * reps).pvalue > 1e-3


def test_pair_follows_the_documented_draw_order(monkeypatch):
    # star3 at t = 2: the walkers meet on some but not all intervals in
    # enough replicates that the Exp(1) draws are replayed too
    batch = assert_batch_follows_replay(
        star3(), SimConfig(t_horizon=2.0, replicates=200, master_seed=0), monkeypatch)
    assert np.count_nonzero((0.0 < batch.taus) & (batch.taus < 2.0)) >= 20


# ---------------------------------------------------------------------------
# batch engine: every replicate is its replay, at any chunk size


@pytest.mark.parametrize(
    "graph_builder, t_horizon",
    [
        (lambda: gen_complete(5), 10.0),
        (path3, 25.0),
        (star3, 8.0),
        (lambda: gen_gnp(40, 0.2, seed=77), 12.0),
        # self-loops and two components
        (lambda: build_graph(5, [(0, 0), (0, 1), (1, 2), (2, 2), (3, 4)],
                             allow_self_loops=True), 15.0),
        # one vertex: every event traverses the loop, and is a jump
        (lambda: build_graph(1, [(0, 0)], allow_self_loops=True), 7.5),
    ],
)
def test_batch_matches_the_replay(graph_builder, t_horizon, monkeypatch):
    cfg = SimConfig(t_horizon=t_horizon, beta=0.7, replicates=300, master_seed=2468)
    assert_batch_follows_replay(graph_builder(), cfg, monkeypatch)


def test_batch_chunk_size_is_invisible(monkeypatch):
    g = gen_gnp(25, 0.3, seed=5)
    cfg = SimConfig(t_horizon=9.0, replicates=100, master_seed=42)
    monkeypatch.setattr(walk_sim, "CHUNK_SIZE", 7)
    a = simulate_batch(g, cfg)
    monkeypatch.setattr(walk_sim, "CHUNK_SIZE", 500)
    assert_same_batch(a, simulate_batch(g, cfg))


def test_batch_steps_exactly_the_lanes_with_events_left(monkeypatch):
    # Every step mixes one word per live lane, so the mixed arrays' sizes are
    # the chunk's widths step by step.  The lanes are sorted by event count,
    # so step s runs exactly the replicates with more than s events.
    widths = []

    def recording_mix(z, out, tmp):
        widths.append(z.size)
        return mix64_into(z, out, tmp)

    monkeypatch.setattr(walk_sim, "mix64_into", recording_mix)
    batch = simulate_batch(gen_complete(5), SimConfig(t_horizon=20.0, replicates=400,
                                                      master_seed=9))
    events = batch.jumps_x + batch.jumps_y
    assert widths == [int((events > s).sum()) for s in range(events.max())]
    assert widths[0] == 400
    assert np.all(np.diff(widths) <= 0)


def test_infection_prob_matches_tau_transform():
    g = star3()
    cfg = SimConfig(t_horizon=6.0, beta=1.3, replicates=50, master_seed=8)
    batch = simulate_batch(g, cfg)
    assert np.allclose(batch.infection_probs, -np.expm1(-1.3 * batch.taus), rtol=1e-15)
    zero_beta = simulate_batch(g, SimConfig(t_horizon=6.0, replicates=50, master_seed=8))
    assert np.all(zero_beta.infection_probs == 0.0)
    assert np.array_equal(zero_beta.taus, batch.taus)  # beta does not touch paths


# ---------------------------------------------------------------------------
# estimators


def test_estimate_tau_statistics():
    g = gen_complete(4)
    cfg = SimConfig(t_horizon=20.0, beta=0.2, replicates=400, master_seed=55)
    check = verify_theorem1(g, cfg)
    batch = simulate_batch(g, cfg)
    root = math.sqrt(400)
    assert check.mean_tau == float(batch.taus.mean())
    assert check.stderr_tau == float(batch.taus.std(ddof=1)) / root
    assert check.mean_infection_prob == float(batch.infection_probs.mean())
    assert check.stderr_infection_prob == float(batch.infection_probs.std(ddof=1)) / root
    with pytest.raises(ValueError, match="at least 2"):
        verify_theorem1(g, SimConfig(t_horizon=1.0, replicates=1))


def test_verify_theorem1_on_k5():
    g = gen_complete(5)
    cfg = SimConfig(t_horizon=50.0, beta=0.5, replicates=2000, master_seed=99)
    check = verify_theorem1(g, cfg)
    assert check.predicted_tau == pytest.approx(10.0, rel=1e-12)  # t / n
    assert check.gamma_upper == pytest.approx(-math.expm1(-0.5 * 10.0), rel=1e-12)
    assert check.tau_z_score == pytest.approx(
        abs(check.mean_tau - 10.0) / check.stderr_tau, rel=1e-12
    )
    assert check.tau_z_score < 4.0
    assert check.jensen_satisfied
