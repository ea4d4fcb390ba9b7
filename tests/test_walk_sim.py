"""Tests for the two-walker coincidence simulator.

The load-bearing property is bit-level agreement between the scalar
reference engine and the vectorized batch engine: replicate r of a batch
must equal simulate_pair run on the derived seed (master_seed, r), exactly,
for any ``CHUNK_SIZE``.  Everything downstream (acceptance checks, sweeps)
leans on that equivalence.
"""

import math

import numpy as np
import pytest

from coinwalk import walk_sim
from coinwalk.generators import gen_complete, gen_gnp
from coinwalk.graph_core import build_graph
from coinwalk.rng import derive_seeds, mix64_into
from coinwalk.walk_sim import (
    CoincidenceResult,
    SimConfig,
    simulate_batch,
    simulate_pair,
    verify_theorem1,
)


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def star3():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# configuration and inputs


def test_sim_config_validation():
    with pytest.raises(ValueError, match="t_horizon"):
        SimConfig(t_horizon=-1.0)
    with pytest.raises(ValueError, match="beta"):
        SimConfig(t_horizon=1.0, beta=-0.5)
    with pytest.raises(ValueError, match="replicates"):
        SimConfig(t_horizon=1.0, replicates=0)


def test_simulation_rejects_edgeless_graph():
    g = build_graph(3, [])
    with pytest.raises(ValueError, match="no edges"):
        simulate_pair(g, 1.0, 0.0, seed=1)
    with pytest.raises(ValueError, match="no edges"):
        simulate_batch(g, SimConfig(t_horizon=1.0))


# ---------------------------------------------------------------------------
# scalar engine semantics


def test_tau_is_bounded_by_horizon():
    g = path3()
    for seed in range(50):
        res = simulate_pair(g, 3.0, 0.5, seed=seed)
        assert 0.0 <= res.tau <= 3.0
        assert 0.0 <= res.infection_prob < 1.0
        assert res.infection_prob == pytest.approx(-math.expm1(-0.5 * res.tau))


def test_single_vertex_graph_coincides_always():
    # one vertex with a self-loop: walkers never separate, tau = t exactly
    g = build_graph(1, [(0, 0)], allow_self_loops=True)
    res = simulate_pair(g, 7.5, 1.0, seed=3)
    assert res.tau == 7.5
    assert res.final_x == 0 and res.final_y == 0
    batch = simulate_batch(g, SimConfig(t_horizon=7.5, replicates=8, master_seed=1))
    assert np.all(batch.taus == 7.5)


def test_k2_determinism_and_flip_parity():
    # on K_2 every jump flips the walker, so the final gap is determined by
    # the initial gap and the total jump parity; at horizon 0 the same seed
    # stops before the first jump, so its final vertices are the start ones
    res = simulate_pair(gen_complete(2), 50.0, 0.0, seed=11)
    init = simulate_pair(gen_complete(2), 0.0, 0.0, seed=11)
    started_together = init.final_x == init.final_y
    parity_even = (res.jumps_x + res.jumps_y) % 2 == 0
    assert (res.final_x == res.final_y) == (started_together == parity_even)
    assert res == simulate_pair(gen_complete(2), 50.0, 0.0, seed=11)


# ---------------------------------------------------------------------------
# batch engine: bit equality with the scalar engine


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
    ],
)
def test_batch_matches_scalar_bit_for_bit(graph_builder, t_horizon, monkeypatch):
    monkeypatch.setattr(walk_sim, "CHUNK_SIZE", 64)
    g = graph_builder()
    master = 2468
    cfg = SimConfig(t_horizon=t_horizon, beta=0.7, replicates=300, master_seed=master)
    batch = simulate_batch(g, cfg)
    rep_seeds = derive_seeds(master, np.arange(300))
    for r in (0, 1, 17, 100, 299):
        ref = simulate_pair(g, t_horizon, 0.7, seed=int(rep_seeds[r]))
        got = CoincidenceResult(
            tau=float(batch.taus[r]),
            infection_prob=float(batch.infection_probs[r]),
            jumps_x=int(batch.jumps_x[r]),
            jumps_y=int(batch.jumps_y[r]),
            final_x=int(batch.final_x[r]),
            final_y=int(batch.final_y[r]),
        )
        assert got == ref


def test_batch_chunk_size_is_invisible(monkeypatch):
    g = gen_gnp(25, 0.3, seed=5)
    cfg = SimConfig(t_horizon=9.0, replicates=100, master_seed=42)
    monkeypatch.setattr(walk_sim, "CHUNK_SIZE", 7)
    a = simulate_batch(g, cfg)
    monkeypatch.setattr(walk_sim, "CHUNK_SIZE", 500)
    b = simulate_batch(g, cfg)
    assert np.array_equal(a.taus, b.taus)
    assert np.array_equal(a.jumps_x, b.jumps_x)
    assert np.array_equal(a.jumps_y, b.jumps_y)
    assert np.array_equal(a.final_x, b.final_x)
    assert np.array_equal(a.final_y, b.final_y)


def test_batch_compacts_finished_lanes_lazily(monkeypatch):
    # Every step mixes one word per lane, so the mixed arrays' sizes are the
    # chunk's widths step by step.  Finished lanes must be dropped, but only
    # a quarter or more of the lanes at a time: compacting on every crossing
    # costs more than stepping the finished lanes does.
    widths = []

    def recording_mix(z, out, tmp):
        widths.append(z.size)
        return mix64_into(z, out, tmp)

    monkeypatch.setattr(walk_sim, "mix64_into", recording_mix)
    simulate_batch(gen_complete(5), SimConfig(t_horizon=20.0, replicates=400, master_seed=9))
    sizes = sorted(set(widths), reverse=True)
    assert sizes[0] == 400 and len(sizes) >= 3
    assert np.all(np.diff(widths) <= 0)
    for wide, narrow in zip(sizes, sizes[1:]):
        assert wide - narrow >= wide / 4


def test_batch_prefix_property():
    # running the same master seed at a shorter horizon observes the same
    # trajectories earlier: tau can only grow with the horizon
    g = path3()
    short = simulate_batch(g, SimConfig(t_horizon=5.0, replicates=200, master_seed=31))
    long = simulate_batch(g, SimConfig(t_horizon=10.0, replicates=200, master_seed=31))
    assert np.all(short.taus <= long.taus + 1e-12)
    assert np.all(long.taus <= short.taus + 5.0 + 1e-12)


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
