"""Tests for graph generators: invariants, determinism, exactness.

The independent-pair sampler must realize the exact pair probabilities.
That is checked empirically: per-pair inclusion frequencies over a few
thousand replicates must match min(1, w_u w_v / W) within Monte Carlo
tolerance, on graphs small enough to enumerate.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from coinwalk import generators
from coinwalk.generators import (
    FAMILIES,
    GenerationError,
    GenSpec,
    WeightSequence,
    gen_circulant,
    gen_complete,
    gen_expected_degree,
    gen_gnp,
    gen_random_regular,
    generate,
    power_law_weights,
    sampler_for,
    uniform_weights,
    weights_for,
)
from coinwalk.graph_core import build_graph, degree_statistics, is_connected, validate_graph
from coinwalk.rng import derive_seed


# ---------------------------------------------------------------------------
# deterministic families


def test_complete_graph():
    for n in (2, 3, 7, 50):
        g = gen_complete(n)
        validate_graph(g)
        assert np.all(g.degrees == n - 1)
        assert g.edge_count == n * (n - 1) // 2
        assert g.self_loop_count == 0
    # the neighbor array is built on first access and equals the eager one
    g = gen_complete(6)
    assert "neighbors" not in vars(g)
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    assert g == build_graph(6, pairs)
    assert not g.neighbors.flags.writeable
    with pytest.raises(ValueError):
        gen_complete(1)


def test_circulant_graph():
    g = gen_circulant(10, 2)
    validate_graph(g)
    assert np.all(g.degrees == 4)
    assert g.neighbors_of(0).tolist() == [1, 2, 8, 9]
    assert g.neighbors_of(9).tolist() == [0, 1, 7, 8]
    assert is_connected(g)
    # at n = 2k + 1 the circulant is complete
    assert gen_circulant(7, 3) == gen_complete(7)
    with pytest.raises(ValueError, match="n >= 2k \\+ 1"):
        gen_circulant(6, 3)
    with pytest.raises(ValueError):
        gen_circulant(5, 0)


def test_random_regular_invariants():
    g = gen_random_regular(20, 3, seed=1)
    validate_graph(g)
    assert np.all(g.degrees == 3)
    assert g.self_loop_count == 0
    assert g == gen_random_regular(20, 3, seed=1)
    assert g != gen_random_regular(20, 3, seed=2)
    # n=4, r=3 has a unique simple realization
    assert gen_random_regular(4, 3, seed=9) == gen_complete(4)


def test_random_regular_validation(monkeypatch):
    with pytest.raises(ValueError, match="even"):
        gen_random_regular(5, 3, seed=0)
    with pytest.raises(ValueError, match="below n"):
        gen_random_regular(4, 4, seed=0)
    with pytest.raises(ValueError, match="at least 1"):
        gen_random_regular(4, 0, seed=0)
    monkeypatch.setattr(generators, "PAIRING_ATTEMPTS", 0)
    with pytest.raises(GenerationError, match="0 attempts"):
        gen_random_regular(10, 3, seed=0)


# ---------------------------------------------------------------------------
# weight sequences


def test_uniform_weights():
    w = uniform_weights(5, 2.0)
    assert w.n == 5
    assert w.total == 10.0
    assert w.max_weight == 2.0
    assert w.probabilities_valid()  # 4 <= 10
    assert not uniform_weights(2, 3.0).probabilities_valid()  # 9 > 6
    with pytest.raises(ValueError):
        uniform_weights(0, 1.0)
    with pytest.raises(ValueError):
        uniform_weights(3, 0.0)


def test_weight_sequence_validation():
    with pytest.raises(ValueError, match="non-increasing"):
        WeightSequence(weights=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="positive"):
        WeightSequence(weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        WeightSequence(weights=np.array([np.inf, 1.0]))
    with pytest.raises(ValueError, match="non-empty"):
        WeightSequence(weights=np.array([]))
    w = WeightSequence(weights=np.array([3.0, 1.0]))
    with pytest.raises(ValueError):
        w.weights[0] = 5.0  # frozen array


def test_power_law_weights_shape():
    n, gamma, d, m = 10_000, 3.0, 5.0, 50.0
    w = power_law_weights(n, gamma, d, m)
    assert w.n == n
    assert w.max_weight == m  # w_0 = m exactly
    assert np.all(np.diff(w.weights) <= 0)
    i0 = n * (d * (gamma - 2) / (m * (gamma - 1))) ** (gamma - 1)
    assert np.allclose(w.weights, m * (1 + np.arange(n) / i0) ** (-1 / (gamma - 1)),
                       rtol=1e-12, atol=0)
    # far from the m = sqrt(n*d) ceiling the total tracks n*d
    assert 0.9 < w.total / (n * d) < 1.05
    assert w.probabilities_valid()


def test_power_law_weights_validation():
    with pytest.raises(ValueError, match="gamma"):
        power_law_weights(100, 2.0, 5.0, 50.0)
    with pytest.raises(ValueError, match="d must be positive"):
        power_law_weights(100, 3.0, 0.0, 50.0)
    with pytest.raises(ValueError, match="m must exceed d"):
        power_law_weights(100, 3.0, 5.0, 5.0)


# ---------------------------------------------------------------------------
# G(n, p)


def test_gnp_edge_cases():
    assert gen_gnp(10, 0.0, seed=1) == build_graph(10, [])
    assert gen_gnp(10, 1.0, seed=1) == gen_complete(10)
    assert gen_gnp(1, 0.5, seed=1).n == 1
    with pytest.raises(ValueError):
        gen_gnp(10, 1.5, seed=1)
    with pytest.raises(ValueError):
        gen_gnp(10, -0.1, seed=1)


def test_gnp_determinism_and_validity():
    g = gen_gnp(200, 0.05, seed=11)
    validate_graph(g)
    assert g == gen_gnp(200, 0.05, seed=11)
    assert g != gen_gnp(200, 0.05, seed=12)
    assert g.self_loop_count == 0


def test_gnp_mean_edge_count():
    n, p, reps = 50, 0.1, 400
    total_pairs = n * (n - 1) // 2
    counts = [gen_gnp(n, p, seed=s).edge_count for s in range(reps)]
    mean = np.mean(counts)
    se = math.sqrt(total_pairs * p * (1 - p) / reps)
    assert abs(mean - total_pairs * p) < 4 * se


def test_gnp_per_pair_frequencies_are_exact():
    n, p, reps = 6, 0.3, 4000
    pairs = n * (n - 1) // 2
    tol = 5 * math.sqrt(p * (1 - p) / reps)
    hits = np.zeros((n, n))
    for s in range(reps):
        g = gen_gnp(n, p, seed=derive_seed(100, s))
        row = np.repeat(np.arange(n), g.degrees)
        hits[row, g.neighbors] += 1
    iu, jv = np.triu_indices(n, k=1)
    freq = hits[iu, jv] / reps
    assert freq.shape == (pairs,)
    assert np.all(np.abs(freq - p) < tol)


def test_gnp_connectivity_conditioning(monkeypatch):
    g = gen_gnp(30, 0.2, seed=5, require_connected=True)
    assert is_connected(g)
    assert g == gen_gnp(30, 0.2, seed=5, require_connected=True)
    monkeypatch.setattr(generators, "CONNECT_ATTEMPTS", 3)
    with pytest.warns(UserWarning, match="below log"):
        with pytest.raises(GenerationError, match="no connected .* in 3 attempts"):
            gen_gnp(30, 0.0, seed=5, require_connected=True)


def test_gnp_connectivity_warning_names_the_caller(monkeypatch):
    # the warning points at the code that asked for the graph, whichever
    # route through the generators module it took
    monkeypatch.setattr(generators, "CONNECT_ATTEMPTS", 2)
    spec = GenSpec(family="gnp", n=30, p=0.0, require_connected=True)
    routes = (
        lambda: generate(spec),
        lambda: sampler_for(spec)(5),
        lambda: gen_gnp(30, 0.0, seed=5, require_connected=True),
    )
    for route in routes:
        with pytest.warns(UserWarning, match="below log") as record:
            with pytest.raises(GenerationError, match="2 attempts"):
                route()
        assert [r.filename for r in record] == [__file__]


# ---------------------------------------------------------------------------
# expected-degree model


def test_expected_degree_strict_rejects_invalid_probabilities():
    ok = uniform_weights(3, 2.0)  # max^2 = 4 <= W = 6
    assert gen_expected_degree(ok, seed=1) is not None
    bad = uniform_weights(2, 5.0)  # max^2 = 25 > W = 10
    with pytest.raises(ValueError, match="strict=False"):
        gen_expected_degree(bad, seed=1)


def test_expected_degree_clamping_is_exact():
    # both pair and loop probabilities clamp to 1: the sample is forced
    bad = uniform_weights(2, 5.0)
    g = gen_expected_degree(bad, seed=1, strict=False)
    assert g.edge_count == 3  # edge (0,1) plus both loops
    assert g.self_loop_count == 2
    assert np.all(g.degrees == 2)


def test_expected_degree_determinism_and_loops():
    w = power_law_weights(500, 3.0, 4.0, 20.0)
    g = gen_expected_degree(w, seed=8)
    validate_graph(g)
    assert g == gen_expected_degree(w, seed=8)
    assert g != gen_expected_degree(w, seed=9)
    no_loops = gen_expected_degree(w, seed=8, allow_self_loops=False)
    assert no_loops.self_loop_count == 0


def test_expected_degree_per_pair_frequencies_are_exact():
    # Every pair (u <= v) against min(1, w_u w_v / W).  The first weights
    # form two classes: rectangles across them, triangles within them with
    # the diagonal (loops on) and without it (loops off).  The last has
    # w_0^2 > W, so vertex 0's loop block has a clamped envelope of 1.
    two_classes = [2.5, 2.0, 1.5, 1.0, 1.0, 0.5]
    cases = [(two_classes, True), (two_classes, False), ([4.0, 1.0, 1.0, 1.0, 0.5], True)]
    reps = 4000
    for weights, loops in cases:
        w = WeightSequence(weights=np.array(weights))
        n = w.n
        iu, jv = np.triu_indices(n, k=0 if loops else 1)
        probs = np.minimum(1.0, w.weights[iu] * w.weights[jv] / w.total)
        tol = 5 * np.sqrt(probs * (1 - probs) / reps) + 1e-12
        hits = np.zeros((n, n))
        for s in range(reps):
            g = gen_expected_degree(w, seed=derive_seed(200, s),
                                    allow_self_loops=loops, strict=False)
            row = np.repeat(np.arange(n), g.degrees)
            np.add.at(hits, (row, g.neighbors), 1)
        if not loops:
            assert not np.any(np.diag(hits))
        freq = hits[iu, jv] / reps
        assert np.all(np.abs(freq - probs) < tol), (weights, loops)


def test_expected_degree_mean_degree_tracks_weights():
    # E[degree(v)] = w_v when probabilities are valid and loops count once
    w = power_law_weights(300, 2.6, 3.0, 25.0)
    reps = 300
    acc = np.zeros(300)
    for s in range(reps):
        acc += gen_expected_degree(w, seed=derive_seed(300, s)).degrees
    mean_deg = acc / reps
    se = np.sqrt(np.maximum(w.weights, 1e-9) / reps)  # Poisson-ish scale
    assert np.all(np.abs(mean_deg - w.weights) < 6 * se)


# ---------------------------------------------------------------------------
# unified spec


def test_families_tuple():
    assert set(FAMILIES) == {
        "complete", "circulant", "random_regular", "gnp", "expected_degree"
    }


def test_weights_for():
    assert weights_for(
        GenSpec(family="expected_degree", n=4, w=2.0)
    ).weights.tolist() == [2.0] * 4
    pl = weights_for(GenSpec(family="expected_degree", n=100, gamma=3.0, d=4.0, m=20.0))
    assert np.array_equal(pl.weights, power_law_weights(100, 3.0, 4.0, 20.0).weights)
    with pytest.raises(ValueError, match="expected_degree"):
        weights_for(GenSpec(family="gnp", n=4, p=0.5))
    with pytest.raises(ValueError, match="requires parameter 'gamma'"):
        weights_for(GenSpec(family="expected_degree", n=4))


def test_generate_matches_sampler_for():
    spec = GenSpec(family="gnp", n=100, p=0.1, seed=77)
    assert generate(spec) == sampler_for(spec)(77)


def test_generate_deterministic_families_ignore_seed():
    a = generate(GenSpec(family="complete", n=9, seed=1))
    b = generate(GenSpec(family="complete", n=9, seed=2))
    assert a == b == gen_complete(9)
    assert generate(GenSpec(family="circulant", n=9, k=2, seed=5)) == gen_circulant(9, 2)


def test_deterministic_families_are_connected_without_a_search():
    # K_n (n >= 2) and every circulant (k >= 1 holds the cycle v -> v + 1)
    # are connected, so require_connected runs no BFS and leaves the
    # adjacency unbuilt.
    for spec in (GenSpec("complete", n=50, require_connected=True),
                 GenSpec("circulant", n=41, k=3, require_connected=True)):
        g = generate(spec)
        assert "neighbors" not in vars(g)
        assert is_connected(g)


def test_one_attempt_loop_for_pairing_and_connectivity(monkeypatch):
    # a perfect matching on 10 vertices is never connected: random_regular
    # spends its pairing budget once, on simple and connected together,
    # one stream per attempt
    streams = []

    class CountedStream(generators.Stream):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            streams.append(seed)

    monkeypatch.setattr(generators, "Stream", CountedStream)
    monkeypatch.setattr(generators, "PAIRING_ATTEMPTS", 7)
    monkeypatch.setattr(generators, "CONNECT_ATTEMPTS", 3)
    with pytest.raises(GenerationError, match="no connected .* in 7 attempts"):
        generate(GenSpec("random_regular", n=10, r=1, require_connected=True, seed=4))
    assert streams == [derive_seed(4, a) for a in range(7)]


def test_connected_draw_keeps_a_connected_first_attempt():
    # attempt a of every family draws from derive_seed(seed, a) whether or
    # not the spec asks for connectivity, so a connected first draw is kept
    for spec in (GenSpec("random_regular", n=30, r=3, seed=8),
                 GenSpec("expected_degree", n=40, gamma=3.0, d=6.0, m=10.0, seed=21)):
        plain = generate(spec)
        assert is_connected(plain)
        assert generate(replace(spec, require_connected=True)) == plain


def test_generate_unknown_family_and_missing_params():
    with pytest.raises(ValueError, match="unknown family"):
        generate(GenSpec(family="lattice", n=10))
    with pytest.raises(ValueError, match="requires parameter 'p'"):
        generate(GenSpec(family="gnp", n=10))
    with pytest.raises(ValueError, match="requires parameter 'k'"):
        generate(GenSpec(family="circulant", n=10))
    with pytest.raises(ValueError, match="requires parameter 'r'"):
        generate(GenSpec(family="random_regular", n=10))


def test_generate_strict_flag_passthrough():
    spec = GenSpec(family="expected_degree", n=2, w=5.0)
    with pytest.raises(ValueError, match="strict=False"):
        generate(spec)
    g = generate(GenSpec(family="expected_degree", n=2, w=5.0, strict=False))
    assert g.edge_count == 3


def test_generate_connectivity_conditioning(monkeypatch):
    spec = GenSpec(family="expected_degree", n=40, gamma=3.0, d=6.0, m=10.0,
                   require_connected=True, seed=21)
    g = generate(spec)
    assert is_connected(g)
    assert g == generate(spec)
    hopeless = GenSpec(family="expected_degree", n=50, gamma=3.0, d=0.05, m=1.0,
                       require_connected=True, seed=21)
    monkeypatch.setattr(generators, "CONNECT_ATTEMPTS", 3)
    with pytest.raises(GenerationError, match="3 attempts"):
        generate(hopeless)


def test_degree_statistics_on_generated_families():
    # n * sum(pi^2) = 1 exactly on regular families
    for g in (gen_complete(40), gen_circulant(41, 3), gen_random_regular(36, 3, seed=2)):
        st = degree_statistics(g)
        assert g.n * st.coincidence_rate == pytest.approx(1.0, rel=1e-12)
