"""Tests for graph generators: invariants, determinism, exactness.

The independent-pair sampler must realize the exact pair probabilities.
That is checked empirically: per-pair inclusion frequencies over a few
thousand replicates must match min(1, w_u w_v / W) within Monte Carlo
tolerance, on graphs small enough to enumerate.
"""

import hashlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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
from coinwalk.graph_core import (
    MAX_VERTICES,
    build_graph,
    degree_statistics,
    is_connected,
    validate_graph,
)
from coinwalk.rng import Stream, derive_seed


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


def quantized_stream(bins):
    """A Stream whose block uniforms are rounded down to multiples of 1/bins."""

    class QuantizedStream(generators.Stream):
        __slots__ = ()

        def uniforms(self, size):
            return np.floor(super().uniforms(size) * bins) / bins

    return QuantizedStream


def stable_stub_pairs(keys, r):
    stubs = np.argsort(keys, kind="stable") // r
    a, b = stubs[0::2], stubs[1::2]
    return np.minimum(a, b), np.maximum(a, b)


def test_stub_pairing_puts_tied_keys_in_index_order():
    # keys in eighths tie in long runs, which a sort that is not stable
    # orders freely; the pairing must be the one of keys ascending, ties
    # in index order
    n, r, stream = 400, 3, quantized_stream(8)
    for seed in range(3):
        u, v = generators._stub_pairs(n, r, stream(seed))
        ref_u, ref_v = stable_stub_pairs(stream(seed).uniforms(n * r), r)
        assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
        assert np.any(u == v)  # loops included
        assert np.unique(u * n + v).size < u.size  # and repeats


def test_stub_pairing_attempt_matches_the_stable_sort_under_ties():
    # keys in 4096ths tie in a few dozen pairs per attempt, and some
    # attempts are still simple; each must give the stable sort's graph
    n, r, stream = 400, 3, quantized_stream(4096)
    attempt = generators._regular_pairing(n, r)
    simple = 0
    for seed in range(40):
        keys = stream(seed).uniforms(n * r)
        assert np.unique(keys).size < keys.size
        u, v = stable_stub_pairs(keys, r)
        got = attempt(stream(seed))
        if np.any(u == v) or np.unique(u * n + v).size < u.size:
            assert got is None
        else:
            simple += 1
            assert got == build_graph(n, np.stack([u, v], axis=1))
    assert simple >= 2


def perturbed_stream(bins, spread):
    """A Stream whose block uniforms sit on multiples of 1/bins, each raised
    by a random 0 .. spread - 1 units of 2**-53."""

    class PerturbedStream(generators.Stream):
        __slots__ = ()

        def uniforms(self, size):
            base = np.floor(super().uniforms(size) * bins) / bins
            lift = np.floor(super().uniforms(size) * spread)
            return base + lift * 2.0 ** -53

    return PerturbedStream


def test_packed_stub_sort_reorders_keys_tied_only_after_truncation():
    # 15000 stubs leave 14 index bits, so a word keeps the top 50 of a key's
    # 53 bits: keys on one multiple of 1/2**16 that differ by under 8 units
    # of 2**-53 tie in their words and must still come out by full key
    n, r = 5000, 3
    stream = perturbed_stream(1 << 16, 8)
    for seed in range(3):
        keys = stream(seed).uniforms(n * r)
        assert (keys.size - 1).bit_length() == 14
        truncated = (keys * 2.0 ** 53).astype(np.uint64) >> np.uint64(3)
        _, runs = np.unique(truncated, return_counts=True)
        assert runs.max() >= 3  # a tied run of three or more keys
        assert np.unique(keys).size > np.unique(truncated).size  # ties only after truncation
        assert np.unique(keys).size < keys.size  # and full-key ties, in index order
        u, v = generators._stub_pairs(n, r, stream(seed))
        ref_u, ref_v = stable_stub_pairs(keys, r)
        assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)


def test_random_regular_graph_is_frozen():
    # 60000 stub keys, far more than the golden CLI specs sort
    g = gen_random_regular(20000, 3, seed=7)
    assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32
    digest = hashlib.sha256(g.offsets.tobytes() + g.neighbors.tobytes()).hexdigest()
    assert digest == "3b7ec498f8ac96103c27b61437efd8e4036fd49ce481cc85e1ad96b4704426d7"


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
    with pytest.raises(ValueError, match="NaN"):
        WeightSequence(weights=np.array([3.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        WeightSequence(weights=np.array([3.0, -np.inf]))
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


def test_power_law_expected_degree_graph_is_frozen():
    # multi-chunk triangle and rectangle blocks, clamped pairs and loops
    w = power_law_weights(200000, 2.5, 5.0, math.sqrt(1e6))
    g = gen_expected_degree(w, seed=7, strict=False)
    assert g.self_loop_count > 0
    digest = hashlib.sha256(g.offsets.tobytes() + g.neighbors.tobytes()).hexdigest()
    assert digest == "1a751f5aaebddc2d7a94d17c6300acbc6b3a5683e113c45a172f3a104f83f41c"


def test_gnp_graph_is_frozen():
    # the one-class, loop-free triangle
    g = gen_gnp(20000, 0.001, seed=7)
    digest = hashlib.sha256(g.offsets.tobytes() + g.neighbors.tobytes()).hexdigest()
    assert digest == "c3bae37294da434598a70452df73b0a3dbbf4ab2e6bba544bdd599a1a8c9ee65"


LOCKSTEP_SPECS = {
    "gnp": GenSpec("gnp", n=24, p=0.5),
    "expected_degree": GenSpec("expected_degree", n=24, gamma=2.5, d=4.0, m=6.0),
    "expected_degree_no_loops": GenSpec("expected_degree", n=24, gamma=2.5, d=4.0, m=6.0,
                                        allow_self_loops=False),
    # w_0^2 > W: the top blocks, vertex 0's loop among them, clamp at p = 1
    "clamped": GenSpec("expected_degree", n=24, gamma=2.2, d=5.0, m=20.0, strict=False),
}


def record_walk_steps(monkeypatch):
    """The lane count and first chunk width of every later ``_geometric_walk`` call."""
    steps = []
    walk = generators._geometric_walk

    def recorded(size, p, states):
        steps.append((states.size, min(generators._CHUNK, int(size * p * 1.1) + 16)))
        return walk(size, p, states)

    monkeypatch.setattr(generators, "_geometric_walk", recorded)
    return steps


@pytest.mark.parametrize("replicates", [1, 2, 7])
@pytest.mark.parametrize("name", LOCKSTEP_SPECS)
def test_lockstep_draws_equal_one_at_a_time_draws(name, replicates, monkeypatch):
    # a small _CHUNK gives multi-chunk blocks (gnp), replicate chunks of
    # 5 lanes (128 // 24) and blocks walked in several groups of lanes
    monkeypatch.setattr(generators, "_CHUNK", 128)
    steps = record_walk_steps(monkeypatch)
    spec = LOCKSTEP_SPECS[name]
    seeds = [derive_seed(31, j) for j in range(replicates)]
    alone = sampler_for(spec)
    draw = sampler_for(spec, seeds)
    graphs = [draw(s) for s in seeds]
    if name == "gnp":  # its one block's first chunk is 128 gaps: one lane per group
        assert [lanes for lanes, _ in steps] == [1] * replicates
    for s, g in zip(seeds, graphs):
        want = alone(s)
        assert "neighbors" not in vars(g)  # degrees only, adjacency rebuilt on read
        assert np.array_equal(g.offsets, want.offsets)
        assert (g.self_loop_count, g.edge_count) == (want.self_loop_count, want.edge_count)
        assert np.array_equal(g.neighbors, want.neighbors)
        validate_graph(g)
    with pytest.raises(ValueError, match="not the next seed"):
        draw(seeds[0])  # each seed is served once
    with pytest.raises(ValueError, match="not the next seed"):
        sampler_for(spec, seeds)(derive_seed(31, replicates))  # and only in order
    # no walk step holds more than _CHUNK gap slots across its lanes
    assert max(lanes * first for lanes, first in steps) <= 128


def test_lockstep_walk_steps_carry_every_lane_that_fits(monkeypatch):
    # ensemble_scan's n = 2000 point: every block's first chunk times 10
    # lanes fits in _CHUNK, so each walk step carries all 10 replicates
    n = 2000
    steps = record_walk_steps(monkeypatch)
    spec = GenSpec("expected_degree", n=n, gamma=2.5, d=5.0, m=math.sqrt(n * 5.0),
                   strict=False)
    seeds = [derive_seed(81, j) for j in range(10)]
    draw = sampler_for(spec, seeds)
    for s in seeds:
        draw(s)
    assert steps and all(lanes == 10 for lanes, _ in steps), steps


def test_lockstep_sweep_draw_holds_no_edge_list():
    # a sweep point at n = 1e6: two replicates drawn in lockstep, straight to
    # degrees, peak below the 16 bytes per edge of one replicate's edge list
    spec = GenSpec("expected_degree", n=10**6, gamma=2.5, d=5.0, m=math.sqrt(5e6),
                   strict=False)
    seeds = [derive_seed(61, j) for j in range(2)]
    draw = sampler_for(spec, seeds)
    edges = []
    tracemalloc.start()
    try:
        for s in seeds:
            g = draw(s)
            degree_statistics(g)
            edges.append(g.edge_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * min(edges), (peak, edges)


def test_second_lockstep_draw_reuses_the_workspace():
    # Once a first replicate has grown this thread's workspace, a sweep
    # replicate at n = 2e5 allocates its offsets row, 8 (n + 1) bytes, and
    # per chunk only the kept pairs u, v and their index, each at most
    # _CHUNK int64s (0.5 MB), which go before the next chunk's come.
    # Measured: 2.82 MB here; with a chunk's temporaries allocated afresh,
    # 6.45 MB.
    spec = GenSpec("expected_degree", n=200000, gamma=2.5, d=5.0, m=math.sqrt(1e6),
                   strict=False)
    seeds = [derive_seed(71, j) for j in range(2)]
    draw = sampler_for(spec, seeds)
    draw(seeds[0])
    tracemalloc.start()
    try:
        g = draw(seeds[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.offsets.nbytes + 3 * 8 * generators._CHUNK, peak


def test_concurrent_draws_from_one_sampler_equal_serial_draws(monkeypatch):
    # four threads walk one plan at once, switching often, each in its own workspace
    monkeypatch.setattr(generators, "_CHUNK", 2048)
    spec = GenSpec("expected_degree", n=20000, gamma=2.5, d=5.0, m=math.sqrt(1e5),
                   strict=False)
    draw = sampler_for(spec)
    seeds = [derive_seed(53, j) for j in range(8)]
    serial = [draw(s) for s in seeds]
    threads = 4
    start = threading.Barrier(threads)

    def draw_all(part):
        start.wait(timeout=60)
        return [draw(s) for s in part]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(draw_all, seeds[t::threads]) for t in range(threads)]
            drawn = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for t, graphs in enumerate(drawn):
        assert graphs == serial[t::threads]


def one_stream_chunks(size, p, stream):
    """(width, kept positions) of each chunk of one stream's walk of range(size)."""
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    cursor, chunks = 0, []
    while cursor < size:
        chunk = min(generators._CHUNK, int((size - cursor) * p * 1.1) + 16)
        pos = np.cumsum(np.floor(np.log1p(-stream.uniforms(chunk)) / log_q) + 1.0) + cursor - 1.0
        inside = pos[pos < size]
        chunks.append((chunk, inside.astype(np.int64)))
        cursor = size if inside.size < chunk else int(pos[-1]) + 1
    return chunks


def one_stream_walk(size, p, stream):
    """The positions of range(size) kept by Bernoulli(p), one chunk after another."""
    return np.concatenate([kept for _, kept in one_stream_chunks(size, p, stream)])


def lane_walks(size, p, seeds):
    """Each lane's positions from one ``_geometric_walk`` over all seeds, and its final state."""
    states = np.array(seeds, dtype=np.uint64)
    kept = [[np.empty(0, np.int64)] for _ in seeds]
    widths = []
    for walking, _, counts, linear in generators._geometric_walk(size, p, states):
        widths.append(walking.size)
        # the positions live in the thread's workspace until the next step
        for lane, part in zip(walking, np.split(linear.copy(), np.cumsum(counts)[:-1])):
            kept[lane].append(part)
    return [np.concatenate(parts) for parts in kept], states, widths


def test_geometric_walk_lanes_match_one_stream_walks():
    # about 0.6% of lanes find their first chunk of 192 gaps inside range(16000)
    # at p = 0.01; walked together, those lanes draw ragged later chunks
    size, p, lanes = 16000, 0.01, 1000
    seeds = [derive_seed(41, j) for j in range(lanes)]
    kept, states, widths_seen = lane_walks(size, p, seeds)
    assert len(widths_seen) > 1 and widths_seen[1] > 1  # a later chunk, several lanes
    for seed, lane_state, positions in zip(seeds, states, kept):
        stream = Stream(seed)
        assert np.array_equal(positions, one_stream_walk(size, p, stream))
        assert int(lane_state) == stream.state


def test_geometric_walk_pads_a_shorter_chunk_past_the_range(monkeypatch):
    # Chunks capped at _CHUNK = 128 leave each lane a different remainder, so
    # the second chunks are ragged.  Lane 58's is narrower than the widest,
    # lies wholly inside range(4000) and is followed by a third: only +inf
    # padding keeps its padded slots out of its kept positions and lets it
    # walk on (a pad of 0 would repeat its last position there).
    monkeypatch.setattr(generators, "_CHUNK", 128)
    size, p = 4000, 0.05
    seeds = [derive_seed(43, j) for j in range(100)]
    chunks = [one_stream_chunks(size, p, Stream(s)) for s in seeds]
    widest = max(lane[1][0] for lane in chunks if len(lane) > 1)
    width, positions = chunks[58][1]
    assert width < widest and positions.size == width and len(chunks[58]) == 3
    kept, states, _ = lane_walks(size, p, seeds)
    for seed, lane_state, positions in zip(seeds, states, kept):
        stream = Stream(seed)
        assert np.array_equal(positions, one_stream_walk(size, p, stream))
        assert int(lane_state) == stream.state


def triangle_row_starts(side, rows):
    """First linear index of each row i of a strict upper triangle, in exact integers."""
    return rows * side - rows * (rows + 1) // 2


def test_triangle_inversion_is_exact_on_small_sides():
    # every L: row i holds the indices starts(i) <= L < starts(i + 1), columns i+1 ... side-1
    for side in range(2, 61):
        rows = np.arange(side - 1, dtype=np.int64)
        ref_i = np.repeat(rows, side - 1 - rows)
        linear = np.arange(side * (side - 1) // 2, dtype=np.int64)
        ref_j = linear - triangle_row_starts(side, ref_i) + ref_i + 1
        i, j = generators._triangle_pairs(linear, side, generators._Workspace().fit(linear.size))
        assert i.dtype == j.dtype == np.int64
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j), side


def test_triangle_inversion_is_exact_at_row_ends_of_the_largest_side():
    # A row's last index has 8R + 1 a perfect square and its first index has
    # 8R + 1 just below one, so these are where a rounded sqrt would slip.
    side = MAX_VERTICES + 1
    rng = np.random.default_rng(15)
    rows = np.union1d(rng.integers(0, side - 1, 100000), [0, 1, side - 3, side - 2])
    first = triangle_row_starts(side, rows)
    last = triangle_row_starts(side, rows + 1) - 1
    for linear, ref_j in ((first, rows + 1), (last, np.full(rows.size, side - 1))):
        i, j = generators._triangle_pairs(linear, side, generators._Workspace().fit(linear.size))
        assert np.array_equal(i, rows) and np.array_equal(j, ref_j)


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
