"""Tests for the CSR graph container and its stationary analytics."""

import json
import math
import weakref

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from coinwalk import generators, harness, moments
from coinwalk.generators import (
    gen_circulant,
    gen_complete,
    gen_expected_degree,
    gen_gnp,
    gen_random_regular,
    power_law_weights,
)
from coinwalk.graph_core import (
    Graph,
    build_graph,
    degree_statistics,
    is_connected,
    theorem1_bounds,
    validate_graph,
)
from coinwalk.harness import parse_spec, run_experiment
from coinwalk.walk_sim import SimConfig, simulate_batch


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def star3():
    # K_{1,3}: hub 0, leaves 1..3
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


def test_build_basic_csr_layout():
    g = path3()
    assert g.n == 3
    assert g.offsets.tolist() == [0, 1, 3, 4]
    assert g.neighbors.tolist() == [1, 0, 2, 1]
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.total_degree == 4
    assert g.edge_count == 2
    validate_graph(g)


def test_duplicate_and_reversed_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g == path3()


def test_edge_array_input():
    e = np.array([[0, 1], [1, 2]])
    assert build_graph(3, e) == path3()


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(-1, 2)])


def test_self_loop_policy():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        build_graph(3, [(1, 1)])
    g = build_graph(3, [(1, 1), (0, 1)], allow_self_loops=True)
    # loop counted once: degree(1) = loop + edge to 0 = 2
    assert g.degrees.tolist() == [1, 2, 0]
    assert g.self_loop_count == 1
    assert g.edge_count == 2
    assert g.neighbors_of(1).tolist() == [0, 1]
    validate_graph(g)


def test_vertex_count_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        build_graph(0, [])
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        build_graph(10**7 + 1, [])


def test_empty_graph_statistics():
    g = build_graph(5, [])
    stats = degree_statistics(g)
    assert (stats.D, stats.D2, stats.sum_deg_sq) == (0, 0, 0)
    with pytest.raises(ValueError, match="no edges"):
        stats.coincidence_rate
    with pytest.raises(ValueError, match="no edges"):
        simulate_batch(g, SimConfig(t_horizon=1.0))


def test_degree_statistics_identity():
    # sum(pi^2) on P3 (pi = 1/4, 1/2, 1/4) and K_{1,3} (pi = 1/2, 1/6, 1/6, 1/6)
    assert degree_statistics(path3()).coincidence_rate == pytest.approx(3.0 / 8.0, rel=1e-15)
    assert degree_statistics(star3()).coincidence_rate == pytest.approx(1.0 / 3.0, rel=1e-15)
    # sum of squared degrees = D2 + D on assorted graphs
    graphs = [
        path3(),
        star3(),
        build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
        build_graph(4, [(0, 0), (0, 1), (2, 3)], allow_self_loops=True),
    ]
    for g in graphs:
        st = degree_statistics(g)
        assert st.sum_deg_sq == st.D2 + st.D
        assert st.D == g.total_degree
        pi = g.degrees / g.total_degree
        assert st.coincidence_rate == pytest.approx(np.dot(pi, pi), rel=1e-12)


def test_degree_statistics_exact_in_int64_on_huge_star():
    # n * max_deg^2 >= 2^62, but the sum of squares is at most D * max_deg < 2^63
    n = 3_000_000
    hub_deg = n - 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1] = hub_deg
    offsets[2:] = hub_deg + np.arange(1, n, dtype=np.int64)
    neighbors = np.concatenate(
        [np.arange(1, n, dtype=np.int32), np.zeros(n - 1, dtype=np.int32)]
    )
    g = Graph(n, offsets, lambda: neighbors, 0)
    st = degree_statistics(g)
    assert st.D == 2 * hub_deg
    assert st.sum_deg_sq == hub_deg**2 + hub_deg
    assert st.D2 == st.sum_deg_sq - st.D
    # degrees come from offsets alone; the squares sum to exactly 2^63, past int64
    huge = Graph(2, np.array([0, 2**31, 2**32], dtype=np.int64),
                 lambda: np.zeros(0, dtype=np.int32), 0)
    assert degree_statistics(huge).sum_deg_sq == 2**63
    # one degree above 2^31.5: its square alone exceeds int64
    huger = Graph(1, np.array([0, 3_037_000_500], dtype=np.int64),
                  lambda: np.zeros(0, dtype=np.int32), 0)
    with pytest.raises(OverflowError):
        degree_statistics(huger)


def test_theorem1_bounds_star3():
    b = theorem1_bounds(star3(), t_horizon=300.0, beta=0.1)
    assert b.expected_tau == pytest.approx(100.0, rel=1e-12)
    assert b.gamma_upper == pytest.approx(1.0 - math.exp(-.1 * 100.0), rel=1e-12)
    with pytest.raises(ValueError):
        theorem1_bounds(star3(), t_horizon=-1.0, beta=0.1)
    with pytest.raises(ValueError):
        theorem1_bounds(star3(), t_horizon=1.0, beta=-0.1)


def test_is_connected():
    assert is_connected(path3())
    assert is_connected(build_graph(1, []))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(build_graph(3, [(0, 1)]))
    # a self-loop does not connect an isolated vertex
    assert not is_connected(build_graph(3, [(0, 1), (2, 2)], allow_self_loops=True))
    # high diameter; the two BFS arms reach the antipode in the same frontier
    assert is_connected(gen_circulant(20000, 1))
    ring = [(i, (i + 1) % 1000) for i in range(1000)]
    assert not is_connected(build_graph(2000, ring + [(u + 1000, v + 1000) for u, v in ring]))
    # long paths, one BFS level per vertex, against scipy's component count
    n = 3000
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    relabel = np.random.default_rng(5).permutation(n)
    two_paths = np.concatenate([path[: n // 2 - 1], path[n // 2:]])
    for edges, connected in ((path, True), (relabel[path], True), (two_paths, False)):
        adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
        assert (connected_components(adj, directed=False)[0] == 1) is connected
        assert is_connected(build_graph(n, edges)) is connected


def test_is_connected_answers_dense_graphs_from_degrees():
    # min degree >= (n - 1) / 2 decides it, so K_n's adjacency stays unbuilt
    g = gen_complete(50)
    assert is_connected(g)
    assert "neighbors" not in vars(g)
    # a loop adds 1 to the degree but is no neighbor: two looped triangles
    # have min degree 3 >= (6 - 1) / 2, yet only 2 neighbors per vertex
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    looped = build_graph(6, triangles + [(v, v) for v in range(6)], allow_self_loops=True)
    assert looped.degrees.min() == 3
    assert not is_connected(looped)


def test_graph_equality_and_hash():
    assert path3() == path3()
    assert path3() != star3()
    assert path3() != "not a graph"


# ---------------------------------------------------------------------------
# deferred adjacency


def eager_csr(n, u, v):
    """Offsets and neighbors of canonical edges by one sort of s * n + t keys."""
    off_diag = u != v
    key = np.sort(np.concatenate([u * n + v, v[off_diag] * n + u[off_diag]]))
    return np.searchsorted(key, np.arange(n + 1) * n), (key % n).astype(np.int32)


def assert_deferred_matches(g, n, u, v):
    """g holds its offsets at once and builds neighbors, equal to eager_csr, on first read."""
    offsets, neighbors = eager_csr(n, u, v)
    degree_statistics(g)
    assert "neighbors" not in vars(g)
    assert np.array_equal(g.offsets, offsets)
    assert g.neighbors.dtype == np.int32
    assert np.array_equal(g.neighbors, neighbors)
    assert not g.neighbors.flags.writeable
    assert g.neighbors is g.neighbors
    assert g._build is None


def test_build_graph_defers_an_adjacency_equal_to_the_eager_sort():
    rng = np.random.default_rng(11)
    n = 60
    edges = rng.integers(0, n, size=(400, 2))  # repeats, both orientations, loops
    edges = np.concatenate([edges, edges[:50, ::-1]])
    canon = sorted({(min(a, b), max(a, b)) for a, b in edges.tolist()})
    u, v = np.array(canon, dtype=np.int64).T
    assert np.any(u == v) and len(canon) < len(edges)
    g = build_graph(n, edges, allow_self_loops=True)
    assert_deferred_matches(g, n, u, v)
    validate_graph(g)
    assert g.self_loop_count == int(np.sum(u == v))
    assert_deferred_matches(build_graph(5, []), 5, np.zeros(0, np.int64), np.zeros(0, np.int64))


@pytest.fixture
def handed_pairs(monkeypatch):
    """Every (n, u, v, graph) the generators hand to graph_core, u and v copied.

    A weak reference to the handed u tells whether anything still holds it.
    """
    calls = []
    real = generators._csr_from_half_edges

    def spy(n, u, v):
        g = real(n, u, v)
        calls.append((n, u.copy(), v.copy(), g, weakref.ref(u)))
        return g

    monkeypatch.setattr(generators, "_csr_from_half_edges", spy)
    return calls


@pytest.mark.parametrize("build, loops", [
    (lambda: gen_gnp(300, 0.03, seed=4), False),
    (lambda: gen_expected_degree(power_law_weights(2000, 2.5, 4.0, 60.0), seed=5), True),
    (lambda: gen_expected_degree(power_law_weights(2000, 2.5, 4.0, 60.0), seed=5,
                                 allow_self_loops=False), False),
    # m = sqrt(n d) exceeds sqrt(W): the largest pair probabilities clamp at 1
    (lambda: gen_expected_degree(power_law_weights(2000, 2.2, 5.0, 100.0), seed=6,
                                 strict=False), True),
    (lambda: gen_random_regular(500, 3, seed=7), False),
], ids=["gnp", "expected_degree", "expected_degree_no_loops", "clamped", "random_regular"])
def test_random_graphs_defer_an_adjacency_equal_to_the_eager_sort(handed_pairs, build, loops):
    g = build()
    n, u, v, handed, u_ref = handed_pairs[-1]
    assert handed is g
    key = u * n + v
    assert np.all(u <= v) and np.all(np.diff(np.sort(key)) > 0)  # canonical and unique
    assert np.any(u == v) == loops
    assert u_ref() is not None  # the unbuilt graph holds its pairs
    assert_deferred_matches(g, n, u, v)
    assert u_ref() is None  # and drops them once neighbors is built


def test_degree_rows_leave_the_adjacency_unbuilt(handed_pairs, monkeypatch):
    # sweep and ensemble draw their replicates in lockstep straight to
    # degrees: no edge list is handed to graph_core, and no adjacency is built
    drawn = []

    def spy_sampler_for(spec, seeds=None, weights=None):
        draw = generators.sampler_for(spec, seeds, weights)
        return lambda seed: drawn.append(draw(seed)) or drawn[-1]

    monkeypatch.setattr(harness, "sampler_for", spy_sampler_for)
    monkeypatch.setattr(moments, "sampler_for", spy_sampler_for)
    sweep = {"kind": "sweep", "seed": 3,
             "sweep": {"n": 500, "gamma": [2.5, 3.5], "d": 4.0, "m": "sqrt_nd",
                       "seeds_per_point": 2, "strict": False}}
    ensemble = {"kind": "ensemble", "seed": 3, "ensemble": {"replicates": 3},
                "graph": {"family": "gnp", "n": 100, "p": 0.05}}
    for doc in (sweep, ensemble):
        rows = run_experiment(parse_spec(json.dumps(doc)))
        assert all(row.error is None for row in rows)
    assert len(drawn) == 4 + 3
    assert not handed_pairs
    assert all("neighbors" not in vars(g) for g in drawn)


def test_edge_and_loop_counts_leave_the_adjacency_unbuilt():
    g = gen_expected_degree(power_law_weights(2000, 2.5, 4.0, 60.0), seed=5)
    loops, edges = g.self_loop_count, g.edge_count
    assert "neighbors" not in vars(g)
    rows = np.repeat(np.arange(g.n), g.degrees)
    assert loops == int(np.sum(rows == g.neighbors)) > 0
    assert edges == int(np.sum(rows <= g.neighbors))
    for g, edges in ((gen_complete(40), 40 * 39 // 2), (gen_circulant(40, 3), 40 * 3)):
        assert (g.self_loop_count, g.edge_count) == (0, edges)
        assert "neighbors" not in vars(g)
        validate_graph(g)
    with pytest.raises(AttributeError, match="immutable"):
        g.n = 3
