"""Immutable undirected graphs and their stationary-walk analytics.

Graphs are stored in compressed sparse row form: ``offsets`` (length n+1)
indexes into a flat ``neighbors`` array, and each vertex's neighbor list is
strictly increasing.  Self-loop convention: a loop at v appears exactly once
in v's neighbor list and adds exactly 1 to v's degree.  Everything downstream
(stationary distribution, degree statistics, walkers) uses that once-counted
degree consistently.

Every graph holds its ``offsets`` eagerly and builds ``neighbors`` on first
read.  Degree analytics read only the offsets, so they never order the
adjacency; a walker, a BFS, an equality test or a validator triggers the
one build.

A random walker on these graphs waits an Exp(1) holding time at each vertex
and then jumps to a uniformly chosen neighbor; a self-loop is a real jump
that lands back on the same vertex.  The stationary distribution of that
walk is degree-proportional, pi_v = degree(v) / D with D the total degree,
and the chance that two independent stationary walkers sit on the same
vertex is sum(pi_v^2) = (D2 + D) / D^2 where D2 = sum_v degree(v)(degree(v)-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

#: Largest supported vertex count; keeps vertex ids in int32 and the CSR
#: sort keys in int64, and bounds memory to something a workstation can hold.
MAX_VERTICES = 10**7


class Graph:
    """Undirected graph in CSR form.  Instances are immutable.

    Attributes
    ----------
    n : int
        Number of vertices (ids are 0..n-1).
    offsets : np.ndarray
        int64 array of length n+1; vertex v's neighbors live at
        ``neighbors[offsets[v]:offsets[v+1]]``.
    neighbors : np.ndarray
        int32 array of neighbor ids, strictly increasing within each row.
        A self-loop at v appears once, as v itself.
    self_loop_count : int
        Number of self-loops.

    The offsets come from the degrees alone -- arithmetic for K_n and the
    circulants, a bincount of the edge pairs for a graph built from edges
    -- and the degree analytics read only them.  ``build`` returns the
    int32 array that ``neighbors`` holds; it runs once, on the first read
    by a walker, a BFS, an equality test or a validator, and the graph
    then drops it together with whatever it holds (the 16 bytes per edge
    of an edge list).  The array is read-only and the same object on
    every read.
    """

    def __init__(self, n: int, offsets: np.ndarray, build, self_loop_count: int) -> None:
        self.__dict__.update(n=n, offsets=offsets, self_loop_count=self_loop_count,
                             _build=build)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Graph is immutable")

    @cached_property
    def neighbors(self) -> np.ndarray:
        build = self._build
        if build is None:  # a concurrent first read has finished the build
            return self.__dict__["neighbors"]
        nbrs = self.__dict__["neighbors"] = _freeze(build())
        self.__dict__["_build"] = None
        return nbrs

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree (int64); self-loops count once."""
        return _freeze(np.diff(self.offsets))

    @property
    def total_degree(self) -> int:
        """D = sum of degrees = 2 * (off-diagonal edges) + (self-loops)."""
        return int(self.offsets[-1])

    @property
    def edge_count(self) -> int:
        """Number of undirected edges, counting each self-loop once."""
        loops = self.self_loop_count
        return (self.total_degree - loops) // 2 + loops

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )


@dataclass(frozen=True)
class DegreeStatistics:
    """Exact integer degree aggregates of one graph.

    ``D`` is the total degree, ``D2`` the number of ordered paths of length
    two through a common center, sum_v degree(v)(degree(v)-1), and
    ``sum_deg_sq`` the sum of squared degrees; the three are tied by
    ``sum_deg_sq = D2 + D``.  All three are defined (as zero) on an
    edgeless graph; ``coincidence_rate`` -- sum(pi_v^2) = sum_deg_sq / D^2
    -- needs at least one edge.
    """

    D: int
    D2: int
    sum_deg_sq: int

    @property
    def coincidence_rate(self) -> float:
        if self.D == 0:
            raise ValueError("coincidence rate undefined: graph has no edges")
        return self.sum_deg_sq / (self.D * self.D)


@dataclass(frozen=True)
class Theorem1Bounds:
    """Stationary-start coincidence and infection predictions.

    ``expected_tau`` is the exact expectation of the coincidence time up to
    ``t``; ``gamma_upper`` the concavity (Jensen) upper bound on the mean
    infection probability 1 - exp(-beta * tau).
    """

    expected_tau: float
    gamma_upper: float


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds supported maximum {MAX_VERTICES}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _csr_from_half_edges(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Build a Graph from deduplicated canonical int64 edges (u <= v).

    Trusted internal constructor: callers guarantee bounds, canonical order
    and uniqueness.  Self-loops (u == v) produce a single adjacency entry.
    The offsets are the cumulative degrees, one bincount of each endpoint
    column; the adjacency is sorted by :func:`_sorted_neighbors` on the
    first read of ``neighbors``.
    """
    off_v = v[u != v]
    degrees = np.bincount(u, minlength=n) + np.bincount(off_v, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return Graph(n, _freeze(offsets), partial(_sorted_neighbors, n, u, v),
                 u.size - off_v.size)


def _sorted_neighbors(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """CSR neighbor ids of canonical edges, strictly increasing within each row.

    Each half-edge s -> t becomes the key s * n + t, which fits in int64
    because n <= MAX_VERTICES; one sort of the keys orders the adjacency
    by row and, within a row, by neighbor.
    """
    off_diag = u != v
    key = np.concatenate([u * n + v, v[off_diag] * n + u[off_diag]])
    key.sort()
    return (key % n).astype(np.int32)


def build_graph(n: int, edges, allow_self_loops: bool = False) -> Graph:
    """Build an undirected graph from an iterable or array of vertex pairs.

    Duplicate pairs (in either orientation) collapse to a single edge.
    Raises ValueError for endpoints outside 0..n-1 and, unless
    ``allow_self_loops`` is set, for any pair (v, v).
    """
    _check_vertex_count(n)
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex ids")
    if e.size and (e.min() < 0 or e.max() >= n):
        bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
        raise ValueError(f"edge endpoint out of range: {tuple(bad)} with n={n}")
    u = np.minimum(e[:, 0], e[:, 1])
    v = np.maximum(e[:, 0], e[:, 1])
    if not allow_self_loops and np.any(u == v):
        loop_at = int(u[u == v][0])
        raise ValueError(f"self-loop at vertex {loop_at} but allow_self_loops is false")
    # sorted keys drop their repeats; np.unique would hash them, several
    # times slower than this sort on numpy 2.x
    key = np.sort(u * n + v)
    u, v = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    return _csr_from_half_edges(n, u, v)


def validate_graph(g: Graph) -> None:
    """Check structural invariants; raises AssertionError on violation.

    Meant for tests and debugging, not hot paths.
    """
    assert g.offsets.shape == (g.n + 1,)
    assert g.offsets[0] == 0 and g.offsets[-1] == len(g.neighbors)
    assert np.all(np.diff(g.offsets) >= 0)
    if g.neighbors.size:
        assert g.neighbors.min() >= 0 and g.neighbors.max() < g.n
    # rows strictly increasing
    row_id = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    same_row = row_id[1:] == row_id[:-1]
    assert np.all(np.diff(g.neighbors.astype(np.int64))[same_row] > 0)
    # symmetry: sorted keys of (src, dst) equal sorted keys of (dst, src)
    nbrs = g.neighbors.astype(np.int64)
    assert np.array_equal(np.sort(row_id * g.n + nbrs), np.sort(nbrs * g.n + row_id))


def degree_statistics(g: Graph) -> DegreeStatistics:
    """Exact degree aggregates D, D2 and the sum of squared degrees.

    Sums are taken in 64-bit integers, which is exact because the sum of
    squared degrees is at most D * max_degree.  A graph for which that bound
    reaches 2^63 (more than 9e11 half-edges) raises OverflowError.
    """
    degs = g.degrees
    total = g.total_degree
    max_deg = int(degs.max()) if g.n else 0
    if total * max_deg >= 2**63:
        raise OverflowError("sum of squared degrees may exceed 64-bit integers")
    sum_sq = int(np.dot(degs, degs))
    return DegreeStatistics(D=total, D2=sum_sq - total, sum_deg_sq=sum_sq)


def theorem1_bounds(g: Graph, t_horizon: float, beta: float) -> Theorem1Bounds:
    """Exact E[tau] and the Jensen bound on infection probability.

    For stationary independent walkers the coincidence indicator has
    constant expectation sum(pi_v^2), so E[tau(t)] = t * sum(pi_v^2); by
    concavity of 1 - exp(-beta x), E[1 - exp(-beta tau)] <= 1 -
    exp(-beta E[tau]).
    """
    if t_horizon < 0:
        raise ValueError("t_horizon must be non-negative")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    stats = degree_statistics(g)
    expected_tau = t_horizon * stats.coincidence_rate
    gamma_upper = -math.expm1(-beta * expected_tau)
    return Theorem1Bounds(expected_tau=expected_tau, gamma_upper=gamma_upper)


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0.

    A single-vertex graph is connected vacuously.  Self-loops play no role
    in reachability.  When every vertex has at least (n - 1) / 2 neighbors
    besides itself (a loop adds 1 to the degree, not a neighbor), any two
    vertices are adjacent or share one, so the degrees answer without a search.
    """
    if g.n == 1 or 2 * (int(g.degrees.min()) - (g.self_loop_count > 0)) >= g.n - 1:
        return True
    visited = np.zeros(g.n, dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    reached = 1
    offs, nbrs, degs = g.offsets, g.neighbors, g.degrees
    while frontier.size:
        counts = degs[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        starts = offs[frontier]
        cand = nbrs[_slice_gather(starts, counts, total)]
        # sorted candidates drop their repeats; np.unique would hash them
        cand = np.sort(cand[~visited[cand]])
        first = np.ones(cand.size, dtype=bool)
        np.not_equal(cand[1:], cand[:-1], out=first[1:])
        new = cand[first]
        visited[new] = True
        reached += new.size
        frontier = new
    return reached == g.n


def _slice_gather(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Flat indices covering [starts[i], starts[i]+counts[i]) for all i."""
    out = np.repeat(starts + counts - np.cumsum(counts), counts)
    return out + np.arange(total, dtype=np.int64)
