"""Graph family generators with reproducible, splittable seeding.

Deterministic families (complete, circulant) compute their CSR offsets
by arithmetic and lay out their adjacency when something reads
``neighbors``.  Random families draw every bit of randomness from
splitmix64 streams derived from the caller's seed, so an identical spec
(including seed) reproduces the identical edge set on any platform.  They
hand their edges to ``graph_core`` as canonical pairs, whose adjacency is
sorted only when something reads ``neighbors``.

One exact sampler covers both independent-pair models, the expected-degree
model where pair (u, v) appears with probability min(1, w_u * w_v / W)
and uniform G(n, p), its one-class, loop-free case.  It combines the
geometric skips of Batagelj & Brandes (PRE 71, 036113, 2005) with the
sorted-weight envelope of Miller & Hagberg (WAW 2011):

* the non-increasing weights split into contiguous classes whose weights
  stay within a factor of 2;
* each block of pairs between classes A <= B -- a rectangle across two
  classes, a triangle within one (with its diagonal when self-loops are
  allowed) -- is walked in row-major order by geometric gaps under its
  envelope p = min(1, w_A0 * w_B0 / W), the probability of its first pair;
* a candidate's row-major index L in its block becomes its pair by integer
  division in a rectangle of width c (row L // c, column L - c * (L // c)),
  and in a triangle by the closed form k = floor((sqrt(8R + 1) - 1) / 2),
  R counted back from the triangle's end (see ``_triangle_pairs``), which
  float64 computes exactly because 8R + 1 < 2**52 for every side up to
  MAX_VERTICES + 1;
* each candidate pair is kept with probability q / p, where q is its exact
  probability; within a block q / p is at least 1/4.

Draw order, all from one stream: blocks by class pair (A, B) with A outer
and B inner; within a block, chunks of at most ``_CHUNK`` gap uniforms,
each followed by one thinning uniform per candidate it produced.

Lockstep: one walk serves one graph or many.  Each replicate is a lane
with its own splitmix64 state, and draws exactly the uniforms, in exactly
the order, that its stream draws alone, so a graph does not depend on the
replicates walked beside it; a single graph is one lane.  Two bounds keep
the memory of a one-graph draw: a block is walked by groups of lanes
whose count times the block's first (widest) chunk is at most the plan's
widest chunk (or the lane count, if larger), and replicates whose seeds
are known up front (``sampler_for`` with ``seeds``) are drawn
``max(1, _CHUNK // n)`` at a time and served in that order, each once.
Those replicates are reduced chunk by chunk straight into degree rows, so
no edge list is held; a replicate's graph keeps its offsets and its seed,
and walks that one lane again to build its adjacency if ``neighbors`` is
read.

Workspace: each thread owns one set of chunk buffers (``_Workspace``),
grown to the widest chunk it has walked and reused by every later walk on
that thread, across blocks, replicates, grid points and samplers.  A
chunk's pipeline -- gap uniforms, positions, kept positions, pairs (u, v),
their probabilities q, thinning uniforms and keep mask -- is written into
it in place; only the kept pairs a walk yields are new arrays, and the
caller owns them (when several lanes walk a chunk, two gathers across
the lanes are new too: the lanes' stream origins repeated over their
uniforms, and their kept positions).  No buffer's contents outlive one
step of a walk, so walks may interleave on one thread, and the threads of
``--jobs`` never share a buffer.

Attempts: each random family is a plan, validated once, from a stream to
a graph, or to ``None`` for a stub pairing that is not simple.  Attempt a
draws from ``derive_seed(seed, a)``; the first graph (connected, if asked) wins.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .graph_core import (Graph, _check_vertex_count, _csr_from_half_edges, _freeze,
                         _sorted_neighbors, is_connected)
from .rng import MASK64, Stream, derive_seed, derive_seeds, gamma_ramp, lane_uniforms

#: Most geometric gaps the pair sampler draws at once; bounds its memory.
_CHUNK = 1 << 16

#: Samples drawn per graph before connectivity conditioning gives up.
CONNECT_ATTEMPTS = 100

#: Stub pairings a random regular graph tries before it gives up.
PAIRING_ATTEMPTS = 1000


class GenerationError(RuntimeError):
    """A rejection-sampling loop exhausted its retry budget."""


# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True)
class WeightSequence:
    """A non-increasing positive expected-degree sequence."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        # a non-increasing run from a finite w[0] down to a positive w[-1] is
        # finite and positive throughout; the order test is false at a NaN
        if not math.isfinite(w[0]):
            raise ValueError("weights must be finite")
        if not (w[1:] <= w[:-1]).all():
            raise ValueError("weights must be non-increasing and not NaN")
        if not w[-1] > 0:
            raise ValueError("weights must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    @cached_property
    def total(self) -> float:
        """W = sum of all weights."""
        return float(self.weights.sum())

    @property
    def max_weight(self) -> float:
        return float(self.weights[0])

    def probabilities_valid(self) -> bool:
        """True when every pair probability w_u w_v / W is at most 1."""
        return self.max_weight**2 <= self.total


def uniform_weights(n: int, w: float) -> WeightSequence:
    """Constant weight sequence; with w = n*p this is the G(n, p) surrogate."""
    _check_vertex_count(n)
    if not (w > 0 and math.isfinite(w)):
        raise ValueError("weight must be positive and finite")
    return WeightSequence(weights=np.full(n, float(w)))


def power_law_weights(n: int, gamma: float, d: float, m: float) -> WeightSequence:
    """Power-law expected degrees with exponent gamma, mean ~d, maximum m.

    Weight i (0-based) is ``m * (1 + i / i0) ** (-1 / (gamma - 1))`` with
    ``i0 = n * (d (gamma-2) / (m (gamma-1))) ** (gamma-1)``.  The sequence
    is decreasing from w_0 = m, the number of vertices of expected degree
    at least x scales like x^-(gamma-1), and the total W is close to n*d
    when m is well below its sqrt(n*d) ceiling.
    """
    _check_vertex_count(n)
    if gamma <= 2:
        raise ValueError("gamma must exceed 2")
    if d <= 0:
        raise ValueError("d must be positive")
    if m <= d:
        raise ValueError("m must exceed d")
    i0 = n * (d * (gamma - 2) / (m * (gamma - 1))) ** (gamma - 1)
    w = np.arange(n, dtype=np.float64)  # in place: the formula's operations, in its order
    w /= i0
    w += 1.0
    w **= -1.0 / (gamma - 1.0)
    w *= m
    return WeightSequence(weights=w)


# ---------------------------------------------------------------------------
# deterministic families


def gen_complete(n: int) -> Graph:
    """Complete graph K_n (no self-loops)."""
    _check_vertex_count(n)
    if n < 2:
        raise ValueError("complete graph needs at least 2 vertices")
    offsets = np.arange(0, n * (n - 1) + 1, n - 1, dtype=np.int64)
    return Graph(n, _freeze(offsets), partial(_complete_neighbors, n), 0)


def _complete_neighbors(n: int) -> np.ndarray:
    """Row v of K_n's adjacency: 0..n-1 without v, flattened."""
    cols = np.arange(n - 1, dtype=np.int32)
    rows = np.arange(n, dtype=np.int32)[:, None]
    return (cols + (cols >= rows)).ravel()


def gen_circulant(n: int, k: int) -> Graph:
    """Circulant graph: v adjacent to v +/- 1 ... v +/- k modulo n.

    Requires n >= 2k + 1 so the 2k neighbor offsets are all distinct;
    at n = 2k + 1 the result is the complete graph.
    """
    _check_vertex_count(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k + 1:
        raise ValueError(f"circulant needs n >= 2k + 1, got n={n}, k={k}")
    offsets = np.arange(0, n * 2 * k + 1, 2 * k, dtype=np.int64)
    return Graph(n, _freeze(offsets), partial(_circulant_neighbors, n, k), 0)


def _circulant_neighbors(n: int, k: int) -> np.ndarray:
    """Row v of the circulant's adjacency: v +/- 1 ... v +/- k mod n, sorted, flattened."""
    shifts = np.concatenate([np.arange(-k, 0), np.arange(1, k + 1)]).astype(np.int64)
    mat = (np.arange(n, dtype=np.int64)[:, None] + shifts[None, :]) % n
    mat.sort(axis=1)
    return mat.ravel().astype(np.int32)


# ---------------------------------------------------------------------------
# random regular via stub pairing


def gen_random_regular(n: int, r: int, seed: int) -> Graph:
    """Random r-regular graph by pairing stubs, rejecting imperfect samples.

    Stub j belongs to vertex j // r.  Each attempt draws one uniform key
    per stub, orders the n*r stubs by key -- ascending, ties in index order
    -- and pairs them two by two in that order.  It is rejected wholesale
    if it produced a self-loop or a duplicate edge, so accepted graphs are
    uniform over simple pairings.  Attempt a draws from
    ``derive_seed(seed, a)``, up to ``PAIRING_ATTEMPTS`` attempts.
    """
    return _draw(_regular_pairing(n, r), PAIRING_ATTEMPTS, False, seed)


def _regular_pairing(n: int, r: int):
    """Validate an r-regular request; return stream -> Graph, or None if not simple."""
    _check_vertex_count(n)
    if r < 1:
        raise ValueError("degree r must be at least 1")
    if r >= n:
        raise ValueError("degree r must be below n")
    if (n * r) % 2 != 0:
        raise ValueError("n * r must be even for an r-regular graph")

    def attempt(stream: Stream) -> Graph | None:
        u, v = _stub_pairs(n, r, stream)
        if np.any(u == v) or np.any(np.diff(np.sort(u * n + v)) == 0):
            return None
        return _csr_from_half_edges(n, u, v)

    return attempt


def _stub_pairs(n: int, r: int, stream: Stream) -> tuple[np.ndarray, np.ndarray]:
    """One stub pairing as canonical pairs u <= v, loops and repeats included.

    The order is the one :func:`gen_random_regular` states, found by one
    sort of uint64 words: each word holds the stub's key ``keys * 2**53``
    (exact, 53 bits) in its top bits and the stub index in its low
    ``b = bit_length(n*r - 1)`` bits, so when ``b > 11`` the key keeps only
    its top ``64 - b`` bits.  Words then sort by truncated key and index.
    Stubs whose truncated keys tie -- about ``(n r)**2 / 2**(65 - b)`` pairs
    per attempt -- are re-sorted among themselves by full key and index;
    every other stub already has its final rank.
    """
    keys = stream.uniforms(n * r)
    bits = (keys.size - 1).bit_length()
    words = np.empty(keys.size, dtype=np.uint64)
    np.multiply(keys, 2.0 ** 53, out=words, casting="unsafe")
    words <<= np.uint64(11)
    words &= np.uint64(MASK64 ^ ((1 << bits) - 1))
    words |= np.arange(keys.size, dtype=np.uint64)
    words.sort()
    # Adjacent words share a truncated key exactly when their xor is below 2**bits.
    tied = np.flatnonzero((words[1:] ^ words[:-1]) < np.uint64(1 << bits))
    words &= np.uint64((1 << bits) - 1)
    order = words.view(np.int64)
    if tied.size:
        at = np.union1d(tied, tied + 1)
        stubs = order[at]
        order[at] = stubs[np.lexsort((stubs, keys[stubs]))]
    del keys  # the keys are not needed to pair, so do not hold them
    order //= r
    a, b = order[0::2], order[1::2]
    return np.minimum(a, b), np.maximum(a, b)


def _draw(attempt, budget: int, require_connected: bool, seed: int) -> Graph:
    """The one retry loop: up to ``budget`` attempts, as the module docstring says."""
    for a in range(budget):
        g = attempt(Stream(derive_seed(seed, a)))
        if g is not None and (not require_connected or is_connected(g)):
            return g
    raise GenerationError(
        f"no {'connected ' * require_connected}sample accepted in {budget} attempts")


# ---------------------------------------------------------------------------
# independent-pair models: one exact sampler


class _Workspace(threading.local):
    """The pair sampler's chunk buffers: one set per thread, reused by every walk.

    Each buffer holds ``size`` entries, grown to the largest chunk the
    thread has walked; a chunk of up to ``size`` gap slots fits, and so do
    its kept positions, pairs, probabilities and thinning uniforms.  A walk
    step fills the buffers and reads them back before it yields owned
    arrays, so no buffer's contents outlive a step: walks on one thread
    may interleave, and threads never share a buffer.
    """

    size = 0

    def fit(self, size: int) -> "_Workspace":
        """This thread's buffers, grown to at least ``size`` entries."""
        if size > self.size:
            self.size = size
            self.ramp = gamma_ramp(size)
            self.words = np.empty(size, dtype=np.uint64)
            self.gaps, self.q, self.thin = (np.empty(size) for _ in range(3))
            self.linear, self.u, self.v = (np.empty(size, dtype=np.int64) for _ in range(3))
            self.mask = np.empty(size, dtype=bool)
        return self


_WORKSPACE = _Workspace()


def _rectangle_pairs(linear: np.ndarray, width: int,
                     ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Invert row-major linear indices of a rectangle ``width`` wide to (i, j), in ws.u, ws.v."""
    i, j = ws.u[:linear.size], ws.v[:linear.size]
    np.floor_divide(linear, width, out=i)
    np.multiply(i, width, out=j)
    np.subtract(linear, j, out=j)
    return i, j


def _triangle_pairs(linear: np.ndarray, side: int,
                    ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Invert row-major linear indices L of a strict upper triangle to (i, j).

    Counted back from the triangle's end, R = side(side-1)/2 - 1 - L, row
    side-2-k holds the k+1 indices with k(k+1)/2 <= R < (k+1)(k+2)/2, so
    k = floor((sqrt(8R+1) - 1) / 2), i = side-2-k and j = side-1-R + k(k+1)/2.
    The code takes k as floor(sqrt(2R + 1/4) - 1/2), the same float, since
    dividing by 4 under a correctly rounded root is exact, and k(k+1)/2 as
    ((k + 1/2)**2 - 1/4) / 2 in place.  All of it runs in float64 and is
    exact: each value is a whole number of quarters below 2**52 (side <=
    MAX_VERTICES + 1), and a correctly rounded sqrt of a non-square integer
    below 2**52 cannot round onto an integer, so the floor sees the exact
    root's integer part.  i and j go to ``ws.u`` and ``ws.v``; ``ws.q`` and
    ``ws.thin`` are scratch.
    """
    last = side * (side - 1) // 2 - 1
    count = linear.size
    i, j, k, jf = ws.u[:count], ws.v[:count], ws.q[:count], ws.thin[:count]
    k[...] = linear
    np.add(k, side - 1 - last, out=jf)  # j = side-1-R, plus k(k+1)/2 below
    k *= -2.0
    k += 2 * last + 0.25  # 2R + 1/4
    np.sqrt(k, out=k)
    k -= 0.5
    np.floor(k, out=k)
    i[...] = k
    np.subtract(side - 2, i, out=i)
    k += 0.5
    k *= k
    k -= 0.25
    k *= 0.5
    jf += k
    j[...] = jf
    return i, j


def _geometric_walk(size: int, p: float, states: np.ndarray):
    """Yield, chunk by chunk, the positions of range(size) kept by Bernoulli(p) trials.

    Each lane walks range(size) on its own stream: ``states`` holds one
    splitmix64 state per lane (see ``rng.lane_uniforms``).  Gaps between
    kept positions are geometric, floor(log(1-u) / log(1-p)), so a lane
    draws only about size * p uniforms.  A lane at ``cursor`` draws a chunk
    of min(_CHUNK, int((size - cursor) * p * 1.1) + 16) gaps, so the first
    chunk is as wide in every lane and is one (lanes, width) block; a
    ragged later chunk is padded to the widest with +inf gaps.  The
    positions, running sums of gap + 1, increase along a lane, so the ones
    inside range(size) are a prefix of its chunk, and a lane walks on only
    while its whole chunk falls inside.  They stay exact in float64
    because every one is below size < 2**53.

    Each step yields ``(lanes, lane_states, counts, linear)``: the indices
    of the lanes that drew a chunk, their states, how many positions each
    kept, and those positions lane after lane, in this thread's
    ``_Workspace`` (``linear``; the gaps are drawn in ``gaps``, padded in
    ``q``), so they hold only until the next step.  A caller that draws
    from ``lane_states`` (thinning) advances them before the next chunk,
    which writes them back to ``states``.
    """
    log_q = math.log1p(-p) if p < 1.0 else -math.inf  # p = 1: every gap is 0
    lanes = np.arange(states.size if size else 0)
    cursor = np.zeros(lanes.size, dtype=np.int64)
    width = min(_CHUNK, int(size * p * 1.1) + 16)
    widths = np.full(lanes.size, width)
    ragged = False
    while lanes.size:
        ws = _WORKSPACE.fit(lanes.size * width)
        lane_states = states[lanes]
        pos = lane_uniforms(lane_states, widths, ws.ramp, ws.gaps, ws.words)
        np.negative(pos, out=pos)
        np.log1p(pos, out=pos)
        pos /= log_q
        np.floor(pos, out=pos)
        pos += 1.0
        if ragged:
            padded = ws.q[:lanes.size * width].reshape(lanes.size, width)
            padded.fill(np.inf)
            padded[np.arange(width) < widths[:, None]] = pos
            pos = padded
        else:
            pos = pos.reshape(lanes.size, width)
        pos.cumsum(axis=1, out=pos)
        pos += (cursor - 1.0)[:, None]  # exact for every position below size
        if lanes.size == 1:  # a prefix of one lane's chunk: found by bisection
            counts = pos[0].searchsorted([size])
            inside = pos[0, :counts[0]]
        else:
            inside = np.less(pos, size, out=ws.mask[:pos.size].reshape(pos.shape))
            counts = inside.sum(axis=1)
            inside = pos[inside]
        linear = ws.linear[:inside.size]
        linear[...] = inside
        full = (counts == widths).nonzero()[0]
        if full.size:  # read before the yield: the padded positions live in ws.q
            cursor = pos[full, widths.take(full) - 1].astype(np.int64) + 1
        yield lanes, lane_states, counts, linear
        states[lanes] = lane_states
        if not full.size:
            return
        walking = cursor < size
        lanes, cursor = lanes.take(full)[walking], cursor[walking]
        widths = np.minimum(_CHUNK, ((size - cursor) * p * 1.1).astype(np.int64) + 16)
        width = int(widths.max(initial=0))
        ragged = widths.min(initial=width) < width


def _pair_sampler(w: np.ndarray, total: float, loops: bool):
    """Plan the pair sampler for one weight sequence; return its walk.

    The walk draws pairs u <= v, each present independently w.p.
    min(1, w_u w_v / W); ``w`` must be non-increasing, and pairs u == v
    are drawn only with ``loops``.  The plan -- the class bounds and each
    block's origin, size, envelope p and rectangle width or triangle side
    -- depends on the weights alone, so a sampler made once serves every
    seed.  The method and draw order are in the module docstring.

    ``walk(states)`` walks one lane per splitmix64 state of the 1-d uint64
    array ``states``, advancing them in place, and yields each chunk's kept
    pairs as ``(lanes, ends, u, v, loop_block)``: the lanes that drew it,
    the running count of pairs they kept (lane i's pairs end at ends[i]),
    the pairs lane after lane, and whether the block can hold a loop (u == v).
    The kept pairs are owned arrays; everything else a chunk computes lives
    in the ``_Workspace`` of the thread that runs the step, grown up front to
    the walk's widest chunk.
    """
    n = w.size
    # a class ends at the first weight below half its first; the key negates
    # only the weights the bisection probes, so no negated copy of w is made
    bounds = [0]
    while bounds[-1] < n:
        first = bounds[-1]
        bounds.append(bisect.bisect_right(w, -w[first] / 2, lo=first, key=operator.neg))
    classes = list(zip(bounds, bounds[1:]))
    blocks = []  # (u0, v0, size, p, pairs, shape): pair (u0 + i, v0 + j)
    for a, (a0, a1) in enumerate(classes):
        for b0, b1 in classes[a:]:
            p = min(1.0, w[a0] * w[b0] / total)
            if a0 == b0:
                # with loops, pair (i, i) is (i, i + 1) of a strict triangle one wider
                side = a1 - a0 + loops
                blocks.append((a0, a0 - loops, side * (side - 1) // 2, p, _triangle_pairs, side))
            else:
                blocks.append((a0, b0, (a1 - a0) * (b1 - b0), p, _rectangle_pairs, b1 - b0))

    firsts = [min(_CHUNK, int(size * p * 1.1) + 16) for _, _, size, p, _, _ in blocks]
    widest = max(firsts, default=0)

    def walk(states: np.ndarray):
        # lanes walked together x a block's first (widest) chunk stays within
        # the plan's widest chunk, or within the lane count for tiny plans
        bound = max(widest, states.size)
        ws = _WORKSPACE.fit(bound)
        for (u0, v0, size, p, pairs, shape), first in zip(blocks, firsts):
            group = max(1, bound // first)
            for g0 in range(0, states.size, group):
                for lanes, lane_states, counts, linear in _geometric_walk(
                        size, p, states[g0:g0 + group]):
                    u, v = pairs(linear, shape, ws)
                    u += u0
                    v += v0
                    # q = w_u w_v / W exceeds p only where p is clamped at 1
                    q = w.take(u, out=ws.q[:u.size], mode="clip")
                    q *= w.take(v, out=ws.thin[:u.size], mode="clip")
                    q /= total
                    q /= p
                    thin = lane_uniforms(lane_states, counts, ws.ramp, ws.thin, ws.words)
                    keep = np.less(thin, q, out=ws.mask[:u.size]).nonzero()[0]
                    yield (lanes + g0, keep.searchsorted(counts.cumsum()), u.take(keep),
                           v.take(keep), v0 < u0)

    return walk


def _no_pairs(states: np.ndarray):
    """The walk of a sampler whose every pair probability is 0."""
    return iter(())


def _pair_edges(walk, state: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical pairs (u, v) that ``walk`` keeps for one stream state."""
    us, vs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for _, _, u, v, _ in walk(np.array([state], dtype=np.uint64)):
        us.append(u)
        vs.append(v)
    return np.concatenate(us), np.concatenate(vs)


def _pairs_graph(n: int, walk, stream: Stream) -> Graph:
    """One attempt of a pair model: the graph of the pairs kept for ``stream``."""
    return _csr_from_half_edges(n, *_pair_edges(walk, stream.state))


def _lane_offsets(n: int, walk, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offset rows (lanes, n + 1) and self-loop counts of ``walk`` over ``states``.

    Each chunk's kept pairs are added into degree rows as they come, so no
    lane's edge list is ever held; a row's running sum then makes it its
    lane's offsets in place.  A chunk's pairs are indexed from the row of
    its first lane, so a one-lane chunk needs no offsets.  A loop adds 1 to
    its vertex's degree, not 2; only the within-class triangles of a
    sampler with loops can hold one, so only their chunks look.
    """
    stride = n + 1  # vertex v of lane i counts at i * stride + 1 + v
    offsets = np.zeros(states.size * stride, dtype=np.int64)
    loops = np.zeros(states.size, dtype=np.int64)
    for lanes, ends, u, v, loop_block in walk(states):
        rows = offsets[lanes[0] * stride + 1:]
        if lanes.size > 1:
            ends[1:] -= ends[:-1].copy()
            shift = ((lanes - lanes[0]) * stride).repeat(ends)
            u += shift
            v += shift
        np.add.at(rows, u, 1)
        np.add.at(rows, v, 1)
        if loop_block:
            at = u[u == v]
            np.add.at(rows, at, -1)
            np.add.at(loops, lanes[0] + at // stride, 1)
    offsets = offsets.reshape(states.size, stride)
    offsets.cumsum(axis=1, out=offsets)
    return offsets, loops


def _rebuilt_neighbors(n: int, walk, state: int) -> np.ndarray:
    """A lockstep replicate's adjacency: its one lane walked again, alone."""
    return _sorted_neighbors(n, *_pair_edges(walk, state))


def _lockstep_draws(n: int, walk, seeds):
    """seed -> Graph for a known run of seeds, drawn in lockstep straight to degrees.

    The seeds are served in the order given, each once; any other seed
    raises ValueError.  They are drawn in replicate chunks of
    ``max(1, _CHUNK // n)`` lanes, which bounds the degree rows to about
    _CHUNK entries; a chunk is drawn when its first seed is asked for.
    Replicate s is attempt 0 of the one-graph draw, the lane of stream
    ``derive_seed(s, 0)``; its graph holds only offsets and a self-loop
    count, and rebuilds its adjacency from that lane if something reads
    ``neighbors``.
    """
    step = max(1, _CHUNK // n)
    served = (pair for start in range(0, len(seeds), step)
              for pair in _lockstep_chunk(n, walk, seeds[start:start + step]))

    def draw(seed: int) -> Graph:
        want, g = next(served, (None, None))
        if seed != want:
            raise ValueError(f"seed {seed} is not the next seed of this lockstep run")
        return g

    return draw


def _lockstep_chunk(n: int, walk, seeds):
    """(seed, Graph) for each of ``seeds``, walked together; a generator of its
    own, so that the chunk's rows go once it is served, before the next is drawn."""
    seeds = [int(s) for s in seeds]
    origins = derive_seeds(np.array([s & MASK64 for s in seeds], dtype=np.uint64), 0)
    offsets, loops = _lane_offsets(n, walk, origins.copy())
    for s, row, origin, loop in zip(seeds, offsets, origins.tolist(), loops.tolist()):
        yield s, Graph(n, _freeze(row), partial(_rebuilt_neighbors, n, walk, origin), loop)


def _caller_stacklevel() -> int:
    """``stacklevel`` that pins a warning on the first caller outside this module."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _gnp_walk(n: int, p: float, require_connected: bool):
    """Validate a G(n, p) request and plan its sampler once; return its walk."""
    _check_vertex_count(n)
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if require_connected and n > 1 and n * p < math.log(n):
        warnings.warn(
            f"n*p = {n * p:.3g} is below log(n) = {math.log(n):.3g}; "
            "connected samples will be rare in this regime",
            stacklevel=_caller_stacklevel(),
        )
    return _pair_sampler(np.ones(n), 1.0 / p, False) if p > 0.0 else _no_pairs


def gen_gnp(n: int, p: float, seed: int, require_connected: bool = False) -> Graph:
    """Uniform random graph: each of the C(n, 2) pairs is an edge w.p. p.

    This is the one-class, loop-free case of the expected-degree sampler.
    With ``require_connected`` attempt a draws from ``derive_seed(seed, a)``
    until one is connected, up to ``CONNECT_ATTEMPTS`` attempts.
    """
    walk = _gnp_walk(n, p, require_connected)
    return _draw(partial(_pairs_graph, n, walk), CONNECT_ATTEMPTS, require_connected, seed)


def _expected_degree_walk(w: WeightSequence, loops: bool, strict: bool):
    """Validate the weights and plan their sampler once; return its walk."""
    if strict and not w.probabilities_valid():
        raise ValueError(
            f"invalid pair probabilities: max weight squared {w.max_weight**2:.6g} "
            f"exceeds total weight {w.total:.6g} (pass strict=False to clamp at 1)")
    return _pair_sampler(w.weights, w.total, loops)


def gen_expected_degree(w: WeightSequence, seed: int, allow_self_loops: bool = True,
                        strict: bool = True) -> Graph:
    """Random graph where pair (u, v), u < v, is an edge w.p. w_u w_v / W.

    With ``allow_self_loops`` each vertex additionally receives a loop
    with probability w_v^2 / W; a loop adds 1 to the degree.  Expected
    degrees then equal the weights exactly when W >= max(w)^2, which
    keeps every probability at most 1; ``strict`` (the default) rejects
    weights that violate it.  With ``strict=False`` the sampler instead
    clamps each pair probability at 1 -- useful right at the m = sqrt(n*d)
    boundary, where finite-n weight sums fall a few percent short of n*d.
    """
    walk = _expected_degree_walk(w, allow_self_loops, strict)
    return _draw(partial(_pairs_graph, w.n, walk), CONNECT_ATTEMPTS, False, seed)


# ---------------------------------------------------------------------------
# unified spec


@dataclass(frozen=True)
class GenSpec:
    """One fully-resolved graph request; equal specs give equal graphs.

    Family parameters: ``k`` (circulant), ``r`` (random_regular), ``p``
    (gnp), either ``w`` (uniform expected-degree weight) or the triple
    ``gamma``/``d``/``m`` (power-law expected degrees).
    """

    family: str
    n: int
    seed: int = 0
    k: int | None = None
    r: int | None = None
    p: float | None = None
    gamma: float | None = None
    d: float | None = None
    m: float | None = None
    w: float | None = None
    allow_self_loops: bool = True
    require_connected: bool = False
    strict: bool = True


FAMILIES = ("complete", "circulant", "random_regular", "gnp", "expected_degree")


def _require(spec: GenSpec, name: str):
    value = getattr(spec, name)
    if value is None:
        raise ValueError(f"family {spec.family!r} requires parameter {name!r}")
    return value


def weights_for(spec: GenSpec) -> WeightSequence:
    """The weight sequence an expected_degree spec resolves to."""
    if spec.family != "expected_degree":
        raise ValueError("weights are defined only for the expected_degree family")
    if spec.w is not None:
        return uniform_weights(spec.n, spec.w)
    return power_law_weights(spec.n, _require(spec, "gamma"),
                             _require(spec, "d"), _require(spec, "m"))


def sampler_for(spec: GenSpec, seeds=None, weights: WeightSequence | None = None):
    """Resolve a GenSpec to a seed -> Graph callable.

    Family parameters are validated, and the family's plan made, once, up
    front; the returned callable draws attempt a from ``derive_seed(s, a)``
    until one is accepted (connected, if the spec asks), for up to
    ``PAIRING_ATTEMPTS`` (random_regular) or ``CONNECT_ATTEMPTS`` attempts.
    Deterministic families ignore the seed and need no conditioning: K_n
    (n >= 2) is connected, and so is every circulant, since k >= 1 puts
    the cycle v -> v + 1 in it.

    ``seeds``, the replicate seeds the caller will ask for in that order,
    lets a gnp or expected_degree spec without ``require_connected`` draw
    them in lockstep, straight to degrees (see ``_lockstep_draws``): each
    graph is the one its seed draws alone, its adjacency rebuilt from the
    seed when read, and the seeds are served in that order, each once.
    Other families draw each seed as they would without.

    ``weights``, an expected_degree spec's ``weights_for(spec)`` that the
    caller has already built, is used instead of building it again.
    """
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.family in ("complete", "circulant"):
        g = (gen_complete(spec.n) if spec.family == "complete"
             else gen_circulant(spec.n, _require(spec, "k")))
        return lambda s: g
    if spec.family == "random_regular":
        plan = _regular_pairing(spec.n, _require(spec, "r"))
        return partial(_draw, plan, PAIRING_ATTEMPTS, spec.require_connected)
    if spec.family == "gnp":
        walk = _gnp_walk(spec.n, _require(spec, "p"), spec.require_connected)
    else:
        if weights is None:
            weights = weights_for(spec)
        walk = _expected_degree_walk(weights, spec.allow_self_loops, spec.strict)
    if seeds is None or spec.require_connected:
        return partial(_draw, partial(_pairs_graph, spec.n, walk), CONNECT_ATTEMPTS,
                       spec.require_connected)
    return _lockstep_draws(spec.n, walk, seeds)


def generate(spec: GenSpec) -> Graph:
    """Build the graph a GenSpec describes, drawing with spec.seed."""
    return sampler_for(spec)(spec.seed)
