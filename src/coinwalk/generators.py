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
* each candidate pair is kept with probability q / p, where q is its exact
  probability; within a block q / p is at least 1/4.

Draw order, all from one stream: blocks by class pair (A, B) with A outer
and B inner; within a block, chunks of at most ``_CHUNK`` gap uniforms,
each followed by one thinning uniform per candidate it produced.

Attempts: each random family is a plan, validated once, from a stream to
a graph, or to ``None`` for a stub pairing that is not simple.  Attempt a
draws from ``derive_seed(seed, a)``; the first graph (connected, if asked) wins.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .graph_core import Graph, _check_vertex_count, _csr_from_half_edges, _freeze, is_connected
from .rng import Stream, derive_seed

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
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w[-1] <= 0:
            raise ValueError("weights must be positive")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be non-increasing")
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
    idx = np.arange(n, dtype=np.float64)
    w = m * (1.0 + idx / i0) ** (-1.0 / (gamma - 1.0))
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

    Each attempt pairs the n*r vertex stubs uniformly at random and is
    rejected wholesale if it produced a self-loop or a duplicate edge, so
    accepted graphs are uniform over simple pairings.  Attempt a draws from
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
    stubs = np.repeat(np.arange(n, dtype=np.int64), r)

    def attempt(stream: Stream) -> Graph | None:
        shuffled = stubs[np.argsort(stream.uniforms(n * r), kind="stable")]
        a, b = shuffled[0::2], shuffled[1::2]
        u, v = np.minimum(a, b), np.maximum(a, b)
        if np.any(u == v) or np.any(np.diff(np.sort(u * n + v)) == 0):
            return None
        return _csr_from_half_edges(n, u, v)

    return attempt


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


def _triangle_bases(n: int) -> np.ndarray:
    """Row starts of the strict upper triangle in row-major linear order."""
    i = np.arange(n, dtype=np.int64)
    return i * n - i * (i + 1) // 2


def _pairs_from_linear(linear: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert row-major strict-upper-triangle linear indices to (i, j).

    ``bases`` are the triangle's row starts, from :func:`_triangle_bases`.
    """
    i = np.searchsorted(bases, linear, side="right") - 1
    j = linear - bases[i] + i + 1
    return i, j


def _geometric_walk(size: int, p: float, stream: Stream):
    """Yield, chunk by chunk, the positions of range(size) kept by Bernoulli(p) trials.

    Gaps between kept positions are geometric, floor(log(1-u) / log(1-p)),
    so only about size * p uniforms are drawn.  Positions stay exact in
    float64 because every kept one is below size < 2**53.
    """
    log_q = math.log1p(-p) if p < 1.0 else -math.inf  # p = 1: every gap is 0
    cursor = 0
    while cursor < size:
        chunk = min(_CHUNK, int((size - cursor) * p * 1.1) + 16)
        gaps = np.floor(np.log1p(-stream.uniforms(chunk)) / log_q)
        pos = cursor + np.cumsum(gaps + 1.0) - 1.0
        inside = pos[pos < size]
        yield inside.astype(np.int64)
        cursor = size if inside.size < chunk else int(pos[-1]) + 1


def _pair_sampler(w: np.ndarray, total: float, loops: bool):
    """Plan the pair sampler for one weight sequence; return stream -> (u, v).

    The returned callable draws pairs u <= v, each present independently
    w.p. min(1, w_u w_v / W); ``w`` must be non-increasing, and pairs
    u == v are drawn only with ``loops``.  The plan -- the class bounds and
    each block's origin, size, envelope p and triangle bases -- depends on
    the weights alone, so a sampler made once serves every seed.  The
    method and draw order are in the module docstring.
    """
    n = w.size
    neg = -w
    bounds = [0]
    while bounds[-1] < n:
        bounds.append(int(np.searchsorted(neg, neg[bounds[-1]] / 2, side="right")))
    classes = list(zip(bounds, bounds[1:]))
    blocks = []  # (u0, v0, size, p, width, bases): pair (u0 + i, v0 + j)
    for a, (a0, a1) in enumerate(classes):
        for b0, b1 in classes[a:]:
            p = min(1.0, w[a0] * w[b0] / total)
            if a0 == b0:
                # with loops, pair (i, i) is (i, i + 1) of a strict triangle one wider
                side = a1 - a0 + loops
                blocks.append((a0, a0 - loops, side * (side - 1) // 2, p, None,
                               _triangle_bases(side)))
            else:
                blocks.append((a0, b0, (a1 - a0) * (b1 - b0), p, b1 - b0, None))

    def sample(stream: Stream) -> tuple[np.ndarray, np.ndarray]:
        us, vs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for u0, v0, size, p, width, bases in blocks:
            for linear in _geometric_walk(size, p, stream):
                if bases is None:
                    i, j = np.divmod(linear, width)
                else:
                    i, j = _pairs_from_linear(linear, bases)
                u, v = u0 + i, v0 + j
                q = w[u] * w[v] / total  # exceeds p only where p is clamped at 1
                keep = stream.uniforms(linear.size) < q / p
                us.append(u[keep])
                vs.append(v[keep])
        return np.concatenate(us), np.concatenate(vs)

    return sample


def _caller_stacklevel() -> int:
    """``stacklevel`` that pins a warning on the first caller outside this module."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _gnp_pairs(n: int, p: float, require_connected: bool):
    """Validate a G(n, p) request and plan its sampler once; return stream -> Graph."""
    _check_vertex_count(n)
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if require_connected and n > 1 and n * p < math.log(n):
        warnings.warn(
            f"n*p = {n * p:.3g} is below log(n) = {math.log(n):.3g}; "
            "connected samples will be rare in this regime",
            stacklevel=_caller_stacklevel(),
        )
    pairs = (_pair_sampler(np.ones(n), 1.0 / p, False) if p > 0.0
             else lambda stream: (np.empty(0, np.int64),) * 2)
    return lambda stream: _csr_from_half_edges(n, *pairs(stream))


def gen_gnp(n: int, p: float, seed: int, require_connected: bool = False) -> Graph:
    """Uniform random graph: each of the C(n, 2) pairs is an edge w.p. p.

    This is the one-class, loop-free case of the expected-degree sampler.
    With ``require_connected`` attempt a draws from ``derive_seed(seed, a)``
    until one is connected, up to ``CONNECT_ATTEMPTS`` attempts.
    """
    return _draw(_gnp_pairs(n, p, require_connected), CONNECT_ATTEMPTS,
                 require_connected, seed)


def _expected_degree_pairs(w: WeightSequence, loops: bool, strict: bool):
    """Validate the weights and plan their sampler once; return stream -> Graph."""
    if strict and not w.probabilities_valid():
        raise ValueError(
            f"invalid pair probabilities: max weight squared {w.max_weight**2:.6g} "
            f"exceeds total weight {w.total:.6g} (pass strict=False to clamp at 1)")
    pairs = _pair_sampler(w.weights, w.total, loops)
    return lambda stream: _csr_from_half_edges(w.n, *pairs(stream))


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
    return _draw(_expected_degree_pairs(w, allow_self_loops, strict), CONNECT_ATTEMPTS,
                 False, seed)


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


def sampler_for(spec: GenSpec):
    """Resolve a GenSpec to a seed -> Graph callable.

    Family parameters are validated, and the family's plan made, once, up
    front; the returned callable draws attempt a from ``derive_seed(s, a)``
    until one is accepted (connected, if the spec asks), for up to
    ``PAIRING_ATTEMPTS`` (random_regular) or ``CONNECT_ATTEMPTS`` attempts.
    Deterministic families ignore the seed and need no conditioning: K_n
    (n >= 2) is connected, and so is every circulant, since k >= 1 puts
    the cycle v -> v + 1 in it.
    """
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.family in ("complete", "circulant"):
        g = (gen_complete(spec.n) if spec.family == "complete"
             else gen_circulant(spec.n, _require(spec, "k")))
        return lambda s: g
    budget = PAIRING_ATTEMPTS if spec.family == "random_regular" else CONNECT_ATTEMPTS
    if spec.family == "random_regular":
        plan = _regular_pairing(spec.n, _require(spec, "r"))
    elif spec.family == "gnp":
        plan = _gnp_pairs(spec.n, _require(spec, "p"), spec.require_connected)
    else:
        plan = _expected_degree_pairs(weights_for(spec), spec.allow_self_loops, spec.strict)
    return partial(_draw, plan, budget, spec.require_connected)


def generate(spec: GenSpec) -> Graph:
    """Build the graph a GenSpec describes, drawing with spec.seed."""
    return sampler_for(spec)(spec.seed)
