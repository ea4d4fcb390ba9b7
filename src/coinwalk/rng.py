"""Deterministic, splittable random number streams.

The whole package draws its randomness from splitmix64, a counter-style
64-bit generator: the state advances by a fixed odd increment (the golden
gamma) and every output is a bijective avalanche mix of the new state.
Because the k-th output of a stream is a closed-form function of
``seed + (k+1) * gamma``, every block of uniforms is drawn with vectorized
uint64 arithmetic by :func:`lane_uniforms`, for one lane (``Stream.uniforms``)
or many, and the scalar and vectorized paths agree bit for bit.

Child streams are derived with :func:`derive_seed`, which mixes
``(seed, index)`` into a fresh 64-bit seed; :func:`derive_seeds` does the
same for whole arrays of parents and indices.  Replicate i of any experiment
owns the stream ``Stream(derive_seed(master_seed, i))``, so results are
independent of worker count, chunking, and execution order, and identical
across platforms.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_DERIVE_SALT = 0xD1B54A32D192ED03

# Pre-wrapped numpy constants for the vectorized path.  uint64 arithmetic in
# numpy wraps modulo 2**64, matching the masked scalar path exactly.
GAMMA_U64 = np.uint64(GOLDEN_GAMMA)
_M1_U64 = np.uint64(_MIX_MULT_1)
_M2_U64 = np.uint64(_MIX_MULT_2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

#: Scale factor turning the top 53 bits of a u64 into a float in [0, 1).
U53_INV = 2.0 ** -53


def mix64(z: int) -> int:
    """Finalize one 64-bit state into an output word (scalar path)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


def mix64_into(z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Finalize uint64 states ``z`` into ``out`` (vectorized path), with ``tmp`` as scratch.

    All three arrays have z's shape and dtype uint64, ``out`` may be ``z``
    itself, and ``tmp`` is distinct from both.  It allocates nothing and
    returns ``out``.
    """
    np.right_shift(z, _S30, out=tmp)
    np.bitwise_xor(z, tmp, out=out)
    out *= _M1_U64
    np.right_shift(out, _S27, out=tmp)
    out ^= tmp
    out *= _M2_U64
    np.right_shift(out, _S31, out=tmp)
    out ^= tmp
    return out


def derive_seed(seed: int, index: int) -> int:
    """Derive the seed of child stream ``index`` from a parent seed.

    The child seeds of distinct indices come from distinct counter positions
    and are passed through the finalizer twice with a salt in between, so
    they are decorrelated both from each other and from the parent stream's
    own outputs.
    """
    if index < 0:
        raise ValueError("stream index must be non-negative")
    z = (int(seed) + (index + 1) * GOLDEN_GAMMA) & MASK64
    return mix64(mix64(z) ^ _DERIVE_SALT)


def derive_seeds(seeds: int | np.ndarray, indices: int | list[int] | np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive_seed`, broadcasting parent seeds against indices.

    Elementwise identical to ``derive_seed(int(s), int(i))``: a scalar
    parent with an index array, a parent array with one index, or a
    column of parents (shape (n, 1)) with a row of indices.
    """
    # atleast_1d keeps the arithmetic on arrays: on 0-d uint64 values numpy
    # warns about the overflow, which here is the intended wraparound.
    idx = np.atleast_1d(indices)
    if np.any(idx < 0):
        raise ValueError("stream index must be non-negative")
    if np.ndim(seeds) == 0:
        seeds = int(seeds) & MASK64
    steps = (idx.astype(np.uint64) + np.uint64(1)) * GAMMA_U64
    z = np.asarray(seeds, dtype=np.uint64) + steps
    tmp = np.empty_like(z)
    mix64_into(z, z, tmp)
    z ^= np.uint64(_DERIVE_SALT)
    return mix64_into(z, z, tmp)


def gamma_ramp(size: int) -> np.ndarray:
    """The words ``(k+1) * gamma`` for k < size: word k of a block drawn from a lane's state."""
    ramp = np.arange(1, size + 1, dtype=np.uint64)
    ramp *= GAMMA_U64
    return ramp


def lane_uniforms(states: np.ndarray, counts: np.ndarray, ramp: np.ndarray,
                  out: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Draw ``counts[i]`` uniforms from lane i's stream into ``out``, in lane order.

    Lane i is the stream ``Stream(states[i])``: its k-th uniform comes from
    ``mix64(states[i] + (k+1) * gamma)``, so the block equals the
    concatenated ``Stream(s).uniforms(c)`` over the lanes bit for bit, and
    ``states`` (1-d uint64) advances in place by ``counts`` (1-d int64), as
    each stream's state would.

    The caller owns the buffers and may reuse them from draw to draw:
    ``ramp`` is ``gamma_ramp(cap)``, and ``out`` (float64) and ``words``
    (uint64) are scratch, all at least ``sum(counts)`` long.  ``words`` may
    be ``ramp`` itself when the ramp is not needed again.  Word t of the
    block, in the span [s, e) of lane i, is ``ramp[t] + (states[i] - s * gamma)``:
    the ramp plus the lane's origin, which is its state when there is one
    lane and is repeated over its span when there are several (the one
    temporary of the block's size, and only then).  The words are mixed in
    ``words``, with ``out``'s memory as the mixer's scratch, and scaled
    into ``out``.  Returns the block, the first ``sum(counts)`` entries of
    ``out``.
    """
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    block, scratch = words[:total], out[:total]
    # 1-d uint64 arithmetic wraps silently; on 0-d values numpy would warn
    if states.size == 1:
        np.add(ramp[:total], states, out=block)
    else:
        origins = (ends - counts).astype(np.uint64)
        origins *= GAMMA_U64
        np.subtract(states, origins, out=origins)
        np.add(ramp[:total], origins.repeat(counts), out=block)
    steps = counts.astype(np.uint64)
    steps *= GAMMA_U64
    states += steps
    mix64_into(block, block, scratch.view(np.uint64))
    block >>= _S11
    return np.multiply(block, U53_INV, out=scratch)


class Stream:
    """A sequential splitmix64 stream.

    Scalar draws (`next_u64`, `uniform`) and block draws (`uniforms`)
    consume the same underlying u64 sequence, so code may mix them freely
    without changing what any later draw sees.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        return mix64(self.state)

    def uniform(self) -> float:
        """One float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * U53_INV

    def uniforms(self, size: int) -> np.ndarray:
        """Block of ``size`` floats in [0, 1); advances the state by ``size``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        # One lane whose ramp is also its word buffer: 3e7 keys (n*r at MAX_VERTICES) take 480 MB.
        words, state = gamma_ramp(size), np.array([self.state], dtype=np.uint64)
        block = lane_uniforms(state, np.array([size]), words, np.empty(size), words)
        self.state = int(state[0])
        return block
