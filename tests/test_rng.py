"""Tests for the splitmix64 stream layer.

The five-output vectors below were produced by an independent C
implementation of splitmix64 (the standard reference code: state += golden
gamma, then the 30/27/31 xor-shift-multiply finalizer) compiled with gcc and
run for seeds 0, 42, and 0xDEADBEEFCAFEF00D.  They pin the generator to the
de facto standard output sequence.
"""

import warnings

import numpy as np
import pytest

from coinwalk.rng import (
    GOLDEN_GAMMA,
    MASK64,
    Stream,
    derive_seed,
    derive_seeds,
    gamma_ramp,
    lane_uniforms,
    mix64,
    mix64_into,
)

REFERENCE_VECTORS = {
    0x0000000000000000: [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ],
    0x000000000000002A: [
        0xBDD732262FEB6E95,
        0x28EFE333B266F103,
        0x47526757130F9F52,
        0x581CE1FF0E4AE394,
        0x09BC585A244823F2,
    ],
    0xDEADBEEFCAFEF00D: [
        0x901D4F652FB472CB,
        0xA7CE246440F74527,
        0x19B40BBBB9380D34,
        0xE7A86DC5BE618392,
        0x7366CE945D00E82C,
    ],
}


@pytest.mark.parametrize("seed", sorted(REFERENCE_VECTORS))
def test_matches_c_reference_output(seed):
    s = Stream(seed)
    got = [s.next_u64() for _ in range(5)]
    assert got == REFERENCE_VECTORS[seed]


def test_mix64_is_finalizer_of_advanced_state():
    # next_u64 is exactly mix64 applied to the post-increment counter
    for seed in (0, 42, 2**64 - 1):
        s = Stream(seed)
        out = s.next_u64()
        assert out == mix64((seed + GOLDEN_GAMMA) & MASK64)


def test_in_place_mix_matches_scalar_mix():
    # edge words, counter states k * gamma, and random words; out may alias z
    rng = np.random.default_rng(11)
    words = np.concatenate([
        np.array([0, MASK64, 1, 1 << 63], dtype=np.uint64),
        np.arange(1, 65, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA),
        rng.integers(0, 2**64, size=1000, dtype=np.uint64, endpoint=False),
    ])
    want = np.array([mix64(int(w)) for w in words], dtype=np.uint64)
    z, out, tmp = words.copy(), np.empty_like(words), np.empty_like(words)
    assert mix64_into(z, out, tmp) is out
    assert np.array_equal(out, want) and np.array_equal(z, words)
    assert mix64_into(z, z, tmp) is z
    assert np.array_equal(z, want)


def test_uniform_block_matches_scalar_draws():
    a = Stream(123456789)
    b = Stream(123456789)
    block = a.uniforms(257)
    singles = np.array([b.uniform() for _ in range(257)])
    assert np.array_equal(block, singles)
    assert a.state == b.state


@pytest.mark.parametrize("counts", [[5, 0, 3, 7, 0], [0, 0, 4], [9], [0, 0], []])
def test_lane_draw_matches_concatenated_streams(counts):
    # lanes within a few gamma of 2**64 wrap during the draw, silently
    near_top = [MASK64, MASK64 - GOLDEN_GAMMA, 12345, (-3 * GOLDEN_GAMMA) & MASK64, MASK64 - 7]
    seeds = near_top[:len(counts)]
    states = np.array(seeds, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # buffers longer than the block, and dirty, as a reused workspace's are
        total = sum(counts)
        out = np.full(total + 3, np.nan)
        words = np.full(total + 3, MASK64, dtype=np.uint64)
        got = lane_uniforms(states, np.array(counts, dtype=np.int64), gamma_ramp(total + 3),
                            out, words)
    assert got.base is out
    streams = [Stream(s) for s in seeds]
    want = [stream.uniforms(c) for stream, c in zip(streams, counts)]
    assert np.array_equal(got, np.concatenate([np.empty(0)] + want))
    assert states.tolist() == [stream.state for stream in streams]


def test_mixing_scalar_and_block_draws_preserves_sequence():
    a = Stream(99)
    b = Stream(99)
    seq_a = [a.uniform(), a.uniform()] + a.uniforms(3).tolist() + [a.uniform()]
    seq_b = b.uniforms(6).tolist()
    assert seq_a == seq_b


def test_uniform_range_and_precision():
    u = Stream(2024).uniforms(10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # top-53-bit construction: every value is a multiple of 2**-53
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


def unmix64(z: int) -> int:
    """The inverse of mix64: each xor-shift and each odd multiplier undone."""
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, 1)):
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = (x * pow(mult, -1, 1 << 64)) & MASK64
    return z


def test_lane_uniforms_map_words_by_their_top_bits():
    # the lanes whose first words are 0, 2**11 and 2**64 - 1: each lane's
    # seed is one gamma before the state that mix64 finalizes into its word
    words = [0, 1 << 11, MASK64]
    seeds = [(unmix64(w) - GOLDEN_GAMMA) & MASK64 for w in words]
    assert [Stream(s).next_u64() for s in seeds] == words
    u = lane_uniforms(np.array(seeds, dtype=np.uint64), np.ones(3, dtype=np.int64),
                      gamma_ramp(3), np.empty(3), np.empty(3, dtype=np.uint64))
    assert u.tolist() == [0.0, 2.0**-53, (2**53 - 1) * 2.0**-53]
    assert [Stream(s).uniforms(1)[0] for s in seeds] == u.tolist()  # one lane


def test_derive_seed_decorrelates_from_parent_outputs():
    seed = 31337
    parent_outputs = set()
    s = Stream(seed)
    for _ in range(100):
        parent_outputs.add(s.next_u64())
    children = {derive_seed(seed, i) for i in range(100)}
    assert not (children & parent_outputs)
    assert len(children) == 100


def test_derive_seeds_matches_scalar():
    idx = np.arange(200)
    # Scalar parents whose sums with the index steps wrap past 2**64.
    for seed in (0xABCDEF, MASK64):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = derive_seeds(seed, idx)
            one = derive_seeds(seed, 5)
        scal = np.array([derive_seed(seed, int(i)) for i in idx], dtype=np.uint64)
        assert np.array_equal(vec, scal)
        assert one.shape == (1,) and one[0] == derive_seed(seed, 5)


def test_derive_child_seeds_matches_scalar():
    parents = derive_seeds(9001, np.arange(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = derive_seeds(parents[:, None], [1, 2])
        for index in (0, 1, 2, 17):
            vec = derive_seeds(parents, index)
            scal = np.array(
                [derive_seed(int(p), index) for p in parents], dtype=np.uint64
            )
            assert np.array_equal(vec, scal)
    assert cols.shape == (64, 2)
    for j, index in enumerate((1, 2)):
        assert np.array_equal(cols[:, j], derive_seeds(parents, index))


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(1, -1)
    with pytest.raises(ValueError):
        derive_seeds(np.array([1], dtype=np.uint64), -2)
    with pytest.raises(ValueError):
        derive_seeds(1, [0, 3, -1])


def test_uniform_moments_sane():
    u = Stream(271828).uniforms(200000)
    assert abs(u.mean() - 0.5) < 0.003
    assert abs(u.var() - 1.0 / 12.0) < 0.002
