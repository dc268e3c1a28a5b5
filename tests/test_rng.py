import math

import numpy as np
import pytest

from conftest import whole_normal_stream
from phasequant import rng
from phasequant.rng import SplitMix64, normal_stream, u64_stream, uniform_stream


def scalar_reference(seed, count):
    """Straight transcription of the stream definition, python ints only."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_known_answer_vectors():
    # published reference outputs of the mixing function
    gen = SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4


def test_vectorized_matches_scalar_reference():
    for seed in (0, 1, 42, 2**63, 2**64 - 1):
        ref = scalar_reference(seed, 64)
        assert list(u64_stream(seed, 64)) == ref
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(64)] == ref


def test_uniforms_are_top_53_bits():
    seed = 7
    ref = scalar_reference(seed, 16)
    expected = [(z >> 11) * 2.0**-53 for z in ref]
    assert list(uniform_stream(seed, 16)) == expected
    gen = SplitMix64(seed)
    assert [gen.next_float() for _ in range(16)] == expected


def test_normal_stream_matches_pinned_box_muller():
    seed = 1234
    u = [(z >> 11) * 2.0**-53 for z in scalar_reference(seed, 8)]
    expected = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        expected.extend([r * math.cos(2 * math.pi * u2),
                         r * math.sin(2 * math.pi * u2)])
    got = normal_stream(seed, 8)
    # numpy may route log/cos/sin through a different libm path than math;
    # both are correctly rounded to within an ulp or two
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_normal_stream_deterministic_and_odd_count():
    a = normal_stream(9, 101)
    b = normal_stream(9, 101)
    assert np.array_equal(a, b)
    assert a.shape == (101,)
    assert np.array_equal(a[:51], normal_stream(9, 51))


def test_normal_stream_moments():
    z = normal_stream(5, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


def test_seed_sensitivity():
    assert list(u64_stream(3, 8)) != list(u64_stream(4, 8))


_CHUNK = 2 * rng._CHUNK_PAIRS  # values per chunk


@pytest.mark.parametrize("count", [
    1, 2, 3, 17, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 3 * _CHUNK - 2,
])
def test_chunked_stream_matches_whole_array_formula(count):
    # chunking changes only array lengths: every value, and every float32
    # weight made from it, is the whole-array pass's bit for bit
    expected = whole_normal_stream(11, count)
    got = normal_stream(11, count)
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)
    assert np.array_equal((0.02 * got).astype(np.float32),
                          (0.02 * expected).astype(np.float32))


def test_chunks_are_consecutive_and_bounded():
    count = 2 * _CHUNK + 5
    sizes = [chunk.size for chunk in rng.normal_chunks(11, count)]
    assert sizes == [_CHUNK, _CHUNK, 5]
    assert list(rng.normal_chunks(11, 0)) == []
