"""Fully pinned pseudo-random generation: model builds and sampling draws.

The generator is the SplitMix64 sequence: output i (starting at i=1) is

    state_i = (seed + i * 0x9E3779B97F4A7C15) mod 2**64
    z = state_i;  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2**64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2**64)
    z ^= z >> 31

Uniforms take the top 53 bits: u = (z >> 11) * 2**-53, in [0, 1).
Standard normals come from the Box-Muller transform on consecutive
uniform pairs (u1, u2):

    r  = sqrt(-2 * ln(1 - u1))
    z0 = r * cos(2*pi*u2),   z1 = r * sin(2*pi*u2)

consumed in order z0, z1.  Because the state update is a Weyl sequence,
any stretch of the stream can be produced vectorised from its index; model
builds take the normals in fixed chunks of pairs, so no full-length
temporary exists.  Sampling takes the uniforms themselves: draw i of a
trajectory is uniform i of its seed's stream.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
_U53 = 2.0**-53


_CHUNK_PAIRS = 1 << 15  # normal pairs generated per chunk by ``normal_chunks``


def _u64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start + 1`` .. ``start + count`` of the stream."""
    with np.errstate(over="ignore"):
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z = np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def _uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms ``start + 1`` .. ``start + count`` of the stream, float64."""
    return (_u64_block(seed, start, count) >> np.uint64(11)) * _U53


def uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the stream, float64 in [0, 1)."""
    return _uniform_block(seed, 0, count)


def normal_chunks(seed: int, count: int):
    """The first ``count`` standard normals of the stream as consecutive
    float64 chunks, so a consumer never holds the whole stream at once.

    Every value is computed by the same elementwise formula as in one
    whole-stream pass; only the array lengths differ.
    """
    for first in range(0, count, 2 * _CHUNK_PAIRS):
        size = min(count - first, 2 * _CHUNK_PAIRS)
        pairs = (size + 1) // 2
        u = _uniform_block(seed, first, 2 * pairs)
        u1 = u[0::2]
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(angle)
        out[1::2] = r * np.sin(angle)
        yield out[:size]
