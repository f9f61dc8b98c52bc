"""Counter-based random streams for reproducible parallel sampling.

Each logical consumer (a fiber's phase, a Monte Carlo trial, a point-set
draw) gets its own Philox stream keyed by (master seed, domain | index).
Streams are therefore pure functions of those integers: any worker can
recreate any stream without coordination, and results cannot depend on
scheduling or worker count.

Philox-4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) turns a 128-bit key and a 256-bit counter into four 64-bit words
with ten rounds of integer arithmetic, so keyed_uniforms runs the first
blocks of many streams at once as array operations. numpy's Philox starts
its counter at zero and increments it before each block, and Generator
draws a double from each word in order as (word >> 11) * 2^-53.
"""

from __future__ import annotations

import numpy as np

# domain tags keep index spaces from colliding (fiber 3 vs trial 3, etc.)
DOMAIN_FIBER = 1
DOMAIN_POINTS = 2
DOMAIN_TRIAL = 3

_MASK64 = (1 << 64) - 1
_INDEX_BITS = 56

# Philox-4x64 round multipliers and Weyl key increments (Random123), stacked
# for counter words 0 and 2 and for key words 0 and 1
_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _stream_key(seed, domain, index):
    key = seed & _MASK64
    # a seed outside [0, 2^64) would alias the one inside it under the mask
    if key != seed:
        raise ValueError(f"seed out of range [0, 2**64): {seed}")
    return key, ((domain << _INDEX_BITS) | index) & _MASK64


def _check_index(index):
    if index < 0 or index >= (1 << _INDEX_BITS):
        raise ValueError(f"stream index out of range: {index}")


def keyed_stream(seed, domain, index=0):
    """An independent numpy Generator keyed by (seed, domain, index)."""
    _check_index(index)
    key = np.array(_stream_key(seed, domain, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m, x):
    """(high, low) 64-bit halves of the 128-bit products of the uint64 arrays
    m and x, broadcast, the high half built from 32-bit partial products."""
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    ll, lh, hl = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (ll >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = x_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * m


def keyed_uniforms(seed, domain, indices, count, high):
    """The first `count` uniform doubles on [0, high) of many keyed streams.

    Row i equals keyed_stream(seed, domain, indices[i]).uniform(0.0, high,
    count) bit for bit; the streams' Philox blocks are computed together, and
    each round multiplies counter words 0 and 2 in one stacked call.
    """
    indices = np.asarray(indices)
    if indices.size:
        _check_index(indices.min())
        _check_index(indices.max())
    key0, key1 = _stream_key(seed, domain, 0)
    keys = np.empty((2, len(indices), 1), dtype=np.uint64)
    keys[0] = key0
    keys[1] = np.uint64(key1) | indices.astype(np.uint64)[:, None]
    nblocks = -(-count // 4)
    # counter words (0, 2) and (1, 3); word 0 is the block number + 1, the
    # others start at zero
    even = np.zeros((2, len(indices), nblocks), dtype=np.uint64)
    even[0] = np.arange(1, nblocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for rnd in range(_ROUNDS):
        if rnd:
            keys += _W
        hi, lo = _mulhilo(_M, even)
        even, odd = hi[::-1] ^ odd ^ keys, lo[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(len(indices), 4 * nblocks)[:, :count]
    return 0.0 + high * ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53)
