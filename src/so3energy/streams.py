"""Counter-based random streams for reproducible parallel sampling.

Each logical consumer (a resampled Monte Carlo trial, a point-set draw) gets
its own Philox stream keyed by (master seed, domain | index). Streams are
therefore pure functions of those integers: any worker can recreate any
stream without coordination, and results cannot depend on scheduling or
worker count. Fiber phases are the draws of one stream per seed, and
fiber_phases seeks to any of them: numpy's Philox counter steps once per
block of four 64-bit words, so a draw's position fixes its block and its
word in that block.
"""

from __future__ import annotations

import math

import numpy as np

# domain tags keep index spaces from colliding (fiber 3 vs trial 3, etc.)
DOMAIN_FIBER = 1
DOMAIN_POINTS = 2
DOMAIN_TRIAL = 3

_MASK64 = (1 << 64) - 1
_INDEX_BITS = 56


def keyed_stream(seed, domain, index=0):
    """An independent numpy Generator keyed by (seed, domain, index)."""
    if index < 0 or index >= (1 << _INDEX_BITS):
        raise ValueError(f"stream index out of range: {index}")
    key = seed & _MASK64
    # a seed outside [0, 2^64) would alias the one inside it under the mask
    if key != seed:
        raise ValueError(f"seed out of range [0, 2**64): {seed}")
    key = np.array([key, ((domain << _INDEX_BITS) | index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fiber_phases(seed, start, count):
    """Draws start..start+count-1 of keyed_stream(seed, DOMAIN_FIBER) as
    uniforms on [0, 2 pi), bit for bit the slice [start:] of a fresh stream's
    uniform(0, 2 pi, start + count), without drawing the ones before it."""
    rng = keyed_stream(seed, DOMAIN_FIBER)
    rng.bit_generator.advance(start // 4)
    rng.bit_generator.random_raw(start % 4)
    return rng.uniform(0.0, 2.0 * math.pi, count)
