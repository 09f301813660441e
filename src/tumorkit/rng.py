"""Deterministic random number generation.

The generator is xoshiro256** seeded through splitmix64, implemented in
plain integer arithmetic so that a given seed produces the same stream on
every platform and in every implementation of the same recipe.  All
randomized behaviour in this package (augmentation sampling, dropout
masks, weight initialization, dataset shuffles) draws from this stream,
which is what makes golden outputs and seeded runs reproducible.

Draw conventions, fixed for portability:

* ``random()`` maps one 64-bit output to a float via ``(u >> 11) * 2**-53``,
  giving a uniform double in ``[0, 1)``.
* ``normal()`` is one Box-Muller cosine branch and always consumes exactly
  two uniform draws.
* ``below(n)`` draws 64-bit words, masks them to the smallest covering
  power of two, and rejects until the value is below ``n`` (unbiased).
* ``shuffle`` is a Fisher-Yates pass from the last index down to 1.

Sub-streams are derived with :func:`mix_seed`, which folds tag integers
into the seed through splitmix64 so that independent parts of a run
(initialization, shuffling, dropout, per-image augmentation) never share
a stream.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream tags for mix_seed, so each consumer of a run seed gets its own
# independent stream.
STREAM_SPLIT = 1
STREAM_INIT = 2
STREAM_SHUFFLE = 3
STREAM_AUGMENT = 4
STREAM_DROPOUT = 5


def splitmix64(x: int) -> int:
    """One splitmix64 step: mix ``x`` into a well-distributed 64-bit value."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, *tags: int) -> int:
    """Derive a sub-stream seed by folding ``tags`` into ``seed``."""
    s = seed & _MASK64
    for t in tags:
        s = splitmix64(s ^ (t & _MASK64))
    return s


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** stream seeded from a 64-bit integer via splitmix64."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            state.append(splitmix64(s))
            s = (s + _GOLDEN) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = state
        if not any(state):  # all-zero state would be a fixed point
            self._s0 = _GOLDEN

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two draws."""
        u1 = 1.0 - self.random()  # (0, 1], keeps log finite
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def randoms(self, count: int) -> np.ndarray:
        """``count`` uniform doubles in [0, 1) as a float64 array."""
        return np.array([self.random() for _ in range(count)], dtype=np.float64)

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normals as a float64 array."""
        return np.array([self.normal() for _ in range(count)], dtype=np.float64)
