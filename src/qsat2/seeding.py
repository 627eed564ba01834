"""Deterministic seeds and the bulk draw kernel behind every sampler.

Every trial gets its own 64-bit seed computed from (master, grid index,
trial index) by an avalanche mixer, so results never depend on how work is
scheduled.  The same mixer separates the graph and constraint streams
inside a single generation call.

`randbelow` and `uniform01` return, as numpy arrays, exactly the values that
successive `rng.randrange(bound)` and `rng.random()` calls would.  Both read
the generator's 32-bit Mersenne Twister words in bulk through one
`getrandbits` call per refill and redo CPython's per-draw arithmetic on them:
`randrange(bound)` keeps the top `bound.bit_length()` bits of one word when
they fall below `bound`, and `random()` joins the top 27 and 26 bits of two
words into a 53-bit fraction.  The kernel may read more words than the draws
it returns use, so a caller owns its generator and makes no further draws
of another kind after the kernel.
"""

from __future__ import annotations

import random
from math import isqrt
from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream tags for the independent RNG streams of one generation call.
GRAPH_STREAM = 0x67726170  # "grap"
FACTOR_STREAM = 0x66616374  # "fact"


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche on 64-bit words."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def derive_trial_seed(master: int, grid_index: int, trial_index: int) -> int:
    """Mix the packed triple into a fresh 64-bit seed, one mixer pass per field."""
    z = mix64((master ^ _GOLDEN) & MASK64)
    z = mix64((z + grid_index) & MASK64)
    z = mix64((z + trial_index) & MASK64)
    return z


def stream_seed(seed: int, tag: int) -> int:
    """Sub-seed for one named stream of a generation call."""
    return mix64((seed ^ tag) & MASK64)


def _words(rng: random.Random, count: int) -> np.ndarray:
    # getrandbits fills its result one 32-bit word at a time, least
    # significant first, so the little-endian words come out in draw order
    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4")


def randbelow_batches(rng: random.Random, bound: int, count: int) -> Iterator[np.ndarray]:
    """Endless int64 batches of successive `rng.randrange(bound)` values.

    Each batch very likely holds at least `count` values.  Joined end to end
    the batches are exactly the values successive calls would return: a
    batch keeps every value its words give, so only the words of batches
    never asked for go unused.  A bound of 2**32 or more takes more than one
    word per draw; those batches hold `count` values from `randrange` itself,
    as Python ints in an object array.
    """
    if bound < 1:
        raise ValueError("randbelow needs a positive bound")
    count = max(count, 1)
    k = bound.bit_length()
    if k > 32:
        while True:
            yield np.array([rng.randrange(bound) for _ in range(count)], dtype=object)
    # a word gives a value with probability bound / 2**k > 1/2; the slack
    # covers three standard deviations of the kept count
    nwords = (count << k) // bound + 3 * isqrt(count) + 8
    while True:
        vals = _words(rng, nwords) >> (32 - k)
        yield vals[vals < bound].astype(np.int64)


def randbelow(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """The next `count` values of `rng.randrange(bound)`, as an int64 array.

    A bound of 2**32 or more gives Python ints in an object array.
    """
    batches = randbelow_batches(rng, bound, count)
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        out = np.concatenate((out, next(batches)))
    return out[:count]


def uniform01(rng: random.Random, count: int) -> np.ndarray:
    """The next `count` values of `rng.random()`, as a float64 array."""
    if count == 0:
        return np.empty(0, dtype=np.float64)
    words = _words(rng, 2 * count)
    a = (words[0::2] >> 5).astype(np.float64)
    b = (words[1::2] >> 6).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
