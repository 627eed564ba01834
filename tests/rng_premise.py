"""Check, with the standard library only, the CPython behaviour `qsat2.seeding` rests on.

`seeding` reads a `random.Random`'s 32-bit Mersenne Twister words in bulk
through one `getrandbits` call and redoes the arithmetic of `randrange` and
`random()` on them.  The samplers' output stays byte-identical across Python
versions only while that arithmetic holds, so this script rebuilds both from
single words and compares them with the interpreter's own calls:

- `getrandbits(32 * c)` is c successive words, least significant first;
- `randrange(bound)`, for a bound below 2**32, is the top
  `bound.bit_length()` bits of the next word, words whose value is not
  below `bound` being skipped;
- `random()` is `(a >> 5) * 2**26 + (b >> 6)` over 2**53, for the next two
  words a and b.

It imports no numpy, so it runs on an interpreter without the package's
dependencies:

    python tests/rng_premise.py

It prints one summary line and exits 1 if any value differs.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator

# 1, small bounds, powers of two and their successors, and the largest
# bound one word serves; `tests/test_seeding.py` runs the kernel on these
KERNEL_BOUNDS = [1, 2, 3, 2**5, 2**5 + 1, 2**16, 2**16 + 1, 2**31 + 1, 2**32 - 1]
SEEDS = [0, 1, 12345, 2**64 - 1]
COUNT = 2000
WORD_COUNTS = [1, 2, 7, 624, 625, 2000]


def _words(seed: int) -> Iterator[int]:
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def randrange_from_words(words: Iterator[int], bound: int, count: int) -> list[int]:
    shift = 32 - bound.bit_length()
    out: list[int] = []
    while len(out) < count:
        r = next(words) >> shift
        if r < bound:
            out.append(r)
    return out


def random_from_words(words: Iterator[int], count: int) -> list[float]:
    return [((next(words) >> 5) * 2**26 + (next(words) >> 6)) / 2**53 for _ in range(count)]


def mismatches() -> Iterator[str]:
    """One line per rule and seed for which the interpreter disagrees."""
    for seed in SEEDS:
        for c in WORD_COUNTS:
            words = _words(seed)
            joined = sum(next(words) << (32 * i) for i in range(c))
            if random.Random(seed).getrandbits(32 * c) != joined:
                yield f"seed {seed}: getrandbits({32 * c}) is not {c} successive words"
        for bound in KERNEL_BOUNDS:
            rng = random.Random(seed)
            want = [rng.randrange(bound) for _ in range(COUNT)]
            if randrange_from_words(_words(seed), bound, COUNT) != want:
                yield f"seed {seed}: randrange({bound}) is not the top bits of one word"
        rng = random.Random(seed)
        want_floats = [rng.random() for _ in range(COUNT)]
        if random_from_words(_words(seed), COUNT) != want_floats:
            yield f"seed {seed}: random() is not built from two words"


def main() -> int:
    bad = list(mismatches())
    for line in bad:
        print(line, file=sys.stderr)
    version = sys.version.split()[0]
    print(
        f"rng premise {'FAILS' if bad else 'holds'} on Python {version}: "
        f"{len(SEEDS)} seeds, {len(KERNEL_BOUNDS)} bounds, {COUNT} draws each"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
