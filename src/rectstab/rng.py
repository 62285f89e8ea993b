"""Fixed, portable pseudorandom generator for reproducible fixtures.

xoshiro256** seeded through SplitMix64, exactly as published by Blackman
and Vigna. The algorithm is pinned (rather than delegating to a platform
RNG) so that seeds quoted in tests and docs regenerate byte-identical
fixtures in any reimplementation.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def _splitmix64_stream(seed: int):
    s = seed & _MASK
    while True:
        s = (s + 0x9E3779B97F4A7C15) & _MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield (z ^ (z >> 31)) & _MASK


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 seed expansion."""

    def __init__(self, seed: int):
        stream = _splitmix64_stream(seed)
        self._s = [next(stream) for _ in range(4)]

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def randrange(self, n: int) -> int:
        """Unbiased uniform draw from [0, n) by rejection; n is at most
        2**64, the number of distinct 64-bit words."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        if n > 1 << 64:
            raise ValueError(f"randrange bound {n} exceeds 2**64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in the closed range [a, b]."""
        if a > b:
            raise ValueError(f"empty range [{a}, {b}]")
        return a + self.randrange(b - a + 1)

    def chance(self, num: int, den: int) -> bool:
        """True with exact probability num/den."""
        if den <= 0 or num < 0 or num > den:
            raise ValueError("probability must be a rational in [0, 1]")
        return self.randrange(den) < num

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def sample_distinct(self, a: int, b: int, count: int) -> list[int]:
        """count distinct integers from [a, b], in draw order."""
        if count > b - a + 1:
            raise ValueError("range too small for distinct sample")
        out: list[int] = []
        used: set[int] = set()
        while len(out) < count:
            v = self.randint(a, b)
            if v not in used:
                used.add(v)
                out.append(v)
        return out
