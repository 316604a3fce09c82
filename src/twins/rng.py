"""Deterministic 64-bit PRNG used by every randomized suite.

All randomness in this package flows through :class:`Rng` (a splitmix64
stream) so that every experiment is bit-reproducible from an explicit
seed, independent of platform and of Python's own ``random`` module.
Uniform ranges are produced by rejection sampling, so there is no
modulo bias. ``Rng.randints`` draws many values of one range in a single
loop; it yields exactly the values, and leaves exactly the state, of the
same number of ``Rng.randint`` calls.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 output finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Per-case seed fan-out: mix the case index into the master seed.

    Each derived seed depends only on (master, index), so appending new
    cases to a suite never shifts the seeds of existing ones.
    """
    return mix64((master & MASK64) ^ mix64(index + 1))


class Rng:
    """splitmix64 generator with bias-free uniform helpers."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        span = MASK64 + 1
        limit = span - (span % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def randints(self, lo: int, hi: int, count: int) -> list[int]:
        """`count` uniform integers in [lo, hi], equal to `count` calls of `randint`.

        One local splitmix64 loop with the rejection limit computed once;
        the state is written back at the end.
        """
        if hi < lo:
            raise ValueError("empty range")
        if count < 0:
            raise ValueError("count must be non-negative")
        bound = hi - lo + 1
        span = MASK64 + 1
        limit = span - (span % bound)
        state = self._state
        out = []
        append = out.append
        for _ in range(count):
            while True:
                state = (state + _GOLDEN) & MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & MASK64
                z ^= z >> 31
                if z < limit:
                    break
            append(lo + z % bound)
        self._state = state
        return out

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of [1..n]."""
        vals = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            vals[i], vals[j] = vals[j], vals[i]
        return vals
