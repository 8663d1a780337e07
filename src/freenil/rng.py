"""Deterministic pseudo-random stream used for seeded generation.

splitmix64, fixed here so that seeded outputs are reproducible bit for bit
across platforms and Python versions.  State update and output mix:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR z>>30) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z XOR z>>27) * 0x94D049BB133111EB   mod 2^64
    output: z XOR z>>31

Derived draws (documented because callers promise reproducibility):
`below(m)` is one raw draw reduced modulo m, `shuffle` is a Fisher-Yates
pass drawing `below(i + 1)` for i from len-1 down to 1.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        if m <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % m

    def sign(self) -> int:
        return 1 if self.below(2) == 0 else -1

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
