"""Shared group context: rank and nilpotency class."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContextMismatch, IndexOutOfRange, MalformedInput


@dataclass(frozen=True)
class GroupContext:
    """Free nilpotent group on `rank` generators, nilpotency class `nilclass`.

    All elements and maps carry one of these; operations on operands from
    different contexts refuse to mix them.
    """

    rank: int
    nilclass: int

    def __post_init__(self):
        if self.rank < 1 or self.nilclass < 1:
            raise MalformedInput("rank and class must be at least 1")

    def generators(self) -> range:
        return range(1, self.rank + 1)

    def check_generators(self, indices: Iterable[int]) -> None:
        """Raise IndexOutOfRange at the first index, in iteration order,
        outside 1..rank."""
        for i in indices:
            if not 1 <= i <= self.rank:
                raise IndexOutOfRange(f"generator {i} out of range 1..{self.rank}")


def check_same_context(a: GroupContext, b: GroupContext) -> None:
    if a != b:
        raise ContextMismatch(
            f"contexts differ: rank {a.rank} class {a.nilclass} "
            f"vs rank {b.rank} class {b.nilclass}"
        )
