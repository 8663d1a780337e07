"""Shared group context: rank and nilpotency class.

Also the base of the package's immutable records.  Each record is a plain
class whose `__slots__` name its fields in constructor order; `dataclasses`
is not used, because importing it (with `inspect`, `ast` and `dis`) and
generating the classes cost every command-line process more start-up time
than most commands spend working.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .errors import BadClass, ContextMismatch, IndexOutOfRange, MalformedInput

# the largest nilpotency class a context accepts: at class c the inverse of
# one letter already carries c + 1 polynomial terms, so a huge class would
# exhaust memory before any other check could refuse it
MAX_CLASS = 64


def _as_int(x, what: str) -> int:
    # an integer by `operator.index`: int subclasses read, floats and
    # strings are refused, never rounded or parsed
    try:
        return operator.index(x)
    except TypeError:
        raise MalformedInput(f"{what} must be an integer") from None


class Record:
    """Immutable value with fields `__slots__`, in constructor order.

    Equal only to a record of the same class with equal fields, hashed by
    the field tuple (so a record holding a dict is unhashable), printed as
    `Name(field=value, ...)`.  Assignment and deletion raise AttributeError;
    subclasses set their fields in `__init__` with `object.__setattr__`.
    Copies and pickles are rebuilt through the constructor, which must
    therefore take the field values positionally and give back an equal
    record.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class GroupContext(Record):
    """Free nilpotent group on `rank` generators, nilpotency class `nilclass`.

    All elements and maps carry one of these; operations on operands from
    different contexts refuse to mix them.  The class is at most MAX_CLASS
    (BadClass).
    """

    __slots__ = ("rank", "nilclass")
    rank: int
    nilclass: int

    def __init__(self, rank: int, nilclass: int):
        if rank < 1 or nilclass < 1:
            raise MalformedInput("rank and class must be at least 1")
        if nilclass > MAX_CLASS:
            raise BadClass(
                f"class {nilclass} exceeds {MAX_CLASS}, the largest class supported"
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "nilclass", nilclass)

    # compared on every mixed-operand check, so spelled out
    def __eq__(self, other):
        if other.__class__ is GroupContext:
            return self.rank == other.rank and self.nilclass == other.nilclass
        return NotImplemented

    __hash__ = Record.__hash__  # a class defining __eq__ loses the inherited one

    def generators(self) -> range:
        return range(1, self.rank + 1)

    def generator_set(self) -> frozenset[int]:
        """frozenset(generators()), built once per rank and shared."""
        return _generator_set(self.rank)

    def check_generators(self, indices: Iterable[int]) -> None:
        """Raise at the first index, in iteration order, that is not an
        integer (MalformedInput, by `ring.Word`'s rule) or lies outside
        1..rank (IndexOutOfRange)."""
        for i in indices:
            if type(i) is not int:
                i = _as_int(i, "generator index")
            if not 1 <= i <= self.rank:
                raise IndexOutOfRange(f"generator {i} out of range 1..{self.rank}")


@lru_cache(maxsize=64)
def _generator_set(rank: int) -> frozenset[int]:
    return frozenset(range(1, rank + 1))


def check_same_context(a: GroupContext, b: GroupContext) -> None:
    if a is not b and a != b:
        raise ContextMismatch(
            f"contexts differ: rank {a.rank} class {a.nilclass} "
            f"vs rank {b.rank} class {b.nilclass}"
        )
