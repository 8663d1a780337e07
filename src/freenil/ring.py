"""Exact group arithmetic through a truncated noncommutative power-series model.

The free nilpotent group of rank n and class c embeds into the unit group of
Z<X_1,..,X_n> / (degree > c) by x_i -> 1 + X_i.  The embedding is faithful and
sends the k-th lower central term exactly to the units of the form
1 + (terms of degree >= k), so weight questions become degree questions.
Everything here is integer-exact; coefficients are arbitrary-precision.

Representation.  A monomial is a tuple of generator indices (1-based), the
empty tuple being the constant monomial.  A polynomial is a dict mapping
monomials to nonzero ints; zero coefficients are never stored.  Polynomial
dicts are never mutated once an element owns them.

GroupElement has no public raw-polynomial constructor: build elements with
identity(), generator(), from_word(), or the group operations, so every
element is the image of an actual group word.  Elements optionally remember a
defining word; the polynomial is the element's identity, the word is
provenance that serializers prefer when present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .context import GroupContext, check_same_context
from .errors import BadClass, IndexOutOfRange

Monomial = tuple[int, ...]
Poly = dict  # Monomial -> int, zero coefficients absent


# ---------------------------------------------------------------------------
# words

@dataclass(frozen=True)
class Word:
    """Free group word as a tuple of (generator, exponent) pairs.

    Construction freely reduces: adjacent pairs on the same generator merge,
    zero exponents vanish.  Exponents are arbitrary integers, so x^1000 is a
    single pair.
    """

    letters: tuple[tuple[int, int], ...]

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        stack: list[tuple[int, int]] = []
        for gen, exp in letters:
            gen = int(gen)
            exp = int(exp)
            if gen < 1:
                raise IndexOutOfRange(f"generator index {gen} is not >= 1")
            if exp == 0:
                continue
            if stack and stack[-1][0] == gen:
                merged = stack[-1][1] + exp
                stack.pop()
                if merged:
                    stack.append((gen, merged))
            else:
                stack.append((gen, exp))
        object.__setattr__(self, "letters", tuple(stack))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def inverse(self) -> "Word":
        return Word((g, -e) for g, e in reversed(self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        if k == 0 or not self.letters:
            return Word()
        base = self.letters if k > 0 else self.inverse().letters
        if len(base) == 1:
            g, e = base[0]
            return Word(((g, e * abs(k)),))
        return Word(base * abs(k))

    def max_index(self) -> int:
        return max((g for g, _ in self.letters), default=0)

    def __repr__(self) -> str:
        if not self.letters:
            return "Word()"
        bits = [f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in self.letters]
        return "Word(" + "*".join(bits) + ")"


# ---------------------------------------------------------------------------
# polynomial plumbing

def _poly_add_into(acc: Poly, other: Poly, scale: int = 1) -> None:
    """acc += scale * other in place, dropping coefficients that reach zero."""
    get = acc.get
    for m, c in other.items():
        v = get(m, 0) + scale * c
        if v:
            acc[m] = v
        elif m in acc:
            del acc[m]


def _poly_mul(a: Poly, b: Poly, cap: int) -> Poly:
    if len(a) == 1 and () in a:
        s = a[()]
        return dict(b) if s == 1 else {m: s * c for m, c in b.items()}
    if len(b) == 1 and () in b:
        s = b[()]
        return dict(a) if s == 1 else {m: s * c for m, c in a.items()}
    by_len: dict[int, list] = {}
    for m, c in b.items():
        by_len.setdefault(len(m), []).append((m, c))
    blens = sorted(by_len)
    out: Poly = {}
    get = out.get
    for m1, c1 in a.items():
        room = cap - len(m1)
        for length in blens:
            if length > room:
                break
            for m2, c2 in by_len[length]:
                key = m1 + m2
                v = get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


def _genpow_poly(g: int, e: int, cap: int) -> Poly:
    """(1 + X_g)^e truncated above degree cap; exact for any integer e."""
    # C(e, k+1) = C(e, k) * (e - k) / (k + 1), exact in integers; once a
    # coefficient is zero (k > e >= 0) every later one is too
    out: Poly = {}
    c = 1
    for k in range(cap + 1):
        if not c:
            break
        out[(g,) * k] = c
        c = c * (e - k) // (k + 1)
    return out


# ---------------------------------------------------------------------------
# elements

class GroupElement:
    """A unit 1 + (positive-degree terms); always the image of some group word."""

    __slots__ = ("ctx", "poly", "word")

    def __init__(self, ctx: GroupContext, poly: Poly, word: Optional[Word] = None):
        # internal: callers outside this package should use the factories below
        if poly.get((), 0) != 1:
            # a library bug, not bad input: not a DomainError
            raise RuntimeError("group elements have constant term 1")
        self.ctx = ctx
        self.poly = poly
        self.word = word

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.ctx == other.ctx and self.poly == other.poly

    __hash__ = None  # polynomial dicts are not hashable

    def is_identity(self) -> bool:
        return len(self.poly) == 1

    def degree_part(self, k: int) -> Poly:
        return {m: c for m, c in self.poly.items() if len(m) == k}

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return mul(self, other)

    def __pow__(self, k: int) -> "GroupElement":
        return power(self, k)

    def inverse(self) -> "GroupElement":
        return inv(self)

    def __repr__(self) -> str:
        terms = []
        for m in sorted(self.poly, key=lambda m: (len(m), m)):
            c = self.poly[m]
            name = "1" if not m else "*".join(f"X{g}" for g in m)
            terms.append(name if c == 1 and m else f"{c}*{name}" if m else str(c))
            if len(terms) == 8 and len(self.poly) > 8:
                terms.append(f"... ({len(self.poly)} terms)")
                break
        return f"<{' + '.join(terms)} | n={self.ctx.rank} c={self.ctx.nilclass}>"


def identity(ctx: GroupContext) -> GroupElement:
    return GroupElement(ctx, {(): 1}, Word())


def generator(ctx: GroupContext, i: int) -> GroupElement:
    ctx.check_generators((i,))
    return GroupElement(ctx, {(): 1, (i,): 1}, Word(((i, 1),)))


def _word_poly(ctx: GroupContext, pairs: tuple[tuple[int, int], ...], lo: int, hi: int) -> Poly:
    # balanced product keeps most multiplications between short subproducts
    if hi == lo:
        return {(): 1}
    if hi - lo == 1:
        g, e = pairs[lo]
        return _genpow_poly(g, e, ctx.nilclass)
    mid = (lo + hi) // 2
    return _poly_mul(
        _word_poly(ctx, pairs, lo, mid),
        _word_poly(ctx, pairs, mid, hi),
        ctx.nilclass,
    )


def from_word(ctx: GroupContext, word: Word) -> GroupElement:
    if word.max_index() > ctx.rank:
        raise IndexOutOfRange(
            f"word uses generator {word.max_index()} but rank is {ctx.rank}"
        )
    return GroupElement(ctx, _word_poly(ctx, word.letters, 0, len(word.letters)), word)


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    check_same_context(a.ctx, b.ctx)
    word = a.word * b.word if a.word is not None and b.word is not None else None
    return GroupElement(a.ctx, _poly_mul(a.poly, b.poly, a.ctx.nilclass), word)


def inv(a: GroupElement) -> GroupElement:
    # geometric series: (1+u)^-1 = 1 - u + u^2 - ... stops because u^k has degree >= k
    cap = a.ctx.nilclass
    neg_u = {m: -c for m, c in a.poly.items() if m}
    acc: Poly = {(): 1}
    pw: Poly = {(): 1}
    for _ in range(cap):
        pw = _poly_mul(pw, neg_u, cap)
        if not pw:
            break
        _poly_add_into(acc, pw)
    word = a.word.inverse() if a.word is not None else None
    return GroupElement(a.ctx, acc, word)


def power(a: GroupElement, k: int) -> GroupElement:
    if k == 0:
        return identity(a.ctx)
    base = a if k > 0 else inv(a)
    e = abs(k)
    cap = a.ctx.nilclass
    result: Poly = {(): 1}
    sq = base.poly
    while e:
        if e & 1:
            result = _poly_mul(result, sq, cap)
        e >>= 1
        if e:
            sq = _poly_mul(sq, sq, cap)
    word = a.word ** k if a.word is not None else None
    return GroupElement(a.ctx, result, word)


def comm(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group commutator a^-1 b^-1 a b."""
    return mul(mul(inv(a), inv(b)), mul(a, b))


def lcs_weight(a: GroupElement):
    """Lower-central-series weight: least degree of a nonconstant term, inf for 1."""
    return min((len(m) for m in a.poly if m), default=math.inf)


def truncate_class(a: GroupElement, new_class: int) -> GroupElement:
    if not 1 <= new_class < a.ctx.nilclass:
        raise BadClass(
            f"target class {new_class} must satisfy 1 <= it < {a.ctx.nilclass}"
        )
    ctx = GroupContext(a.ctx.rank, new_class)
    poly = {m: c for m, c in a.poly.items() if len(m) <= new_class}
    return GroupElement(ctx, poly, a.word)


def retract(a: GroupElement, keep: Iterable[int]) -> GroupElement:
    """Image under the retraction killing every generator outside `keep`."""
    keep = frozenset(keep)
    a.ctx.check_generators(keep)
    drop = frozenset(range(1, a.ctx.rank + 1)) - keep
    poly = {m: c for m, c in a.poly.items() if drop.isdisjoint(m)}
    word = Word((g, e) for g, e in a.word.letters if g in keep) if a.word is not None else None
    return GroupElement(a.ctx, poly, word)


def occurs(a: GroupElement) -> frozenset[int]:
    """Generators appearing in the normal form: a is in <C> iff occurs(a) <= C."""
    seen = set()
    for m in a.poly:
        seen.update(m)
    return frozenset(seen)
