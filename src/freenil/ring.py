"""Exact group arithmetic through a truncated noncommutative power-series model.

The free nilpotent group of rank n and class c embeds into the unit group of
Z<X_1,..,X_n> / (degree > c) by x_i -> 1 + X_i.  The embedding is faithful and
sends the k-th lower central term exactly to the units of the form
1 + (terms of degree >= k), so weight questions become degree questions.
Everything here is integer-exact; coefficients are arbitrary-precision.

Representation.  A monomial is a tuple of generator indices (1-based), the
empty tuple being the constant monomial.  A polynomial is a dict mapping
monomials to nonzero ints; zero coefficients are never stored.  Polynomial
dicts are never mutated once an element owns them.  That rule is
load-bearing: the polynomial and word of each one-letter element x_g^e are
built once, cached, and shared by every element `letter` makes (generators
and one-letter images on the wire are such elements).

GroupElement has no public raw-polynomial constructor: build elements with
identity(), generator(), from_word(), from_collected(), or the group
operations, so every element is the image of an actual group word.  Elements
optionally remember a defining word; the polynomial is the element's
identity, the word is provenance that serializers prefer when present.  An
element built from collected coordinates remembers those instead (`coords`):
they are its canonical form, so writing them back gives the bytes it was
read from.

Collected coordinates.  Every element is uniquely a product
x_1^a_1 .. x_n^a_n  b_1^e_1 .. b_m^e_m  of generator powers and then bracket
powers over the Lyndon basis, ordered by (length, word).  A coordinate tuple
lists (g, a) for each nonzero a, then (w, e) for each bracket: w is a
Lyndon word (a tuple) and its power is the standard bracketing of w with the
exponent on the last letter, [u, v]^e read as [u, v^e] down the right spine.
`from_collected` rebuilds the polynomial from nested commutators of
polynomials.  A bracket of length c, the class, is central, so its power is
1 + e * (the bracket expansion of w): it is added in that closed form, with
no commutator formed.  `lie.collect_word` computes the coordinates of an
element.

Bracket powers.  A collected coordinate's bracket power and a left-normed
term are each a power tree, nested pairs with (g, e) letters as leaves, and
take one route: `_power_poly` builds the polynomial, `_power_letters` spells
the word `lie` writes, and `_expansion` holds the expansions central powers
are added from.  Both caches are bounded, and no function takes a cache.

Left-normed commutators of generators also live here: `offset_image`
builds the image x_g * prod [x_b1, x_b2^e, .., x_bk] of an IA map for the
engine and the wire reader alike, as a polynomial with no word: the terms
are its spelling, and no caller reads a word of it.  That and the
Lyndon words that collected coordinates name are all the wire reader needs
of commutators, so reading a decomposition never touches the Lyndon
elimination in `lie`, which builds on these expansions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .context import GroupContext, Record, _as_int, check_same_context
from .errors import BadClass, IndexOutOfRange

Monomial = tuple[int, ...]
Poly = dict  # Monomial -> int, zero coefficients absent
# ((g, e), .., (lyndon word, e), ..): see "Collected coordinates" above
Collected = tuple
# nested pairs with int leaves: 3 is x_3, (1, (2, 3)) is [x_1, [x_2, x_3]]
BracketTree = Union[int, tuple]
# nested pairs with (g, e) letter leaves: ((1, 1), (2, -3)) is [x_1, x_2^-3]
PowerTree = tuple


# ---------------------------------------------------------------------------
# words

class Word(Record):
    """Free group word as a tuple of (generator, exponent) pairs.

    Construction freely reduces: adjacent pairs on the same generator merge,
    zero exponents vanish.  Exponents are arbitrary integers, so x^1000 is a
    single pair.  Indices and exponents must be integers (`operator.index`);
    a float or a string is refused, never rounded or parsed.
    """

    __slots__ = ("letters",)
    letters: tuple[tuple[int, int], ...]

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        stack: list[tuple[int, int]] = []
        for gen, exp in letters:
            if type(gen) is not int:
                gen = _as_int(gen, "generator index")
            if type(exp) is not int:
                exp = _as_int(exp, "exponent")
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


def _poly_inv(p: Poly, cap: int) -> Poly:
    """Inverse of the unit p truncated above degree cap, by the geometric
    series (1+u)^-1 = 1 - u + u^2 - ..., which stops as u^k has degree >= k."""
    neg_u = {m: -c for m, c in p.items() if m}
    acc: Poly = {(): 1}
    pw: Poly = {(): 1}
    for _ in range(cap):
        pw = _poly_mul(pw, neg_u, cap)
        if not pw:
            break
        _poly_add_into(acc, pw)
    return acc


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


# entries of each one-letter cache: every letter of rank <= 64 at class <= 6
# with exponent +-1 or +-2
_LETTER_CACHE = 4096


@lru_cache(maxsize=_LETTER_CACHE)
def _genpow_poly(g: int, e: int, cap: int) -> Poly:
    """(1 + X_g)^e truncated above degree cap; exact for any integer e.
    Cached, so every caller shares the dict and must not mutate it."""
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
    """A unit 1 + (positive-degree terms); always the image of some group word.

    `word` is the defining word when known; `coords`, the collected
    coordinates an element was built from, when it has no word."""

    __slots__ = ("ctx", "poly", "word", "coords")

    def __init__(
        self,
        ctx: GroupContext,
        poly: Poly,
        word: Optional[Word] = None,
        coords: Optional[Collected] = None,
    ):
        # internal: callers outside this package should use the factories below
        if poly.get((), 0) != 1:
            # a library bug, not bad input: not a DomainError
            raise RuntimeError("group elements have constant term 1")
        self.ctx = ctx
        self.poly = poly
        self.word = word
        self.coords = coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.ctx == other.ctx and self.poly == other.poly

    __hash__ = None  # polynomial dicts are not hashable

    def __reduce__(self):
        # slotted without __getstate__: copies and pickles of every protocol
        # go through the constructor, as for context.Record
        return self.__class__, (self.ctx, self.poly, self.word, self.coords)

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


@lru_cache(maxsize=_LETTER_CACHE)
def _letter_word(g: int, e: int) -> Word:
    return Word(((g, e),))


def letter(ctx: GroupContext, g: int, e: int) -> GroupElement:
    """x_g^e, with the cached polynomial and word every such element shares;
    the caller has checked 1 <= g <= rank and e != 0."""
    return GroupElement(ctx, _genpow_poly(g, e, ctx.nilclass), _letter_word(g, e))


def generator(ctx: GroupContext, i: int) -> GroupElement:
    ctx.check_generators((i,))
    return letter(ctx, i, 1)


def _word_poly(cap: int, pairs: Sequence[tuple[int, int]], lo: int, hi: int) -> Poly:
    # balanced product keeps most multiplications between short subproducts
    if hi == lo:
        return {(): 1}
    if hi - lo == 1:
        g, e = pairs[lo]
        return _genpow_poly(g, e, cap)
    mid = (lo + hi) // 2
    return _poly_mul(
        _word_poly(cap, pairs, lo, mid), _word_poly(cap, pairs, mid, hi), cap
    )


def from_word(ctx: GroupContext, word: Word) -> GroupElement:
    if word.max_index() > ctx.rank:
        raise IndexOutOfRange(
            f"word uses generator {word.max_index()} but rank is {ctx.rank}"
        )
    letters = word.letters
    return GroupElement(ctx, _word_poly(ctx.nilclass, letters, 0, len(letters)), word)


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    check_same_context(a.ctx, b.ctx)
    word = a.word * b.word if a.word is not None and b.word is not None else None
    return GroupElement(a.ctx, _poly_mul(a.poly, b.poly, a.ctx.nilclass), word)


def inv(a: GroupElement) -> GroupElement:
    word = a.word.inverse() if a.word is not None else None
    return GroupElement(a.ctx, _poly_inv(a.poly, a.ctx.nilclass), word)


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


def _comm_poly(a: Poly, b: Poly, cap: int) -> Poly:
    """The commutator a^-1 b^-1 a b of two units as 1 + (ba)^-1 (ab - ba):
    ab - ba starts at degree d, so (ba)^-1 is needed to degree cap - d."""
    d = _poly_mul(a, b, cap)
    ba = _poly_mul(b, a, cap)
    _poly_add_into(d, ba, -1)
    out: Poly = {(): 1}
    if d:
        room = cap - min(map(len, d))
        if room:
            low = {m: c for m, c in ba.items() if len(m) <= room}
            d = _poly_mul(_poly_inv(low, room), d, cap)
        _poly_add_into(out, d)
    return out


def comm(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group commutator a^-1 b^-1 a b (`_comm_poly`), spelled by that word,
    freely reduced, when both operands have words."""
    check_same_context(a.ctx, b.ctx)
    word = None
    if a.word is not None and b.word is not None:
        word = a.word.inverse() * b.word.inverse() * a.word * b.word
    return GroupElement(a.ctx, _comm_poly(a.poly, b.poly, a.ctx.nilclass), word)


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
    drop = a.ctx.generator_set() - keep
    poly = {m: c for m, c in a.poly.items() if drop.isdisjoint(m)}
    word = Word((g, e) for g, e in a.word.letters if g in keep) if a.word is not None else None
    return GroupElement(a.ctx, poly, word)


def occurs(a: GroupElement) -> frozenset[int]:
    """Generators appearing in the normal form: a is in <C> iff occurs(a) <= C."""
    seen = set()
    for m in a.poly:
        seen.update(m)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Lyndon words and collected coordinates

def is_lyndon(word: tuple[int, ...]) -> bool:
    """True when word is nonempty and smaller than each proper rotation."""
    return bool(word) and all(word < word[i:] + word[:i] for i in range(1, len(word)))


def standard_bracketing(word: tuple[int, ...]) -> BracketTree:
    """Standard (right-to-longest-Lyndon-suffix) bracketing of a Lyndon word."""
    if len(word) == 1:
        return word[0]
    split = 1
    for i in range(2, len(word)):
        if word[i:] < word[split:]:
            split = i
    return (standard_bracketing(word[:split]), standard_bracketing(word[split:]))


def from_collected(ctx: GroupContext, coords: Collected) -> GroupElement:
    """The element whose collected coordinates are `coords`, which it keeps.

    The caller has checked them canonical and in range.  Each bracket power
    is its power tree's cached polynomial (`_power_poly`).  A bracket power
    of length k with 2k > class multiplies by adding, as the product of two
    such is dropped; the others are multiplied in, from the right.  At
    length k = class the power is central, 1 + e * (bracket expansion of
    w), and is added in that closed form from `_expansion`.
    """
    cap = ctx.nilclass
    nletters = 0
    while nletters < len(coords) and type(coords[nletters][0]) is int:
        nletters += 1
    tail: Poly = {(): 1}
    low = []
    for w, e in coords[nletters:]:
        tree = standard_bracketing(w)
        if len(w) == cap:
            _poly_add_into(tail, _expansion(tree), e)
            continue
        t = _power_poly(_power_tree(tree, e), cap)
        if 2 * len(w) > cap:
            _poly_add_into(tail, t)
            tail[()] = 1
        else:
            low.append(t)
    for t in reversed(low):
        tail = _poly_mul(t, tail, cap)
    poly = _poly_mul(_word_poly(cap, coords, 0, nletters), tail, cap)
    return GroupElement(ctx, poly, coords=coords)


# ---------------------------------------------------------------------------
# bracket powers: one route for their polynomials, words and expansions

def _power_tree(tree: BracketTree, e: int = 1) -> PowerTree:
    """The bracket power of a standard bracketing, as collected coordinates
    name it: the exponent on the last leaf, [u, v]^e read as [u, v^e] down
    the right spine."""
    if isinstance(tree, int):
        return (tree, e)
    return (_power_tree(tree[0]), _power_tree(tree[1], e))


def _left_normed_tree(seq: Sequence[int], e: int) -> PowerTree:
    # [x_b1, x_b2^e, x_b3, .., x_bk]: the exponent on b2 (on b1 when k = 1)
    t = (seq[0], 1 if len(seq) > 1 else e)
    for k, b in enumerate(seq[1:]):
        t = (t, (b, e if k == 0 else 1))
    return t


def _bare(t: PowerTree) -> BracketTree:
    # the bracket of a power tree, exponents dropped
    return t[0] if type(t[0]) is int else (_bare(t[0]), _bare(t[1]))


@lru_cache(maxsize=_LETTER_CACHE)
def _power_poly(t: PowerTree, cap: int) -> Poly:
    """The polynomial of a power tree: a letter's (1 + X_g)^e, a pair's the
    commutator (`_comm_poly`) of its halves'.  Cached with every subtree,
    bounded like the one-letter caches; callers only read the dict."""
    a, b = t
    if type(a) is int:
        return _genpow_poly(a, b, cap)
    return _comm_poly(_power_poly(a, cap), _power_poly(b, cap), cap)


def _power_letters(t: PowerTree) -> list[tuple[int, int]]:
    """The letters of a power tree, each pair [u, v] spelled u^-1 v^-1 u v
    as comm multiplies it, left unreduced."""
    a, b = t
    if type(a) is int:
        return [t]
    left, right = _power_letters(a), _power_letters(b)
    # negating reversed(right + left) gives u^-1 and then v^-1
    return [(g, -x) for g, x in reversed(right + left)] + left + right


def bracket_expansion(tree: BracketTree) -> Poly:
    """Expand a bracket tree in the word basis via [U, V] = UV - VU."""
    if isinstance(tree, int):
        return {(tree,): 1}
    a = bracket_expansion(tree[0])
    b = bracket_expansion(tree[1])
    # UV and VU in one pass over the pairs: as _poly_mul(a, b) plus
    # _poly_add_into of _poly_mul(b, a) a Lyndon row took twice as long
    out: Poly = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            for key, sign in ((m1 + m2, 1), (m2 + m1, -1)):
                v = get(key, 0) + sign * c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


@lru_cache(maxsize=_LETTER_CACHE)
def _expansion(tree: BracketTree) -> Poly:
    # bracket_expansion, bounded like the one-letter caches: a central
    # bracket power is 1 + e * this; callers only read the dict
    return bracket_expansion(tree)


# ---------------------------------------------------------------------------
# left-normed commutators

class LeftNormedTerm(Record):
    """Power of a left-normed commutator [x_{b1}, x_{b2}, ..., x_{bk}]."""

    __slots__ = ("generators", "exponent")
    generators: tuple[int, ...]
    exponent: int

    def __init__(self, generators: tuple[int, ...], exponent: int):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "exponent", exponent)


def offset_image(ctx: GroupContext, g: int, terms: Sequence[LeftNormedTerm]) -> GroupElement:
    """x_g times the left-normed commutator powers `terms`, in order: the
    image of x_g under x_g -> x_g * prod [x_b1, x_b2^e, .., x_bk].  A
    weight-c term is central and is added in closed form, 1 + e * (its
    bracket expansion); a lighter one is multiplied in from its power
    tree's cached polynomial.  The element equals generator(ctx, g) times
    the lie.left_normed_element pieces; it has no word, since the terms
    are its spelling.  The caller has checked every index in 1..rank and
    weight in 2..c."""
    c = ctx.nilclass
    poly: Poly = {(): 1, (g,): 1}
    for term in terms:
        t = _left_normed_tree(term.generators, term.exponent)
        if len(term.generators) == c:
            _poly_add_into(poly, _expansion(_bare(t)), term.exponent)
        else:
            poly = _poly_mul(poly, _power_poly(t, c), c)
    return GroupElement(ctx, poly)
