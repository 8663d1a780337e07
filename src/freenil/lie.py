"""Graded Lie layer and integer coordinates on the central factor.

The degree-c part of the model ring restricts, on Lie elements, to the
degree-c component of the free Lie ring on X_1..X_n.  An integral basis is
given by the standard bracketings of Lyndon words of length c; the expansion
of such a bracket in the word basis is unitriangular (the bracket of w equals
w plus lexicographically larger words of the same length), so coordinates are
computed by elimination with no division.  Elimination only ever reads the
Lyndon words it reaches, so their bracketings and expansions are computed on
demand and cached per word; the whole degree-c basis is never built.  That
makes the passage

    central element  ->  Lie polynomial  ->  Lyndon coordinates
                     ->  left-normed commutator list

integer-exact in both directions.

Bracket trees are nested pairs with int leaves: 3 is a leaf, (1, (2, 3)) is
[x1, [x2, x3]].  The Lie bracket matching the group commutator convention
a^-1 b^-1 a b is [U, V] = UV - VU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .context import GroupContext
from .errors import IndexOutOfRange, NotCentral, NotLieElement
from .ring import (
    GroupElement,
    Poly,
    Word,
    _poly_add_into,
    comm,
    from_word,
    generator,
    inv,
    lcs_weight,
    mul,
    power,
)

BracketTree = Union[int, tuple]


# ---------------------------------------------------------------------------
# Lyndon words and standard bracketings

def lyndon_words(rank: int, length: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of exactly `length` over {1..rank}, lexicographic."""
    if rank < 1 or length < 1:
        return ()
    out = []
    w = [1]
    if length == 1:
        out.append((1,))
    while True:
        base_len = len(w)
        while len(w) < length:
            w.append(w[len(w) % base_len])  # extend periodically
        while w and w[-1] == rank:
            w.pop()
        if not w:
            return tuple(out)
        w[-1] += 1
        if len(w) == length:
            out.append(tuple(w))


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


def bracket_leaves(tree: BracketTree) -> tuple[int, ...]:
    if isinstance(tree, int):
        return (tree,)
    return bracket_leaves(tree[0]) + bracket_leaves(tree[1])


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


@lru_cache(maxsize=None)
def _lyndon_row(word: tuple[int, ...]) -> tuple[BracketTree, Poly]:
    """Standard bracketing of a Lyndon word and its expansion in the word basis."""
    tree = standard_bracketing(word)
    exp = bracket_expansion(tree)
    # unitriangular: the bracket hits its own word with coefficient 1 and
    # otherwise only lexicographically larger words of the same length;
    # elimination is only exact if this holds, so it is checked, not asserted
    if exp.get(word) != 1 or min(exp) != word:
        raise RuntimeError(f"bracket of Lyndon word {word} is not unitriangular")
    return tree, exp


def lyndon_brackets(ctx: GroupContext) -> tuple[BracketTree, ...]:
    """Standard bracketings of the Lyndon words of length ctx.nilclass."""
    return tuple(standard_bracketing(w) for w in lyndon_words(ctx.rank, ctx.nilclass))


# ---------------------------------------------------------------------------
# homogeneous Lie data

@dataclass(frozen=True)
class LieHomogeneous:
    """Homogeneous degree-`degree` polynomial, candidate Lie ring element."""

    degree: int
    coefficients: Poly  # keys all of length `degree`, values nonzero

    def __post_init__(self):
        clean = {m: c for m, c in self.coefficients.items() if c}
        if any(len(m) != self.degree for m in clean):
            raise ValueError("coefficient keys must all have the stated degree")
        object.__setattr__(self, "coefficients", clean)

    def is_zero(self) -> bool:
        return not self.coefficients


@dataclass(frozen=True)
class LeftNormedTerm:
    """Power of a left-normed commutator [x_{b1}, x_{b2}, ..., x_{bk}]."""

    generators: tuple[int, ...]
    exponent: int


def central_log(w: GroupElement) -> LieHomogeneous:
    """Top-degree part of w - 1, for w in the last lower-central term."""
    c = w.ctx.nilclass
    weight = lcs_weight(w)
    if weight < c:
        raise NotCentral(f"element has weight {weight}, needs >= {c}")
    return LieHomogeneous(c, w.degree_part(c))


def lie_coordinates(ctx: GroupContext, p: LieHomogeneous) -> dict[tuple[int, ...], int]:
    """Integer coordinates of p over the Lyndon bracket basis of its degree.

    Elimination on the lexicographically least surviving word; zero
    coordinates are omitted.  Raises NotLieElement when p is outside the
    Lie span (the least surviving word is then not Lyndon, or residue remains).
    """
    residual = dict(p.coefficients)
    coords: dict[tuple[int, ...], int] = {}
    while residual:
        m = min(residual)
        # a Lyndon word's first letter is its least, so this bounds all letters
        if not (is_lyndon(m) and m[0] >= 1 and max(m) <= ctx.rank):
            raise NotLieElement(f"word {m} blocks Lyndon elimination")
        kappa = residual[m]
        coords[m] = kappa
        _poly_add_into(residual, _lyndon_row(m)[1], -kappa)
    return coords


# ---------------------------------------------------------------------------
# left normalization

def left_normalize(tree: BracketTree) -> dict[tuple[int, ...], int]:
    """Rewrite a bracket tree as an integer combination of left-normed terms.

    Keys are leaf sequences (b1,..,bk) meaning [x_{b1}, x_{b2}, .., x_{bk}];
    every key is a permutation-with-multiplicity of the input's leaves.
    Uses [A,[L,R]] = [[A,L],R] - [[A,R],L] recursively.
    """
    if isinstance(tree, int):
        return {(tree,): 1}
    return _combo_bracket(left_normalize(tree[0]), tree[1])


def _combo_bracket(combo: dict, tree: BracketTree) -> dict:
    if isinstance(tree, int):
        return {seq + (tree,): c for seq, c in combo.items()}
    left, right = tree
    out = _combo_bracket(_combo_bracket(combo, left), right)
    _poly_add_into(out, _combo_bracket(_combo_bracket(combo, right), left), -1)
    return out


# ---------------------------------------------------------------------------
# central factorization and collected words

def _left_normed_letters(seq: Sequence[int], exponent: int) -> list[tuple[int, int]]:
    # the letters of [x_{b1}, x_{b2}^e, x_{b3}, .., x_{bk}], each bracket
    # [a, b] spelled a^-1 b^-1 a b as ring.comm multiplies it, left unreduced
    if len(seq) == 1:
        return [(seq[0], exponent)]
    acc = [(seq[0], 1)]
    for k, b in enumerate(seq[1:]):
        e = exponent if k == 0 else 1
        acc = [(g, -x) for g, x in reversed(acc)] + [(b, -e)] + acc + [(b, e)]
    return acc


def left_normed_element(ctx: GroupContext, seq: tuple[int, ...], exponent: int) -> GroupElement:
    """Group element [x_{b1}, .., x_{bk}]^exponent with a compact word.

    The exponent rides on the innermost right slot: [u, v]^e and [u, v^e]
    agree modulo weight > k, and exactly at weight k = nilclass, so the word
    stays short no matter how large the exponent is.  The polynomial comes
    from group commutators of word-less generators, the word from
    _left_normed_letters.
    """
    x = [GroupElement(ctx, generator(ctx, b).poly) for b in seq]
    if len(x) == 1:
        acc = power(x[0], exponent)
    else:
        acc = comm(x[0], power(x[1], exponent))
        for b in x[2:]:
            acc = comm(acc, b)
    return GroupElement(ctx, acc.poly, Word(_left_normed_letters(seq, exponent)))


@lru_cache(maxsize=None)
def _left_normed_expansion(seq: tuple[int, ...]) -> Poly:
    # cached per sequence like _lyndon_row; callers only read the dict
    tree: BracketTree = seq[0]
    for b in seq[1:]:
        tree = (tree, b)
    return bracket_expansion(tree)


def central_offset(ctx: GroupContext, terms: Sequence[LeftNormedTerm]) -> GroupElement:
    """Product of the weight-c commutator powers `terms`, in closed form.

    In class c such a product is central with polynomial
    1 + sum of e * bracket(b1, .., bc), so it is read off the left-normed
    bracket expansions; no group product is formed.  The element also
    carries the word left_normed_element spells for each term, concatenated
    and freely reduced once, so it equals the product of left_normed_element
    pieces in polynomial and in word letters.
    """
    c = ctx.nilclass
    poly: Poly = {(): 1}
    letters: list[tuple[int, int]] = []
    for t in terms:
        seq = t.generators
        if len(seq) != c or c < 2:
            raise NotCentral(
                f"term {list(seq)} has weight {len(seq)}; central terms need weight {c} >= 2"
            )
        if not all(1 <= b <= ctx.rank for b in seq):
            raise IndexOutOfRange(f"term {list(seq)} leaves generators 1..{ctx.rank}")
        _poly_add_into(poly, _left_normed_expansion(seq), t.exponent)
        letters.extend(_left_normed_letters(seq, t.exponent))
    return GroupElement(ctx, poly, Word(letters))


def central_factorize(w: GroupElement) -> list[LeftNormedTerm]:
    """Factor a central element into left-normed commutator powers.

    Returns terms sorted by generator sequence; the product of the
    corresponding elements (in any order, they are central) reconstructs w
    exactly.  Terms only mention generators in occurs(w).  A term opening
    with [x_a, x_a] is the identity, so left normalization's terms of that
    shape are dropped.
    """
    p = central_log(w)
    if p.is_zero():
        return []
    ctx = w.ctx
    coords = lie_coordinates(ctx, p)
    acc: dict[tuple[int, ...], int] = {}
    for word, kappa in coords.items():
        _poly_add_into(acc, left_normalize(_lyndon_row(word)[0]), kappa)
    return [LeftNormedTerm(seq, acc[seq]) for seq in sorted(acc) if len(seq) < 2 or seq[0] != seq[1]]


def _tree_power_pairs(tree: BracketTree, e: int) -> list[tuple[int, int]]:
    # group word whose lowest-degree part is e times the tree's bracket
    if isinstance(tree, int):
        return [(tree, e)]
    wl = _tree_power_pairs(tree[0], 1)
    wr = _tree_power_pairs(tree[1], e)
    inv_l = [(g, -x) for g, x in reversed(wl)]
    inv_r = [(g, -x) for g, x in reversed(wr)]
    return inv_l + inv_r + wl + wr


def collect_word(a: GroupElement) -> Word:
    """Canonical collected word for a: layer-by-layer normal form.

    Peels the abelian part, then for each weight k = 2..c reads the degree-k
    part (a Lie element for genuine group elements), converts it to Lyndon
    coordinates, and emits one bracket word per nonzero coordinate.  The
    result has bounded length and depends only on the polynomial, so it is a
    deterministic serialization fallback for elements without provenance.
    """
    ctx = a.ctx
    parts: list[tuple[int, int]] = []
    r = a
    layer1 = [(i, a.poly.get((i,), 0)) for i in ctx.generators()]
    pairs1 = [(g, e) for g, e in layer1 if e]
    if pairs1:
        parts.extend(pairs1)
        r = mul(inv(from_word(ctx, Word(pairs1))), r)
    for k in range(2, ctx.nilclass + 1):
        pk = r.degree_part(k)
        if not pk:
            continue
        coords = lie_coordinates(ctx, LieHomogeneous(k, pk))
        layer_pairs: list[tuple[int, int]] = []
        for word in sorted(coords):
            layer_pairs.extend(_tree_power_pairs(_lyndon_row(word)[0], coords[word]))
        parts.extend(layer_pairs)
        r = mul(inv(from_word(ctx, Word(layer_pairs))), r)
    if not r.is_identity():
        raise NotLieElement("polynomial is not the image of a group word")
    return Word(parts)


def word_of(a: GroupElement) -> Word:
    """Provenance word when present, else the canonical collected word."""
    return a.word if a.word is not None else collect_word(a)
