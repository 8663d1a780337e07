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

The same coordinates, layer by layer, give every element its collected
form (`collect_word`), which the writer puts on the wire.

Bracket trees are nested pairs with int leaves: 3 is a leaf, (1, (2, 3)) is
[x1, [x2, x3]].  The Lie bracket matching the group commutator convention
a^-1 b^-1 a b is [U, V] = UV - VU.  Expanding a tree in the word basis
(`bracket_expansion`), Lyndon words' standard bracketings, the polynomials
of collected coordinates (`from_collected`), the left-normed term record
`LeftNormedTerm` and the image of an IA map built from such terms
(`offset_image`) live in `ring`, since the wire reader needs them and
nothing else here.
"""

from __future__ import annotations

from functools import lru_cache

from .context import GroupContext, Record
from .errors import NotCentral, NotLieElement
from .ring import (
    BracketTree,
    Collected,
    GroupElement,
    LeftNormedTerm,
    Poly,
    Word,
    _bracket_power,
    _left_normed_letters,
    _poly_add_into,
    _poly_inv,
    _poly_mul,
    _word_poly,
    bracket_expansion,
    comm,
    generator,
    is_lyndon,
    lcs_weight,
    power,
    standard_bracketing,
)

# perfbench/ checks that its tracer rebinds this alias of ring.mul
from .ring import mul  # noqa: F401


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

class LieHomogeneous(Record):
    """Homogeneous degree-`degree` polynomial, candidate Lie ring element."""

    __slots__ = ("degree", "coefficients")
    degree: int
    coefficients: Poly  # keys all of length `degree`, values nonzero

    def __init__(self, degree: int, coefficients: Poly):
        clean = {m: c for m, c in coefficients.items() if c}
        if any(len(m) != degree for m in clean):
            raise ValueError("coefficient keys must all have the stated degree")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coefficients", clean)

    def is_zero(self) -> bool:
        return not self.coefficients


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
    # group word of the bracket power of `tree` (the exponent on its last leaf)
    if isinstance(tree, int):
        return [(tree, e)]
    wl = _tree_power_pairs(tree[0], 1)
    wr = _tree_power_pairs(tree[1], e)
    inv_l = [(g, -x) for g, x in reversed(wl)]
    inv_r = [(g, -x) for g, x in reversed(wr)]
    return inv_l + inv_r + wl + wr


def collect_word(a: GroupElement) -> Collected:
    """The collected word of a: its coordinates over the Lyndon basis.

    Peels the abelian part, then for each weight k = 2..c reads the degree-k
    part (a Lie element for genuine group elements), converts it to Lyndon
    coordinates, and divides out their bracket powers (`ring`, "Collected
    coordinates").  Once 2k > c what is
    left is 1 plus the sum of its bracket powers less 1, so they are
    subtracted.  The result depends only on the polynomial, so it is a
    deterministic serialization for elements without provenance.
    """
    ctx = a.ctx
    cap = ctx.nilclass
    cache: dict = {}  # bracket powers, shared by the layers
    poly = a.poly
    coords: list = [(g, poly[(g,)]) for g in ctx.generators() if (g,) in poly]
    back = [(g, -e) for g, e in reversed(coords)]
    r = _poly_mul(_word_poly(cap, back, 0, len(back)), poly, cap)
    for k in range(2, cap + 1):
        pk = {m: c for m, c in r.items() if len(m) == k}
        if not pk:
            continue
        layer = lie_coordinates(ctx, LieHomogeneous(k, pk))
        powers = []
        for w in sorted(layer):
            coords.append((w, layer[w]))
            powers.append(_bracket_power(_lyndon_row(w)[0], layer[w], cap, cache))
        if 2 * k > cap:
            for t in powers:
                _poly_add_into(r, t, -1)
            r[()] = 1
        else:
            lk: Poly = {(): 1}
            for t in powers:
                lk = _poly_mul(lk, t, cap)
            r = _poly_mul(_poly_inv(lk, cap), r, cap)
    if r != {(): 1}:
        raise NotLieElement("polynomial is not the image of a group word")
    return tuple(coords)


def spell(coords: Collected) -> Word:
    """The group word of collected coordinates: each letter power, then each
    bracket power spelled by its standard bracketing, freely reduced."""
    letters: list[tuple[int, int]] = []
    for w, e in coords:
        if type(w) is int:
            letters.append((w, e))
        else:
            letters.extend(_tree_power_pairs(standard_bracketing(w), e))
    return Word(letters)


def word_of(a: GroupElement) -> Word:
    """Provenance word when present, else the collected word spelled out."""
    if a.word is not None:
        return a.word
    return spell(a.coords if a.coords is not None else collect_word(a))
