"""Endomorphisms and automorphisms given by generator images.

A GeneratorMap stores only the images that are not the literal generator
x_i; every other generator maps to itself.  Every map operation below reads
the stored images only, so its cost follows the number of generators a map
moves, not the rank.

Applying a map to an element substitutes X_i -> (image of x_i) - 1 into every
monomial, which is exactly the ring extension of the group homomorphism.  The
substitution is organized around two facts that keep the common cases cheap:
a monomial none of whose letters is moved passes through unchanged, and the
substituted slots and their partial products are shared through one per-map
memo keyed by monomial suffixes (only below the top degree, where entries
stay small).

Determinants and inversion work on the moved block.  The abelianization
column of an unmoved generator is a unit vector, so det(M) is the determinant
of the block on the moved generators, and M is block diagonal: its block on
the moved generators plus every row their columns hit, and the identity
elsewhere.  Nothing here builds the dense n x n matrix.

Inversion works by successive central corrections: start from a word lift of
the inverse of that block, then repeatedly cancel the lowest-weight defect.
Each round multiplies both the candidate inverse and the running composite by
chi: x_i -> x_i * d_i^-1, using the homomorphism property so no dense map ever
gets rebuilt from scratch.  Unmoved generators map to themselves throughout,
so defects and corrections run over the moved generators only.  On the
center an inverse acts through its abelianization alone, which is that
inverse block (`_inverse_block`).  So the decomposition engine divides a map
out of another that agrees with it modulo the center from the block only,
with no inversion.

Whether a map is an automorphism (det = +-1) is decided once and stored on
the map, and preserves needs no determinant beyond that one: an
automorphism that maps a subgroup <S> into itself has a block triangular
abelianization whose S block divides its determinant.  Constructors that
know the answer set it and skip the determinant: the identity and the
elementary moves (transvection, inversion, permutational) are unimodular by
construction, project keeps the degree-1 part, lift_words keeps word exponent
sums, ia_central has the identity abelianization, blockwise has a block
triangular one whose diagonal blocks it checks, invert inverts a map already
checked to be unimodular, and compose multiplies determinants, so two
unimodular maps give a unimodular one.  A map parsed from the wire knows
nothing and takes its own determinant.

The certificate vocabulary lives here too: a MoietyCertificate names a
partition (fixed P, preserved Q) of the generators, and check_certificate
decides whether a map fixes P pointwise and restricts to an automorphism of
the subgroup generated by Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import intmat
from .context import GroupContext, check_same_context
from .errors import (
    BadClass,
    BlockConstraintViolated,
    IndexOutOfRange,
    NotAutomorphism,
    NotInGamma2,
    PartitionInvalid,
    PermutationInvalid,
)
from .lie import left_normed_element, word_of
from .ring import (
    GroupElement,
    Poly,
    Word,
    _poly_add_into,
    _poly_mul,
    from_word,
    generator,
    inv,
    lcs_weight,
    mul,
    occurs,
    truncate_class,
)
from .rng import SplitMix64


class GeneratorMap:
    """Endomorphism of N_{n,c} determined by generator images.

    Only the images that are not the literal generator are kept: `stored`
    maps i to its image whenever that image is not x_i spelled as the word
    x_i (or spelled by no word).  An image equal to x_i under a longer word
    is kept, because its word is serialized and survives lifting.  `moved`
    is the set of i whose image is not x_i as an element, so it is a subset
    of the stored keys.  Both are read-only.
    """

    def __init__(self, ctx: GroupContext, images: Sequence[GroupElement]):
        if len(images) != ctx.rank:
            raise IndexOutOfRange(
                f"need exactly {ctx.rank} images, got {len(images)}"
            )
        for img in images:
            check_same_context(ctx, img.ctx)
        self._setup(ctx, dict(enumerate(images, 1)))

    @classmethod
    def _sparse(
        cls,
        ctx: GroupContext,
        images: Mapping[int, GroupElement],
        unimodular: Optional[bool] = None,
    ) -> "GeneratorMap":
        """The map sending x_i to images[i] and fixing every other generator;
        keys must lie in 1..rank and images in `ctx`.  `unimodular` is the
        answer of is_automorphism when the caller knows it without a
        determinant."""
        phi = cls.__new__(cls)
        phi._setup(ctx, images, unimodular)
        return phi

    def _setup(
        self,
        ctx: GroupContext,
        images: Mapping[int, GroupElement],
        unimodular: Optional[bool] = None,
    ) -> None:
        self.ctx = ctx
        self.stored: dict[int, GroupElement] = {}
        self.moved = set()
        for i, img in images.items():
            self._put(i, img)
        self.moved = frozenset(self.moved)
        self._table: dict[tuple[int, ...], Poly] = {}
        self._unimodular = unimodular

    def _put(self, i: int, img: GroupElement) -> None:
        """Make img the image of x_i, on a map still being built (while
        `moved` is a mutable set); the one place that decides which images
        are literal (class docstring)."""
        poly = img.poly
        if len(poly) != 2 or poly.get((i,)) != 1:
            self.moved.add(i)
            self.stored[i] = img
            return
        self.moved.discard(i)
        if img.word is not None and img.word.letters != ((i, 1),):
            self.stored[i] = img
        else:
            self.stored.pop(i, None)

    @classmethod
    def _product(cls, maps: Sequence["GeneratorMap"]) -> "GeneratorMap":
        """maps[0] o maps[1] o ... for two or more maps in one context (the
        body of compose and of ordered_product).

        A private running product is updated in place: each step substitutes
        it into the few images the next (typically sparse) factor stores and
        classifies only those, while its other images carry over untouched.
        A carried image may keep its word, or stay stored though no longer
        moved; apply reads neither, so the cleanup of both is done once, at
        the end, on every image the last factor did not store: a moved one
        loses its word, as phi.apply(x_i) would, and an unmoved one is
        dropped.
        """
        first = maps[0]
        acc = cls.__new__(cls)
        acc.ctx = first.ctx
        acc.stored = dict(first.stored)
        acc.moved = set(first.moved)
        acc._table = {}
        acc._unimodular = first._unimodular
        for psi in maps[1:]:
            images = {i: acc.apply(img) for i, img in psi.stored.items()}
            for i, img in images.items():
                acc._put(i, img)
            acc._table = {}
            acc._unimodular = True if acc._unimodular and psi._unimodular else None
        for i in acc.stored.keys() - maps[-1].stored.keys():
            img = acc.stored[i]
            if i not in acc.moved:
                del acc.stored[i]
            elif img.word is not None:
                acc.stored[i] = GroupElement(acc.ctx, img.poly)
        acc.moved = frozenset(acc.moved)
        return acc

    def __call__(self, i: int) -> GroupElement:
        self.ctx.check_generators((i,))
        img = self.stored.get(i)
        return generator(self.ctx, i) if img is None else img

    @property
    def images(self) -> tuple[GroupElement, ...]:
        """All n images in index order, unstored ones as fresh generators."""
        return tuple(self(i) for i in self.ctx.generators())

    def __eq__(self, other) -> bool:
        # extensional: maps agree iff their generator images agree as elements
        if not isinstance(other, GeneratorMap):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.moved == other.moved
            and all(self.stored[i].poly == other.stored[i].poly for i in self.moved)
        )

    __hash__ = None

    def __repr__(self) -> str:
        moved = sorted(self.moved)
        return (
            f"<GeneratorMap n={self.ctx.rank} c={self.ctx.nilclass} "
            f"moves {moved if moved else 'nothing'}>"
        )

    @property
    def matrix(self) -> intmat.Matrix:
        """Abelianization: entry (j, i) is the X_{j+1} coefficient in image i+1."""
        return self._block(self.ctx.generators())

    def _block(self, sub: Sequence[int]) -> intmat.Matrix:
        """The abelianization restricted to rows and columns `sub`, in that
        order, read off the images."""
        cols = [self.stored[c].poly if c in self.moved else {(c,): 1} for c in sub]
        return tuple(tuple(col.get((r,), 0) for col in cols) for r in sub)

    def is_identity(self) -> bool:
        return not self.moved

    def is_automorphism(self) -> bool:
        # decided once per map, unless its constructor already knew
        if self._unimodular is None:
            self._unimodular = intmat.det(self._block(sorted(self.moved))) in (1, -1)
        return self._unimodular

    def fixes_pointwise(self, subset: Iterable[int]) -> bool:
        return self.moved.isdisjoint(subset)

    def preserves(self, subset: Iterable[int]) -> bool:
        """True iff the map restricts to an automorphism of <subset>."""
        if not self.is_automorphism():
            raise NotAutomorphism("preserves() is only defined for automorphisms")
        sub = frozenset(subset)
        self.ctx.check_generators(sorted(sub))
        # an unmoved generator's image is itself, inside <sub>.  Once every
        # moved one maps into <sub>, the abelianization is block triangular
        # with the sub block A on the diagonal, so det(A) divides det = +-1
        # and the restriction is an automorphism: no determinant is needed
        return all(occurs(self.stored[j]) <= sub for j in sub & self.moved)

    # -- substitution engine ------------------------------------------------

    def _word_image(self, w: tuple[int, ...]) -> Poly:
        got = self._table.get(w)
        if got is not None:
            return got
        if self.moved.isdisjoint(w):
            out: Poly = {w: 1}
        elif len(w) == 1:
            # the slot X_i -> (image of x_i) - 1, possibly empty (an
            # endomorphism sending x_i to 1)
            out = {m: c for m, c in self.stored[w[0]].poly.items() if m}
        else:
            head = self._word_image(w[:1])
            out = _poly_mul(head, self._word_image(w[1:]), self.ctx.nilclass)
        if len(w) < self.ctx.nilclass:
            # top-degree products are recomputed rather than cached: they are
            # the numerous ones, and each costs a single short multiplication
            self._table[w] = out
        return out

    def apply(self, a: GroupElement) -> GroupElement:
        check_same_context(self.ctx, a.ctx)
        moved = self.moved
        if not moved:
            return a
        # unmoved monomials pass through (distinct keys, nonzero values);
        # collecting the moved ones in the same pass tests each key once
        out: Poly = {}
        hits = []
        for w, coeff in a.poly.items():
            if moved.isdisjoint(w):
                out[w] = coeff
            else:
                hits.append((w, coeff))
        for w, coeff in hits:
            _poly_add_into(out, self._word_image(w), coeff)
        return GroupElement(self.ctx, out)


def identity_map(ctx: GroupContext) -> GeneratorMap:
    return GeneratorMap._sparse(ctx, {}, unimodular=True)


def compose(phi: GeneratorMap, psi: GeneratorMap) -> GeneratorMap:
    """(phi o psi)(x) = phi(psi(x)); matrices multiply in the same order.

    Only generators stored by psi or moved by phi can have a non-literal
    image; every other one is x_i on both sides.  Where psi leaves x_i alone
    and phi moves it, the image is phi's without its word, which is exactly
    what phi.apply(x_i) returns.  Determinants multiply, so two maps known
    to be unimodular compose to one.
    """
    check_same_context(phi.ctx, psi.ctx)
    return GeneratorMap._product((phi, psi))


def ordered_product(ctx: GroupContext, maps: Sequence[GeneratorMap]) -> GeneratorMap:
    """Left-to-right product under (phi o psi)(x) = phi(psi(x))."""
    for phi in maps:
        check_same_context(ctx, phi.ctx)
    if len(maps) < 2:
        return maps[0] if maps else identity_map(ctx)
    return GeneratorMap._product(maps)


def transvection(ctx: GroupContext, i: int, j: int, k: int) -> GeneratorMap:
    """x_i -> x_i * x_j^k, everything else fixed."""
    if i == j or not (1 <= i <= ctx.rank and 1 <= j <= ctx.rank):
        raise IndexOutOfRange(
            f"transvection needs distinct indices in 1..{ctx.rank}, got {i}, {j}"
        )
    return GeneratorMap._sparse(
        ctx, {i: from_word(ctx, Word(((i, 1), (j, k))))}, unimodular=True
    )


def inversion(ctx: GroupContext, i: int) -> GeneratorMap:
    """x_i -> x_i^-1, everything else fixed."""
    return GeneratorMap._sparse(
        ctx, {i: from_word(ctx, Word(((i, -1),)))}, unimodular=True
    )


def permutational(ctx: GroupContext, perm) -> GeneratorMap:
    """x_i -> x_{p(i)} for a bijection p of 1..n.

    `perm` may be a mapping (missing indices are fixed) or a sequence of
    length n giving p(1)..p(n).  Every key and value must lie in 1..n.
    """
    if isinstance(perm, Mapping):
        table = dict(perm)
    else:
        seq = list(perm)
        if len(seq) != ctx.rank:
            raise PermutationInvalid(
                f"permutation sequence has length {len(seq)}, rank is {ctx.rank}"
            )
        table = {i + 1: seq[i] for i in range(ctx.rank)}
    gens = ctx.generators()
    for a, b in table.items():
        if a not in gens or b not in gens:
            raise PermutationInvalid(
                f"permutation entry {a} -> {b} leaves 1..{ctx.rank}"
            )
    # a bijection of 1..n iff its non-fixed points are permuted among themselves
    moves = {a: b for a, b in table.items() if a != b}
    if set(moves.values()) != set(moves):
        raise PermutationInvalid("mapping is not a bijection of 1..rank")
    images = {a: generator(ctx, b) for a, b in moves.items()}
    return GeneratorMap._sparse(ctx, images, unimodular=True)


def ia_central(ctx: GroupContext, assignment: Mapping[int, GroupElement]) -> GeneratorMap:
    """x_b -> x_b * z_b for each assigned b; z_b must lie in the commutator
    subgroup (weight >= 2), which makes the result an automorphism with
    identity abelianization."""
    stored = {}
    for b, z in assignment.items():
        ctx.check_generators((b,))
        check_same_context(ctx, z.ctx)
        if lcs_weight(z) < 2:
            raise NotInGamma2(f"offset for generator {b} has weight 1")
        stored[b] = mul(generator(ctx, b), z)
    # the abelianization is the identity
    return GeneratorMap._sparse(ctx, stored, unimodular=True)


def blockwise(
    ctx: GroupContext,
    fixed: Iterable[int],
    blocks: Sequence[Iterable[int]],
    maps: Sequence[GeneratorMap],
) -> GeneratorMap:
    """Assemble one automorphism from per-block pieces.

    `fixed` and the `blocks` must partition 1..n.  Block j's generators take
    their images from maps[j]; those images may only involve fixed + block j
    generators, and the block of the assembled matrix must be unimodular, so
    each piece is genuinely an automorphism of its subgroup.
    """
    fixed = frozenset(fixed)
    block_sets = [frozenset(b) for b in blocks]
    if len(maps) != len(block_sets):
        raise PartitionInvalid(
            f"{len(block_sets)} blocks but {len(maps)} maps supplied"
        )
    everything = frozenset(ctx.generators())
    pieces = [fixed, *block_sets]
    if frozenset().union(*pieces) != everything or sum(map(len, pieces)) != ctx.rank:
        raise PartitionInvalid("fixed set and blocks must partition 1..rank")
    stored = {}
    for j, (block, piece) in enumerate(zip(block_sets, maps)):
        check_same_context(ctx, piece.ctx)
        allowed = fixed | block
        for i in sorted(block & piece.stored.keys()):
            img = piece.stored[i]
            if not occurs(img) <= allowed:
                raise BlockConstraintViolated(
                    f"image of generator {i} leaves block {j + 1}"
                )
            stored[i] = img
    # the abelianization is block triangular (fixed columns are unit vectors,
    # block j's columns live in fixed + block j rows), so its determinant is
    # the product of the block determinants, each checked to be +-1 below
    assembled = GeneratorMap._sparse(ctx, stored, unimodular=True)
    for j, block in enumerate(block_sets):
        # unmoved columns of the block are unit vectors (module docstring)
        active = sorted(block & assembled.moved)
        if intmat.det(assembled._block(active)) not in (1, -1):
            raise BlockConstraintViolated(
                f"block {j + 1} piece is not an automorphism of its subgroup"
            )
    return assembled


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class MoietyCertificate:
    """Partition witness: the map fixes `fixed` pointwise and restricts to an
    automorphism of the subgroup generated by `preserved`."""

    fixed: frozenset[int]
    preserved: frozenset[int]

    def __init__(self, fixed: Iterable[int], preserved: Iterable[int]):
        object.__setattr__(self, "fixed", frozenset(fixed))
        object.__setattr__(self, "preserved", frozenset(preserved))


def check_certificate(phi: GeneratorMap, cert: MoietyCertificate) -> bool:
    everything = frozenset(phi.ctx.generators())
    if (
        cert.fixed | cert.preserved != everything
        or cert.fixed & cert.preserved
        or not cert.preserved
    ):
        raise PartitionInvalid(
            "certificate needs fixed and preserved to partition 1..rank "
            "with preserved nonempty"
        )
    if not phi.is_automorphism():
        raise NotAutomorphism("certificates only apply to automorphisms")
    return phi.fixes_pointwise(cert.fixed) and phi.preserves(cert.preserved)


# ---------------------------------------------------------------------------
# quotients and lifts

def project(phi: GeneratorMap, new_class: int) -> GeneratorMap:
    """The induced map one or more classes down (images truncated)."""
    if not 1 <= new_class < phi.ctx.nilclass:
        raise BadClass(
            f"target class {new_class} must satisfy 1 <= it < {phi.ctx.nilclass}"
        )
    # truncation keeps the degree-1 part, so the determinant too
    return GeneratorMap._sparse(
        GroupContext(phi.ctx.rank, new_class),
        {i: truncate_class(img, new_class) for i, img in phi.stored.items()},
        unimodular=phi._unimodular,
    )


def lift_words(phi: GeneratorMap) -> GeneratorMap:
    """Reinterpret the image words in class c + 1, where c is phi's class
    (the canonical section of project).  Word letters are preserved, so
    occurrence-based certificates survive lifting."""
    if not phi.is_automorphism():
        raise NotAutomorphism("only automorphisms are lifted")
    ctx2 = GroupContext(phi.ctx.rank, phi.ctx.nilclass + 1)
    # a word's exponent sums, hence the abelianization, survive the lift
    return GeneratorMap._sparse(
        ctx2,
        {i: from_word(ctx2, word_of(img)) for i, img in phi.stored.items()},
        unimodular=True,
    )


# ---------------------------------------------------------------------------
# inversion

def _inverse_block(phi: GeneratorMap) -> tuple[list[int], intmat.Matrix]:
    """The inverse abelianization of an automorphism on its moved block.

    Returns `rows`, the moved generators plus every row their columns hit,
    in increasing order, and the inverse of phi's block on them: entry
    (a, b) is the X_{rows[a]} coefficient in the inverse's image of
    x_{rows[b]}.  Off `rows` the inverse abelianization is the identity
    (module docstring).
    """
    rows = sorted(
        phi.moved.union(
            m[0] for i in phi.moved for m in phi.stored[i].poly if len(m) == 1
        )
    )
    return rows, intmat.inverse_unimodular(phi._block(rows))


def invert_with_rounds(phi: GeneratorMap) -> tuple[GeneratorMap, int]:
    """Two-sided inverse plus the number of central correction rounds used.

    Round zero is the word lift of the inverse abelianization matrix; after
    it the composite phi o psi is IA, and every subsequent round strictly
    increases the lowest defect weight, so at most `class` rounds ever run.
    Only the moved generators are inverted and corrected (module docstring).
    """
    if not phi.is_automorphism():
        raise NotAutomorphism("map has no inverse: determinant is not +-1")
    ctx = phi.ctx
    moved = sorted(phi.moved)
    rows, minv = _inverse_block(phi)
    # every candidate inverse has the unimodular abelianization minv
    psi = GeneratorMap._sparse(
        ctx,
        {
            i: from_word(ctx, Word((j, minv[a][b]) for a, j in enumerate(rows)))
            for b, i in enumerate(rows)
        },
        unimodular=True,
    )
    delta = GeneratorMap._sparse(ctx, {i: phi.apply(psi(i)) for i in moved})
    unit_inv = {i: inv(generator(ctx, i)) for i in moved}
    rounds = 0
    while True:
        defects = {i: mul(unit_inv[i], delta(i)) for i in moved}
        if all(d.is_identity() for d in defects.values()):
            return psi, rounds
        rounds += 1
        if rounds > ctx.nilclass:
            raise NotAutomorphism("defect weight failed to rise every round")
        anti = {i: inv(d) for i, d in defects.items()}
        # psi <- psi o chi and delta <- delta o chi, computed columnwise via
        # f(x_i * d_i^-1) = f(x_i) * f(d_i^-1); the defects are high-weight,
        # so these applications stay cheap, and chi is IA, so both maps stay
        # unimodular
        psi, delta = (
            GeneratorMap._sparse(
                ctx,
                f.stored | {i: mul(f(i), f.apply(a)) for i, a in anti.items()},
                unimodular=True,
            )
            for f in (psi, delta)
        )


def invert(phi: GeneratorMap) -> GeneratorMap:
    return invert_with_rounds(phi)[0]


# ---------------------------------------------------------------------------
# seeded random automorphisms

def random_automorphism(
    ctx: GroupContext,
    seed: int,
    length: int,
    fix: Iterable[int] = (),
) -> GeneratorMap:
    """Seeded product of `length` elementary moves, fixing `fix` pointwise.

    Draw sequence per move, on a splitmix64 stream (all bounds via below()):

      kind = below(4); at class 1 kind 3 becomes 0; at rank 1 kind 0 becomes 1.
      kind 0, transvection: i = E[below(|E|)], j = others[below(n-1)] over all
        generators != i in increasing order, e = sign();  x_i -> x_i x_j^e.
      kind 1, inversion: i = E[below(|E|)];  x_i -> x_i^-1.
      kind 2, permutation: Fisher-Yates shuffle of E (increasing order),
        giving E[t] -> shuffled[t]; identity outside E.
      kind 3, commutator offset: b = E[below(|E|)], weight w = 2 + below(c-1)
        (w = 2 when c = 2), letters l_1..l_w each 1 + below(n), e = sign();
        x_b -> x_b * [x_{l_1}, x_{l_2}^e, x_{l_3}, .., x_{l_w}].

    Moves compose on the left of the accumulator: after k draws the map is
    move_k o ... o move_1.  E is 1..n minus `fix`, in increasing order; if E
    is empty the identity map returns immediately (no draws happen).
    """
    fix = frozenset(fix)
    ctx.check_generators(fix)
    free = sorted(frozenset(ctx.generators()) - fix)
    acc = identity_map(ctx)
    if not free:
        return acc
    rng = SplitMix64(seed)
    for _ in range(length):
        kind = rng.below(4)
        if kind == 3 and ctx.nilclass == 1:
            kind = 0
        if kind == 0 and ctx.rank == 1:
            kind = 1
        if kind == 0:
            i = free[rng.below(len(free))]
            others = [j for j in ctx.generators() if j != i]
            j = others[rng.below(len(others))]
            move = transvection(ctx, i, j, rng.sign())
        elif kind == 1:
            move = inversion(ctx, free[rng.below(len(free))])
        elif kind == 2:
            shuffled = list(free)
            rng.shuffle(shuffled)
            move = permutational(
                ctx, {a: b for a, b in zip(free, shuffled)}
            )
        else:
            b = free[rng.below(len(free))]
            weight = 2 + (rng.below(ctx.nilclass - 1) if ctx.nilclass > 2 else 0)
            letters = tuple(1 + rng.below(ctx.rank) for _ in range(weight))
            z = left_normed_element(ctx, letters, rng.sign())
            move = ia_central(ctx, {b: z}) if not z.is_identity() else identity_map(ctx)
        acc = compose(move, acc)
    return acc
