"""Endomorphisms and automorphisms given by generator images.

A GeneratorMap stores one GroupElement per generator.  Applying it to an
element substitutes X_i -> (image of x_i) - 1 into every monomial, which is
exactly the ring extension of the group homomorphism.  The substitution is
organized around two facts that keep the common cases cheap: a monomial none
of whose letters is moved passes through unchanged, and partial products of
substituted slots are shared through a per-map memo keyed by monomial
suffixes (only below the top degree, where entries stay small).

Determinants and inversion work on the moved block.  The abelianization
column of an unmoved generator is a unit vector, so det(M) is the determinant
of the block on the moved generators, a subgroup block's determinant is that
of its moved part, and M is block diagonal: its block on the moved generators
plus every row their columns hit, and the identity elsewhere.  Nothing here
builds the dense n x n matrix.

Inversion works by successive central corrections: start from a word lift of
the inverse of that block, then repeatedly cancel the lowest-weight defect.
Each round multiplies both the candidate inverse and the running composite by
chi: x_i -> x_i * d_i^-1, using the homomorphism property so no dense map ever
gets rebuilt from scratch.  Unmoved generators map to themselves throughout,
so defects and corrections run over the moved generators only.

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
    """Endomorphism of N_{n,c} determined by generator images."""

    def __init__(self, ctx: GroupContext, images: Sequence[GroupElement]):
        if len(images) != ctx.rank:
            raise IndexOutOfRange(
                f"need exactly {ctx.rank} images, got {len(images)}"
            )
        for img in images:
            check_same_context(ctx, img.ctx)
        self.ctx = ctx
        self.images = tuple(images)
        self._moved: Optional[frozenset[int]] = None
        self._u: Optional[dict[int, Poly]] = None
        self._table: dict[tuple[int, ...], Poly] = {}

    def __call__(self, i: int) -> GroupElement:
        if not 1 <= i <= self.ctx.rank:
            raise IndexOutOfRange(f"generator {i} out of range 1..{self.ctx.rank}")
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        # extensional: maps agree iff their generator images agree as elements
        if not isinstance(other, GeneratorMap):
            return NotImplemented
        return self.ctx == other.ctx and all(
            a.poly == b.poly for a, b in zip(self.images, other.images)
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
        return tuple(
            tuple(self.images[c - 1].poly.get((r,), 0) for c in sub) for r in sub
        )

    @property
    def moved(self) -> frozenset[int]:
        if self._moved is None:
            self._moved = frozenset(
                i
                for i in self.ctx.generators()
                if self.images[i - 1].poly != {(): 1, (i,): 1}
            )
        return self._moved

    def is_identity(self) -> bool:
        return not self.moved

    def is_automorphism(self) -> bool:
        return intmat.det(self._block(sorted(self.moved))) in (1, -1)

    def fixes_pointwise(self, subset: Iterable[int]) -> bool:
        return self.moved.isdisjoint(subset)

    def preserves(self, subset: Iterable[int]) -> bool:
        """True iff the map restricts to an automorphism of <subset>."""
        if not self.is_automorphism():
            raise NotAutomorphism("preserves() is only defined for automorphisms")
        sub = frozenset(subset)
        moved = self.moved
        active = []
        for j in sorted(sub):
            if not 1 <= j <= self.ctx.rank:
                raise IndexOutOfRange(f"generator {j} out of range 1..{self.ctx.rank}")
            # an unmoved generator's image is itself: inside <sub>, unit column
            if j in moved:
                if not occurs(self.images[j - 1]) <= sub:
                    return False
                active.append(j)
        return intmat.det(self._block(active)) in (1, -1)

    # -- substitution engine ------------------------------------------------

    def _slot_options(self) -> dict[int, Poly]:
        if self._u is None:
            self._u = {
                i: {m: c for m, c in self.images[i - 1].poly.items() if m}
                for i in self.ctx.generators()
            }
        return self._u

    def _word_image(self, w: tuple[int, ...]) -> Poly:
        got = self._table.get(w)
        if got is not None:
            return got
        u = self._slot_options()
        if self.moved.isdisjoint(w):
            out: Poly = {w: 1}
        elif len(w) == 1:
            out = u[w[0]]
        else:
            out = _poly_mul(u[w[0]], self._word_image(w[1:]), self.ctx.nilclass)
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
    return GeneratorMap(ctx, [generator(ctx, i) for i in ctx.generators()])


def compose(phi: GeneratorMap, psi: GeneratorMap) -> GeneratorMap:
    """(phi o psi)(x) = phi(psi(x)); matrices multiply in the same order."""
    check_same_context(phi.ctx, psi.ctx)
    return GeneratorMap(phi.ctx, [phi.apply(img) for img in psi.images])


def ordered_product(ctx: GroupContext, maps: Sequence[GeneratorMap]) -> GeneratorMap:
    """Left-to-right product under (phi o psi)(x) = phi(psi(x)).

    Accumulated right to left so that each step applies one (typically
    sparse) factor to the running images instead of the other way around.
    """
    if not maps:
        return identity_map(ctx)
    acc = maps[-1]
    for phi in maps[-2::-1]:
        check_same_context(ctx, phi.ctx)
        acc = compose(phi, acc)
    return acc


def transvection(ctx: GroupContext, i: int, j: int, k: int) -> GeneratorMap:
    """x_i -> x_i * x_j^k, everything else fixed."""
    if i == j or not (1 <= i <= ctx.rank and 1 <= j <= ctx.rank):
        raise IndexOutOfRange(
            f"transvection needs distinct indices in 1..{ctx.rank}, got {i}, {j}"
        )
    images = [generator(ctx, g) for g in ctx.generators()]
    images[i - 1] = from_word(ctx, Word(((i, 1), (j, k))))
    return GeneratorMap(ctx, images)


def inversion(ctx: GroupContext, i: int) -> GeneratorMap:
    """x_i -> x_i^-1, everything else fixed."""
    images = [generator(ctx, g) for g in ctx.generators()]
    images[i - 1] = from_word(ctx, Word(((i, -1),)))
    return GeneratorMap(ctx, images)


def permutational(ctx: GroupContext, perm) -> GeneratorMap:
    """x_i -> x_{p(i)} for a bijection p of 1..n.

    `perm` may be a mapping (missing indices are fixed) or a sequence of
    length n giving p(1)..p(n).
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
    full = {i: table.get(i, i) for i in ctx.generators()}
    if set(full) != set(full.values()) or set(full) != set(ctx.generators()):
        raise PermutationInvalid("mapping is not a bijection of 1..rank")
    return GeneratorMap(ctx, [generator(ctx, full[i]) for i in ctx.generators()])


def ia_central(ctx: GroupContext, assignment: Mapping[int, GroupElement]) -> GeneratorMap:
    """x_b -> x_b * z_b for each assigned b; z_b must lie in the commutator
    subgroup (weight >= 2), which makes the result an automorphism with
    identity abelianization."""
    images = [generator(ctx, g) for g in ctx.generators()]
    for b, z in assignment.items():
        if not 1 <= b <= ctx.rank:
            raise IndexOutOfRange(f"generator {b} out of range 1..{ctx.rank}")
        check_same_context(ctx, z.ctx)
        if lcs_weight(z) < 2:
            raise NotInGamma2(f"offset for generator {b} has weight 1")
        images[b - 1] = mul(generator(ctx, b), z)
    return GeneratorMap(ctx, images)


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
    images = [generator(ctx, g) for g in ctx.generators()]
    for j, (block, piece) in enumerate(zip(block_sets, maps)):
        check_same_context(ctx, piece.ctx)
        allowed = fixed | block
        for i in sorted(block):
            img = piece(i)
            if not occurs(img) <= allowed:
                raise BlockConstraintViolated(
                    f"image of generator {i} leaves block {j + 1}"
                )
            images[i - 1] = img
    assembled = GeneratorMap(ctx, images)
    for j, block in enumerate(block_sets):
        if intmat.det(assembled._block(sorted(block))) not in (1, -1):
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
    images = [truncate_class(img, new_class) for img in phi.images]
    return GeneratorMap(images[0].ctx, images)


def lift_words(phi: GeneratorMap, new_class: Optional[int] = None) -> GeneratorMap:
    """Reinterpret the image words one class higher (the canonical section of
    project).  Word letters are preserved, so occurrence-based certificates
    survive lifting."""
    if not phi.is_automorphism():
        raise NotAutomorphism("only automorphisms are lifted")
    target = phi.ctx.nilclass + 1 if new_class is None else new_class
    if target <= phi.ctx.nilclass:
        raise BadClass(
            f"lift target {target} must exceed current class {phi.ctx.nilclass}"
        )
    ctx2 = GroupContext(phi.ctx.rank, target)
    return GeneratorMap(ctx2, [from_word(ctx2, word_of(img)) for img in phi.images])


# ---------------------------------------------------------------------------
# inversion

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
    rows = sorted(
        phi.moved.union(
            m[0] for i in moved for m in phi.images[i - 1].poly if len(m) == 1
        )
    )
    minv = intmat.inverse_unimodular(phi._block(rows))
    unit = [generator(ctx, i) for i in ctx.generators()]
    psi = _with_images(
        ctx,
        unit,
        {
            i: from_word(ctx, Word((j, minv[a][b]) for a, j in enumerate(rows)))
            for b, i in enumerate(rows)
        },
    )
    delta = _with_images(ctx, unit, {i: phi.apply(psi(i)) for i in moved})
    rounds = 0
    while True:
        defects = {i: mul(inv(unit[i - 1]), delta(i)) for i in moved}
        if all(d.is_identity() for d in defects.values()):
            return psi, rounds
        rounds += 1
        if rounds > ctx.nilclass:
            raise NotAutomorphism("defect weight failed to rise every round")
        anti = {i: inv(d) for i, d in defects.items()}
        # psi <- psi o chi and delta <- delta o chi, computed columnwise via
        # f(x_i * d_i^-1) = f(x_i) * f(d_i^-1); the defects are high-weight,
        # so these applications stay cheap
        psi = _with_images(
            ctx, psi.images, {i: mul(psi(i), psi.apply(a)) for i, a in anti.items()}
        )
        delta = _with_images(
            ctx,
            delta.images,
            {i: mul(delta(i), delta.apply(a)) for i, a in anti.items()},
        )


def _with_images(
    ctx: GroupContext,
    images: Sequence[GroupElement],
    changes: Mapping[int, GroupElement],
) -> GeneratorMap:
    # `images` with generator i's image replaced by changes[i]
    out = list(images)
    for i, img in changes.items():
        out[i - 1] = img
    return GeneratorMap(ctx, out)


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
    for d in fix:
        if not 1 <= d <= ctx.rank:
            raise IndexOutOfRange(f"generator {d} out of range 1..{ctx.rank}")
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
