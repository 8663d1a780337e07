"""Automorphisms built on the map kernel: the elementary moves, blockwise
assembly, quotients and lifts between classes, inversion, and seeded random
automorphisms.

`GeneratorMap` with its products and certificates lives in `kernel`, the
part of the map layer that the verifier runs.  What the kernel's docstring
says of maps holds here: a map stores the images that are not the literal
generator, and every operation reads those only.

Inversion works on the moved block.  M is block diagonal: its block on the
moved generators plus every row their columns hit, and the identity
elsewhere.  It starts from a word lift of the inverse of that block, then
repeatedly cancels the lowest-weight defect.  Each round multiplies both the
candidate inverse and the running composite by chi: x_i -> x_i * d_i^-1,
using the homomorphism property so no dense map ever gets rebuilt from
scratch.  Unmoved generators map to themselves throughout, so defects and
corrections run over the moved generators only.

Every constructor here knows whether its map is unimodular and skips the
determinant: the elementary moves (transvection, inversion, permutational)
are unimodular by construction, project keeps the degree-1 part, lift_words
keeps word exponent sums, blockwise has a block triangular abelianization
whose diagonal blocks it checks, and invert inverts a map already checked
to be unimodular.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import intmat
from .context import GroupContext, _as_int, check_same_context
from .errors import (
    BadClass,
    BlockConstraintViolated,
    IndexOutOfRange,
    NotAutomorphism,
    PartitionInvalid,
    PermutationInvalid,
)
from .kernel import GeneratorMap, compose, ia_central, identity_map
from .lie import left_normed_element, word_of
from .ring import Word, from_word, generator, inv, letter, mul, occurs, truncate_class
from .rng import SplitMix64

# perfbench/ reads GeneratorMap, compose and ia_central (used above) and
# check_certificate off this module
from .kernel import check_certificate  # noqa: F401


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
    length n giving p(1)..p(n).  Every key and value must be an integer
    by `ring.Word`'s rule (MalformedInput) in 1..n (PermutationInvalid).
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
    # a range holds 3.0 too: its containment compares by equality
    table = {
        _as_int(a, "generator index"): _as_int(b, "generator index")
        for a, b in table.items()
    }
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
    images = {a: letter(ctx, b, 1) for a, b in moves.items()}
    return GeneratorMap._sparse(ctx, images, unimodular=True)


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
    everything = ctx.generator_set()
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
    is empty the identity map returns immediately (no draws happen).  The
    seed must lie in 0..2^64-1 (MalformedInput otherwise).
    """
    fix = frozenset(fix)
    ctx.check_generators(fix)
    free = sorted(ctx.generator_set() - fix)
    acc = identity_map(ctx)
    rng = SplitMix64(seed)  # refuses a seed outside 0..2^64-1
    if not free:
        return acc
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
