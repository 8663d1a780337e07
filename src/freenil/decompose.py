"""Factoring automorphisms that fix a generator subset into certified pieces.

Given an automorphism sigma fixing D pointwise, `decompose` produces an
ordered factor list whose left-to-right composition equals sigma, where every
factor carries a MoietyCertificate it satisfies.  The shape follows the
nilpotency class:

  class 1   integer row reduction of the block acting on E = complement of D
            (transvections, permutations moving at most half of E, one sign
            flip per -1 pivot), then two "shear" maps adding the
            D-translation parts over each half of E.

  class c   the class-1 pieces, built once at class c from the same words:
            they fix D, so each is its own lift.  Then, for k = 2..c, read
            the central offsets of (product so far)^-1 o sigma at class k
            off the degree-k part of their class-c images, in closed form
            (no map is built, projected or inverted), and split them over
            at most 2(k+1) commuting maps beta_j, each avoiding one cell of
            a partition of half of E (the certificate's fixed block).  Each
            beta is built and certified once, at class c, from its terms;
            below the top that map projects onto the level-k beta and moves
            no generator of D, so nothing is lifted and nothing corrected.
            A weight-k commutator mentions at most k distinct generators, so
            with k+1 cells one is always clean: that pigeonhole is checked
            at every assignment.

Every level shares sigma's abelianization, so one row reduction of its
block on E serves the whole call: it proves sigma unimodular (a map fixing D
has that block's determinant), its moves are the class-1 pieces, and the
same moves replayed give the inverse abelianization that divides the
product out at every level k >= 2.  No determinant is taken, no matrix is
reduced twice, and above class 1 no class-1 map is built.

The checker for the output lives in `verifier`, which does not import this
module.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Optional, Sequence

from . import intmat
from .context import GroupContext
from .endo import (
    inversion,
    lift_words,
    permutational,
    transvection,
)
from .errors import (
    BadClass,
    CertificateInvalid,
    DoesNotFixD,
    NotAutomorphism,
    NotCentralIA,
    NotUnimodular,
    RankTooSmall,
)
from .kernel import (
    GeneratorMap,
    MoietyCertificate,
    check_certificate,
    compose,
    ia_central,
    identity_map,
    ordered_product,
)
from .lie import central_factorize
from .records import Decomposition, Factor
from .ring import (
    GroupElement,
    LeftNormedTerm,
    Word,
    _poly_add_into,
    from_word,
    generator,
    inv,
    lcs_weight,
    mul,
    offset_image,
)

# perfbench/ reads TAGS and verify_payload off this module
from .records import TAGS  # noqa: F401
from .verifier import verify_payload  # noqa: F401


def _certified(
    fixed: frozenset[int],
    phi: GeneratorMap,
    cert: MoietyCertificate,
    tag: str,
    **provenance,
) -> Factor:
    if not check_certificate(phi, cert):
        raise CertificateInvalid(f"{tag} factor fails its certificate")
    if not phi.fixes_pointwise(fixed):
        raise CertificateInvalid(f"{tag} factor moves the pinned set")
    return Factor(phi, cert, tag, **provenance)


# ---------------------------------------------------------------------------
# class 1: integer matrices

def _move_to_map(
    ctx: GroupContext, basis: Sequence[int], move: intmat.RowMove
) -> tuple[GeneratorMap, str, frozenset[int]]:
    # a row move I + k*E_{ij} is, columnwise, the transvection x_j -> x_j x_i^k
    if move.kind == "add":
        target, source = basis[move.j], basis[move.i]
        return (
            transvection(ctx, target, source, move.k),
            "elementary_abelian",
            frozenset((target, source)),
        )
    return inversion(ctx, basis[move.i]), "sign", frozenset((basis[move.i],))


def _permutation_piece(
    ctx: GroupContext, swaps: Sequence[tuple[int, int]]
) -> tuple[GeneratorMap, str, frozenset[int]]:
    # the swaps' maps composed left to right, p = s_1 o ... o s_k, built as
    # q_j = q_(j-1) o s_j: q_(j-1) with its values at s_j's pair exchanged
    touched = frozenset(g for pair in swaps for g in pair)
    perm = {g: g for g in sorted(touched)}
    for a, b in swaps:
        perm[a], perm[b] = perm[b], perm[a]
    return permutational(ctx, perm), "permutation", touched


def _block_maps(
    ctx: GroupContext, basis: Sequence[int], moves: Sequence[intmat.RowMove]
) -> Iterator[tuple[GeneratorMap, str, frozenset[int]]]:
    """One transvection per add move and one sign map per negate move (one
    for each -1 pivot); each run of consecutive swaps cut greedily into
    permutations touching at most max(2, len(basis) // 2) generators.  A run
    is a cycle walk, whose swaps within one cycle share an index, so no
    piece is the identity."""
    limit = max(2, len(basis) // 2)
    for is_swap, run in groupby(moves, key=lambda move: move.kind == "swap"):
        if not is_swap:
            for move in run:
                yield _move_to_map(ctx, basis, move)
            continue
        piece: list[tuple[int, int]] = []
        touched: set[int] = set()
        for move in run:
            pair = (basis[move.i], basis[move.j])
            if piece and len(touched.union(pair)) > limit:
                yield _permutation_piece(ctx, piece)
                piece, touched = [], set()
            piece.append(pair)
            touched.update(pair)
        yield _permutation_piece(ctx, piece)


def _half_cert(
    ctx: GroupContext, free: Sequence[int], touched: frozenset[int]
) -> MoietyCertificate:
    # fixed block: the lower-index half of the untouched free generators
    rest = [e for e in free if e not in touched]
    fixed = frozenset(rest[: (len(rest) + 1) // 2])
    return MoietyCertificate(fixed, ctx.generator_set() - fixed)


def _d_rows(sigma: GeneratorMap, i: int, pinned: Sequence[int]) -> list[tuple[int, int]]:
    # the D rows of sigma's abelianization column i; an unstored image has none
    poly = sigma.stored[i].poly if i in sigma.stored else {}
    return [(d, poly[(d,)]) for d in pinned if (d,) in poly]


def _class_one_factors(
    sigma: GeneratorMap, fixed: frozenset[int], moves: Sequence[intmat.RowMove]
) -> list[Factor]:
    """The class-1 stage, certified, in sigma's own context: the pieces of
    `_block_maps`, then the two shears, read off sigma's degree-1 part.
    Spelled by the same words at any class and fixing D, each is the lift
    of its class-1 counterpart, and above class 1 is emitted as that lift.
    """
    ctx = sigma.ctx
    free = sorted(ctx.generator_set() - fixed)
    blocks = _block_maps(ctx, free, moves)
    pieces = [(phi, tag, _half_cert(ctx, free, used)) for phi, tag, used in blocks]
    # the D-translation parts: sigma(x_i) = x_i' * u_i with u_i over D; after
    # dividing by the block part, each free generator just picks up its u_i
    half = (len(free) + 1) // 2
    pinned = sorted(fixed)
    for own, other in ((free[:half], free[half:]), (free[half:], free[:half])):
        images = {}
        for i in own:
            pairs = _d_rows(sigma, i, pinned)
            if pairs:
                images[i] = from_word(ctx, Word(((i, 1), *pairs)))
        if not images:
            continue
        # the block on the moved generators is the identity: each image adds
        # only D letters to its own generator
        shear = GeneratorMap._sparse(ctx, images, unimodular=True)
        cert = MoietyCertificate(
            frozenset(other), ctx.generator_set() - frozenset(other)
        )
        pieces.append((shear, "shear", cert))
    if ctx.nilclass == 1:
        return [_certified(fixed, phi, cert, tag) for phi, tag, cert in pieces]
    return [
        _certified(fixed, phi, cert, "lifted", origin=tag) for phi, tag, cert in pieces
    ]


def abelian_decompose(
    sigma: GeneratorMap,
    fixed: Iterable[int],
    moves: Optional[Sequence[intmat.RowMove]] = None,
) -> Decomposition:
    """Base case: class 1, where the map is its abelianization matrix.

    Needs three free generators: a factor touches at most
    max(2, |E| // 2) of them, so every factor leaves one untouched for its
    certificate to fix.  `moves` is the factorization of sigma's free block
    by a caller that has checked sigma and reduced that block already
    (`decompose`); without it, both happen here.
    """
    ctx = sigma.ctx
    if ctx.nilclass != 1:
        raise BadClass(f"abelian decomposition needs class 1, got {ctx.nilclass}")
    if moves is None:
        fixed, moves = _reduce_free_block(sigma, fixed, min_free=3)
    fixed = frozenset(fixed)
    factors = _class_one_factors(sigma, fixed, moves)
    if ordered_product(ctx, [f.map for f in factors]) != sigma:
        raise CertificateInvalid("abelian factors do not multiply back to the input")
    return Decomposition(sigma, fixed, tuple(factors))


# ---------------------------------------------------------------------------
# lifting one class up

def lift_factor(f: Factor, fixed: Iterable[int]) -> Factor:
    """Lift a certified factor of class c to class c + 1, pinning D exactly.

    sigma_0 reinterprets the image words one class higher; a factor that
    keeps its offsets is rebuilt from its terms in class c + 1 instead
    (`ring.offset_image`), the same map, and the lift keeps those offsets.
    sigma_0 already fixes D modulo the center.  sigma_1 is the central IA
    map agreeing with sigma_0 on D and fixing everything else, so
    sigma_1^-1 o sigma_0 fixes D on the nose while inducing the original
    factor one class down.  Its offsets are central, so sigma_1^-1 is
    sigma_1 with every offset inverted; a factor that moves D has no such
    correction and is refused, and a corrected lift drops its offsets.  The
    certificate is carried over unchanged and rechecked; a factor whose
    D-image words smuggle letters from outside the preserved block can
    break it, which is reported rather than repaired.

    Part of the public contract; `decompose` builds every factor at its top
    class and calls neither this nor `lift_words`.
    """
    fixed = frozenset(fixed)
    if f.offsets is None:
        sigma0 = lift_words(f.map)
    else:
        up = GroupContext(f.map.ctx.rank, f.map.ctx.nilclass + 1)
        # every term has weight >= 2: the abelianization stays the identity
        sigma0 = GeneratorMap._sparse(
            up, {g: offset_image(up, g, terms) for g, terms in f.offsets}, unimodular=True
        )
    ctx = sigma0.ctx
    undo = {}  # the offsets of sigma_1^-1
    # sigma_0 fixes every pinned generator it does not move
    for d in sorted(fixed & sigma0.moved):
        z = mul(inv(generator(ctx, d)), sigma0(d))
        if lcs_weight(z) < ctx.nilclass:
            raise CertificateInvalid(f"factor moves pinned generator {d}")
        undo[d] = inv(z)
    lifted = compose(ia_central(ctx, undo), sigma0) if undo else sigma0
    return _certified(
        fixed,
        lifted,
        f.certificate,
        "lifted",
        origin=f.origin or f.tag,
        part=f.part,
        side=f.side,
        offsets=None if undo else f.offsets,
    )


# ---------------------------------------------------------------------------
# the central stage

# X_j -> sum_r m[r][j] X_r, for each j whose column in m is not e_j: the
# letter substitution of an inverse abelianization m (`_inverse_substitution`)
Substitution = dict[int, list[tuple[int, int]]]


def _inverse_substitution(
    sigma: GeneratorMap, fixed: frozenset[int], moves: Sequence[intmat.RowMove]
) -> Substitution:
    """The substitution of sigma's inverse abelianization, read off the
    factorization `moves` of its free block B.

    With the free generators E first and D after them, sigma's
    abelianization is [[B, 0], [S, I]], where S holds the D rows of sigma's
    columns on E, so its inverse is [[B^-1, 0], [-S B^-1, I]].  B^-1 is the
    inverted moves replayed on the identity's sparse rows, and every D
    column is a unit vector, so only free generators are substituted.
    """
    free = sorted(sigma.ctx.generator_set() - fixed)
    binv = intmat.replay_rows(len(free), [move.inverse() for move in moves])
    pinned = sorted(fixed)
    # the columns of B^-1 and -S B^-1, gathered row by row of B^-1
    cols: list[dict[int, int]] = [{} for _ in free]
    for r, row in zip(free, binv):
        s_col = _d_rows(sigma, r, pinned)
        for b, v in row.items():
            col = cols[b]
            col[r] = v
            for d, s in s_col:
                col[d] = col.get(d, 0) - s * v
    lins = {j: sorted((g, v) for g, v in c.items() if v) for j, c in zip(free, cols)}
    return {j: lin for j, lin in lins.items() if lin != [(j, 1)]}


def _central_quotient(
    p: GeneratorMap, sigma: GeneratorMap, subst: Substitution, k: int
) -> dict[int, GroupElement]:
    """The central offsets of P^-1 o sigma at class k, for an automorphism
    P that agrees with sigma modulo gamma_k, in closed form, without
    building, projecting, inverting or multiplying maps; P and sigma stay at
    their own class c >= k.

    At class k, sigma(x_i) = P(x_i) * w_i with w_i central, and in the
    truncated ring P(x_i) * (1 + h) = P(x_i) + h, so h_i is the degree-k
    part of the difference of the two class-c image polynomials: truncation
    is a ring homomorphism, so that is the difference of the two truncated
    images.  A term of degree below k in it means P does not agree with
    sigma, which is refused.  P^-1 acts on the center through its inverse
    abelianization alone, which is sigma's, so P^-1(w_i) = 1 + L(h_i) for
    the substitution L = `subst` of that inverse, and the quotient sends
    x_i to x_i * (1 + L(h_i)).  Returns these offsets {i: 1 + L(h_i)} at
    class k, for each i with h_i != 0 (L is invertible, so no other offset
    cancels to 1); only the generators P or sigma moves can have one.
    """
    ctx = GroupContext(sigma.ctx.rank, k)
    offsets = {}
    for i in sorted(p.moved | sigma.moved):
        h = dict(sigma(i).poly)
        _poly_add_into(h, p(i).poly, -1)
        if any(len(m) < k for m in h):
            raise NotCentralIA(
                f"image of generator {i} is not central modulo the lifted product"
            )
        h = {m: v for m, v in h.items() if len(m) == k}
        if not h:
            continue
        z = {(): 1}
        for m, v in h.items():
            terms = {(): v}
            for j in m:
                lin = subst.get(j)
                if lin is None:
                    terms = {t + (j,): x for t, x in terms.items()}
                else:
                    terms = {t + (r,): x * e for t, x in terms.items() for r, e in lin}
            _poly_add_into(z, terms)
        offsets[i] = GroupElement(ctx, z)
    return offsets


def _chunks(items: Sequence[int], count: int) -> list[list[int]]:
    base, extra = divmod(len(items), count)
    out, start = [], 0
    for k in range(count):
        size = base + (1 if k < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out


def _central_factors(
    ctx: GroupContext, k: int, offsets: dict[int, GroupElement], fixed: frozenset[int]
) -> list[Factor]:
    """The level-k central stage: split the central offsets {g: w_g} of a
    class-k map, each w_g of weight k, over at most 2(k+1) commuting maps
    beta_j, each built and certified once, in ctx, of class c >= k.

    Follows the two-sided construction: E splits into halves F and G; the
    G-images' terms (`lie.central_factorize`) are distributed over k+1
    cells of F so that beta_j's terms avoid cell F_j (possible because a
    weight-k commutator mentions at most k distinct generators), then the
    same with F and G swapped.  Each image is built from its cell's terms
    (`ring.offset_image`), which the factor keeps as its `offsets`.
    Truncation is a ring homomorphism, so the image's monomials of degree
    <= k are the class-k image of the same terms: whether the terms cancel,
    and which generators the level-k beta mentions, are read off those.
    Below the top class the factor is the `lifted` map that projects onto
    that beta, with its certificate; it stores images of free generators
    only, so it fixes D with no correction.
    """
    free = sorted(ctx.generator_set() - fixed)
    half = (len(free) + 1) // 2
    sides = ((free[:half], free[half:], "F"), (free[half:], free[:half], "G"))
    top = k == ctx.nilclass
    factors: list[Factor] = []
    for cells_source, movers, side in sides:
        cells = _chunks(cells_source, k + 1)
        cell_terms: list[dict[int, list[LeftNormedTerm]]] = [{} for _ in range(k + 1)]
        for g in movers:
            # an unmoved generator has the identity offset
            if g not in offsets:
                continue
            for term in central_factorize(offsets[g]):
                mentioned = set(term.generators)
                j = next(
                    (j for j in range(k + 1) if mentioned.isdisjoint(cells[j])),
                    None,
                )
                if j is None:
                    raise CertificateInvalid(
                        f"a weight-{k} term touches all {k + 1} cells"
                    )
                cell_terms[j].setdefault(g, []).append(term)
        for j in range(k + 1):
            images, beta_offsets, used = {}, [], set()
            for g, terms in cell_terms[j].items():
                img = offset_image(ctx, g, terms)
                low = [m for m in img.poly if len(m) <= k]
                # terms that cancel at class k leave x_g, which is no offset
                if len(low) > 2:
                    images[g] = img
                    beta_offsets.append((g, tuple(terms)))
                    for m in low:
                        used.update(m)
            if not images:
                continue
            # every term has weight >= 2: the abelianization stays the identity
            beta = GeneratorMap._sparse(ctx, images, unimodular=True)
            spares = [e for e in cells_source if e not in cells[j] and e not in used]
            pinned_block = frozenset(cells[j]) | frozenset(spares)
            cert = MoietyCertificate(pinned_block, ctx.generator_set() - pinned_block)
            factors.append(
                _certified(
                    fixed,
                    beta,
                    cert,
                    "central_beta" if top else "lifted",
                    origin=None if top else "central_beta",
                    part=j + 1,
                    side=side,
                    offsets=tuple(beta_offsets),
                )
            )
    return factors


def central_decompose(alpha: GeneratorMap, fixed: Iterable[int]) -> list[Factor]:
    """Split a central IA automorphism into at most 2(c+1) commuting
    certified maps, all central IA, hence commuting pairwise: decompose's
    own central stage at k = c.

    alpha is checked against D as `decompose` checks sigma
    (`_reduce_free_block`: the same refusals in the same order).  Its
    offsets are those of identity^-1 o alpha (`_central_quotient` with the
    empty substitution, since an IA map's inverse abelianization is the
    identity), which refuses any map that is not central IA, and
    `_central_factors` splits them.  Part of the public contract.
    """
    ctx = alpha.ctx
    c = ctx.nilclass
    if c < 2:
        raise BadClass("the central stage needs class >= 2")
    fixed, _ = _reduce_free_block(alpha, fixed, min_free=2 * (c + 1))
    offsets = _central_quotient(identity_map(ctx), alpha, {}, c)
    return _central_factors(ctx, c, offsets, fixed)


# ---------------------------------------------------------------------------
# the full induction

_NOT_UNIMODULAR = "determinant of the abelianization is not +-1"


def _reduce_free_block(
    sigma: GeneratorMap, fixed: Iterable[int], min_free: int
) -> tuple[frozenset[int], list[intmat.RowMove]]:
    """Check sigma against D and factor its free block B, the one row
    reduction that `decompose` makes.

    A map fixing D has a block triangular abelianization with the identity
    on D, so its determinant is det(B): the reduction of B succeeds exactly
    when sigma is an automorphism, and no determinant is taken.  B is read
    off sigma's images as sparse rows, never as a dense matrix.  A map that
    moves D, or leaves too few generators free, is refused in the order
    determinant, D, rank: its determinant is taken first.
    """
    fixed = frozenset(fixed)
    ctx = sigma.ctx
    ctx.check_generators(fixed)
    free = sorted(ctx.generator_set() - fixed)
    if not sigma.fixes_pointwise(fixed) or len(free) < min_free:
        if not sigma.is_automorphism():
            raise NotAutomorphism(_NOT_UNIMODULAR)
        if not sigma.fixes_pointwise(fixed):
            moved = sorted(fixed & sigma.moved)
            raise DoesNotFixD(f"map moves pinned generators {moved}")
        raise RankTooSmall(
            f"need at least {min_free} free generators, have {len(free)}"
        )
    try:
        moves = intmat.factor_unimodular(sigma._rows(free))
    except NotUnimodular:
        raise NotAutomorphism(_NOT_UNIMODULAR) from None
    sigma._unimodular = True
    return fixed, moves


def decompose(sigma: GeneratorMap, fixed: Iterable[int] = ()) -> Decomposition:
    """Factor an automorphism fixing D into certified factors (see module
    docstring for the construction and ordering).  sigma's free block is
    reduced once, here, and every level reuses that reduction."""
    ctx = sigma.ctx
    c = ctx.nilclass
    fixed, moves = _reduce_free_block(sigma, fixed, min_free=2 * (c + 1))
    if c == 1:
        return abelian_decompose(sigma, fixed, moves)
    subst = _inverse_substitution(sigma, fixed, moves)
    # every factor is built once, at class c, in output order; truncation is a
    # ring homomorphism and commutes with word lifts, so level k reads the
    # product of the factors so far off the degree-k part of its class-c images
    factors = _class_one_factors(sigma, fixed, moves)
    product = ordered_product(ctx, [f.map for f in factors])
    for k in range(2, c + 1):
        # the offsets of (product)^-1 o sigma at class k, in closed form; at
        # k = 2 it refuses any difference below the center: the class-1
        # multiply-back check
        offsets = _central_quotient(product, sigma, subst, k)
        betas = _central_factors(ctx, k, offsets, fixed)
        if k < c and betas:
            product = ordered_product(ctx, [product] + [f.map for f in betas])
        factors += betas
    return Decomposition(sigma, fixed, tuple(factors))
