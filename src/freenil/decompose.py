"""Factoring automorphisms that fix a generator subset into certified pieces.

Given an automorphism sigma fixing D pointwise, `decompose` produces an
ordered factor list whose left-to-right composition equals sigma, where every
factor carries a MoietyCertificate it satisfies.  The shape follows the
nilpotency class:

  class 1   integer row reduction of the block acting on E = complement of D
            (transvections, swaps, at most one sign flip), then two "shear"
            maps adding the D-translation parts over each half of E.

  class c   project one class down, decompose recursively, lift each factor
            back up (word reinterpretation plus a central correction pinning
            D exactly), divide their product out of sigma with a single
            inversion, and split the remaining central piece into 2(c+1)
            commuting maps beta_k, each avoiding one cell of a
            partition of half of E — the avoided cell is the certificate's
            fixed block.  A weight-c commutator mentions at most c distinct
            generators, so with c+1 cells one is always clean: that
            pigeonhole is checked at every assignment.

The checker for the output lives in `verifier`, which does not import this
module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import intmat
from .context import GroupContext
from .endo import (
    GeneratorMap,
    MoietyCertificate,
    check_certificate,
    compose,
    ia_central,
    inversion,
    invert,
    lift_words,
    ordered_product,
    permutational,
    project,
    transvection,
)
from .errors import (
    BadClass,
    CertificateInvalid,
    DoesNotFixD,
    NotAutomorphism,
    NotCentralIA,
    RankTooSmall,
)
from .lie import LeftNormedTerm, central_factorize, central_offset
from .records import Decomposition, Factor
from .ring import Word, from_word, generator, inv, lcs_weight, mul, occurs

# perfbench/ reads TAGS and verify_payload off this module
from .records import TAGS  # noqa: F401
from .verifier import verify_payload  # noqa: F401


def _certified(
    fixed: frozenset[int],
    phi: GeneratorMap,
    cert: MoietyCertificate,
    tag: str,
    level: int,
    **provenance,
) -> Factor:
    if not check_certificate(phi, cert):
        raise CertificateInvalid(f"{tag} factor fails its certificate")
    if not phi.fixes_pointwise(fixed):
        raise CertificateInvalid(f"{tag} factor moves the pinned set")
    return Factor(phi, cert, tag, level, **provenance)


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
    if move.kind == "swap":
        a, b = basis[move.i], basis[move.j]
        return permutational(ctx, {a: b, b: a}), "permutation", frozenset((a, b))
    return inversion(ctx, basis[move.i]), "sign", frozenset((basis[move.i],))


def _half_cert(
    ctx: GroupContext, free: Sequence[int], touched: frozenset[int]
) -> MoietyCertificate:
    # fixed block: the lower-index half of the untouched free generators
    rest = [e for e in free if e not in touched]
    fixed = frozenset(rest[: (len(rest) + 1) // 2])
    return MoietyCertificate(fixed, frozenset(ctx.generators()) - fixed)


def abelian_decompose(sigma: GeneratorMap, fixed: Iterable[int]) -> Decomposition:
    """Base case: class 1, where the map is its abelianization matrix.

    Needs three free generators: a move touches at most two of them, so
    every factor leaves one untouched for its certificate to fix.
    """
    ctx = sigma.ctx
    if ctx.nilclass != 1:
        raise BadClass(f"abelian decomposition needs class 1, got {ctx.nilclass}")
    fixed = _check_common(sigma, fixed, min_free=3)
    free = sorted(frozenset(ctx.generators()) - fixed)
    factors: list[Factor] = []
    for move in intmat.factor_unimodular(sigma._block(free)):
        phi, tag, touched = _move_to_map(ctx, free, move)
        cert = _half_cert(ctx, free, touched)
        factors.append(_certified(fixed, phi, cert, tag, 1))
    # the D-translation parts: sigma(x_i) = x_i' * u_i with u_i over D; after
    # dividing by the block part, each free generator just picks up its u_i
    half = (len(free) + 1) // 2
    pinned = sorted(fixed)
    for own, other in ((free[:half], free[half:]), (free[half:], free[:half])):
        images = {}
        for i in own:
            # the D rows of sigma's abelianization column i
            col = sigma(i).poly
            pairs = [(d, col[(d,)]) for d in pinned if (d,) in col]
            if pairs:
                images[i] = from_word(ctx, Word(((i, 1), *pairs)))
        if not images:
            continue
        # the block on the moved generators is the identity: each image adds
        # only D letters to its own generator
        shear = GeneratorMap._sparse(ctx, images, unimodular=True)
        cert = MoietyCertificate(
            frozenset(other), frozenset(ctx.generators()) - frozenset(other)
        )
        factors.append(_certified(fixed, shear, cert, "shear", 1))
    if ordered_product(ctx, [f.map for f in factors]) != sigma:
        raise CertificateInvalid("abelian factors do not multiply back to the input")
    return Decomposition(sigma, fixed, tuple(factors))


# ---------------------------------------------------------------------------
# lifting one class up

def lift_factor(f: Factor, target_class: int, fixed: Iterable[int]) -> Factor:
    """Lift a certified factor one class up, pinning D exactly.

    sigma_0 reinterprets the image words one class higher; it already fixes D
    modulo the center.  sigma_1 is the central IA map agreeing with sigma_0
    on D and fixing everything else, so sigma_1^-1 o sigma_0 fixes D on the
    nose while inducing the original factor one class down.  Its offsets are
    central, so sigma_1^-1 is sigma_1 with every offset inverted; a factor
    that moves D has no such correction and is refused.  The certificate is
    carried over unchanged and rechecked; a factor whose D-image words
    smuggle letters from outside the preserved block can break it, which is
    reported rather than repaired.
    """
    fixed = frozenset(fixed)
    low = f.map.ctx.nilclass
    if target_class != low + 1:
        raise BadClass(f"cannot lift class {low} factor to class {target_class}")
    sigma0 = lift_words(f.map)
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
        target_class,
        origin=f.origin or f.tag,
        part=f.part,
        side=f.side,
    )


# ---------------------------------------------------------------------------
# the central stage

def _chunks(items: Sequence[int], count: int) -> list[list[int]]:
    base, extra = divmod(len(items), count)
    out, start = [], 0
    for k in range(count):
        size = base + (1 if k < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out


def central_decompose(alpha: GeneratorMap, fixed: Iterable[int]) -> list[Factor]:
    """Split a central IA automorphism into 2(c+1) commuting certified maps.

    Follows the two-sided construction: E splits into halves F and G; the
    G-images' central offsets are distributed over c+1 cells of F so that
    beta_k's offsets avoid cell F_k (possible because a weight-c commutator
    mentions at most c distinct generators), then the same with F and G
    swapped.  All emitted maps are central IA, hence commute pairwise.

    Each beta offset is built in closed form from its cell's left-normed
    terms (`central_offset`), and the factor keeps those terms as `offsets`
    for the wire format.
    """
    ctx = alpha.ctx
    c = ctx.nilclass
    if c < 2:
        raise BadClass("the central stage needs class >= 2")
    fixed = _check_common(alpha, fixed, min_free=2 * (c + 1))
    free = sorted(frozenset(ctx.generators()) - fixed)
    half = (len(free) + 1) // 2
    sides = ((free[:half], free[half:], "F"), (free[half:], free[:half], "G"))
    factors: list[Factor] = []
    for cells_source, movers, side in sides:
        cells = _chunks(cells_source, c + 1)
        cell_terms: list[dict[int, list[LeftNormedTerm]]] = [{} for _ in range(c + 1)]
        for g in movers:
            # an unmoved generator has the identity offset
            if g not in alpha.moved:
                continue
            w = mul(inv(generator(ctx, g)), alpha(g))
            if lcs_weight(w) < c:
                raise NotCentralIA(
                    f"image of generator {g} is not central modulo the identity"
                )
            for term in central_factorize(w):
                mentioned = set(term.generators)
                k = next(
                    (k for k in range(c + 1) if mentioned.isdisjoint(cells[k])),
                    None,
                )
                if k is None:
                    raise CertificateInvalid(
                        f"a weight-{c} term touches all {c + 1} cells"
                    )
                cell_terms[k].setdefault(g, []).append(term)
        for k in range(c + 1):
            assignment, offsets = {}, []
            for g, terms in cell_terms[k].items():
                z = central_offset(ctx, terms)
                if not z.is_identity():
                    assignment[g] = z
                    offsets.append((g, tuple(terms)))
            if not assignment:
                continue
            beta = ia_central(ctx, assignment)
            used = set()
            for g, z in assignment.items():
                used.add(g)
                used.update(occurs(z))
            spares = [e for e in cells_source if e not in cells[k] and e not in used]
            pinned_block = frozenset(cells[k]) | frozenset(spares)
            cert = MoietyCertificate(
                pinned_block, frozenset(ctx.generators()) - pinned_block
            )
            factors.append(
                _certified(
                    fixed,
                    beta,
                    cert,
                    "central_beta",
                    c,
                    part=k + 1,
                    side=side,
                    offsets=tuple(offsets),
                )
            )
    return factors


# ---------------------------------------------------------------------------
# the full induction

def _check_common(
    phi: GeneratorMap, fixed: Iterable[int], min_free: int
) -> frozenset[int]:
    fixed = frozenset(fixed)
    phi.ctx.check_generators(fixed)
    if not phi.is_automorphism():
        raise NotAutomorphism("determinant of the abelianization is not +-1")
    if not phi.fixes_pointwise(fixed):
        moved = sorted(set(fixed) & phi.moved)
        raise DoesNotFixD(f"map moves pinned generators {moved}")
    if phi.ctx.rank - len(fixed) < min_free:
        raise RankTooSmall(
            f"need at least {min_free} free generators, have {phi.ctx.rank - len(fixed)}"
        )
    return fixed


def decompose(sigma: GeneratorMap, fixed: Iterable[int] = ()) -> Decomposition:
    """Factor an automorphism fixing D into certified factors (see module
    docstring for the construction and ordering)."""
    ctx = sigma.ctx
    c = ctx.nilclass
    fixed = _check_common(sigma, fixed, min_free=max(4, 2 * (c + 1)))
    if c == 1:
        return abelian_decompose(sigma, fixed)
    below = decompose(project(sigma, c - 1), fixed)
    lifted = [lift_factor(f, c, fixed) for f in below.factors]
    # alpha = (lifted product)^-1 o sigma, with one inversion of the product
    alpha = compose(invert(ordered_product(ctx, [f.map for f in lifted])), sigma)
    factors = tuple(lifted) + tuple(central_decompose(alpha, fixed))
    return Decomposition(sigma, fixed, factors)
