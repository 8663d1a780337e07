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
            D exactly), divide out, and split the remaining central piece
            into 2(c+1) commuting maps beta_k, each avoiding one cell of a
            partition of half of E — the avoided cell is the certificate's
            fixed block.  A weight-c commutator mentions at most c distinct
            generators, so with c+1 cells one is always clean: that
            pigeonhole is asserted at every assignment.

`verify` re-reads a decomposition from its serialized form only and rechecks
everything: the product, every certificate, and D-fixing per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import intmat
from .context import GroupContext, check_same_context
from .endo import (
    GeneratorMap,
    MoietyCertificate,
    check_certificate,
    compose,
    ia_central,
    identity_map,
    inversion,
    invert,
    lift_words,
    permutational,
    project,
    transvection,
)
from .errors import (
    BadClass,
    CertificateInvalid,
    DoesNotFixD,
    IndexOutOfRange,
    NotAutomorphism,
    NotCentralIA,
    RankTooSmall,
)
from .lie import central_factorize, left_normed_element
from .ring import GroupElement, Word, from_word, generator, inv, lcs_weight, mul, occurs

TAGS = ("elementary_abelian", "shear", "permutation", "sign", "lifted", "central_beta")


@dataclass(frozen=True)
class Factor:
    """One certified piece of a decomposition."""

    map: GeneratorMap
    certificate: MoietyCertificate
    tag: str
    level: int  # nilpotency class at which the factor was emitted
    origin: Optional[str] = None  # pre-lift tag, for lifted factors
    part: Optional[int] = None  # which avoided cell, for central_beta
    side: Optional[str] = None  # which half of E the cells partition


@dataclass(frozen=True)
class Decomposition:
    input: GeneratorMap
    fixed: frozenset[int]
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    factors: int
    min_fixed_block: Optional[int]
    max_coefficient: int
    failures: tuple[str, ...]


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
    """Base case: class 1, where the map is its abelianization matrix."""
    ctx = sigma.ctx
    if ctx.nilclass != 1:
        raise BadClass(f"abelian decomposition needs class 1, got {ctx.nilclass}")
    fixed = _check_common(sigma, fixed, min_free=2)
    free = sorted(frozenset(ctx.generators()) - fixed)
    matrix = sigma.matrix
    block = tuple(tuple(matrix[r - 1][c - 1] for c in free) for r in free)
    factors: list[Factor] = []
    for move in intmat.factor_unimodular(block):
        phi, tag, touched = _move_to_map(ctx, free, move)
        cert = _half_cert(ctx, free, touched)
        factors.append(_certified(fixed, phi, cert, tag, 1))
    # the D-translation parts: sigma(x_i) = x_i' * u_i with u_i over D; after
    # dividing by the block part, each free generator just picks up its u_i
    half = (len(free) + 1) // 2
    pinned = sorted(fixed)
    for own, other in ((free[:half], free[half:]), (free[half:], free[:half])):
        images = [generator(ctx, g) for g in ctx.generators()]
        moved_any = False
        for i in own:
            pairs = [(d, matrix[d - 1][i - 1]) for d in pinned if matrix[d - 1][i - 1]]
            if pairs:
                moved_any = True
                images[i - 1] = from_word(ctx, Word(((i, 1), *pairs)))
        if not moved_any:
            continue
        shear = GeneratorMap(ctx, images)
        cert = MoietyCertificate(
            frozenset(other), frozenset(ctx.generators()) - frozenset(other)
        )
        factors.append(_certified(fixed, shear, cert, "shear", 1))
    dec = Decomposition(sigma, fixed, tuple(factors))
    assert ordered_product(ctx, [f.map for f in factors]) == sigma
    return dec


# ---------------------------------------------------------------------------
# lifting one class up

def lift_factor(f: Factor, target_class: int, fixed: Iterable[int]) -> Factor:
    """Lift a certified factor one class up, pinning D exactly.

    sigma_0 reinterprets the image words one class higher; it already fixes D
    modulo the center.  sigma_1 is the central IA map agreeing with sigma_0
    on D and fixing everything else, so sigma_1^-1 o sigma_0 fixes D on the
    nose while inducing the original factor one class down.  The certificate
    is carried over unchanged and rechecked; a factor whose D-image words
    smuggle letters from outside the preserved block can break it, which is
    reported rather than repaired.
    """
    fixed = frozenset(fixed)
    low = f.map.ctx.nilclass
    if target_class != low + 1:
        raise BadClass(f"cannot lift class {low} factor to class {target_class}")
    sigma0 = lift_words(f.map)
    ctx = sigma0.ctx
    offsets = {}
    for d in sorted(fixed):
        z = mul(inv(generator(ctx, d)), sigma0(d))
        if not z.is_identity():
            offsets[d] = z
    if offsets:
        sigma1 = ia_central(ctx, offsets)
        lifted = compose(invert(sigma1), sigma0)
    else:
        lifted = sigma0
    assert lifted.fixes_pointwise(fixed)
    if not check_certificate(lifted, f.certificate):
        raise CertificateInvalid("lifting did not preserve the certificate")
    return Factor(
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
        offsets: list[dict[int, GroupElement]] = [{} for _ in range(c + 1)]
        for g in movers:
            w = mul(inv(generator(ctx, g)), alpha(g))
            if w.is_identity():
                continue
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
                assert k is not None, "a weight-c term cannot touch all c+1 cells"
                piece = left_normed_element(ctx, term.generators, term.exponent)
                prev = offsets[k].get(g)
                offsets[k][g] = piece if prev is None else mul(prev, piece)
        for k in range(c + 1):
            assignment = {g: z for g, z in offsets[k].items() if not z.is_identity()}
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
                    fixed, beta, cert, "central_beta", c, part=k + 1, side=side
                )
            )
    return factors


# ---------------------------------------------------------------------------
# the full induction

def _check_common(
    phi: GeneratorMap, fixed: Iterable[int], min_free: int
) -> frozenset[int]:
    fixed = frozenset(fixed)
    for d in fixed:
        if not 1 <= d <= phi.ctx.rank:
            raise IndexOutOfRange(f"generator {d} out of range 1..{phi.ctx.rank}")
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
    # alpha = (lifted product)^-1 o sigma, computed one inverse at a time so
    # no dense-by-dense composition is ever materialized
    images = list(sigma.images)
    for f in lifted:
        anti = invert(f.map)
        images = [anti.apply(a) for a in images]
    alpha = GeneratorMap(ctx, images)
    factors = tuple(lifted) + tuple(central_decompose(alpha, fixed))
    return Decomposition(sigma, fixed, factors)


def verify(dec: Decomposition) -> VerifyReport:
    """Re-check a decomposition from its serialized form alone."""
    from .jsonio import decomposition_payload

    return verify_payload(decomposition_payload(dec))


def verify_payload(payload: dict) -> VerifyReport:
    """The checker behind `verify`: consumes the wire format, recomputes the
    ordered product, and rechecks every certificate and D-fixing claim.
    Check failures are reported, never raised."""
    from .jsonio import parse_decomposition

    dec = parse_decomposition(payload)
    ctx = dec.input.ctx
    failures: list[str] = []
    coeffs = [1]
    for img in dec.input.images:
        coeffs.extend(abs(v) for v in img.poly.values())
    for idx, f in enumerate(dec.factors):
        for img in f.map.images:
            coeffs.extend(abs(v) for v in img.poly.values())
        try:
            if not check_certificate(f.map, f.certificate):
                failures.append(f"factor {idx}: certificate does not hold")
        except Exception as err:  # domain errors count as failures here
            failures.append(f"factor {idx}: {err}")
        if not f.map.fixes_pointwise(dec.fixed):
            failures.append(f"factor {idx}: moves the pinned set")
    product = ordered_product(ctx, [f.map for f in dec.factors])
    for img in product.images:
        coeffs.extend(abs(v) for v in img.poly.values())
    if product != dec.input:
        failures.append("ordered product of factors differs from the input map")
    sizes = [len(f.certificate.fixed - dec.fixed) for f in dec.factors]
    return VerifyReport(
        ok=not failures,
        factors=len(dec.factors),
        min_fixed_block=min(sizes) if sizes else None,
        max_coefficient=max(coeffs),
        failures=tuple(failures),
    )
