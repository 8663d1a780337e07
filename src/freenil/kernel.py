"""The map kernel: generator maps, their products, and certificates.

This is the part of the map layer that the verifier runs; the constructors,
inversion, lifts and random maps built on it live in `endo`.

A GeneratorMap stores only the images that are not the literal generator
x_i; every other generator maps to itself.  Every map operation below reads
the stored images only, so its cost follows the number of generators a map
moves, not the rank.

Applying a map to an element substitutes X_i -> (image of x_i) - 1 into every
monomial, which is exactly the ring extension of the group homomorphism.  It
walks the monomials as a trie, by first letter: p = p_0 + sum_i X_i q_i, where
p_0, the monomials with no moved letter, passes through unchanged, and each
q_i is substituted one degree lower and then multiplied once by the image of
X_i (or prefixed with X_i, if x_i is unmoved).  So monomials sharing a prefix
share its product, like terms are summed before they are multiplied, and a
map keeps no state for it.  A generator x_b (polynomial 1 + X_b) goes to its
stored image as it stands.

Determinants work on the moved block.  The abelianization column of an
unmoved generator is a unit vector, so det(M) is the determinant of the
block on the moved generators.  That block is read off the images' degree-1
monomials as sparse rows (`_rows`), and a signed permutation block, one
entry +-1 in each row and column, takes no determinant: it is unimodular by
inspection.  Permutations and signs are such blocks.  Nothing here builds
the dense n x n matrix.

Whether a map is an automorphism (det = +-1) is decided once and stored on
the map, and preserves needs no determinant beyond that one: an
automorphism that maps a subgroup <S> into itself has a block triangular
abelianization whose S block divides its determinant.  Constructors that
know the answer set it and skip the determinant: the identity is
unimodular, ia_central has the identity abelianization, and a product
multiplies determinants, so unimodular maps give a unimodular one (`endo`'s
constructors do the same).  A map parsed from the wire knows nothing and
decides for itself, by inspection or by its one determinant, unless
`decompose` settles the question first: it row-reduces the input's block on
the generators outside D, and a map fixing D has that block's determinant.

A MoietyCertificate names a partition (fixed P, preserved Q) of the
generators, and check_certificate decides whether a map fixes P pointwise
and restricts to an automorphism of the subgroup generated by Q.
check_partition is its shape check alone, and failed_claim names the claim
a refused certificate breaks.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from . import intmat
from .context import GroupContext, Record, _as_int, check_same_context
from .errors import IndexOutOfRange, NotAutomorphism, NotInGamma2, PartitionInvalid
from .ring import (
    GroupElement,
    Poly,
    _poly_add_into,
    _poly_mul,
    lcs_weight,
    letter,
    mul,
    occurs,
)


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
        classifies only those, while its other images carry over untouched;
        apply keeps nothing between calls, so updating in place is safe.
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
        acc._unimodular = first._unimodular
        for psi in maps[1:]:
            images = {i: acc.apply(img) for i, img in psi.stored.items()}
            for i, img in images.items():
                acc._put(i, img)
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
        return letter(self.ctx, i, 1) if img is None else img

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
        order, as a dense matrix."""
        return intmat.dense(self._rows(sub))

    def _rows(self, sub: Sequence[int]) -> intmat.Rows:
        """The block `_block(sub)` as sparse rows, {column: entry}, read off
        the images: each moved column's degree-1 monomials on `sub`, and a 1
        on the diagonal for each unmoved one."""
        pos = {g: k for k, g in enumerate(sub)}
        rows: intmat.Rows = [{} for _ in sub]
        for b, g in enumerate(sub):
            if g not in self.moved:
                rows[b][b] = 1
                continue
            for m, v in self.stored[g].poly.items():
                if len(m) == 1 and m[0] in pos:
                    rows[pos[m[0]]][b] = v
        return rows

    def is_identity(self) -> bool:
        return not self.moved

    def is_automorphism(self) -> bool:
        # decided once per map, unless its constructor already knew
        if self._unimodular is None:
            rows = self._rows(sorted(self.moved))
            self._unimodular = _is_signed_permutation(rows) or (
                intmat.det(intmat.dense(rows)) in (1, -1)
            )
        return self._unimodular

    def fixes_pointwise(self, subset: Iterable[int]) -> bool:
        return self.moved.isdisjoint(subset)

    def preserves(self, subset: Iterable[int]) -> bool:
        """True iff the map restricts to an automorphism of <subset>."""
        if not self.is_automorphism():
            raise NotAutomorphism("preserves() is only defined for automorphisms")
        sub = frozenset(subset)
        if not (sub <= self.ctx.generator_set() and all(type(i) is int for i in sub)):
            # Word's rule first (2.0 == 2 would pass the subset test), then
            # the range, at the least index
            sub = frozenset(_as_int(i, "generator index") for i in sub)
            self.ctx.check_generators(sorted(sub))
        # an unmoved generator's image is itself, inside <sub>.  Once every
        # moved one maps into <sub>, the abelianization is block triangular
        # with the sub block A on the diagonal, so det(A) divides det = +-1
        # and the restriction is an automorphism: no determinant is needed
        return all(occurs(self.stored[j]) <= sub for j in sub & self.moved)

    # -- substitution engine ------------------------------------------------

    def _substitute(self, p: Poly, cap: int) -> Poly:
        """p, of degree at most cap, with X_i -> Y_i = (image of x_i) - 1 for
        each moved i, over the trie p = p_0 + sum_i X_i q_i (module
        docstring).  Y_i is truncated to cap first; a scalar q_i = s adds
        s * Y_i straight into the result, with no substitution and no
        product.  Y_i may be empty (an endomorphism sending x_i to 1)."""
        moved = self.moved
        out: Poly = {}
        tails: dict[int, Poly] = {}
        for w, coeff in p.items():
            if moved.isdisjoint(w):
                out[w] = coeff
            else:
                tails.setdefault(w[0], {})[w[1:]] = coeff
        for i, q in tails.items():
            if i not in moved:
                sub = self._substitute(q, cap - 1)
                _poly_add_into(out, {(i,) + m: c for m, c in sub.items()})
                continue
            y = {m: c for m, c in self.stored[i].poly.items() if 0 < len(m) <= cap}
            if len(q) == 1 and () in q:
                _poly_add_into(out, y, q[()])
            else:
                _poly_add_into(out, _poly_mul(y, self._substitute(q, cap - 1), cap))
        return out

    def apply(self, a: GroupElement) -> GroupElement:
        check_same_context(self.ctx, a.ctx)
        moved = self.moved
        if not moved:
            return a
        if len(a.poly) == 2:
            # x_b is 1 + X_b, and its image is the stored one; of the two
            # keys, the constant monomial () is the empty one
            k, w = a.poly
            w = w or k
            if len(w) == 1 and a.poly[w] == 1:
                if w[0] in moved:
                    return GroupElement(self.ctx, self.stored[w[0]].poly)
                return GroupElement(self.ctx, a.poly)
        return GroupElement(self.ctx, self._substitute(a.poly, self.ctx.nilclass))


def _is_signed_permutation(rows: intmat.Rows) -> bool:
    """True when every row holds one entry, +-1, and no two share a column:
    such a block has determinant +-1 by inspection."""
    cols = set()
    for row in rows:
        if len(row) != 1:
            return False
        ((c, v),) = row.items()
        if v not in (1, -1) or c in cols:
            return False
        cols.add(c)
    return True


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
        stored[b] = mul(letter(ctx, b, 1), z)
    # the abelianization is the identity
    return GeneratorMap._sparse(ctx, stored, unimodular=True)


# ---------------------------------------------------------------------------
# certificates

class MoietyCertificate(Record):
    """Partition witness: the map fixes `fixed` pointwise and restricts to an
    automorphism of the subgroup generated by `preserved`."""

    __slots__ = ("fixed", "preserved")
    fixed: frozenset[int]
    preserved: frozenset[int]

    def __init__(self, fixed: Iterable[int], preserved: Iterable[int]):
        object.__setattr__(self, "fixed", frozenset(fixed))
        object.__setattr__(self, "preserved", frozenset(preserved))


def check_partition(ctx: GroupContext, cert: MoietyCertificate) -> None:
    """Refuse a certificate whose blocks do not partition 1..rank with
    preserved nonempty, the only shape check_certificate accepts."""
    if (
        cert.fixed | cert.preserved != ctx.generator_set()
        or cert.fixed & cert.preserved
        or not cert.preserved
    ):
        raise PartitionInvalid(
            "certificate needs fixed and preserved to partition 1..rank "
            "with preserved nonempty"
        )


def check_certificate(phi: GeneratorMap, cert: MoietyCertificate) -> bool:
    check_partition(phi.ctx, cert)
    if not phi.is_automorphism():
        raise NotAutomorphism("certificates only apply to automorphisms")
    return phi.fixes_pointwise(cert.fixed) and phi.preserves(cert.preserved)


def failed_claim(phi: GeneratorMap, cert: MoietyCertificate) -> str:
    """The claim of a certificate that check_certificate refused, named at
    the least generator that breaks it: the fixed block first."""
    moved = phi.moved & cert.fixed
    if moved:
        return f"fixed block: generator {min(moved)} is moved"
    leaving = [
        g for g in phi.moved & cert.preserved
        if not occurs(phi.stored[g]) <= cert.preserved
    ]
    return f"preserved block: image of generator {min(leaving)} leaves it"
