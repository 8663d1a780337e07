"""Generator maps: substitution, composition, inversion, certificates."""

import copy
import random

import pytest

from freenil import (
    BadClass,
    BlockConstraintViolated,
    GeneratorMap,
    GroupContext,
    IndexOutOfRange,
    MalformedInput,
    MoietyCertificate,
    NotAutomorphism,
    NotInGamma2,
    PartitionInvalid,
    PermutationInvalid,
    Word,
    abelian_decompose,
    blockwise,
    check_certificate,
    comm,
    compose,
    decompose,
    from_word,
    generator,
    ia_central,
    identity_map,
    inv,
    inversion,
    invert,
    invert_with_rounds,
    lcs_weight,
    left_normed_element,
    lift_words,
    mul,
    occurs,
    ordered_product,
    permutational,
    project,
    random_automorphism,
    transvection,
    truncate_class,
    word_of,
)
from freenil import endo, kernel, lie, ring
from freenil.intmat import det, inverse_unimodular
from matrix_oracle import matmul
from test_intmat import _is_signed_permutation


def rand_word(rng, n, max_len=6):
    return Word(
        tuple(
            (rng.randrange(1, n + 1), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randrange(0, max_len))
        )
    )


def rand_endo(rng, ctx):
    return GeneratorMap(
        ctx, [from_word(ctx, rand_word(rng, ctx.rank)) for _ in ctx.generators()]
    )


def rand_aut(rng, ctx, fix=(), length=10):
    return random_automorphism(ctx, rng.randrange(2**32), length, fix)


# ---------------------------------------------------------------------------
# the substitution engine against word rewriting

def _apply_by_words(phi, v):
    # the oracle: substitute each letter's image word and read the result
    substituted = Word(())
    for g, e in v.letters:
        substituted = substituted * (word_of(phi(g)) ** e)
    return from_word(phi.ctx, substituted)


def _rand_sparse_endo(rng, ctx):
    # moves a proper subset of the generators, so that an unmoved letter
    # can prefix a moved one in a monomial; an image may be the empty word
    moving = rng.sample(range(1, ctx.rank + 1), rng.randrange(1, ctx.rank))
    images = [generator(ctx, i) for i in ctx.generators()]
    for i in moving:
        images[i - 1] = from_word(ctx, rand_word(rng, ctx.rank, max_len=4))
    return GeneratorMap(ctx, images)


def test_apply_agrees_with_word_substitution():
    rng = random.Random(140)
    for n, c in ((3, 3), (4, 2)):
        ctx = GroupContext(n, c)
        for _ in range(100):
            phi = rand_endo(rng, ctx)
            v = rand_word(rng, n)
            assert phi.apply(from_word(ctx, v)) == _apply_by_words(phi, v)
    for c in range(2, 7):
        ctx = GroupContext(3, c)
        # x_1 -> 1, and x_3 -> x_3 x_2^-1: Y_3 has terms up to degree c, so
        # in X_2 X_3 (x_2 unmoved) it must be truncated to degree c - 1
        to_one = GeneratorMap(
            ctx,
            [
                from_word(ctx, Word(())),
                generator(ctx, 2),
                from_word(ctx, Word(((3, 1), (2, -1)))),
            ],
        )
        maps = [to_one] + [_rand_sparse_endo(rng, ctx) for _ in range(40)]
        for phi in maps:
            state = {k: copy.copy(v) for k, v in vars(phi).items()}
            for v in (Word(((2, 1), (3, 1))), rand_word(rng, 3, max_len=4)):
                assert phi.apply(from_word(ctx, v)) == _apply_by_words(phi, v)
            # apply keeps no state on the map
            assert vars(phi) == state


def test_identity_map_applies_as_identity():
    ctx = GroupContext(3, 2)
    a = from_word(ctx, Word(((1, 2), (3, -1))))
    assert identity_map(ctx).apply(a) == a


def test_apply_is_multiplicative():
    rng = random.Random(141)
    ctx = GroupContext(3, 3)
    for _ in range(50):
        phi = rand_endo(rng, ctx)
        a = from_word(ctx, rand_word(rng, 3))
        b = from_word(ctx, rand_word(rng, 3))
        assert phi.apply(mul(a, b)) == mul(phi.apply(a), phi.apply(b))


# ---------------------------------------------------------------------------
# composition

def test_compose_unit_laws():
    rng = random.Random(142)
    ctx = GroupContext(4, 2)
    phi = rand_endo(rng, ctx)
    e = identity_map(ctx)
    assert compose(phi, e) == phi
    assert compose(e, phi) == phi


def test_compose_matrix_is_product():
    rng = random.Random(143)
    ctx = GroupContext(4, 2)
    for _ in range(50):
        phi, psi = rand_endo(rng, ctx), rand_endo(rng, ctx)
        assert compose(phi, psi).matrix == matmul(phi.matrix, psi.matrix)


def test_compose_associative_100_triples():
    rng = random.Random(144)
    ctx = GroupContext(3, 3)
    for _ in range(100):
        f, g, h = (rand_endo(rng, ctx) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


# ---------------------------------------------------------------------------
# automorphism test and inversion

def test_is_automorphism_examples():
    ctx = GroupContext(2, 2)
    assert identity_map(ctx).is_automorphism()
    doubling = GeneratorMap(
        ctx, [from_word(ctx, Word(((1, 2),))), generator(ctx, 2)]
    )
    assert not doubling.is_automorphism()


def test_invert_identity():
    ctx = GroupContext(3, 2)
    assert invert(identity_map(ctx)) == identity_map(ctx)


def test_invert_transvection_is_negated_transvection():
    ctx = GroupContext(3, 3)
    assert invert(transvection(ctx, 1, 2, 3)) == transvection(ctx, 1, 2, -3)


def test_invert_round_trips_with_bounded_rounds():
    rng = random.Random(145)
    maps = []
    for _ in range(60):
        n = rng.randrange(2, 7)
        c = rng.randrange(1, 4)
        maps.append(rand_aut(rng, GroupContext(n, c)))
    # above class 3, where every round applies maps of many monomials
    for n, c in ((5, 4), (4, 5), (3, 6)):
        maps += [rand_aut(rng, GroupContext(n, c), length=8) for _ in range(4)]
    for phi in maps:
        c = phi.ctx.nilclass
        psi, rounds = invert_with_rounds(phi)
        assert rounds <= c
        assert compose(phi, psi).is_identity()
        assert compose(psi, phi).is_identity()
        assert invert(psi) == phi


def test_invert_rejects_non_automorphism():
    ctx = GroupContext(2, 2)
    with pytest.raises(NotAutomorphism):
        invert(GeneratorMap(ctx, [from_word(ctx, Word(((1, 2),))), generator(ctx, 2)]))


# ---------------------------------------------------------------------------
# the moved-block kernel against the dense n x n rules

def _dense_preserves(phi, subset):
    sub = sorted(frozenset(subset))
    for j in sub:
        if not 1 <= j <= phi.ctx.rank:
            raise IndexOutOfRange(f"generator {j} out of range 1..{phi.ctx.rank}")
    for j in sub:
        if not occurs(phi(j)) <= frozenset(sub):
            return False
    block = tuple(tuple(phi.matrix[r - 1][c - 1] for c in sub) for r in sub)
    return det(block) in (1, -1)


def _dense_invert_with_rounds(phi):
    # the inversion over all n generators and the full abelianization
    if det(phi.matrix) not in (1, -1):
        raise NotAutomorphism("map has no inverse: determinant is not +-1")
    ctx = phi.ctx
    minv = inverse_unimodular(phi.matrix)
    psi = GeneratorMap(
        ctx,
        [
            from_word(ctx, Word((j, minv[j - 1][i - 1]) for j in ctx.generators()))
            for i in ctx.generators()
        ],
    )
    delta = compose(phi, psi)
    rounds = 0
    while True:
        defects = [mul(inv(generator(ctx, i)), delta(i)) for i in ctx.generators()]
        if all(d.is_identity() for d in defects):
            return psi, rounds
        rounds += 1
        if rounds > ctx.nilclass:
            raise NotAutomorphism("defect weight failed to rise every round")
        anti = [inv(d) for d in defects]
        psi = GeneratorMap(
            ctx, [mul(psi(i), psi.apply(anti[i - 1])) for i in ctx.generators()]
        )
        delta = GeneratorMap(
            ctx, [mul(delta(i), delta.apply(anti[i - 1])) for i in ctx.generators()]
        )


def _sparse_endo(rng, ctx, moves):
    # `moves` generators take random words over all generators, so moved
    # columns hit unmoved rows and determinants take many values
    images = [generator(ctx, g) for g in ctx.generators()]
    for i in rng.sample(list(ctx.generators()), moves):
        images[i - 1] = from_word(ctx, rand_word(rng, ctx.rank, max_len=4))
    return GeneratorMap(ctx, images)


def _kernel_corpus():
    rng = random.Random(160)
    maps = []
    for n, c in ((6, 1), (7, 2), (5, 3), (9, 2)):
        ctx = GroupContext(n, c)
        unit = [generator(ctx, g) for g in ctx.generators()]
        maps.append(identity_map(ctx))
        maps.append(transvection(ctx, 1, n, 1))  # column 1 hits unmoved row n
        for head in (
            [Word(((1, 2),))],  # det 2
            [Word(((1, -1), (2, -1))), Word(((1, 1), (2, -1)))],  # det -2
            [Word(((2, 1),))],  # det 0
        ):
            images = [from_word(ctx, w) for w in head] + unit[len(head):]
            maps.append(GeneratorMap(ctx, images))
        for _ in range(12):
            maps.append(rand_aut(rng, ctx, fix=(1, 2), length=rng.randrange(1, 8)))
            maps.append(_sparse_endo(rng, ctx, rng.randrange(1, 4)))
            if c >= 2:
                b = rng.randrange(1, n + 1)
                letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
                z = left_normed_element(ctx, letters, rng.choice((-1, 1)))
                if not z.is_identity():
                    maps.append(ia_central(ctx, {b: z}))  # moved, IA
                    maps.append(compose(maps[-1], rand_aut(rng, ctx, length=3)))
    return maps


def test_kernel_corpus_covers_the_edge_cases():
    maps = _kernel_corpus()
    dets = {det(phi.matrix) for phi in maps}
    assert {0, 1, -1, 2, -2} <= dets
    assert any(phi.is_identity() for phi in maps)
    ia = [phi for phi in maps if phi.moved and phi.matrix == identity_map(phi.ctx).matrix]
    assert ia
    assert any(
        (r,) in phi(i).poly
        for phi in maps
        for i in phi.moved
        for r in set(phi.ctx.generators()) - phi.moved
    )
    rounds = [_dense_invert_with_rounds(phi)[1] for phi in maps if det(phi.matrix) in (1, -1)]
    assert max(rounds) >= 2


def test_block_matches_the_dense_abelianization():
    # entry (r, c) of the abelianization is the X_r coefficient in image c;
    # every block is read on random orderings of random subsets, which mix
    # moved and unmoved generators and drop rows that moved columns hit
    rng = random.Random(1802)
    for phi in _kernel_corpus():
        gens = list(phi.ctx.generators())
        dense = [[phi(c).poly.get((r,), 0) for c in gens] for r in gens]
        assert phi.matrix == tuple(tuple(row) for row in dense)
        for _ in range(6):
            sub = rng.sample(gens, rng.randrange(0, len(gens) + 1))
            expected = tuple(tuple(dense[r - 1][c - 1] for c in sub) for r in sub)
            assert phi._block(sub) == expected


def test_is_automorphism_matches_dense_determinant():
    for phi in _kernel_corpus():
        assert phi.is_automorphism() == (det(phi.matrix) in (1, -1))


def test_preserves_matches_dense_rule():
    rng = random.Random(161)
    for phi in _kernel_corpus():
        if det(phi.matrix) not in (1, -1):
            with pytest.raises(NotAutomorphism):
                phi.preserves({1})
            continue
        gens = list(phi.ctx.generators())
        subsets = [set(gens), sorted(phi.moved), set(gens) - phi.moved]
        subsets += [rng.sample(gens, rng.randrange(1, len(gens))) for _ in range(8)]
        for sub in subsets:
            assert phi.preserves(sub) == _dense_preserves(phi, sub), (phi, sub)
        # out-of-range indices raise, also beside unmoved generators only
        for bad in ({0, 1}, {phi.ctx.rank + 1}, set(gens) - phi.moved | {phi.ctx.rank + 1}):
            with pytest.raises(IndexOutOfRange):
                _dense_preserves(phi, bad)
            with pytest.raises(IndexOutOfRange):
                phi.preserves(bad)


def test_invert_matches_dense_reference():
    for phi in _kernel_corpus():
        if det(phi.matrix) not in (1, -1):
            with pytest.raises(NotAutomorphism):
                invert_with_rounds(phi)
            continue
        psi, rounds = invert_with_rounds(phi)
        ref, ref_rounds = _dense_invert_with_rounds(phi)
        assert psi == ref
        assert rounds == ref_rounds
        # same wire words, not just the same elements
        assert [word_of(a) for a in psi.images] == [word_of(a) for a in ref.images]


# ---------------------------------------------------------------------------
# constructors

def test_permutational_swap_squares_to_identity():
    ctx = GroupContext(4, 2)
    swap = permutational(ctx, {1: 2, 2: 1})
    assert not swap.is_identity()
    assert compose(swap, swap).is_identity()


def test_permutational_composition_law():
    rng = random.Random(146)
    ctx = GroupContext(5, 2)
    for _ in range(100):
        p = list(ctx.generators())
        q = list(ctx.generators())
        rng.shuffle(p)
        rng.shuffle(q)
        pq = [p[q[i - 1] - 1] for i in ctx.generators()]
        assert compose(permutational(ctx, p), permutational(ctx, q)) == permutational(
            ctx, pq
        )


def test_permutational_rejects_non_bijection():
    ctx = GroupContext(3, 1)
    with pytest.raises(PermutationInvalid):
        permutational(ctx, {1: 2})
    with pytest.raises(PermutationInvalid):
        permutational(ctx, [1, 2])
    # entries outside 1..rank are refused, not dropped, fixed points included
    for perm in ({1: 2, 2: 1, 99: 5}, {0: 0}, {1: 1, 5: 5}, {2: 0}, [1, 2, 5, 4]):
        with pytest.raises(PermutationInvalid):
            permutational(GroupContext(4, 2), perm)


@pytest.mark.parametrize(
    "perm", [{3.0: 2, 2: 3}, {3: 2.0, 2: 3}, {"3": 2}, [1, 2.0, 3, 4, 5, 6, 7, 8]]
)
def test_permutational_refuses_non_integer_entries(perm):
    # Word's rule before the range: a range holds 3.0, since 3.0 == 3
    with pytest.raises(MalformedInput) as info:
        permutational(GroupContext(8, 2), perm)
    assert str(info.value) == "generator index must be an integer"


def test_permutational_reads_int_subclasses_as_ints():
    ctx = GroupContext(4, 2)
    swap = permutational(ctx, {True: 2, 2: True})
    assert swap == permutational(ctx, {1: 2, 2: 1})
    assert all(type(i) is int for i in (*swap.stored, *swap.moved))


def test_ia_central_empty_assignment_is_identity():
    ctx = GroupContext(3, 2)
    assert ia_central(ctx, {}).is_identity()


def test_ia_central_rejects_weight_one_offset():
    ctx = GroupContext(3, 2)
    with pytest.raises(NotInGamma2):
        ia_central(ctx, {1: generator(ctx, 2)})


def test_ia_central_top_weight_maps_commute():
    rng = random.Random(147)
    for _ in range(100):
        n, c = rng.choice(((3, 2), (4, 3)))
        ctx = GroupContext(n, c)
        maps = []
        for _ in range(2):
            b = rng.randrange(1, n + 1)
            letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
            z = left_normed_element(ctx, letters, rng.choice((-1, 1)))
            maps.append(ia_central(ctx, {b: z} if not z.is_identity() else {}))
        assert compose(maps[0], maps[1]) == compose(maps[1], maps[0])


def test_ia_central_fixes_central_elements():
    rng = random.Random(148)
    ctx = GroupContext(4, 3)
    phi = ia_central(
        ctx, {2: left_normed_element(ctx, (1, 3, 4), 2)}
    )
    for _ in range(30):
        letters = tuple(rng.randrange(1, 5) for _ in range(3))
        w = left_normed_element(ctx, letters, rng.choice((-2, -1, 1, 2)))
        assert phi.apply(w) == w


def test_blockwise_assembles_disjoint_pieces():
    ctx = GroupContext(5, 2)
    piece1 = transvection(ctx, 1, 2, 1)
    piece2 = inversion(ctx, 4)
    rho = blockwise(ctx, (3,), ((1, 2), (4, 5)), (piece1, piece2))
    assert rho(1) == from_word(ctx, Word(((1, 1), (2, 1))))
    assert rho(3) == generator(ctx, 3)
    assert rho(4) == from_word(ctx, Word(((4, -1),)))
    assert blockwise(
        ctx, (), ((1, 2, 3, 4, 5),), (identity_map(ctx),)
    ).is_identity()


def test_blockwise_certificate_for_single_active_block():
    ctx = GroupContext(6, 2)
    active = transvection(ctx, 2, 3, -1)
    rho = blockwise(ctx, (1,), ((2, 3), (4, 5, 6)), (active, identity_map(ctx)))
    cert = MoietyCertificate(frozenset({1, 4, 5, 6}), frozenset({2, 3}))
    assert check_certificate(rho, cert)


def test_blockwise_partition_errors():
    ctx = GroupContext(4, 1)
    e = identity_map(ctx)
    with pytest.raises(PartitionInvalid):
        blockwise(ctx, (1,), ((1, 2), (3, 4)), (e, e))  # overlap
    with pytest.raises(PartitionInvalid):
        blockwise(ctx, (), ((1, 2),), (e, e))  # count mismatch
    with pytest.raises(PartitionInvalid):
        blockwise(ctx, (1,), ((2, 3),), (e,))  # 4 missing


def test_blockwise_leaky_image_rejected():
    ctx = GroupContext(4, 2)
    leaky = transvection(ctx, 1, 3, 1)  # image of x1 mentions x3, outside block
    with pytest.raises(BlockConstraintViolated):
        blockwise(ctx, (), ((1, 2), (3, 4)), (leaky, identity_map(ctx)))


def test_blockwise_non_unimodular_block_rejected():
    ctx = GroupContext(4, 2)
    doubling = GeneratorMap(
        ctx,
        [from_word(ctx, Word(((1, 2),)))]
        + [generator(ctx, i) for i in (2, 3, 4)],
    )
    with pytest.raises(BlockConstraintViolated):
        blockwise(ctx, (), ((1, 2), (3, 4)), (doubling, identity_map(ctx)))


# ---------------------------------------------------------------------------
# setwise preservation and certificates

def test_preserves_examples():
    ctx = GroupContext(4, 2)
    phi = transvection(ctx, 1, 2, 1)
    assert identity_map(ctx).preserves({1, 3})
    assert phi.preserves(set(range(2, 5)))
    assert phi.preserves({1, 2})
    assert not phi.preserves({1})
    # every index is range-checked first: the answer for {1} alone is False,
    # and no early return may hide the bad index beside it
    for bad in ({1, 99}, {2, 99}, {0, 1}, {0, 2}):
        with pytest.raises(IndexOutOfRange):
            phi.preserves(bad)


@pytest.mark.parametrize(
    "subset",
    [[1, "a"], [1, 2.0], [1, 2.5], ["a", 99]],
    ids=["str", "float", "fraction", "str-and-range"],
)
def test_preserves_refuses_non_integer_indices(subset):
    # Word's rule, before the subset test that reads 2.0 as 2 and before the
    # sort that cannot order "a" against 1
    ctx = GroupContext(8, 2)
    for phi in (identity_map(ctx), transvection(ctx, 1, 2, 1)):
        with pytest.raises(MalformedInput) as info:
            phi.preserves(subset)
        assert str(info.value) == "generator index must be an integer"


def test_check_certificate_examples():
    ctx = GroupContext(4, 2)
    phi = transvection(ctx, 1, 2, 1)
    assert check_certificate(phi, MoietyCertificate({3, 4}, {1, 2}))
    assert not check_certificate(phi, MoietyCertificate({2, 3}, {1, 4}))
    assert check_certificate(identity_map(ctx), MoietyCertificate({1, 2}, {3, 4}))


def test_check_certificate_partition_errors():
    ctx = GroupContext(3, 1)
    e = identity_map(ctx)
    with pytest.raises(PartitionInvalid):
        check_certificate(e, MoietyCertificate({1, 2}, {2, 3}))
    with pytest.raises(PartitionInvalid):
        check_certificate(e, MoietyCertificate({1}, {2}))
    with pytest.raises(PartitionInvalid):
        check_certificate(e, MoietyCertificate({1, 2, 3}, set()))


def _relabel(word, table):
    return Word(tuple((table[g], e) for g, e in word.letters))


def _confined_aut(rng, ctx, block):
    """An automorphism supported on `block` only: built at small rank, then
    rebased onto the block positions (identity elsewhere)."""
    small = GroupContext(len(block), ctx.nilclass)
    sigma = rand_aut(rng, small)
    table = {i + 1: block[i] for i in range(len(block))}
    images = [generator(ctx, g) for g in ctx.generators()]
    for i in small.generators():
        images[table[i] - 1] = from_word(ctx, _relabel(word_of(sigma(i)), table))
    return GeneratorMap(ctx, images)


def test_certificate_closed_under_compose_and_invert():
    rng = random.Random(149)
    ctx = GroupContext(6, 2)
    cert = MoietyCertificate({5, 6}, {1, 2, 3, 4})
    for _ in range(30):
        phi = _confined_aut(rng, ctx, [1, 2, 3, 4])
        psi = _confined_aut(rng, ctx, [1, 2, 3, 4])
        assert check_certificate(phi, cert)
        assert check_certificate(compose(phi, psi), cert)
        assert check_certificate(invert(phi), cert)


def test_fixing_d_does_not_imply_preserving_its_complement():
    # pinned generators may still appear in images: being moietous is a
    # stronger property than fixing D, which is the whole point of the
    # certificates
    witness = transvection(GroupContext(6, 2), 1, 5, 1)  # x1 -> x1 x5
    assert witness.fixes_pointwise({5, 6})
    assert not check_certificate(witness, MoietyCertificate({5, 6}, {1, 2, 3, 4}))


def test_certificate_transports_along_conjugation():
    rng = random.Random(150)
    ctx = GroupContext(6, 2)
    cert = MoietyCertificate({5, 6}, {1, 2, 3, 4})
    for _ in range(20):
        phi = _confined_aut(rng, ctx, [1, 2, 3, 4])
        p = list(ctx.generators())
        rng.shuffle(p)
        pi = permutational(ctx, p)
        table = {i: p[i - 1] for i in ctx.generators()}
        conj = compose(compose(pi, phi), invert(pi))
        moved_cert = MoietyCertificate(
            {table[i] for i in cert.fixed}, {table[i] for i in cert.preserved}
        )
        assert check_certificate(conj, moved_cert)


# ---------------------------------------------------------------------------
# projection and lifting

def test_project_identity():
    ctx = GroupContext(3, 3)
    assert project(identity_map(ctx), 2) == identity_map(GroupContext(3, 2))
    # the identity stores no image, and still refuses a bad target class
    for target in (0, 3, 4):
        with pytest.raises(BadClass):
            project(identity_map(ctx), target)


def test_project_commutes_with_apply():
    rng = random.Random(151)
    ctx = GroupContext(3, 3)
    for _ in range(40):
        phi = rand_endo(rng, ctx)
        a = from_word(ctx, rand_word(rng, 3))
        low = project(phi, 2)
        assert low.apply(truncate_class(a, 2)) == truncate_class(phi.apply(a), 2)


def test_lift_words_identity():
    ctx = GroupContext(3, 2)
    assert lift_words(identity_map(ctx)) == identity_map(GroupContext(3, 3))


def test_project_after_lift_words_recovers_map():
    rng = random.Random(152)
    for _ in range(60):
        n = rng.randrange(2, 6)
        c = rng.randrange(1, 4)
        ctx = GroupContext(n, c)
        phi = rand_aut(rng, ctx)
        lifted = lift_words(phi)
        assert lifted.ctx.nilclass == c + 1
        assert project(lifted, c) == phi
        # determinant is a class-independent read of the same words
        assert lifted.matrix == phi.matrix


def test_lift_words_rejects_non_automorphism():
    ctx = GroupContext(2, 2)
    with pytest.raises(NotAutomorphism):
        lift_words(
            GeneratorMap(ctx, [from_word(ctx, Word(((1, 2),))), generator(ctx, 2)])
        )


# ---------------------------------------------------------------------------
# seeded random automorphisms

def test_random_automorphism_zero_length_is_identity():
    assert random_automorphism(GroupContext(4, 2), 9, 0).is_identity()


def test_random_automorphism_everything_fixed_is_identity():
    phi = random_automorphism(GroupContext(3, 2), 9, 50, fix=(1, 2, 3))
    assert phi.is_identity()


def test_random_automorphism_deterministic():
    ctx = GroupContext(5, 3)
    a = random_automorphism(ctx, 77, 20, fix=(1,))
    b = random_automorphism(ctx, 77, 20, fix=(1,))
    assert a == b
    assert a != random_automorphism(ctx, 78, 20, fix=(1,))


def test_random_automorphism_snapshot():
    phi = random_automorphism(GroupContext(3, 2), seed=1, length=5)
    assert phi.matrix == ((0, 0, 1), (1, 0, 0), (0, -1, 0))
    assert [word_of(img).letters for img in phi.images] == [
        ((2, 1),),
        ((3, -1),),
        ((1, 1),),
    ]
    phi2 = random_automorphism(GroupContext(4, 1), seed=2026, length=6, fix=(2,))
    assert phi2.matrix == ((0, 0, 0, -1), (0, 1, 0, 0), (-1, 0, 0, 0), (1, 0, 1, 1))


def test_random_automorphism_contract():
    rng = random.Random(153)
    for _ in range(100):
        n = rng.randrange(2, 7)
        c = rng.randrange(1, 4)
        fix = tuple(range(1, rng.randrange(0, n) + 1))[: n - 1]
        phi = random_automorphism(
            GroupContext(n, c), rng.randrange(2**32), 12, fix
        )
        assert phi.is_automorphism()
        assert phi.fixes_pointwise(fix)


# ---------------------------------------------------------------------------
# support-confined extension: a small automorphism rebased into a big group

def test_small_automorphism_extends_with_large_fixed_block():
    # rebase an automorphism of a rank-4 group onto 4 scattered positions of a
    # rank-10 group; everything off those positions is certified fixed
    rng = random.Random(154)
    small = GroupContext(4, 2)
    big = GroupContext(10, 2)
    positions = [2, 5, 7, 9]  # where small generators land, in order
    table = {i + 1: positions[i] for i in range(4)}
    for _ in range(20):
        sigma = rand_aut(rng, small, fix=(1,))
        images = [generator(big, g) for g in big.generators()]
        for i in small.generators():
            images[table[i] - 1] = from_word(big, _relabel(word_of(sigma(i)), table))
        embedded = GeneratorMap(big, images)
        rest = sorted(set(big.generators()) - set(positions))
        rho = blockwise(big, (), (positions, rest), (embedded, identity_map(big)))
        assert rho == embedded
        # the rebased map agrees with sigma on the rebased pinned generator
        assert rho(table[1]) == generator(big, table[1])
        for i in small.generators():
            assert rho(table[i]) == from_word(big, _relabel(word_of(sigma(i)), table))
        cert = MoietyCertificate(frozenset(rest), frozenset(positions))
        assert check_certificate(rho, cert)
        assert len(cert.fixed) >= big.rank // 2


# ---------------------------------------------------------------------------
# the sparse contract: only non-literal images are stored

def test_dense_and_sparse_construction_agree():
    ctx = GroupContext(5, 3)
    full = [generator(ctx, g) for g in ctx.generators()]
    full[1] = from_word(ctx, Word(((2, 1), (4, -1))))
    full[3] = mul(generator(ctx, 4), comm(generator(ctx, 1), generator(ctx, 5)))
    dense = GeneratorMap(ctx, full)
    built = compose(
        transvection(ctx, 2, 4, -1),
        ia_central(ctx, {4: comm(generator(ctx, 1), generator(ctx, 5))}),
    )
    assert dense == built
    assert dense.images == tuple(full)
    assert built.images == tuple(full)
    assert sorted(dense.stored) == sorted(dense.moved) == [2, 4]
    assert identity_map(ctx).stored == {}
    assert identity_map(ctx).images == tuple(generator(ctx, g) for g in ctx.generators())


def test_long_word_for_a_generator_is_stored_and_lifts():
    # x1 [[x2, x3], x4] equals x1 at class 2 but not at class 3, so its word
    # is kept even though the generator does not move
    ctx = GroupContext(4, 2)
    x = [generator(ctx, g) for g in ctx.generators()]
    image = mul(x[0], comm(comm(x[1], x[2]), x[3]))
    assert image.poly == x[0].poly and len(image.word) == 11
    phi = GeneratorMap(ctx, [image, *x[1:]])
    assert phi.is_identity() and phi == identity_map(ctx)
    assert list(phi.stored) == [1]
    assert phi(1).word == image.word
    assert word_of(compose(identity_map(ctx), phi)(1)) == image.word
    assert lift_words(phi).moved == {1}
    # a single-letter or word-less x_i is not stored
    wordless = transvection(ctx, 2, 3, 1).apply(x[0])
    assert wordless.word is None
    for literal in (from_word(ctx, Word(((1, 1),))), wordless):
        assert GeneratorMap(ctx, [literal, *x[1:]]).stored == {}


def test_map_operation_calls_do_not_grow_with_rank(monkeypatch):
    # a two-move map costs the same number of substitutions and generator
    # builds whether the group has rank 8 or 64
    counts = {}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(GeneratorMap, "apply", counting("apply", GeneratorMap.apply))
    make = counting("generator", ring.generator)
    for module in (ring, endo, lie):
        monkeypatch.setattr(module, "generator", make)
    # kernel and endo build x_i with ring.letter once they have checked i
    spell = counting("generator", ring.letter)
    for module in (kernel, endo):
        monkeypatch.setattr(module, "letter", spell)

    def profile(rank):
        ctx = GroupContext(rank, 3)
        t = transvection(ctx, 1, 2, 1)
        z = ia_central(ctx, {3: left_normed_element(ctx, (1, 2), 1)})
        phi = compose(z, t)
        out = {}
        for name, run in (
            ("compose", lambda: compose(phi, t)),
            ("ordered_product", lambda: ordered_product(ctx, [t, z, phi])),
            ("invert_with_rounds", lambda: invert_with_rounds(phi)),
        ):
            counts.clear()
            run()
            out[name] = dict(counts)
        assert invert_with_rounds(phi)[1] >= 1
        return out

    low, high = profile(8), profile(64)
    assert low == high
    assert all(calls.get("apply", 0) > 0 for calls in low.values())


# ---------------------------------------------------------------------------
# facts decided once: unimodularity and literal images

def _count_det(monkeypatch):
    calls = []
    original = endo.intmat.det

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(endo.intmat, "det", counting)
    return calls


def _moved_block_is_signed_permutation(phi) -> bool:
    # read off the dense abelianization, on the moved rows and columns
    moved = sorted(phi.moved)
    return _is_signed_permutation(
        [[phi.matrix[r - 1][c - 1] for c in moved] for r in moved]
    )


def test_is_automorphism_takes_at_most_one_determinant_per_map(monkeypatch):
    # a moved block that is a signed permutation is unimodular by
    # inspection and takes none; any other block takes one
    maps = [GeneratorMap(phi.ctx, phi.images) for phi in _kernel_corpus()]
    expected = [0 if _moved_block_is_signed_permutation(phi) else 1 for phi in maps]
    assert 0 in expected and 1 in expected
    calls = _count_det(monkeypatch)
    for phi, count in zip(maps, expected):
        calls.clear()
        first = phi.is_automorphism()
        assert len(calls) == count
        assert phi.is_automorphism() == first == (det(phi.matrix) in (1, -1))
        assert len(calls) == count
        if first:
            # preserves takes no determinant beyond the map's own
            phi.preserves(phi.ctx.generators())
            phi.preserves(sorted(phi.moved)[:1])
            assert len(calls) == count


def test_constructors_that_know_unimodularity_take_no_determinant(monkeypatch):
    corpus = [phi for phi in _kernel_corpus() if phi.ctx.nilclass >= 2]
    for phi in corpus:
        phi.is_automorphism()  # decided before counting starts
    calls = _count_det(monkeypatch)
    for phi in corpus:
        ctx = phi.ctx
        n = ctx.rank
        z = left_normed_element(ctx, (1, 2) + (3,) * (ctx.nilclass - 2), 1)
        built = [
            project(phi, ctx.nilclass - 1),
            ia_central(ctx, {n: z}),
            identity_map(ctx),
            transvection(ctx, 1, n, -1),
            inversion(ctx, 2),
            permutational(ctx, {1: 2, 2: 3, 3: 1}),
            # blockwise checks each block's determinant while it assembles
            blockwise(
                ctx,
                (1,),
                ((2, 3), range(4, n + 1)),
                (transvection(ctx, 2, 3, 1), inversion(ctx, n)),
            ),
        ]
        if det(phi.matrix) in (1, -1):
            built.append(lift_words(phi))
            built.append(compose(built[-1], lift_words(ia_central(ctx, {1: z}))))
        for result in built:
            calls.clear()
            answer = result.is_automorphism()
            assert not calls, (phi, result)
            assert answer == (det(result.matrix) in (1, -1))
        # one unimodular factor says nothing about the product
        mixed = compose(ia_central(ctx, {ctx.rank: z}), phi)
        assert mixed.is_automorphism() == (det(mixed.matrix) in (1, -1))
    # a map of unknown status still takes its determinant, unless its
    # moved block is a signed permutation
    calls.clear()
    dense = next(p for p in corpus if not _moved_block_is_signed_permutation(p))
    phi = GeneratorMap(dense.ctx, dense.images)
    assert project(phi, 1).is_automorphism() == (det(phi.matrix) in (1, -1))
    assert len(calls) == 1
    calls.clear()
    ctx = corpus[0].ctx
    phi = GeneratorMap(ctx, permutational(ctx, {1: 2, 2: 3, 3: 1}).images)
    assert _moved_block_is_signed_permutation(phi)
    assert project(phi, 1).is_automorphism()
    assert not calls
    # at class 1 every factor, the shear included, is unimodular by
    # construction: once the input's own determinant is known, decomposing
    # it takes none
    ctx = GroupContext(8, 1)
    for seed in (3, 4, 5):
        # x_5 -> x_5 x_1 moves a free generator by a pinned one: a shear
        rho = random_automorphism(ctx, seed, 10, (1, 2))
        sigma = GeneratorMap(ctx, compose(transvection(ctx, 5, 1, 1), rho).images)
        sigma.is_automorphism()
        calls.clear()
        dec = abelian_decompose(sigma, (1, 2))
        assert not calls
        assert "shear" in {f.tag for f in dec.factors}
        assert ordered_product(ctx, [f.map for f in dec.factors]) == sigma


def test_inverse_takes_no_determinant(monkeypatch):
    # invert has checked phi, so invert(phi) is known to be unimodular
    inverses = [
        (phi, invert(phi)) for phi in _kernel_corpus() if det(phi.matrix) in (1, -1)
    ]
    calls = _count_det(monkeypatch)
    for phi, psi in inverses:
        assert psi.is_automorphism()
        assert compose(psi, phi).is_automorphism()
        assert compose(psi, phi).is_identity()
    assert not calls
    assert len(inverses) > 50


def test_compose_classifies_images_like_a_fresh_map():
    # an image phi moves and psi leaves alone loses its word; every image
    # must come out exactly as a fresh classification of the same stored
    # dict would leave it
    ctx = GroupContext(4, 2)
    x = [generator(ctx, g) for g in ctx.generators()]
    long_literal = GeneratorMap(ctx, [mul(x[0], comm(comm(x[1], x[2]), x[3])), *x[1:]])
    by_ctx = {}
    for phi in _kernel_corpus() + [long_literal, transvection(ctx, 2, 1, 1)]:
        by_ctx.setdefault(phi.ctx, []).append(phi)
    rng = random.Random(171)
    checked = 0
    for maps in by_ctx.values():
        pairs = [(phi, phi) for phi in maps] + [
            (rng.choice(maps), rng.choice(maps)) for _ in range(60)
        ]
        for phi, psi in pairs:
            result = compose(phi, psi)
            fresh = GeneratorMap._sparse(result.ctx, dict(result.stored))
            assert result.moved == fresh.moved
            assert {i: (a.poly, a.word) for i, a in result.stored.items()} == {
                i: (a.poly, a.word) for i, a in fresh.stored.items()
            }
            checked += 1
    assert checked > 300


def _compose_chain(maps):
    acc = maps[0]
    for psi in maps[1:]:
        acc = compose(acc, psi)
    return acc


def _state(phi):
    return (
        {i: (a.poly, a.word) for i, a in phi.stored.items()},
        phi.moved,
        phi._unimodular,
    )


@pytest.mark.parametrize("cell", [(32, 2, 1), (12, 4, 2), (13, 5, 1), (10, 1, 2)])
def test_ordered_product_in_place_matches_the_compose_chain(cell):
    # ordered_product updates its running product in place; the result must
    # be the map the compose chain builds, down to stored keys, words and
    # the unimodularity it knows, and no input may change
    rank, nilclass, pinned = cell
    ctx = GroupContext(rank, nilclass)
    fixed = range(1, pinned + 1)
    factors = [
        f.map
        for f in decompose(random_automorphism(ctx, 640 + rank, 8, fix=fixed), fixed).factors
    ]
    x = [generator(ctx, g) for g in ctx.generators()]
    # x_4 -> x_4^2 is not unimodular
    square = GeneratorMap(ctx, [*x[:3], from_word(ctx, Word(((4, 2),))), *x[4:]])
    assert not square.is_automorphism()
    # x_5 times a commutator of weight class + 1 is x_5 with a longer word:
    # stored, not moved, and a map that moves nothing hands it on with its word
    z = x[1]
    for g in range(3, nilclass + 4):
        z = comm(z, x[g - 1])
    long_literal = GeneratorMap(ctx, [*x[:4], mul(x[4], z), *x[5:]])
    assert list(long_literal.stored) == [5] and not long_literal.moved
    k = len(factors) // 2
    rng = random.Random(rank)
    cases = [
        factors,
        [long_literal] + factors,
        [long_literal, long_literal] + factors + [long_literal],
        factors[:k] + [square, long_literal] + factors[k:] + [long_literal],
        [identity_map(ctx), long_literal, square] + factors,
        [identity_map(ctx), long_literal, square],
        [rng.choice(factors + [square, long_literal]) for _ in range(30)],
        factors[:2],
    ]
    for maps in cases:
        before = [(_state(phi), dict(phi.stored)) for phi in maps]
        got = ordered_product(ctx, maps)
        assert _state(got) == _state(_compose_chain(maps))
        assert type(got.moved) is frozenset
        assert [(_state(phi), dict(phi.stored)) for phi in maps] == before
    assert ordered_product(ctx, factors[:1]) is factors[0]


def test_preserves_takes_no_determinant(monkeypatch):
    maps = [phi for phi in _kernel_corpus() if det(phi.matrix) in (1, -1)]
    for phi in maps:
        phi.is_automorphism()  # the map's own determinant, before counting
    calls = _count_det(monkeypatch)
    rng = random.Random(162)
    inside = outside = 0
    for phi in maps:
        gens = list(phi.ctx.generators())
        for sub in [gens, sorted(phi.moved)] + [
            rng.sample(gens, rng.randrange(1, len(gens))) for _ in range(4)
        ]:
            phi.preserves(sub)
            if phi.moved <= set(sub):
                inside += 1
            else:
                outside += 1
    assert not calls
    assert inside > 50 and outside > 50


def test_preserves_refuses_a_non_unimodular_sub_block_outside_moved():
    # x1 -> x1^2 x3, x3 -> x1 x3 is an automorphism (det 1 on {1, 3}); on
    # <x1, x2> its block is diag(2, 1) and x1 leaves the subgroup
    ctx = GroupContext(4, 2)
    phi = GeneratorMap._sparse(
        ctx,
        {
            1: from_word(ctx, Word(((1, 2), (3, 1)))),
            3: from_word(ctx, Word(((1, 1), (3, 1)))),
        },
    )
    assert phi.is_automorphism()
    assert not phi.moved <= {1, 2}
    assert det(phi._block([1, 2])) == 2
    assert not phi.preserves({1, 2})
    assert phi.preserves({1, 3}) and phi.preserves({1, 2, 3})
