"""The certified factorization pipeline and its recheck."""

import importlib
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from freenil import (
    BadClass,
    CertificateInvalid,
    Decomposition,
    DoesNotFixD,
    Factor,
    GeneratorMap,
    GroupContext,
    IndexOutOfRange,
    MoietyCertificate,
    NotAutomorphism,
    NotCentralIA,
    RankTooSmall,
    Word,
    abelian_decompose,
    central_decompose,
    check_certificate,
    compose,
    decompose,
    from_word,
    generator,
    ia_central,
    identity_map,
    inversion,
    invert,
    left_normed_element,
    lift_factor,
    lift_words,
    ordered_product,
    permutational,
    project,
    random_automorphism,
    transvection,
    verify,
)

from test_wire_fixtures import as_v3


def product_of(ctx, dec):
    return ordered_product(ctx, [f.map for f in dec.factors])


# ---------------------------------------------------------------------------
# the abelian base case

def test_identity_decomposes_to_nothing():
    for n, c in ((8, 1), (8, 2), (10, 3)):
        ctx = GroupContext(n, c)
        dec = decompose(identity_map(ctx), (1,))
        assert dec.factors == ()
        rep = verify(dec)
        assert rep.ok and rep.factors == 0 and rep.min_fixed_block is None


def test_translation_only_map_is_a_single_shear():
    # n - |D| = 3 is below the master entry point's bound but fine for the
    # base-case routine, which only needs three free generators
    ctx = GroupContext(4, 1)
    sigma = transvection(ctx, 2, 1, 1)  # x2 -> x2 x1, translation by the pinned x1
    dec = abelian_decompose(sigma, (1,))
    assert len(dec.factors) == 1
    f = dec.factors[0]
    assert f.tag == "shear" and f.map.ctx.nilclass == 1
    assert f.map == sigma
    assert f.certificate.fixed == {4}
    assert verify(dec).ok


def test_abelian_block_moves_carry_expected_tags():
    ctx = GroupContext(6, 1)
    sigma = compose(
        compose(permutational(ctx, {2: 3, 3: 2}), inversion(ctx, 4)),
        transvection(ctx, 2, 3, 2),
    )
    dec = decompose(sigma, (1,))
    assert verify(dec).ok
    assert {f.tag for f in dec.factors} <= {
        "elementary_abelian",
        "permutation",
        "sign",
        "shear",
    }
    assert product_of(ctx, dec) == sigma


def test_abelian_round_trips_seeded():
    rng = random.Random(160)
    for _ in range(120):
        n = rng.choice((6, 8))
        fix = tuple(range(1, rng.choice((0, 1, 2)) + 1))
        ctx = GroupContext(n, 1)
        sigma = random_automorphism(ctx, rng.randrange(2**32), 14, fix)
        dec = decompose(sigma, fix)
        assert product_of(ctx, dec) == sigma
        rep = verify(dec)
        assert rep.ok, rep.failures
        assert all(f.map.fixes_pointwise(fix) for f in dec.factors)
        assert all(len(f.certificate.fixed - set(fix)) >= 1 for f in dec.factors)


def test_abelian_decompose_accepts_small_free_sets():
    # the direct entry point needs three free generators, so that every move
    # leaves one untouched for its certificate to fix
    ctx = GroupContext(4, 1)
    with pytest.raises(RankTooSmall):
        abelian_decompose(transvection(ctx, 3, 4, 1), (1, 2))
    sigma = compose(transvection(ctx, 3, 4, 1), transvection(ctx, 2, 3, -1))
    dec = abelian_decompose(sigma, (1,))
    assert product_of(ctx, dec) == sigma
    assert all(f.certificate.fixed for f in dec.factors)
    rep = verify(dec)
    assert rep.ok and rep.min_fixed_block == 1


def _check_permutation_factors(dec, n):
    """Every permutation factor, lifted or not, moves between 2 and
    max(2, |E| // 2) free generators, and its certificate fixes at least
    half of the rest."""
    free = n - len(dec.fixed)
    limit = max(2, free // 2)
    pieces = [f for f in dec.factors if (f.origin or f.tag) == "permutation"]
    for f in pieces:
        assert 2 <= len(f.map.moved) <= limit
        assert not f.map.moved & dec.fixed
        assert len(f.certificate.fixed - dec.fixed) >= -(-(free - limit) // 2)
    return pieces


def test_abelian_decompose_merges_a_derangement_into_few_permutations():
    # 31 free generators: each permutation factor touches at most 15
    ctx = GroupContext(32, 1)
    rng = random.Random(2024)
    cycle = list(range(2, 33))
    shuffled = cycle[:]
    while any(a == b for a, b in zip(cycle, shuffled)):
        rng.shuffle(shuffled)
    for images in (cycle[1:] + cycle[:1], shuffled):
        sigma = permutational(ctx, dict(zip(cycle, images)))
        dec = abelian_decompose(sigma, (1,))
        assert product_of(ctx, dec) == sigma
        assert verify(dec).ok
        pieces = _check_permutation_factors(dec, 32)
        assert pieces == list(dec.factors)
        assert len(pieces) <= 3
        assert all(len(f.certificate.fixed - {1}) >= 8 for f in pieces)


def test_abelian_decompose_negates_each_minus_one_pivot():
    # two -1 pivots are two sign factors, not six transvections
    ctx = GroupContext(6, 1)
    sigma = compose(inversion(ctx, 2), inversion(ctx, 3))
    dec = abelian_decompose(sigma, (1,))
    assert [f.tag for f in dec.factors] == ["sign", "sign"]
    assert sorted(g for f in dec.factors for g in f.map.moved) == [2, 3]
    assert product_of(ctx, dec) == sigma
    assert verify(dec).ok


def test_decompose_class_5_map_with_sign_pivots_stays_short():
    # this map's class-1 block has two -1 pivots; written as six adds they
    # gave 17 factors
    ctx = GroupContext(13, 5)
    sigma = random_automorphism(ctx, 1, 12, (1,))
    dec = decompose(sigma, (1,))
    rep = verify(dec)
    assert rep.ok, rep.failures
    assert rep.factors < 17
    assert sum(f.origin == "sign" for f in dec.factors) == 2


def test_abelian_decompose_wrong_class_rejected():
    ctx = GroupContext(4, 2)
    with pytest.raises(BadClass):
        abelian_decompose(identity_map(ctx), (1,))


# ---------------------------------------------------------------------------
# lifting factors

def test_lift_factor_round_trip_seeded():
    rng = random.Random(161)
    for _ in range(60):
        c = rng.choice((1, 2))
        ctx = GroupContext(8, c)
        fix = (1,) if rng.random() < 0.5 else ()
        sigma = random_automorphism(ctx, rng.randrange(2**32), 10, fix)
        for f in decompose(sigma, fix).factors:
            lifted = lift_factor(f, fix)
            assert lifted.map.ctx.nilclass == c + 1
            assert lifted.map.fixes_pointwise(fix)
            assert project(lifted.map, c) == f.map
            assert check_certificate(lifted.map, lifted.certificate)
            assert lifted.tag == "lifted" and lifted.origin == (f.origin or f.tag)


def test_lift_factor_corrects_dirty_words_on_pinned_set():
    # a factor whose pinned-generator image word hides a deeper commutator:
    # trivial at class 2, visible at class 3, so the central correction at D
    # must actually fire
    from freenil import comm

    low = GroupContext(6, 2)
    high = GroupContext(6, 3)
    deep = comm(
        comm(generator(high, 3), generator(high, 4)), generator(high, 3)
    ).word  # a genuine weight-3 commutator word on letters {3,4}
    junk = Word(((1, 1),)) * deep
    image = from_word(low, junk)
    assert image == generator(low, 1)  # the tail dies at class 2
    images = [image] + [generator(low, g) for g in range(2, 7)]
    base = GeneratorMap(low, images)
    assert base.fixes_pointwise((1,))
    cert = MoietyCertificate(frozenset({2, 5, 6}), frozenset({1, 3, 4}))
    assert check_certificate(base, cert)
    f = Factor(base, cert, "shear")
    lifted = lift_factor(f, (1,))
    assert lifted.map.fixes_pointwise((1,))  # exact, not just modulo center
    assert project(lifted.map, 2) == base
    assert check_certificate(lifted.map, lifted.certificate)


def test_lift_factor_reports_unliftable_certificate():
    # image word of a preserved generator smuggles a letter from the fixed
    # block: invisible at class 1 is impossible, so stage it at class 1 -> 2
    # via a word whose extra letters cancel in the abelianization but not
    # above it
    low = GroupContext(4, 1)
    dirty = Word(((1, 1), (3, 1), (2, 1), (3, -1)))  # abelianizes to x1 x2
    images = [from_word(low, dirty)] + [generator(low, g) for g in (2, 3, 4)]
    base = GeneratorMap(low, images)
    cert = MoietyCertificate(frozenset({3, 4}), frozenset({1, 2}))
    assert check_certificate(base, cert)  # fine at class 1
    with pytest.raises(CertificateInvalid):
        lift_factor(Factor(base, cert, "elementary_abelian"), ())


def test_lift_factor_refuses_a_factor_that_moves_the_pinned_set():
    # the correction at D inverts a central IA map in closed form, which is
    # only right when every offset at D is central
    low = GroupContext(8, 1)
    cert = MoietyCertificate(frozenset({5, 6, 7, 8}), frozenset({1, 2, 3, 4}))
    slipping = Factor(transvection(low, 1, 2, 1), cert, "elementary_abelian")
    with pytest.raises(CertificateInvalid):
        lift_factor(slipping, (1,))
    mid = GroupContext(8, 2)
    shallow = ia_central(mid, {1: left_normed_element(mid, (2, 3), 1)})
    with pytest.raises(CertificateInvalid):
        lift_factor(Factor(shallow, cert, "lifted"), (1,))


def test_central_ia_inverse_is_the_negated_offsets():
    # lift_factor's closed form: for central offsets z_b, the map
    # x_b -> x_b z_b^-1 is exactly the inverse of x_b -> x_b z_b
    from freenil import inv, mul

    rng = random.Random(164)
    checked = 0
    for n, c in ((6, 2), (6, 3), (5, 4), (7, 5)):
        ctx = GroupContext(n, c)
        for _ in range(5):
            offsets = {}
            for b in rng.sample(range(1, n + 1), rng.randrange(1, 4)):
                z = from_word(ctx, Word(()))
                for _ in range(rng.randrange(1, 4)):
                    letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
                    z = mul(z, left_normed_element(ctx, letters, rng.choice((-1, 1, 2))))
                if not z.is_identity():
                    offsets[b] = z
            if not offsets:
                continue
            sigma1 = ia_central(ctx, offsets)
            closed = ia_central(ctx, {b: inv(z) for b, z in offsets.items()})
            assert closed == invert(sigma1)
            assert compose(closed, sigma1).is_identity()
            checked += 1
    assert checked >= 16


# ---------------------------------------------------------------------------
# the central stage

def test_central_decompose_identity_is_empty():
    ctx = GroupContext(8, 2)
    assert central_decompose(identity_map(ctx), (1,)) == []


def test_central_decompose_single_offset_pigeonholes():
    ctx = GroupContext(8, 2)
    # E = {1..8}, F = {1,2,3,4} split into c+1 = 3 cells {1,2}, {3}, {4};
    # the offset mentions x3, so the first cell avoiding it is {1,2}
    alpha = ia_central(ctx, {7: left_normed_element(ctx, (3, 7), 1)})
    factors = central_decompose(alpha, ())
    assert len(factors) == 1
    (f,) = factors
    assert f.tag == "central_beta" and f.side == "F" and f.part == 1
    assert f.map == alpha
    assert f.certificate.fixed == {1, 2, 4}  # cell plus the untouched spare x4
    assert ordered_product(ctx, [f.map]) == alpha


def _random_central_ia(rng, ctx, fix):
    # offsets of weight c, each a product of one or two left-normed powers,
    # on a random nonempty set of the free generators
    from freenil import mul

    n, c = ctx.rank, ctx.nilclass
    free = [g for g in ctx.generators() if g not in fix]
    assignment = {}
    for b in rng.sample(free, k=rng.randrange(1, len(free))):
        z = from_word(ctx, Word(()))
        for _ in range(rng.randrange(1, 3)):
            letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
            z = mul(z, left_normed_element(ctx, letters, rng.choice((-2, -1, 1, 2))))
        if not z.is_identity():
            assignment[b] = z
    return ia_central(ctx, assignment)


def test_central_decompose_round_trip_and_commutation():
    rng = random.Random(162)
    for _ in range(60):
        n, c = rng.choice(((8, 2), (10, 3)))
        ctx = GroupContext(n, c)
        fix = tuple(range(1, rng.choice((0, 1)) + 1))
        alpha = _random_central_ia(rng, ctx, fix)
        factors = central_decompose(alpha, fix)
        maps = [f.map for f in factors]
        assert ordered_product(ctx, maps) == alpha
        for f in factors:
            assert check_certificate(f.map, f.certificate)
            assert f.map.fixes_pointwise(fix)
        if len(maps) >= 2:
            shuffled = maps[:]
            rng.shuffle(shuffled)
            assert ordered_product(ctx, shuffled) == alpha


def test_decompose_of_a_central_map_is_its_central_decomposition():
    # a central IA map has no class-1 piece and no offset below the top, so
    # decompose's one central stage, at k = c, writes what the public
    # central_decompose does
    rng = random.Random(3401)
    for _ in range(60):
        c = rng.choice((2, 3, 4))
        fix = tuple(range(1, rng.choice((0, 1, 2)) + 1))
        ctx = GroupContext(2 * (c + 1) + len(fix) + rng.randrange(3), c)
        alpha = _random_central_ia(rng, ctx, fix)
        assert decompose(alpha, fix).factors == tuple(central_decompose(alpha, fix))


def test_central_decompose_rejects_shallow_maps():
    ctx = GroupContext(8, 3)
    # weight-2 offset: IA but not central-IA at class 3
    alpha = ia_central(ctx, {3: left_normed_element(ctx, (1, 2), 1)})
    with pytest.raises(NotCentralIA):
        central_decompose(alpha, ())


def _dense_inverse_substitution(sigma):
    # the substitution read off the dense abelianization of invert(sigma)
    return _substitution_of(invert(sigma).matrix, sigma.ctx.generators())


def _substitution_of(m, gens):
    # the letter substitution of a dense inverse abelianization m
    subst = {}
    for b, j in enumerate(gens):
        lin = [(r, m[a][b]) for a, r in enumerate(gens) if m[a][b]]
        if lin != [(j, 1)]:
            subst[j] = lin
    return subst


def test_central_quotient_is_the_inverse_composed_with_sigma(monkeypatch):
    # decompose divides the lifted product P out of sigma in closed form; at
    # every level k the result is the map invert(P) o sigma at class k, and
    # every level gets the one substitution built from sigma's single
    # reduction
    engine = importlib.import_module("freenil.decompose")
    original = engine._central_quotient
    seen, substs = [], []

    def checking(p, sigma, subst, k):
        offsets = original(p, sigma, subst, k)
        alpha = ia_central(GroupContext(sigma.ctx.rank, k), offsets)
        if k < sigma.ctx.nilclass:
            assert alpha == compose(invert(project(p, k)), project(sigma, k))
        else:
            assert alpha == compose(invert(p), sigma)
        seen.append((k, len(alpha.moved)))
        substs.append(subst)
        return offsets

    monkeypatch.setattr(engine, "_central_quotient", checking)
    for n, c, dsize, seed in ((32, 2, 1, 1), (12, 4, 2, 1), (13, 5, 1, 1), (13, 5, 1, 2)):
        ctx = GroupContext(n, c)
        fix = tuple(range(1, dsize + 1))
        sigma = random_automorphism(ctx, seed, 12, fix)
        seen.clear()
        substs.clear()
        assert product_of(ctx, decompose(sigma, fix)) == sigma
        assert [level for level, _ in seen] == list(range(2, c + 1))
        assert any(moved for _, moved in seen)
        assert all(subst is substs[0] for subst in substs)
        assert substs[0] == _dense_inverse_substitution(sigma)


def _substitution(engine, sigma):
    # the inverse substitution decompose hands to _central_quotient
    fixed, moves = engine._reduce_free_block(sigma, (), min_free=0)
    return engine._inverse_substitution(sigma, fixed, moves)


def _quotient(engine, p, sigma, k):
    # the class-k map of the offsets _central_quotient returns
    offsets = engine._central_quotient(p, sigma, _substitution(engine, sigma), k)
    return ia_central(GroupContext(sigma.ctx.rank, k), offsets)


def test_inverse_substitution_matches_the_dense_inverse():
    # the D rows -S B^-1 included: maps that add D letters to free images.
    # The sparse replay against the inverse of the map and against
    # intmat.inverse_unimodular of its whole abelianization
    from freenil import intmat

    engine = importlib.import_module("freenil.decompose")
    rng = random.Random(1801)
    with_d_rows = 0
    cells = ((8, 2, 1), (9, 2, 3), (10, 3, 2), (10, 2, 1), (32, 2, 1), (12, 4, 2))
    for n, c, dsize in cells:
        ctx = GroupContext(n, c)
        fix = tuple(range(1, dsize + 1))
        for _ in range(6):
            sigma = random_automorphism(ctx, rng.randrange(2**32), 12, fix)
            fixed, moves = engine._reduce_free_block(sigma, fix, min_free=0)
            subst = engine._inverse_substitution(sigma, fixed, moves)
            assert subst == _dense_inverse_substitution(sigma)
            whole = intmat.inverse_unimodular(sigma.matrix)
            assert subst == _substitution_of(whole, ctx.generators())
            with_d_rows += any(r in fixed for lin in subst.values() for r, _ in lin)
    assert with_d_rows >= 3


def test_central_quotient_refuses_a_product_that_differs_below_the_center():
    engine = importlib.import_module("freenil.decompose")
    ctx = GroupContext(8, 3)
    # a weight-2 offset agrees with the identity modulo gamma_2 but not
    # modulo the center gamma_3, on either side; a transvection differs in
    # degree 1
    shallow = ia_central(ctx, {3: left_normed_element(ctx, (1, 2), 1)})
    for p, sigma in (
        (identity_map(ctx), shallow),
        (shallow, identity_map(ctx)),
        (transvection(ctx, 3, 4, 1), identity_map(ctx)),
    ):
        with pytest.raises(NotCentralIA):
            _quotient(engine, p, sigma, 3)
    # a central difference is divided out: P^-1 o (P o beta) = beta
    beta = ia_central(ctx, {5: left_normed_element(ctx, (1, 2, 6), -1)})
    p = ordered_product(
        ctx,
        [transvection(ctx, 1, 2, 1), inversion(ctx, 6), permutational(ctx, {2: 6, 6: 2})],
    )
    sigma = compose(p, beta)
    assert _quotient(engine, p, sigma, 3) == beta
    # an offset can sit where sigma moves nothing
    sigma = identity_map(ctx)
    assert _quotient(engine, beta, sigma, 3) == invert(beta)


def test_central_decompose_class_and_rank_guards():
    with pytest.raises(BadClass):
        central_decompose(identity_map(GroupContext(8, 1)), ())
    ctx = GroupContext(8, 3)
    with pytest.raises(RankTooSmall):
        central_decompose(identity_map(ctx), (1,))  # 7 free < 2(c+1) = 8


# ---------------------------------------------------------------------------
# the master pipeline

def _check_round_trips(seed, cells):
    """Decompose, verify and multiply back seeded maps.

    Each cell is (n, c, |D|, number of maps, moves per map).
    """
    rng = random.Random(seed)
    for n, c, dsize, count, moves in cells:
        for _ in range(count):
            ctx = GroupContext(n, c)
            fix = tuple(range(1, dsize + 1))
            sigma = random_automorphism(ctx, rng.randrange(2**32), moves, fix)
            dec = decompose(sigma, fix)
            rep = verify(dec)
            assert rep.ok, (n, c, dsize, rep.failures)
            assert rep.min_fixed_block is None or rep.min_fixed_block >= 1
            assert product_of(ctx, dec) == sigma
            # every factor is re-emitted at the top class by the lift chain
            assert all(f.map.ctx.nilclass == c for f in dec.factors)


def test_decompose_round_trip_various_cells():
    cells = [(8, 1, 2), (8, 2, 1), (10, 2, 2), (10, 3, 1), (12, 3, 2)]
    _check_round_trips(163, [(n, c, dsize, 4, 16) for n, c, dsize in cells])


def test_decompose_round_trip_above_class_3():
    _check_round_trips(4517, [(11, 4, 1, 3, 6), (13, 5, 1, 3, 5)])


ROUND_TRIP_BUDGET_S = 2.5


@pytest.mark.parametrize("c", [4, 5, 6])
def test_decompose_round_trips_through_the_wire_above_class_3(c):
    # decompose -> payload text -> verify_payload on small random maps at
    # the least rank the class allows (plus a spare); capped in time, so
    # once the budget is spent the remaining examples do no work
    from freenil import verify_payload
    from freenil.jsonio import decomposition_payload, dumps, loads

    start = time.perf_counter()
    checked = []

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dsize=st.integers(1, 2),
        spare=st.integers(0, 1),
        moves=st.integers(1, 3),
    )
    def round_trip(seed, dsize, spare, moves):
        if time.perf_counter() - start > ROUND_TRIP_BUDGET_S:
            return
        ctx = GroupContext(2 * (c + 1) + dsize + spare, c)
        fix = tuple(range(1, dsize + 1))
        sigma = random_automorphism(ctx, seed, moves, fix)
        text = dumps(decomposition_payload(decompose(sigma, fix)))
        rep = verify_payload(loads(text))
        assert rep.ok, (ctx.rank, fix, seed, moves, rep.failures)
        checked.append(seed)

    round_trip()
    assert checked


@pytest.mark.parametrize("cell", [(9, 2, 1), (10, 3, 2), (11, 4, 1), (13, 5, 1)])
def test_decompose_round_trip_bounds_permutation_factors(cell):
    n, c, dsize = cell
    ctx = GroupContext(n, c)
    fix = tuple(range(1, dsize + 1))
    rng = random.Random(1400 + c)
    for _ in range(2):
        sigma = random_automorphism(ctx, rng.randrange(2**32), 5, fix)
        dec = decompose(sigma, fix)
        rep = verify(dec)
        assert rep.ok, rep.failures
        assert product_of(ctx, dec) == sigma
        _check_permutation_factors(dec, n)


def test_decompose_never_inverts_a_map(monkeypatch):
    # one row reduction of sigma's free block settles unimodularity, gives
    # the class-1 factors and the inverse substitution of every level c >= 2:
    # nothing in the pipeline inverts a map or takes a determinant, even of
    # a map parsed from JSON, whose unimodularity is unknown
    from freenil import endo, intmat
    from freenil.jsonio import dumps, loads, map_payload
    from freenil.reader import parse_map

    calls = []
    for module, name in (
        (endo, "invert_with_rounds"),
        (intmat, "inverse_unimodular"),
        (intmat, "factor_unimodular"),
        (intmat, "det"),
    ):
        _counting(monkeypatch, module, name, calls)
    cases = [((12, 4), (1, 2), seed) for seed in (41, 42, 43)] + [((32, 2), (1,), 1)]
    for (n, c), fix, seed in cases:
        ctx = GroupContext(n, c)
        text = dumps(map_payload(random_automorphism(ctx, seed, 10, fix)))
        sigma = parse_map(loads(text))
        assert sigma._unimodular is None
        calls.clear()
        dec = decompose(sigma, fix)
        assert calls == ["factor_unimodular"]
        # the reduction settled it: no determinant afterwards either
        assert sigma.is_automorphism()
        assert calls == ["factor_unimodular"]
        assert product_of(ctx, dec) == sigma


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _counting_everywhere(monkeypatch, module, name, calls):
    # _counting wherever the package holds a reference to module.name
    original = getattr(importlib.import_module(module), name)
    for holder in list(sys.modules.values()):
        if holder is not None and holder.__name__.startswith("freenil") and (
            getattr(holder, name, None) is original
        ):
            _counting(monkeypatch, holder, name, calls)


def test_central_decompose_works_on_moved_generators_only(monkeypatch):
    # within decompose, the central stage gets the offsets of P^-1 o sigma,
    # whose abelianization is the identity, so it takes no determinant and
    # forms no ring product, and it factorizes at the generators with an
    # offset, never at the ones P^-1 o sigma fixes
    from freenil import intmat

    engine = importlib.import_module("freenil.decompose")
    calls = []
    for module, name in (
        (intmat, "det"),
        (engine, "mul"),
        (engine, "inv"),
        (engine, "central_factorize"),
    ):
        _counting(monkeypatch, module, name, calls)
    seen = []
    original = engine._central_factors

    def stage(ctx, k, offsets, fixed):
        calls.clear()
        out = original(ctx, k, offsets, fixed)
        seen.append((len(offsets), ctx.rank - len(fixed), sorted(calls)))
        return out

    monkeypatch.setattr(engine, "_central_factors", stage)
    ctx = GroupContext(12, 4)
    for seed in (41, 42, 43):
        sigma = random_automorphism(ctx, seed, 10, (1, 2))
        assert product_of(ctx, decompose(sigma, (1, 2))) == sigma
    assert len(seen) == 9
    for moved, free, stage_calls in seen:
        assert stage_calls == ["central_factorize"] * moved
    assert any(moved < free for moved, free, _ in seen)


def test_lift_factor_multiplies_only_at_moved_pinned_generators(monkeypatch):
    engine = importlib.import_module("freenil.decompose")
    calls = []
    _counting(monkeypatch, engine, "mul", calls)
    ctx = GroupContext(10, 2)
    fix = (1, 2)
    quiet = 0
    for seed in (5, 6, 7):
        sigma = random_automorphism(ctx, seed, 12, fix)
        for f in decompose(sigma, fix).factors:
            pinned = set(fix) & lift_words(f.map).moved
            calls.clear()
            lifted = lift_factor(f, fix)
            assert len(calls) == len(pinned)
            assert lifted.map.fixes_pointwise(fix)
            quiet += not pinned
    assert quiet > 10


def test_class_two_builds_the_class_one_pieces_in_place(monkeypatch):
    # at class 2 nothing goes through class 1: no projection, no class-1
    # decomposition, no lift, and each factor is certified exactly once
    engine = importlib.import_module("freenil.decompose")
    endo = importlib.import_module("freenil.endo")
    calls = []
    _counting(monkeypatch, endo, "project", calls)
    for name in ("lift_factor", "abelian_decompose", "_certified"):
        _counting(monkeypatch, engine, name, calls)
    for n, fix, seed in ((10, (1,), 1), (32, (1,), 1), (12, (1, 2), 3)):
        ctx = GroupContext(n, 2)
        sigma = random_automorphism(ctx, seed, 12, fix)
        calls.clear()
        dec = decompose(sigma, fix)
        assert calls == ["_certified"] * len(dec.factors)
        assert any(f.tag == "lifted" for f in dec.factors)
        assert product_of(ctx, dec) == sigma


def test_each_lower_beta_is_built_once_at_the_top_class(monkeypatch):
    # nothing is lifted: a level-k beta is built once, as a class-c factor
    # that projects onto it, and certified once, at class c
    from freenil.ring import offset_image

    engine = importlib.import_module("freenil.decompose")
    endo = importlib.import_module("freenil.endo")
    split, certify = engine._central_factors, engine._certified
    lifts = []
    for module, name in (
        (engine, "lift_factor"), (engine, "lift_words"), (endo, "lift_words")
    ):
        _counting(monkeypatch, module, name, lifts)
    levels, certified = [], []

    def splitting(ctx, k, offsets, fixed):
        found = split(ctx, k, offsets, fixed)
        levels.extend([k] * len(found))
        return found

    def certifying(fixed, phi, cert, tag, **provenance):
        certified.append((tag, phi.ctx.nilclass, provenance.get("origin")))
        return certify(fixed, phi, cert, tag, **provenance)

    monkeypatch.setattr(engine, "_central_factors", splitting)
    monkeypatch.setattr(engine, "_certified", certifying)
    cells = ((10, 3, (1, 2), 7), (12, 4, (1, 2), 3), (13, 5, (1,), 1), (15, 6, (1,), 1))
    for n, c, fix, seed in cells:
        ctx = GroupContext(n, c)
        sigma = random_automorphism(ctx, seed, 12, fix)
        levels.clear()
        certified.clear()
        dec = decompose(sigma, fix)
        assert lifts == []
        lower = [k for k in levels if k < c]
        assert set(lower) == set(range(2, c))
        # the betas close the factor list, in the order they were split off,
        # after the class-1 pieces
        cut = len(dec.factors) - len(levels)
        assert all(f.origin != "central_beta" for f in dec.factors[:cut])
        for k, f in zip(levels, dec.factors[cut:]):
            if k == c:
                assert (f.tag, f.map.ctx.nilclass) == ("central_beta", c)
                continue
            assert (f.tag, f.map.ctx.nilclass, f.origin) == ("lifted", c, "central_beta")
            # its projection is the level-k beta its terms build, and
            # satisfies the certificate
            ctx_k = GroupContext(n, k)
            beta = project(f.map, k)
            assert beta.moved == {g for g, _ in f.offsets}
            for g, terms in f.offsets:
                assert all(len(term.generators) == k for term in terms)
                assert beta(g) == offset_image(ctx_k, g, terms)
            assert check_certificate(beta, f.certificate)
        # each factor is certified exactly once
        assert certified.count(("lifted", c, "central_beta")) == len(lower)
        assert len(certified) == len(dec.factors)
        assert product_of(ctx, dec) == sigma


# one (n, c, D, seed) cell per class 2..6, decomposed after 12 moves
_CELLS_BY_CLASS = (
    (10, 2, (1,), 1), (10, 3, (1, 2), 7), (12, 4, (1, 2), 3),
    (13, 5, (1,), 1), (15, 6, (1,), 1),
)


def test_decompose_builds_each_central_image_once(monkeypatch):
    # the central stage builds each beta image once, at class c, from its
    # terms: never at class k and again at class c
    engine = importlib.import_module("freenil.decompose")
    built = []
    _counting(monkeypatch, engine, "offset_image", built)
    for n, c, fix, seed in _CELLS_BY_CLASS:
        ctx = GroupContext(n, c)
        sigma = random_automorphism(ctx, seed, 12, fix)
        built.clear()
        dec = decompose(sigma, fix)
        images = sum(len(f.offsets) for f in dec.factors if f.offsets)
        assert images > 0
        assert len(built) == images
        assert product_of(ctx, dec) == sigma


def test_decompose_builds_no_central_map(monkeypatch):
    # each level hands its offsets straight to the central stage: no
    # ia_central call, wherever the package holds a reference to it
    calls = []
    _counting_everywhere(monkeypatch, "freenil.kernel", "ia_central", calls)
    for n, c, fix, seed in _CELLS_BY_CLASS:
        ctx = GroupContext(n, c)
        sigma = random_automorphism(ctx, seed, 12, fix)
        calls.clear()
        dec = decompose(sigma, fix)
        assert calls == []
        assert product_of(ctx, dec) == sigma
    # the spy sees a direct call
    importlib.import_module("freenil.kernel").ia_central(ctx, {})
    assert calls == ["ia_central"]


def test_decompose_projects_no_map(monkeypatch):
    # every level reads the product so far and sigma off their class-c
    # images: no map is projected and no element truncated, wherever the
    # package holds a reference to either function
    calls = []
    for module, name in (("freenil.endo", "project"), ("freenil.ring", "truncate_class")):
        _counting_everywhere(monkeypatch, module, name, calls)
    for n, c, fix, seed in _CELLS_BY_CLASS:
        ctx = GroupContext(n, c)
        sigma = random_automorphism(ctx, seed, 12, fix)
        dec = decompose(sigma, fix)
        assert calls == []
        assert product_of(ctx, dec) == sigma
    # the spies see a direct call
    importlib.import_module("freenil.endo").project(sigma, 2)
    assert "project" in calls and "truncate_class" in calls


def _recursive_factors(sigma, fixed, moves, subst):
    # the construction decompose made before its one loop: project sigma one
    # class down, decompose it there and lift every factor back, down to
    # class 2, which builds the class-1 pieces in place
    engine = importlib.import_module("freenil.decompose")
    c = sigma.ctx.nilclass
    if c == 2:
        lifted = engine._class_one_factors(sigma, fixed, moves)
    else:
        below = _recursive_factors(project(sigma, c - 1), fixed, moves, subst)
        lifted = [lift_factor(f, fixed) for f in below]
    product = ordered_product(sigma.ctx, [f.map for f in lifted])
    alpha = ia_central(sigma.ctx, engine._central_quotient(product, sigma, subst, c))
    return lifted + central_decompose(alpha, fixed)


def _same_factors(old, new):
    assert len(old) == len(new)
    for a, b in zip(old, new):
        assert (a.tag, a.map.ctx.nilclass, a.origin, a.part, a.side) == (
            b.tag, b.map.ctx.nilclass, b.origin, b.part, b.side
        )
        assert a.certificate == b.certificate
        assert a.map == b.map
        assert {i: img.word for i, img in a.map.stored.items()} == {
            i: img.word for i, img in b.map.stored.items()
        }


@pytest.mark.parametrize("c", [3, 4, 5, 6])
@pytest.mark.parametrize("fix", [(1,), (1, 2)])
def test_decompose_builds_what_the_recursion_built(c, fix):
    # each factor of the one loop, built once at the top class, is the one
    # the level-by-level recursion lifted up to it, in the same place
    engine = importlib.import_module("freenil.decompose")
    ctx = GroupContext(2 * (c + 1) + len(fix) + 1, c)
    for seed in (1, 2):
        sigma = random_automorphism(ctx, seed, 12, fix)
        fixed, moves = engine._reduce_free_block(sigma, fix, 2 * (c + 1))
        subst = engine._inverse_substitution(sigma, fixed, moves)
        old = _recursive_factors(sigma, fixed, moves, subst)
        _same_factors(old, decompose(sigma, fix).factors)


@pytest.mark.parametrize("n, fix", [(8, (1,)), (10, (1, 2)), (32, (1,))])
def test_class_two_pieces_are_the_lifts_of_the_class_one_factors(n, fix):
    # what the round trip through class 1 built: the class-1 factors of the
    # projection, each lifted; the pieces built in place are those, map,
    # words, certificate and provenance alike
    ctx = GroupContext(n, 2)
    for seed in range(1, 5):
        sigma = random_automorphism(ctx, seed, 16, fix)
        below = abelian_decompose(project(sigma, 1), fix).factors
        old = [lift_factor(f, fix) for f in below]
        factors = decompose(sigma, fix).factors
        assert all(f.tag == "central_beta" for f in factors[len(old) :])
        _same_factors(old, factors[: len(old)])


def test_a_broken_class_one_stage_is_still_refused(monkeypatch):
    # drop one move from the class-1 pieces: the class-1 check that
    # abelian_decompose makes, and at class 2 _central_quotient's refusal of
    # a difference below the center, catch it
    engine = importlib.import_module("freenil.decompose")
    original = engine._block_maps

    def dropping(ctx, basis, moves):
        adds = [k for k, move in enumerate(moves) if move.kind == "add"]
        k = adds[len(adds) // 2]
        return original(ctx, basis, list(moves[:k]) + list(moves[k + 1 :]))

    monkeypatch.setattr(engine, "_block_maps", dropping)
    ctx = GroupContext(10, 1)
    sigma = random_automorphism(ctx, 11, 12, (1,))
    for run in (abelian_decompose, decompose):
        with pytest.raises(CertificateInvalid, match="do not multiply back"):
            run(sigma, (1,))
    for c in (2, 3):
        ctx = GroupContext(10, c)
        sigma = random_automorphism(ctx, 11, 12, (1,))
        with pytest.raises(NotCentralIA, match="modulo the lifted product"):
            decompose(sigma, (1,))


def test_decompose_factor_provenance():
    ctx = GroupContext(8, 2)
    sigma = random_automorphism(ctx, 31337, 14, (1,))
    dec = decompose(sigma, (1,))
    for f in dec.factors:
        if f.tag == "lifted":
            assert f.origin in {"elementary_abelian", "shear", "permutation", "sign"}
            assert f.map.ctx.nilclass == 2
        else:
            assert f.tag == "central_beta"
            assert f.side in ("F", "G") and f.part >= 1


def test_decompose_error_taxonomy():
    ctx = GroupContext(8, 2)
    with pytest.raises(DoesNotFixD):
        decompose(inversion(ctx, 1), (1,))
    with pytest.raises(NotAutomorphism):
        decompose(
            GeneratorMap(
                ctx,
                [from_word(ctx, Word(((1, 2),)))]
                + [generator(ctx, g) for g in range(2, 9)],
            ),
            (),
        )
    with pytest.raises(RankTooSmall):
        decompose(identity_map(ctx), (1, 2, 3))  # 5 free < 2(c+1) = 6
    with pytest.raises(IndexOutOfRange):
        decompose(identity_map(ctx), (99,))


NOT_AUTOMORPHISM = "determinant of the abelianization is not +-1"

# decompose's refusals by the order of its checks: the index check, then
# unimodularity, then D, then the rank.  Each row is (rank, images as
# {generator: word}, D, error, message or None); rank 8 at class 2 needs
# 2(c+1) = 6 free generators
ERROR_ROWS = [
    (8, {2: [[2, 2]]}, [1], "NotAutomorphism", NOT_AUTOMORPHISM),  # det 2: gcd
    (8, {2: [[3, 1]]}, [1], "NotAutomorphism", NOT_AUTOMORPHISM),  # singular
    (8, {1: [[1, 2]]}, [1], "NotAutomorphism", NOT_AUTOMORPHISM),  # moves D too
    (8, {2: [[2, 2]]}, [1, 3, 4], "NotAutomorphism", NOT_AUTOMORPHISM),  # 5 free
    (8, {1: [[1, -1]]}, [1], "DoesNotFixD", "map moves pinned generators [1]"),
    (8, {}, [1, 2, 3], "RankTooSmall", None),
    (8, {2: [[2, 2]]}, [9], "IndexOutOfRange", None),
]

ERROR_SCRIPT = """
import json, sys
from freenil import DomainError, decompose
from freenil.reader import parse_map
out = []
for n, images, fix in json.loads(sys.argv[1]):
    words = [images.get(str(g), [[g, 1]]) for g in range(1, n + 1)]
    sigma = parse_map({"rank": n, "class": 2, "images": words})
    try:
        decompose(sigma, fix)
        out.append(None)
    except DomainError as err:
        out.append([err.name, str(err)])
print(json.dumps(out))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_decompose_refusals_keep_their_order(flags):
    # the same errors and messages with and without asserts; each input is
    # parsed from JSON, so no determinant is known beforehand
    import freenil

    rows = [[n, images, fix] for n, images, fix, _, _ in ERROR_ROWS]
    src = os.path.dirname(os.path.dirname(freenil.__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", ERROR_SCRIPT, json.dumps(rows)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(got) == len(ERROR_ROWS)
    for (_, _, _, error, message), result in zip(ERROR_ROWS, got):
        assert result is not None and result[0] == error, (error, result)
        if message is not None:
            assert result[1] == message


NOT_CENTRAL = "image of generator 2 is not central modulo the lifted product"

# central_decompose's refusals: decompose's checks in decompose's order, then
# the central test.  Each row is (images as {generator: word}, D, error,
# message), at rank 8 and class 2, where 2(c+1) = 6 generators must stay
# free
CENTRAL_ERROR_ROWS = {
    "index-beyond-the-rank": (
        {2: [[2, 2]]}, [9], "IndexOutOfRange", "generator 9 out of range 1..8"
    ),
    "determinant-2": ({2: [[2, 2]]}, [1], "NotAutomorphism", NOT_AUTOMORPHISM),
    "singular-block": ({2: [[3, 1]]}, [1], "NotAutomorphism", NOT_AUTOMORPHISM),
    "moves-D-determinant-2": ({1: [[1, 2]]}, [1], "NotAutomorphism", NOT_AUTOMORPHISM),
    "moves-D": ({1: [[1, -1]]}, [1], "DoesNotFixD", "map moves pinned generators [1]"),
    "too-few-free": (
        {}, [1, 2, 3], "RankTooSmall", "need at least 6 free generators, have 5"
    ),
    "transvection": ({2: [[2, 1], [3, 1]]}, [1], "NotCentralIA", NOT_CENTRAL),
    "D-shear": ({2: [[2, 1], [1, 1]]}, [1], "NotCentralIA", NOT_CENTRAL),
}


@pytest.mark.parametrize("row", list(CENTRAL_ERROR_ROWS))
def test_central_decompose_refuses_in_decomposes_order(row):
    # parsed from JSON, so no determinant is known beforehand
    from freenil import DomainError
    from freenil.reader import parse_map

    images, fix, error, message = CENTRAL_ERROR_ROWS[row]
    words = [images.get(g, [[g, 1]]) for g in range(1, 9)]
    alpha = parse_map({"rank": 8, "class": 2, "images": words})
    with pytest.raises(DomainError) as info:
        central_decompose(alpha, fix)
    assert (info.value.name, str(info.value)) == (error, message)


# ---------------------------------------------------------------------------
# verify as an adversarial checker

def _good_payload():
    from freenil.jsonio import decomposition_payload

    ctx = GroupContext(8, 2)
    sigma = random_automorphism(ctx, 7321, 12, (1,))
    return decomposition_payload(decompose(sigma, (1,)))


def _set_stored(factor, g, word):
    """Give x_g the image `word` in a factor's stored list: its entry is
    replaced, or a new one goes in at its place in index order."""
    entries = [e for e in factor["stored"] if e[0] != g] + [[g, word]]
    factor["stored"] = sorted(entries, key=lambda e: e[0])


def test_verify_accepts_the_genuine_payload():
    from freenil import verify_payload

    rep = verify_payload(_good_payload())
    assert rep.ok and not rep.failures
    assert rep.min_fixed_block >= 1
    assert rep.max_coefficient >= 1


def test_verify_flags_tampered_factor_word():
    from freenil import verify_payload

    payload = _good_payload()
    _set_stored(payload["factors"][0], 8, [[8, 1], [2, 1]])
    rep = verify_payload(payload)
    assert not rep.ok
    assert any("product" in msg or "certificate" in msg for msg in rep.failures)


def test_verify_flags_dropped_factor():
    from freenil import verify_payload

    payload = _good_payload()
    del payload["factors"][0]
    rep = verify_payload(payload)
    assert not rep.ok


def test_verify_flags_broken_certificate():
    from freenil import verify_payload

    payload = as_v3(_good_payload())
    f = payload["factors"][0]
    # a generator the factor genuinely moves, claimed as fixed
    moving = f["stored"][0][0]
    cert = f["certificate"]
    assert moving in cert["preserved"]
    cert["preserved"].remove(moving)
    cert["fixed"] = sorted(cert["fixed"] + [moving])
    rep = verify_payload(payload)
    assert rep.failures == (
        f"factor 0 ({f['tag']}): fixed block: generator {moving} is moved",
    )


def test_verify_names_the_least_generator_leaving_the_preserved_block():
    # x_2 -> x_2 x_5 and x_3 -> x_3 x_6 fix {5, .., 8} pointwise, and both
    # images leave <x_1, .., x_4>: the failure names generator 2
    from freenil import verify_payload
    from freenil.jsonio import decomposition_payload

    ctx = GroupContext(8, 2)
    phi = compose(transvection(ctx, 2, 5, 1), transvection(ctx, 3, 6, 1))
    cert = MoietyCertificate(frozenset({5, 6, 7, 8}), frozenset({1, 2, 3, 4}))
    assert not check_certificate(phi, cert)
    dec = Decomposition(phi, frozenset(), (Factor(phi, cert, "shear"),))
    rep = verify_payload(decomposition_payload(dec))
    assert rep.failures == (
        "factor 0 (shear): preserved block: image of generator 2 leaves it",
    )


def test_verify_names_the_factor_that_moves_d():
    from freenil import verify_payload

    payload = _good_payload()
    assert payload["fixed"] == [1]
    _set_stored(payload["factors"][0], 1, [[1, 1], [2, 1]])
    rep = verify_payload(payload)
    assert rep.failures == (
        "factor 0 (lifted): moves the pinned set",
        "ordered product of factors differs from the input map",
    )


def test_verify_flags_tampered_input_map():
    from freenil import verify_payload

    payload = _good_payload()
    payload["input"]["images"][7] = [[8, 1], [7, 1], [2, 1]]
    rep = verify_payload(payload)
    assert not rep.ok
    assert any("product" in msg for msg in rep.failures)


def test_verify_never_raises_on_moved_pinned_generator():
    from freenil import verify_payload
    from freenil.jsonio import decomposition_payload

    ctx = GroupContext(8, 2)
    bad = Decomposition(
        transvection(ctx, 1, 2, 1),
        frozenset({1}),
        (
            Factor(
                transvection(ctx, 1, 2, 1),
                MoietyCertificate(frozenset({5, 6, 7, 8}), frozenset({1, 2, 3, 4})),
                "shear",
            ),
        ),
    )
    rep = verify_payload(decomposition_payload(bad))
    assert not rep.ok
    assert any("pinned" in msg for msg in rep.failures)


def test_verify_reports_domain_errors_and_raises_checker_bugs(monkeypatch):
    import freenil.verifier
    from freenil import verify_payload

    payload = _good_payload()
    _set_stored(payload["factors"][0], 8, [[8, 2]])  # not an automorphism
    rep = verify_payload(payload)
    assert not rep.ok
    assert "factor 0 (lifted): certificates only apply to automorphisms" in rep.failures

    def broken_check(phi, cert):
        raise RuntimeError("checker bug")

    monkeypatch.setattr(freenil.verifier, "check_certificate", broken_check)
    with pytest.raises(RuntimeError, match="checker bug"):
        verify_payload(_good_payload())


def test_verify_refuses_pinned_index_above_the_rank():
    # decompose refuses D = {1, 99} at rank 8, and so does the verifier
    from freenil import verify_payload

    payload = _good_payload()
    payload["fixed"] = [1, 99]
    with pytest.raises(IndexOutOfRange, match="99"):
        verify_payload(payload)
    with pytest.raises(IndexOutOfRange):
        decompose(random_automorphism(GroupContext(8, 2), 7321, 12, (1,)), (1, 99))


@pytest.mark.parametrize("fixed", [[], [1]])
def test_verify_flags_a_certificate_fixing_nothing_outside_d(fixed):
    # D = {1}: "fixed": [] and "fixed": [1] both leave the factor's fixed
    # block without a generator outside D
    from freenil import verify_payload

    payload = as_v3(_good_payload())
    assert payload["fixed"] == [1]
    cert = payload["factors"][0]["certificate"]
    cert["fixed"] = fixed
    cert["preserved"] = [g for g in range(1, 9) if g not in fixed]
    rep = verify_payload(payload)
    assert not rep.ok and rep.min_fixed_block == 0
    assert "factor 0 (lifted): certificate fixes no generator outside D" in rep.failures


@pytest.mark.parametrize("key, value", [("level", -5), ("level", 0), ("part", 0), ("part", -1)])
def test_verify_refuses_nonpositive_level_or_part(key, value):
    from freenil import MalformedInput, verify_payload

    payload = as_v3(_good_payload())
    payload["factors"][0][key] = value
    with pytest.raises(MalformedInput, match="level and part must be at least 1"):
        verify_payload(payload)


_NOT_HERE = "only central_beta factors and their lifts carry part and side"


@pytest.mark.parametrize(
    "tag, edit, message",
    [
        ("lifted", {"side": "F"}, _NOT_HERE),
        ("lifted", {"part": 1}, _NOT_HERE),
        ("lifted", {"level": 3}, "level 3 exceeds the decomposition's class 2"),
        ("central_beta", {"origin": "sign"}, "only lifted factors carry origin"),
        ("central_beta", {"level": 3}, "level 3 exceeds the decomposition's class 2"),
    ],
    ids=["lifted-side", "lifted-part", "lifted-level", "central-origin", "central-level"],
)
def test_verify_refuses_provenance_keys_outside_their_factors(tag, edit, message):
    # the edit goes into every factor of the tag; the lifted factors here
    # are all of class-1 origin.  Each edit used to verify as ok: true
    from freenil import MalformedInput, verify_payload
    from freenil.jsonio import decomposition_payload

    sigma = random_automorphism(GroupContext(8, 2), 3, 8, (1,))
    payload = decomposition_payload(decompose(sigma, (1,)))
    if "level" in edit:  # a key version 4 leaves out
        payload = as_v3(payload)
    assert verify_payload(payload).ok
    edited = [f for f in payload["factors"] if f["tag"] == tag]
    assert edited and all(f.get("origin") != "central_beta" for f in edited)
    for f in edited:
        f.update(edit)
    with pytest.raises(MalformedInput, match=message):
        verify_payload(payload)


@pytest.mark.parametrize(
    "key, message",
    [
        ("origin", "unknown origin tag None"),
        ("part", "part must be an integer"),
        ("side", "side must be 'F' or 'G'"),
    ],
)
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_verify_refuses_a_null_provenance_value(key, message, index):
    # a key that is present is checked: null is not read as its absence.
    # Each of these used to verify as ok: true
    from freenil import MalformedInput, verify_payload
    from freenil.jsonio import decomposition_payload

    sigma = random_automorphism(GroupContext(8, 2), 4041, 10, (1,))
    payload = decomposition_payload(decompose(sigma, (1,)))
    assert [payload["factors"][i]["tag"] for i in (0, -1)] == ["lifted", "central_beta"]
    payload["factors"][index][key] = None
    with pytest.raises(MalformedInput) as info:
        verify_payload(payload)
    assert str(info.value) == message


def test_ordered_product_empty_is_identity():
    ctx = GroupContext(3, 2)
    assert ordered_product(ctx, []).is_identity()
