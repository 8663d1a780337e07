"""The certified factorization pipeline and its recheck."""

import importlib
import random

import pytest

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
    assert f.tag == "shear" and f.level == 1
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
            lifted = lift_factor(f, c + 1, fix)
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
    f = Factor(base, cert, "shear", 2)
    lifted = lift_factor(f, 3, (1,))
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
        lift_factor(Factor(base, cert, "elementary_abelian", 1), 2, ())


def test_lift_factor_refuses_a_factor_that_moves_the_pinned_set():
    # the correction at D inverts a central IA map in closed form, which is
    # only right when every offset at D is central
    low = GroupContext(8, 1)
    cert = MoietyCertificate(frozenset({5, 6, 7, 8}), frozenset({1, 2, 3, 4}))
    slipping = Factor(transvection(low, 1, 2, 1), cert, "elementary_abelian", 1)
    with pytest.raises(CertificateInvalid):
        lift_factor(slipping, 2, (1,))
    mid = GroupContext(8, 2)
    shallow = ia_central(mid, {1: left_normed_element(mid, (2, 3), 1)})
    with pytest.raises(CertificateInvalid):
        lift_factor(Factor(shallow, cert, "lifted", 2), 3, (1,))


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


def test_central_decompose_round_trip_and_commutation():
    from freenil import mul

    rng = random.Random(162)
    for _ in range(60):
        n, c = rng.choice(((8, 2), (10, 3)))
        ctx = GroupContext(n, c)
        fix = tuple(range(1, rng.choice((0, 1)) + 1))
        free = [g for g in ctx.generators() if g not in fix]
        assignment = {}
        for b in rng.sample(free, k=rng.randrange(1, len(free))):
            z = from_word(ctx, Word(()))
            for _ in range(rng.randrange(1, 3)):
                letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
                z = mul(z, left_normed_element(ctx, letters, rng.choice((-2, -1, 1, 2))))
            if not z.is_identity():
                assignment[b] = z
        alpha = ia_central(ctx, assignment)
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


def test_central_decompose_rejects_shallow_maps():
    ctx = GroupContext(8, 3)
    # weight-2 offset: IA but not central-IA at class 3
    alpha = ia_central(ctx, {3: left_normed_element(ctx, (1, 2), 1)})
    with pytest.raises(NotCentralIA):
        central_decompose(alpha, ())


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
            assert all(f.level == c for f in dec.factors)


def test_decompose_round_trip_various_cells():
    cells = [(8, 1, 2), (8, 2, 1), (10, 2, 2), (10, 3, 1), (12, 3, 2)]
    _check_round_trips(163, [(n, c, dsize, 4, 16) for n, c, dsize in cells])


def test_decompose_round_trip_above_class_3():
    _check_round_trips(4517, [(11, 4, 1, 3, 6), (13, 5, 1, 3, 5)])


def test_decompose_inverts_once_per_class_above_one(monkeypatch):
    # the lifted factors' product is inverted once per level c >= 2, and
    # nothing else in the pipeline inverts a map
    from freenil import endo

    calls = []
    original = endo.invert_with_rounds

    def counting(phi):
        calls.append(phi.ctx.nilclass)
        return original(phi)

    monkeypatch.setattr(endo, "invert_with_rounds", counting)
    ctx = GroupContext(12, 4)
    for seed in (41, 42, 43):
        calls.clear()
        sigma = random_automorphism(ctx, seed, 10, (1, 2))
        dec = decompose(sigma, (1, 2))
        assert sorted(calls) == [2, 3, 4]
        assert product_of(ctx, dec) == sigma


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_central_decompose_works_on_moved_generators_only(monkeypatch):
    # within decompose, alpha = invert(P) o sigma is known to be unimodular,
    # so the central stage takes no determinant, and it multiplies and
    # factorizes at the generators alpha moves, never at the ones it fixes
    from freenil import intmat

    engine = importlib.import_module("freenil.decompose")
    calls = []
    for module, name in (
        (intmat, "det"),
        (engine, "mul"),
        (engine, "central_factorize"),
    ):
        _counting(monkeypatch, module, name, calls)
    seen = []
    original = engine.central_decompose

    def stage(alpha, fixed):
        calls.clear()
        out = original(alpha, fixed)
        seen.append((len(alpha.moved), alpha.ctx.rank - len(fixed), sorted(calls)))
        return out

    monkeypatch.setattr(engine, "central_decompose", stage)
    ctx = GroupContext(12, 4)
    for seed in (41, 42, 43):
        sigma = random_automorphism(ctx, seed, 10, (1, 2))
        assert product_of(ctx, decompose(sigma, (1, 2))) == sigma
    assert len(seen) == 9
    for moved, free, stage_calls in seen:
        assert stage_calls == ["central_factorize"] * moved + ["mul"] * moved
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
            lifted = lift_factor(f, 3, fix)
            assert len(calls) == len(pinned)
            assert lifted.map.fixes_pointwise(fix)
            quiet += not pinned
    assert quiet > 10


def test_decompose_factor_provenance():
    ctx = GroupContext(8, 2)
    sigma = random_automorphism(ctx, 31337, 14, (1,))
    dec = decompose(sigma, (1,))
    for f in dec.factors:
        if f.tag == "lifted":
            assert f.origin in {"elementary_abelian", "shear", "permutation", "sign"}
            assert f.level == 2
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


# ---------------------------------------------------------------------------
# verify as an adversarial checker

def _good_payload():
    from freenil.jsonio import decomposition_payload

    ctx = GroupContext(8, 2)
    sigma = random_automorphism(ctx, 7321, 12, (1,))
    return decomposition_payload(decompose(sigma, (1,)))


def test_verify_accepts_the_genuine_payload():
    from freenil import verify_payload

    rep = verify_payload(_good_payload())
    assert rep.ok and not rep.failures
    assert rep.min_fixed_block >= 1
    assert rep.max_coefficient >= 1


def test_verify_flags_tampered_factor_word():
    from freenil import verify_payload

    payload = _good_payload()
    payload["factors"][0]["map"]["images"][7] = [[8, 1], [2, 1]]
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

    payload = _good_payload()
    f = payload["factors"][0]
    moved = f["map"]["images"]
    # find a generator the factor genuinely moves and claim it as fixed
    moving = next(
        i + 1 for i, img in enumerate(moved) if img != [[i + 1, 1]]
    )
    cert = f["certificate"]
    if moving not in cert["fixed"]:
        cert["preserved"].remove(moving)
        cert["fixed"].append(moving)
        cert["fixed"].sort()
    rep = verify_payload(payload)
    assert not rep.ok
    assert any("certificate" in msg for msg in rep.failures)


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
                2,
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
    payload["factors"][0]["map"]["images"][7] = [[8, 2]]  # not an automorphism
    rep = verify_payload(payload)
    assert not rep.ok
    assert any(msg.startswith("factor 0: ") for msg in rep.failures)

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

    payload = _good_payload()
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

    payload = _good_payload()
    payload["factors"][0][key] = value
    with pytest.raises(MalformedInput, match="level and part must be at least 1"):
        verify_payload(payload)


def test_ordered_product_empty_is_identity():
    ctx = GroupContext(3, 2)
    assert ordered_product(ctx, []).is_identity()
