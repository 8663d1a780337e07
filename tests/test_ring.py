"""Group arithmetic in the truncated power-series representation."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from freenil import (
    BadClass,
    ContextMismatch,
    DomainError,
    GroupContext,
    GroupElement,
    IndexOutOfRange,
    MalformedInput,
    Word,
    central_decompose,
    comm,
    decompose,
    from_word,
    generator,
    ia_central,
    identity,
    identity_map,
    inv,
    lcs_weight,
    mul,
    occurs,
    power,
    random_automorphism,
    retract,
    truncate_class,
)
import freenil.ring as ring_module
from freenil.jsonio import decomposition_payload, dumps, loads, map_payload
from freenil.reader import parse_map
from freenil.ring import _genpow_poly
from freenil.verifier import verify_payload

C32 = GroupContext(3, 2)
C33 = GroupContext(3, 3)


def words(n, max_len=8):
    letter = st.tuples(
        st.integers(1, n), st.integers(-3, 3).filter(lambda e: e != 0)
    )
    return st.lists(letter, max_size=max_len).map(lambda ls: Word(tuple(ls)))


def elements(ctx, max_len=8):
    return words(ctx.rank, max_len).map(lambda w: from_word(ctx, w))


# ---------------------------------------------------------------------------
# frozen expansions

def test_product_of_two_generators():
    a = mul(generator(C32, 1), generator(C32, 2))
    assert a.poly == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}


def test_square_at_class_one():
    ctx = GroupContext(2, 1)
    x1 = generator(ctx, 1)
    assert mul(x1, x1).poly == {(): 1, (1,): 2}


def test_inverse_geometric_series():
    assert inv(generator(C32, 1)).poly == {(): 1, (1,): -1, (1, 1): 1}


def test_power_at_class_one():
    ctx = GroupContext(2, 1)
    assert power(generator(ctx, 1), 3).poly == {(): 1, (1,): 3}


def test_commutator_of_generators():
    c = comm(generator(C32, 1), generator(C32, 2))
    assert c.poly == {(): 1, (1, 2): 1, (2, 1): -1}
    assert lcs_weight(c) == 2


def test_left_normed_triple_weight():
    x1, x2, x3 = (generator(C33, i) for i in (1, 2, 3))
    assert lcs_weight(comm(comm(x1, x2), x3)) == 3


def test_truncate_kills_commutators():
    c = comm(generator(C32, 1), generator(C32, 2))
    assert truncate_class(c, 1).is_identity()


def test_truncate_keeps_abelian_part():
    a = mul(generator(C32, 1), generator(C32, 2))
    assert truncate_class(a, 1).poly == {(): 1, (1,): 1, (2,): 1}


def test_retract_examples():
    a = mul(generator(C32, 1), generator(C32, 2))
    assert retract(a, {1}).poly == {(): 1, (1,): 1}
    assert retract(a, {1, 2, 3}) == a
    assert retract(comm(generator(C32, 1), generator(C32, 2)), {1}).is_identity()


def test_occurs_examples():
    assert occurs(identity(C32)) == frozenset()
    assert occurs(comm(generator(C32, 1), generator(C32, 3))) == {1, 3}


def test_identity_weight_is_infinite():
    assert lcs_weight(identity(C32)) == math.inf


def test_from_word_range_check():
    with pytest.raises(IndexOutOfRange):
        from_word(C32, Word(((4, 1),)))


def test_generator_power_matches_factorial_binomials():
    # (1 + X_g)^e has X_g^k coefficient C(e, k) = e(e-1)..(e-k+1) / k!
    for e in range(-6, 7):
        poly = _genpow_poly(2, e, 8)
        for k in range(9):
            want = math.prod(e - t for t in range(k)) // math.factorial(k)
            assert poly.get((2,) * k, 0) == want, (e, k)
        assert set(poly) <= {(2,) * k for k in range(9)}
        assert 0 not in poly.values()


def test_constant_term_other_than_one_raises():
    # a library bug, not bad input: RuntimeError, so verify_payload lets it out
    for poly in ({(): 2}, {(1,): 1}):
        with pytest.raises(RuntimeError, match="constant term 1") as info:
            GroupElement(C32, poly)
        assert not isinstance(info.value, DomainError)


def test_nonpositive_rank_or_class_is_malformed_input():
    for rank, nilclass in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(MalformedInput, match="rank and class must be at least 1"):
            GroupContext(rank, nilclass)


def test_a_class_above_64_is_bad_class():
    # x_1^-1 alone carries class + 1 terms, so 10**8 would exhaust memory
    for nilclass in (65, 10**8):
        with pytest.raises(BadClass) as info:
            GroupContext(2, nilclass)
        assert str(info.value) == (
            f"class {nilclass} exceeds 64, the largest class supported"
        )
    assert GroupContext(2, 64).nilclass == 64
    # a rank below 1 is still malformed input first
    with pytest.raises(MalformedInput, match="rank and class must be at least 1"):
        GroupContext(0, 99)


def test_check_generators_reports_the_first_bad_index_in_order():
    ctx = GroupContext(3, 2)
    ctx.check_generators(())
    ctx.check_generators(range(1, 4))
    for indices, bad in (([1, 5, 0], 5), ([0, 5], 0), ((2, 3, -1, 7), -1)):
        with pytest.raises(IndexOutOfRange) as info:
            ctx.check_generators(indices)
        assert str(info.value) == f"generator {bad} out of range 1..3"
    # the callers keep that message
    for call in (lambda: generator(ctx, 4), lambda: retract(generator(ctx, 1), [4])):
        with pytest.raises(IndexOutOfRange) as info:
            call()
        assert str(info.value) == "generator 4 out of range 1..3"


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        mul(generator(C32, 1), generator(C33, 1))


def test_word_refuses_values_that_are_not_integers():
    # a float or a string is refused with the reader's messages, never
    # rounded or parsed
    for letters, message in (
        ([(1.9, 1)], "generator index must be an integer"),
        ([(2, 0.5)], "exponent must be an integer"),
        ([("2", 1)], "generator index must be an integer"),
    ):
        with pytest.raises(MalformedInput) as info:
            Word(letters)
        assert str(info.value) == message
    with pytest.raises(MalformedInput):
        from_word(GroupContext(3, 2), Word([(1.9, 2.7)]))

    # int subclasses and values with __index__ still pass, as exact ints
    class Two:
        def __index__(self):
            return 2

    w = Word([(True, 2), (Two(), Two())])
    assert w == Word([(1, 2), (2, 2)])
    assert all(type(g) is int and type(e) is int for g, e in w.letters)


# each entry point that takes generator indices, called with the index 2.5;
# operands are built beforehand: (ctx, phi, z), z of weight 2
NON_INTEGER_INDEX_CALLS = {
    "generator": lambda ctx, phi, z: generator(ctx, 2.5),
    "map-call": lambda ctx, phi, z: phi(2.5),
    "retract": lambda ctx, phi, z: retract(z, [1, 2.5]),
    "preserves": lambda ctx, phi, z: phi.preserves([1, 2.5]),
    "ia_central": lambda ctx, phi, z: ia_central(ctx, {2.5: z}),
    "random_automorphism": lambda ctx, phi, z: random_automorphism(ctx, 3, 8, fix=[2.5]),
    "decompose": lambda ctx, phi, z: decompose(phi, [1, 2.5]),
    "central_decompose": lambda ctx, phi, z: central_decompose(identity_map(ctx), [1, 2.5]),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INDEX_CALLS))
def test_generator_indices_must_be_integers(name):
    # Word's rule at every entry point: a float index is refused, with
    # Word's message, before any one-letter polynomial is built for it
    ctx = GroupContext(8, 2)
    phi = random_automorphism(ctx, 3, 8, (1,))
    z = comm(generator(ctx, 1), generator(ctx, 2))
    before = _genpow_poly.cache_info()
    with pytest.raises(MalformedInput) as info:
        NON_INTEGER_INDEX_CALLS[name](ctx, phi, z)
    assert str(info.value) == "generator index must be an integer"
    after = _genpow_poly.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_generator_indices_read_int_subclasses():
    class Two:
        def __index__(self):
            return 2

    ctx = GroupContext(3, 2)
    ctx.check_generators([True, Two(), 3])
    assert generator(ctx, True) == generator(ctx, 1)


def _random_word(rng, n):
    return Word(
        [(rng.randrange(1, n + 1), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randrange(3))]
    )


def test_comm_is_the_product_of_its_four_factors():
    # comm builds a^-1 b^-1 a b in closed form; it is the product form in
    # polynomial and in word, and word-less when an operand has no word
    rng = random.Random(2718)
    for n, c in ((4, 2), (5, 3), (4, 4), (6, 5), (5, 6)):
        ctx = GroupContext(n, c)
        for _ in range(40):
            a = from_word(ctx, _random_word(rng, n))
            b = from_word(ctx, _random_word(rng, n))
            want = mul(mul(inv(a), inv(b)), mul(a, b))
            got = comm(a, b)
            assert got == want and got.word == want.word
            bare = GroupElement(ctx, dict(a.poly))
            for x, y in ((bare, b), (b, bare)):
                got = comm(x, y)
                assert got == mul(mul(inv(x), inv(y)), mul(x, y))
                assert got.word is None
    with pytest.raises(ContextMismatch):
        comm(generator(C32, 1), generator(C33, 1))


def test_truncate_class_bounds():
    a = generator(C32, 1)
    for bad in (0, 2, 3):
        with pytest.raises(BadClass):
            truncate_class(a, bad)


# ---------------------------------------------------------------------------
# group axioms and structure

@given(elements(C33), elements(C33), elements(C33))
def test_associativity(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(elements(C33))
def test_unit_and_inverse(a):
    e = identity(C33)
    assert mul(a, e) == a and mul(e, a) == a
    assert mul(a, inv(a)) == e and mul(inv(a), a) == e
    assert inv(inv(a)) == a


@given(elements(C33), st.integers(-6, 6))
def test_power_is_iterated_product(a, k):
    acc = identity(C33)
    step = a if k >= 0 else inv(a)
    for _ in range(abs(k)):
        acc = mul(acc, step)
    assert power(a, k) == acc
    assert power(a, -1) == inv(a)


@given(elements(C33), elements(C33))
def test_filtration_law(a, b):
    assert lcs_weight(comm(a, b)) >= min(
        lcs_weight(a) + lcs_weight(b), math.inf
    )


def test_nilpotency_all_deep_commutators_die():
    # every (c+1)-fold left-normed commutator collapses
    rng = random.Random(99)
    for n, c in ((2, 2), (3, 2), (3, 3), (4, 3)):
        ctx = GroupContext(n, c)
        for _ in range(20):
            w = from_word(
                ctx,
                Word(
                    tuple(
                        (rng.randrange(1, n + 1), rng.choice((-1, 1)))
                        for _ in range(4)
                    )
                ),
            )
            acc = w
            for _ in range(c):
                acc = comm(acc, generator(ctx, rng.randrange(1, n + 1)))
            assert acc.is_identity()


def test_weight_c_elements_are_central():
    rng = random.Random(5)
    ctx = C33
    z = comm(comm(generator(ctx, 1), generator(ctx, 2)), generator(ctx, 3))
    assert lcs_weight(z) == 3
    for _ in range(30):
        a = from_word(
            ctx,
            Word(
                tuple(
                    (rng.randrange(1, 4), rng.choice((-2, -1, 1, 2)))
                    for _ in range(6)
                )
            ),
        )
        assert mul(a, z) == mul(z, a)


@given(elements(C33), st.sets(st.integers(1, 3)))
def test_membership_coherence(a, keep):
    # retract fixes a exactly when nothing outside `keep` occurs in it
    assert (retract(a, keep) == a) == (occurs(a) <= keep)


@given(elements(C33), elements(C33))
def test_occurs_of_product_contained_in_union(a, b):
    assert occurs(mul(a, b)) <= occurs(a) | occurs(b)


@given(elements(C33))
def test_truncation_commutes_with_weight(a):
    w = lcs_weight(a)
    t = truncate_class(a, 2)
    if w <= 2:
        assert lcs_weight(t) == w
    else:
        assert t.is_identity()


def test_word_provenance_survives_arithmetic():
    a = from_word(C33, Word(((1, 2), (2, -1))))
    b = from_word(C33, Word(((3, 1),)))
    assert mul(a, b).word == Word(((1, 2), (2, -1), (3, 1)))
    assert inv(a).word == Word(((2, 1), (1, -2)))
    assert power(b, 3).word == Word(((3, 3),))


# ---------------------------------------------------------------------------
# shared one-letter polynomials

def test_shared_letter_polynomials_are_never_mutated(monkeypatch):
    # every element ring.letter builds shares its polynomial with the cache,
    # so no operation may edit one in place: after a decompose and a verify
    # each dict the cache handed out must still be (1 + X_g)^e
    assert _genpow_poly.cache_info().maxsize is not None
    handed = []

    def recording(g, e, cap):
        poly = _genpow_poly(g, e, cap)
        handed.append(((g, e, cap), poly))
        return poly

    cells = ((32, 2, 1), (12, 4, 2), (9, 3, 1))
    monkeypatch.setattr(ring_module, "_genpow_poly", recording)
    for rank, nilclass, pinned in cells:
        ctx = GroupContext(rank, nilclass)
        fix = tuple(range(1, pinned + 1))
        for seed in (1, 2):
            phi = random_automorphism(ctx, seed, 8, fix)
            sigma = parse_map(loads(dumps(map_payload(phi))))
            payload = loads(dumps(decomposition_payload(decompose(sigma, fix))))
            assert verify_payload(payload).ok
    monkeypatch.undo()
    assert handed
    for key, poly in handed:
        assert poly == _genpow_poly.__wrapped__(*key), key
    for rank, nilclass, _ in cells:
        ctx = GroupContext(rank, nilclass)
        for i in ctx.generators():
            assert generator(ctx, i).poly == {(): 1, (i,): 1}

