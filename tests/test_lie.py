"""Lyndon basis, left-normed rewriting, and central factorization."""

import os
import random
import re
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import freenil
from freenil import (
    DomainError,
    GroupContext,
    LeftNormedTerm,
    LieHomogeneous,
    NotCentral,
    NotLieElement,
    Word,
    central_factorize,
    central_log,
    collect_word,
    comm,
    from_collected,
    from_word,
    generator,
    identity,
    lcs_weight,
    left_normed_element,
    lie_coordinates,
    lyndon_brackets,
    lyndon_words,
    mul,
    occurs,
    power,
    spell,
    word_of,
)
from freenil import lie
from freenil.lie import left_normalize, standard_bracketing
from freenil.ring import bracket_expansion


def _mobius(d):
    return {1: 1, 2: -1, 3: -1, 4: 0, 5: -1}[d]


def _witt(n, k):
    return sum(_mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def test_lyndon_enumeration_small():
    assert lyndon_words(2, 1) == ((1,), (2,))
    assert lyndon_words(2, 2) == ((1, 2),)
    assert lyndon_words(2, 3) == ((1, 1, 2), (1, 2, 2))
    assert lyndon_words(1, 2) == ()


def test_lyndon_counts_match_witt_formula():
    for n in (2, 3):
        for k in (1, 2, 3, 4, 5):
            assert len(lyndon_words(n, k)) == _witt(n, k)


def test_lyndon_brackets_lengths():
    assert len(lyndon_brackets(GroupContext(2, 2))) == 1
    assert len(lyndon_brackets(GroupContext(2, 3))) == 2
    assert lyndon_brackets(GroupContext(1, 2)) == ()


def test_bracket_expansion_of_pair():
    assert bracket_expansion((1, 2)) == {(1, 2): 1, (2, 1): -1}


def test_central_log_of_commutator():
    ctx = GroupContext(2, 2)
    z = comm(generator(ctx, 1), generator(ctx, 2))
    log = central_log(z)
    assert log.degree == 2
    assert log.coefficients == {(1, 2): 1, (2, 1): -1}


def test_central_log_rejects_low_weight():
    ctx = GroupContext(2, 2)
    with pytest.raises(NotCentral):
        central_log(generator(ctx, 1))


def test_central_log_additivity():
    rng = random.Random(31)
    ctx = GroupContext(3, 3)
    for _ in range(50):
        zs = []
        for _ in range(2):
            letters = tuple(rng.randrange(1, 4) for _ in range(3))
            zs.append(left_normed_element(ctx, letters, rng.choice((-2, -1, 1, 2))))
        got = central_log(mul(zs[0], zs[1]))
        want = {}
        for z in zs:
            for k, v in central_log(z).coefficients.items():
                want[k] = want.get(k, 0) + v
        assert got.coefficients == {k: v for k, v in want.items() if v}


def test_lie_coordinates_single_bracket():
    ctx = GroupContext(2, 2)
    log = central_log(comm(generator(ctx, 1), generator(ctx, 2)))
    assert lie_coordinates(ctx, log) == {(1, 2): 1}


def bracket_leaves(tree):
    if isinstance(tree, int):
        return (tree,)
    return bracket_leaves(tree[0]) + bracket_leaves(tree[1])


def test_lie_coordinates_reconstruction():
    rng = random.Random(8)
    ctx = GroupContext(3, 3)
    brackets = lyndon_brackets(ctx)
    for _ in range(40):
        coords = {bracket_leaves(t): rng.randrange(-4, 5) for t in brackets}
        target = {}
        for tree in brackets:
            coef = coords[bracket_leaves(tree)]
            for mono, v in bracket_expansion(tree).items():
                target[mono] = target.get(mono, 0) + coef * v
        target = {k: v for k, v in target.items() if v}
        got = lie_coordinates(ctx, LieHomogeneous(3, target))
        assert got == {w: v for w, v in coords.items() if v}


def test_lie_coordinates_rejects_non_lie():
    for rank, coefficients, blocker in (
        (2, {(1, 2): 1}, (2, 1)),  # residue left after eliminating (1, 2)
        (2, {(1, 1, 2): 1, (1, 2, 1): -1}, (1, 2, 1)),  # residue, degree 3
        (2, {(1, 1): 1}, (1, 1)),  # non-Lyndon leading word
        (3, {(2, 1): 1, (3, 2): -1}, (2, 1)),  # non-Lyndon leading word
        (2, {(1, 3): 1, (3, 1): -1}, (1, 3)),  # Lyndon, but a letter above rank
    ):
        p = LieHomogeneous(len(blocker), coefficients)
        with pytest.raises(NotLieElement, match=re.escape(f"word {blocker} blocks")):
            lie_coordinates(GroupContext(rank, 2), p)


def test_left_normalize_fixes_left_normed_input():
    out = left_normalize(((1, 2), 3))
    assert out == {(1, 2, 3): 1}


def test_left_normalize_jacobi_example():
    # [x1,[x2,x3]] = [x1,x2,x3] - [x1,x3,x2] in the free Lie ring
    out = left_normalize((1, (2, 3)))
    assert out == {(1, 2, 3): 1, (1, 3, 2): -1}
    # confirm in the ring by expanding both sides
    def expand(combo):
        poly = {}
        for seq, coef in combo.items():
            tree = seq[0]
            for g in seq[1:]:
                tree = (tree, g)
            for mono, v in bracket_expansion(tree).items():
                poly[mono] = poly.get(mono, 0) + coef * v
        return {k: v for k, v in poly.items() if v}

    assert expand(out) == bracket_expansion((1, (2, 3)))


@given(st.integers(0, 2**32))
def test_left_normalize_preserves_leaf_multiset(seed):
    rng = random.Random(seed)

    def tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.randrange(1, 5)
        return (tree(depth - 1), tree(depth - 1))

    t = (tree(1), tree(1))

    def leaves(t):
        if isinstance(t, int):
            return [t]
        return leaves(t[0]) + leaves(t[1])

    want = sorted(leaves(t))
    for seq, coef in left_normalize(t).items():
        assert sorted(seq) == want


def test_left_normed_element_exponent_slot():
    # the element and its word letters agree with ring.comm's a^-1 b^-1 a b,
    # nested by hand: the one word route that shares no speller with
    # left_normed_element, spell and offset_image
    ctx = GroupContext(3, 3)
    x1, x2, x3 = (generator(ctx, i) for i in (1, 2, 3))
    rows = [
        (left_normed_element(ctx, (1, 2), 5), comm(x1, power(x2, 5))),
        (left_normed_element(ctx, (1, 2, 3), 1), comm(comm(x1, x2), x3)),
        (left_normed_element(ctx, (1, 1, 2), -2), comm(comm(x1, power(x1, -2)), x2)),
        (left_normed_element(ctx, (3,), 4), power(x3, 4)),
    ]
    # weights 4 to 6, the last central, with exponents +-2 and 2^64 + 1
    big = 2**64 + 1
    ctx = GroupContext(4, 6)
    y1, y2, y3, y4 = (generator(ctx, i) for i in (1, 2, 3, 4))
    rows += [
        (left_normed_element(ctx, (1, 2, 3, 1), 2), comm(comm(comm(y1, power(y2, 2)), y3), y1)),
        (left_normed_element(ctx, (2, 1, 3, 4), -2), comm(comm(comm(y2, power(y1, -2)), y3), y4)),
        (
            left_normed_element(ctx, (4, 1, 2, 1, 3), big),
            comm(comm(comm(comm(y4, power(y1, big)), y2), y1), y3),
        ),
        (
            left_normed_element(ctx, (1, 2, 1, 3, 2, 4), -2),
            comm(comm(comm(comm(comm(y1, power(y2, -2)), y1), y3), y2), y4),
        ),
        (
            left_normed_element(ctx, (3, 1, 1, 2, 4, 2), big),
            comm(comm(comm(comm(comm(y3, power(y1, big)), y1), y2), y4), y2),
        ),
    ]
    for got, want in rows:
        assert (got.poly, got.word) == (want.poly, want.word)
    # collected coordinates of one bracket power: the standard bracketing
    # with the exponent on its last leaf, spelled and built from coordinates
    for coords, want in (
        (((1, 1, 2), 3), comm(y1, comm(y1, power(y2, 3)))),
        (((1, 1, 2, 2), -2), comm(y1, comm(comm(y1, y2), power(y2, -2)))),
        (((1, 1, 2, 1, 2), big), comm(comm(y1, comm(y1, y2)), comm(y1, power(y2, big)))),
        (
            ((1, 1, 2, 1, 2, 2), -2),
            comm(y1, comm(comm(y1, y2), comm(comm(y1, y2), power(y2, -2)))),
        ),
    ):
        assert spell((coords,)) == want.word
        assert from_collected(ctx, (coords,)).poly == want.poly
        assert from_word(ctx, want.word).poly == want.poly


def test_central_factorize_identity_is_empty():
    ctx = GroupContext(3, 2)
    assert central_factorize(identity(ctx)) == []


def test_central_factorize_single_power():
    ctx = GroupContext(2, 2)
    z = power(comm(generator(ctx, 1), generator(ctx, 2)), 3)
    assert central_factorize(z) == [LeftNormedTerm((1, 2), 3)]


def test_central_factorize_class_one_keeps_single_letters():
    # in class 1 the whole group is central and its terms are single letters
    ctx = GroupContext(3, 1)
    assert central_factorize(generator(ctx, 1)) == [LeftNormedTerm((1,), 1)]
    z = mul(power(generator(ctx, 3), 2), power(generator(ctx, 1), -1))
    assert central_factorize(z) == [LeftNormedTerm((1,), -1), LeftNormedTerm((3,), 2)]


def test_central_factorize_rejects_non_central():
    ctx = GroupContext(2, 2)
    with pytest.raises(NotCentral):
        central_factorize(generator(ctx, 1))


def test_central_factorize_round_trip():
    rng = random.Random(616)
    for n, c in ((3, 2), (4, 3), (5, 4)):
        ctx = GroupContext(n, c)
        for _ in range(40):
            z = identity(ctx)
            for _ in range(rng.randrange(1, 6)):
                letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
                z = mul(z, left_normed_element(ctx, letters, rng.choice((-2, -1, 1, 2))))
            back = identity(ctx)
            for term in central_factorize(z):
                back = mul(back, left_normed_element(ctx, term.generators, term.exponent))
            assert back == z
            for term in central_factorize(z):
                assert set(term.generators) <= occurs(z)
                assert term.exponent != 0
                assert len(term.generators) == c


def test_central_factorize_drops_terms_opening_with_a_repeat():
    # [x1, [x1, x2]] left-normalizes to [x1, x1, x2] - [x1, x2, x1], and the
    # first term is the identity
    ctx = GroupContext(2, 3)
    x1, x2 = generator(ctx, 1), generator(ctx, 2)
    z = comm(x1, comm(x1, x2))
    assert central_factorize(z) == [LeftNormedTerm((1, 2, 1), -1)]
    rng = random.Random(617)
    for n, c in ((4, 3), (4, 4), (3, 5)):
        ctx = GroupContext(n, c)
        for _ in range(20):
            letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
            z = left_normed_element(ctx, letters, rng.choice((-2, 1, 3)))
            terms = central_factorize(z)
            assert all(t.generators[0] != t.generators[1] for t in terms)
            back = identity(ctx)
            for t in terms:
                back = mul(back, left_normed_element(ctx, t.generators, t.exponent))
            assert back == z


def test_collect_word_round_trip():
    rng = random.Random(1234)
    for n, c in ((3, 2), (3, 3), (4, 3)):
        ctx = GroupContext(n, c)
        for _ in range(40):
            w = Word(
                tuple(
                    (rng.randrange(1, n + 1), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randrange(0, 8))
                )
            )
            a = from_word(ctx, w)
            collected = collect_word(a)
            back = from_collected(ctx, collected)
            assert back == a and back.coords == collected
            assert from_word(ctx, spell(collected)) == a
            assert {g for g, _ in spell(collected).letters} <= occurs(a)


def test_word_of_prefers_provenance():
    ctx = GroupContext(3, 2)
    a = from_word(ctx, Word(((1, 1), (2, 1))))
    assert word_of(a) == Word(((1, 1), (2, 1)))
    # strip the word and make sure the rebuilt one evaluates back
    from freenil import GroupElement

    bare = GroupElement(ctx, dict(a.poly))
    assert bare.word is None
    assert from_word(ctx, word_of(bare)) == a


# ---------------------------------------------------------------------------
# Lyndon rows built on demand, against the whole degree-k basis

@lru_cache(maxsize=None)
def _full_layer(rank, degree):
    """Every Lyndon word of the layer -> (standard bracketing, expansion)."""
    rows = {}
    for w in lyndon_words(rank, degree):
        tree = standard_bracketing(w)
        rows[w] = (tree, bracket_expansion(tree))
    return rows


def _reference_coordinates(ctx, p):
    """Unitriangular elimination over the whole layer's table."""
    table = _full_layer(ctx.rank, p.degree)
    residual = dict(p.coefficients)
    coords = {}
    while residual:
        m = min(residual)
        if m not in table:
            raise NotLieElement(f"word {m} blocks Lyndon elimination")
        coords[m] = kappa = residual[m]
        for mono, v in table[m][1].items():
            residual[mono] = residual.get(mono, 0) - kappa * v
            if not residual[mono]:
                del residual[mono]
    return coords


def _outcome(f, *args):
    try:
        return f(*args)
    except NotLieElement as err:
        return ("NotLieElement", str(err))


def test_on_demand_rows_match_whole_layer(monkeypatch):
    rng = random.Random(4021)
    exps = (-2, -1, 1, 2)
    for n, c in ((4, 4), (3, 5), (5, 3)):
        ctx = GroupContext(n, c)
        for _ in range(15):
            z = identity(ctx)
            for _ in range(rng.randrange(1, 5)):
                letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
                z = mul(z, left_normed_element(ctx, letters, rng.choice(exps)))
            letters = [(rng.randrange(1, n + 1), rng.choice(exps)) for _ in range(8)]
            a = from_word(ctx, Word(tuple(letters[: rng.randrange(0, 9)])))
            k = rng.randrange(2, c + 1)
            junk = LieHomogeneous(
                k,
                {
                    tuple(rng.randrange(1, n + 1) for _ in range(k)): rng.choice(exps)
                    for _ in range(3)
                },
            )
            for p in (central_log(z), junk):
                assert _outcome(lie_coordinates, ctx, p) == _outcome(
                    _reference_coordinates, ctx, p
                )
            got = (central_factorize(z), collect_word(a))
            # the same two functions with the whole-layer table wired in
            with monkeypatch.context() as mp:
                mp.setattr(lie, "lie_coordinates", _reference_coordinates)
                mp.setattr(lie, "_lyndon_row", lambda w: _full_layer(n, len(w))[w])
                assert got == (central_factorize(z), collect_word(a))


def test_central_factorize_never_enumerates_the_layer(monkeypatch):
    # the degree-6 layer of N(30, 6) has about 1.2e8 Lyndon words
    def refuse(rank, length):
        raise AssertionError(f"enumerated the whole degree-{length} layer")

    monkeypatch.setattr(lie, "lyndon_words", refuse)
    ctx = GroupContext(30, 6)
    z = left_normed_element(ctx, (30, 7, 1, 19, 7, 2), 3)
    back = identity(ctx)
    for term in central_factorize(z):
        back = mul(back, left_normed_element(ctx, term.generators, term.exponent))
    assert back == z
    assert from_collected(ctx, collect_word(z)) == z


# expansions that break unitriangularity: own coefficient 2; a smaller word
_NOT_UNITRIANGULAR = ({(1, 2): 2}, {(1, 1): 1, (1, 2): 1})


def test_non_unitriangular_bracket_raises(monkeypatch):
    # a library bug, not bad input: RuntimeError, so verify_payload lets it out
    for fake in _NOT_UNITRIANGULAR:
        monkeypatch.setattr(lie, "bracket_expansion", lambda tree, fake=fake: fake)
        lie._lyndon_row.cache_clear()
        with pytest.raises(RuntimeError, match="not unitriangular") as info:
            lie._lyndon_row((1, 2))
        assert not isinstance(info.value, DomainError)


def test_non_unitriangular_bracket_raises_under_optimize():
    code = (
        "from freenil import lie\n"
        f"for fake in {_NOT_UNITRIANGULAR!r}:\n"
        "    lie.bracket_expansion = lambda tree: fake\n"
        "    lie._lyndon_row.cache_clear()\n"
        "    try:\n"
        "        lie._lyndon_row((1, 2))\n"
        "    except RuntimeError as err:\n"
        "        if 'not unitriangular' in str(err):\n"
        "            continue\n"
        "    raise SystemExit(f'{fake} did not raise RuntimeError')\n"
    )
    src = os.path.dirname(os.path.dirname(freenil.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
