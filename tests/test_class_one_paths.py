"""The exact shortcuts on class-1 pieces, against the work they skip.

`GeneratorMap.is_automorphism` settles a moved block that is a signed
permutation without a determinant, `GeneratorMap.apply` reads the image of a
generator x_b off the map, and `ring.from_collected` adds a bracket power of
length c in closed form.  Each is checked here against the general
computation it replaces, on shapes that take the shortcut and on near misses
that must not.
"""

import random

import pytest

from freenil import (
    GeneratorMap,
    GroupContext,
    Word,
    from_word,
    generator,
    identity,
    random_automorphism,
)
from freenil import ring
from freenil.intmat import det
from freenil.lie import lyndon_words, spell
from freenil.ring import _poly_add_into, _poly_mul, from_collected
from freenil.verifier import verify_payload

from test_endo import _count_det


# ---------------------------------------------------------------------------
# unimodularity of a signed-permutation block

def _signed_permutation_images(rng, ctx, size):
    # x_g -> x_{pi(g)}^(+-1) [x_a, x_b] on generators 1..size: the commutator
    # leaves the abelianization alone, and a fixed point of pi takes the
    # sign -1, so exactly 1..size are moved
    moved = list(range(1, size + 1))
    target = moved[:]
    rng.shuffle(target)
    images = {}
    for g, t in zip(moved, target):
        sign = -1 if t == g else rng.choice((-1, 1))
        a, b = rng.sample(list(ctx.generators()), 2)
        images[g] = [(t, sign), (a, -1), (b, -1), (a, 1), (b, 1)]
    return images


def _near_misses(images, outside):
    """(name, images, shortcut) for each edit of a signed permutation; the
    shortcut is whether the moved block stays a signed permutation."""
    first, second = sorted(images)[:2] if len(images) > 1 else (min(images), None)
    (t, s), *rest = images[first]
    rows = [
        ("entry of 2", {first: [(t, 2 * s), *rest]}, False),
        ("empty column", {first: [(outside, 1), *rest]}, False),
        ("row outside the moved set", {first: [(t, s), (outside, 1), *rest]}, True),
    ]
    if second is not None:
        other = images[second][0]
        rows += [
            ("two columns on one row", {second: [(t, 1), *rest]}, False),
            ("extra degree-1 entry", {first: [(t, s), other, *rest]}, False),
            # every row still holds one entry, but column `first` two
            (
                "one column on two rows",
                {first: [(t, s), other, *rest], second: [(outside, 1), *rest]},
                False,
            ),
        ]
    return [(name, {**images, **edit}, shortcut) for name, edit, shortcut in rows]


def _map(ctx, images):
    return GeneratorMap(
        ctx,
        [
            from_word(ctx, Word(images[g])) if g in images else generator(ctx, g)
            for g in ctx.generators()
        ],
    )


@pytest.mark.parametrize("size", range(65))
def test_signed_permutation_blocks_match_the_determinant(monkeypatch, size):
    rng = random.Random(2400 + size)
    ctx = GroupContext(size + 2, 2)
    images = _signed_permutation_images(rng, ctx, size)
    rows = [("signed permutation", images, True)]
    if size:
        rows += _near_misses(images, outside=size + 1)
    calls = _count_det(monkeypatch)
    for name, imgs, shortcut in rows:
        phi = _map(ctx, imgs)
        calls.clear()
        assert phi.is_automorphism() == (det(phi.matrix) in (1, -1)), name
        assert len(calls) == (0 if shortcut else 1), name


def test_near_misses_take_both_answers():
    # the edits give singular, non-unimodular and unimodular blocks alike
    rng = random.Random(2399)
    ctx = GroupContext(7, 2)
    images = _signed_permutation_images(rng, ctx, 5)
    dets = {
        name: det(_map(ctx, imgs).matrix) for name, imgs, _ in _near_misses(images, 6)
    }
    assert dets["entry of 2"] in (2, -2)
    assert dets["empty column"] == dets["two columns on one row"] == 0
    assert dets["one column on two rows"] == 0
    assert dets["row outside the moved set"] in (1, -1)
    assert dets["extra degree-1 entry"] in (1, -1)


# ---------------------------------------------------------------------------
# substitution of one-letter elements

def _substitute(phi, a):
    # the ring substitution X_i -> phi(x_i) - 1, monomial by monomial
    cap = phi.ctx.nilclass
    out = {}
    for w, coeff in a.poly.items():
        term = {(): 1}
        for i in w:
            term = _poly_mul(term, {m: c for m, c in phi(i).poly.items() if m}, cap)
        _poly_add_into(out, term, coeff)
    return out


@pytest.mark.parametrize("nilclass", [1, 2, 3, 4, 5])
def test_apply_to_a_letter_matches_the_substitution(nilclass):
    ctx = GroupContext(5, nilclass)
    rng = random.Random(2410 + nilclass)
    maps = [random_automorphism(ctx, seed, 6, (1,)) for seed in range(4)]
    # an endomorphism sending x_2 to 1, and x_4 to a word over every generator
    maps.append(
        GeneratorMap(
            ctx,
            [
                generator(ctx, 1),
                identity(ctx),
                generator(ctx, 3),
                from_word(ctx, Word((g, rng.choice((-2, 1))) for g in ctx.generators())),
                generator(ctx, 5),
            ],
        )
    )
    seen = set()
    for phi in maps:
        assert phi.moved
        for b in ctx.generators():
            for e in (1, 2, -1, -3):
                for a in (from_word(ctx, Word(((b, e),))), generator(ctx, b) ** e):
                    got = phi.apply(a)
                    assert got.poly == _substitute(phi, a), (phi, b, e)
                    assert got.word is None
            seen.add(b in phi.moved)
    assert seen == {False, True}


# ---------------------------------------------------------------------------
# top-weight bracket powers in closed form

def _random_coords(rng, n, c, words):
    exps = [e for k in range(1, 6) for e in (k, -k)]
    letters = sorted(rng.sample(range(1, n + 1), rng.randrange(n + 1)))
    coords = [(g, rng.choice(exps)) for g in letters]
    for k in range(2, c + 1):
        picked = rng.sample(words[k], min(len(words[k]), rng.randrange(1, 4)))
        coords += [(w, rng.choice(exps)) for w in sorted(picked)]
    return tuple(coords)


@pytest.mark.parametrize("n, c", [(6, 2), (5, 3), (4, 4), (4, 5), (3, 6)])
def test_from_collected_matches_the_spelled_word(n, c):
    ctx = GroupContext(n, c)
    rng = random.Random(2420 + 10 * n + c)
    words = {k: lyndon_words(n, k) for k in range(2, c + 1)}
    cache = {}  # one cache shared by every call, as a parse shares it
    for trial in range(16):
        coords = _random_coords(rng, n, c, words)
        got = from_collected(ctx, coords, cache if trial % 2 else None)
        assert got.poly == from_word(ctx, spell(coords)).poly, coords
        assert got.coords == coords and got.word is None


def test_the_expansion_cache_is_bounded():
    maxsize = ring._lyndon_expansion.cache_info().maxsize
    assert maxsize is not None
    # more distinct top-weight brackets than the cache holds
    n = 2
    while n * (n - 1) // 2 <= maxsize:
        n += 1
    ctx = GroupContext(n, 2)
    for w in lyndon_words(n, 2):
        from_collected(ctx, ((w, 1),))
    assert ring._lyndon_expansion.cache_info().currsize == maxsize


# ---------------------------------------------------------------------------
# a permutation-tagged factor that is no permutation

def swap_payload(stored):
    """A version 5 decomposition of the swap x_2 <-> x_3 in N(4, 2) with
    D = {1}, as one factor tagged permutation that stores `stored`."""
    return {
        "version": 5,
        "input": {
            "rank": 4,
            "class": 2,
            "images": [[[1, 1]], [[3, 1]], [[2, 1]], [[4, 1]]],
        },
        "fixed": [1],
        "factors": [
            {"stored": stored, "certificate": {"fixed": [1, 4]}, "tag": "permutation"}
        ],
    }


# x_2 -> x_3 and x_3 -> x_3: its moved block is the 1 x 1 zero block
NOT_A_PERMUTATION = swap_payload([[2, [[3, 1]]], [3, [[3, 1]]]])
SWAP = swap_payload([[2, [[3, 1]]], [3, [[2, 1]]]])
NOT_AN_AUTOMORPHISM = "factor 0 (permutation): certificates only apply to automorphisms"


def test_a_permutation_factor_that_is_not_one_fails_to_verify():
    report = verify_payload(NOT_A_PERMUTATION)
    assert report.ok is False
    assert report.failures[0] == NOT_AN_AUTOMORPHISM


def test_the_swap_verifies():
    report = verify_payload(SWAP)
    assert report.ok is True and report.failures == ()
