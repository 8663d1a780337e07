"""Exact integer matrix helpers."""

import os
import random
import subprocess
import sys
from itertools import permutations

import pytest

import freenil
from freenil.errors import NotUnimodular
from freenil.intmat import (
    RowMove,
    det,
    factor_unimodular,
    identity_matrix,
    inverse_unimodular,
    matmul,
    move_matrix,
    reduce_to_identity,
)


def _det_leibniz(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def _near_identity(rng, n):
    # identity plus sparse off-diagonal entries; a few diagonal entries become
    # -1, 2 or 0, so zero-lead rows meet both repeated and changed pivots
    m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for r in range(n):
        for c in range(n):
            if r != c and rng.random() < 0.2:
                m[r][c] = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.3:
            m[r][r] = rng.choice((-1, 2, 0))
    return tuple(tuple(row) for row in m)


_SPARSE_CASES = [
    # zero-lead rows below a repeated pivot: skipped
    ((1, 2, 0), (0, 1, 3), (0, 0, 1)),
    ((1, 0, 0, 5), (0, 1, 0, 0), (0, 4, 1, 0), (0, 0, 0, 1)),
    # zero-lead rows below a -1 or 2 pivot: rescaled, not skipped
    ((-1, 0, 0), (0, 1, 2), (0, 3, 1)),
    ((2, 0, 0), (0, 1, 1), (0, 1, 3)),
    ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1), (0, 0, 1, 3)),
    # zero diagonal entries that force a swap
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((1, 1, 0, 0), (1, 1, 0, 1), (0, 0, 0, 1), (0, 1, 1, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
]


def test_det_against_leibniz():
    rng = random.Random(2718)
    dense = [
        tuple(tuple(rng.randrange(-6, 7) for _ in range(n)) for _ in range(n))
        for n in (rng.randrange(1, 5) for _ in range(300))
    ]
    rng = random.Random(3141)
    sparse = [_near_identity(rng, rng.randrange(1, 7)) for _ in range(150)]
    for m in dense + _SPARSE_CASES + sparse:
        assert det(m) == _det_leibniz(m), m


def test_det_large_near_identity_closed_form():
    rng = random.Random(1618)
    for _ in range(3):
        n = rng.randrange(24, 41)
        k = rng.choice((-5, -2, 2, 3, 7))
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        r = rng.randrange(n)
        rows[r] = [k * x for x in rows[r]]
        flips = 0
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            kind = rng.choice(("add", "add", "add", "swap", "negate"))
            if kind == "add":
                c = rng.choice((-2, -1, 1, 2))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            elif kind == "swap":
                rows[i], rows[j] = rows[j], rows[i]
                flips += 1
            else:
                rows[i] = [-x for x in rows[i]]
                flips += 1
        assert det(tuple(tuple(r) for r in rows)) == (-1) ** flips * k


def test_det_edges():
    assert det(()) == 1
    assert det(((7,),)) == 7
    assert det(identity_matrix(4)) == 1


def _random_unimodular(rng, n, moves=12):
    m = identity_matrix(n)
    for _ in range(moves):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        j = j if j < i else j + 1
        if kind == 0:
            mv = RowMove("add", i, j, rng.choice((-3, -2, -1, 1, 2, 3)))
        elif kind == 1:
            mv = RowMove("swap", i, j)
        else:
            mv = RowMove("negate", i)
        m = matmul(move_matrix(mv, n), m)
    return m


def test_factor_unimodular_reconstructs_product():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 6)
        m = _random_unimodular(rng, n)
        moves = factor_unimodular(m)
        acc = identity_matrix(n)
        for mv in moves:
            acc = matmul(acc, move_matrix(mv, n))
        assert acc == m
        assert sum(1 for mv in moves if mv.kind == "negate") <= 1


def test_factor_examples():
    assert factor_unimodular(identity_matrix(3)) == []
    moves = factor_unimodular(((1, 1), (0, 1)))
    assert moves == [RowMove("add", 0, 1, 1)]
    # 2x2 with det 1 but needing a euclidean step
    m = ((2, 1), (1, 1))
    acc = identity_matrix(2)
    for mv in factor_unimodular(m):
        acc = matmul(acc, move_matrix(mv, 2))
    assert acc == m


def test_factor_single_negate():
    assert factor_unimodular(((-1,),)) == [RowMove("negate", 0)]
    assert factor_unimodular(((1,),)) == []


def test_reduce_moves_invert_factorization():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(2, 5)
        m = _random_unimodular(rng, n)
        rows = [list(r) for r in m]
        acc = tuple(tuple(r) for r in rows)
        for mv in reduce_to_identity(m):
            acc = matmul(move_matrix(mv, n), acc)
        assert acc == identity_matrix(n)


def test_inverse_unimodular():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(2, 6)
        m = _random_unimodular(rng, n)
        assert matmul(m, inverse_unimodular(m)) == identity_matrix(n)
        assert matmul(inverse_unimodular(m), m) == identity_matrix(n)
    assert inverse_unimodular(((-1,),)) == ((-1,),)


def test_not_unimodular_rejected():
    with pytest.raises(NotUnimodular):
        factor_unimodular(((2, 0), (0, 1)))
    with pytest.raises(NotUnimodular):
        inverse_unimodular(((1, 1), (1, 1)))


def test_not_unimodular_rejected_under_optimize():
    # refusals of bad input and invariant checks must not rest on asserts,
    # which -O strips
    code = (
        "from freenil.context import GroupContext\n"
        "from freenil.endo import transvection\n"
        "from freenil.errors import IndexOutOfRange, NotUnimodular\n"
        "from freenil.intmat import factor_unimodular, inverse_unimodular\n"
        "from freenil.ring import GroupElement\n"
        "ctx = GroupContext(3, 2)\n"
        "for f, args, err in (\n"
        "    (inverse_unimodular, (((1, 1), (1, 1)),), NotUnimodular),\n"
        "    (factor_unimodular, (((0, 0), (0, 1)),), NotUnimodular),\n"
        "    (transvection, (ctx, 1, 1, -1), IndexOutOfRange),\n"
        "    (transvection, (ctx, 4, 1, 1), IndexOutOfRange),\n"
        "    (transvection, (ctx, 1, 0, 1), IndexOutOfRange),\n"
        "    (GroupElement, (ctx, {(): 2}), RuntimeError),\n"
        "):\n"
        "    try:\n"
        "        f(*args)\n"
        "    except err:\n"
        "        continue\n"
        "    raise SystemExit(f'{f.__name__}{args[1:]} did not raise {err.__name__}')\n"
    )
    src = os.path.dirname(os.path.dirname(freenil.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
