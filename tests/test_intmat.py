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
    _is_identity,
    factor_unimodular,
    inverse_unimodular,
    reduce_to_identity,
    replay,
)
from matrix_oracle import identity_matrix, matmul, move_matrix
from matrix_oracle import reduce_to_identity as dense_reduce_to_identity


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
        # the negates come last, one per row the other moves leave at -1
        rest = [mv for mv in moves if mv.kind != "negate"]
        left = m
        for mv in rest:
            left = matmul(move_matrix(mv.inverse(), n), left)
        negated = [RowMove("negate", r) for r in range(n) if left[r][r] == -1]
        assert moves[len(rest):] == negated


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


def test_replay_is_the_product_of_the_moves():
    # replay(n, [L_1..L_t]) = L_t * ... * L_1, and replaying a factorization's
    # inverted moves inverts it
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randrange(1, 7)
        m = _random_unimodular(rng, n) if n > 1 else ((rng.choice((-1, 1)),),)
        moves = reduce_to_identity(m)
        acc = identity_matrix(n)
        for mv in moves:
            acc = matmul(move_matrix(mv, n), acc)
        assert replay(n, moves) == acc
        undone = replay(n, [mv.inverse() for mv in factor_unimodular(m)])
        assert undone == inverse_unimodular(m)
    assert replay(3, []) == identity_matrix(3)


def _sparse(rows):
    # intmat's sparse rows, {column: nonzero entry}, of a dense matrix
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_closing_check_accepts_only_the_identity():
    # the check that ends reduce_to_identity, on its sparse rows, against the
    # dense definition, on the identity and on every one-entry change of it
    for n in range(1, 6):
        ident = [list(r) for r in identity_matrix(n)]
        assert _is_identity(_sparse(ident))
        for r in range(n):
            for c in range(n):
                for v in (-2, -1, 0, 1, 2):
                    rows = [list(row) for row in ident]
                    rows[r][c] = v
                    assert _is_identity(_sparse(rows)) == (rows == ident)
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randrange(1, 5)
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(n)]
        expected = rows == [list(r) for r in identity_matrix(n)]
        assert _is_identity(_sparse(rows)) == expected


def _signed_permutation_heavy(rng, n):
    # a random signed permutation with a few row adds on top
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rng.choice((-1, 1)) if c == perm[r] else 0 for c in range(n)] for r in range(n)]
    for _ in range(rng.randrange(0, n // 2 + 1)):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(row) for row in rows)


def _is_signed_permutation(m):
    return all(sum(map(abs, row)) == 1 for row in m) and all(
        sum(map(abs, col)) == 1 for col in zip(*m)
    )


def test_reduce_swaps_are_one_cycle_walk_between_adds_and_signs():
    rng = random.Random(14)
    walks = 0
    for _ in range(150):
        n = rng.randrange(2, 13)
        m = _signed_permutation_heavy(rng, n) if rng.random() < 0.5 else _random_unimodular(rng, n)
        moves = reduce_to_identity(m)
        # the Euclid and clearing adds run until the rows are a signed
        # permutation ...
        acc, first = m, 0
        while not _is_signed_permutation(acc):
            assert moves[first].kind == "add"
            acc = matmul(move_matrix(moves[first], n), acc)
            first += 1
        # ... which one cycle walk of swaps undoes
        column = [next(c for c in range(n) if acc[r][c]) for r in range(n)]
        walk = []
        for i in range(n):
            while column[i] != i:
                c = column[i]
                walk.append(RowMove("swap", i, c))
                column[i], column[c] = column[c], c
        last = first + len(walk)
        assert moves[first:last] == walk
        walks += bool(walk)
        # then only the signs: one negate per row left at -1, and no add
        for mv in walk:
            acc = matmul(move_matrix(mv, n), acc)
        tail = [RowMove("negate", r) for r in range(n) if acc[r][r] == -1]
        assert moves[last:] == tail
    assert walks > 50


def test_inverse_unimodular_of_permutation_heavy_matrices():
    rng = random.Random(15)
    for n in (2, 3, 5, 8, 13, 21, 32):
        for _ in range(3):
            m = _signed_permutation_heavy(rng, n)
            assert matmul(inverse_unimodular(m), m) == identity_matrix(n)
            assert matmul(m, inverse_unimodular(m)) == identity_matrix(n)


def _dense_product(rng, n):
    # L * U * P: unitriangular L and U with every entry below (above) the
    # diagonal nonzero, and a signed permutation P, so a product of add moves
    # (and one signed permutation) with no zero entry once n > 2
    def tri(lower):
        return tuple(
            tuple(
                1 if r == c else rng.choice((-2, -1, 1, 2)) if (r > c) == lower else 0
                for c in range(n)
            )
            for r in range(n)
        )

    perm = list(range(n))
    rng.shuffle(perm)
    p = tuple(
        tuple(rng.choice((-1, 1)) if c == perm[r] else 0 for c in range(n))
        for r in range(n)
    )
    return matmul(matmul(tri(True), tri(False)), p)


def _automorphism_block(n, seed):
    # the free block that decompose reduces: a random_automorphism of
    # N(n + 1, 1) fixing x_1, read on x_2..x_{n+1}
    ctx = freenil.GroupContext(n + 1, 1)
    sigma = freenil.random_automorphism(ctx, seed, 3 * n, (1,))
    return sigma._block(range(2, n + 2))


def _refusal(reduce, m):
    try:
        reduce(m)
    except NotUnimodular as exc:
        return str(exc)
    return None


def test_sparse_reduction_emits_the_dense_moves():
    # the sparse reduce_to_identity against the dense one it replaced, on
    # every size 0..64: the same moves in the same order, and on singular and
    # determinant +-2 inputs the same refusal
    rng = random.Random(2023)
    dense_sizes = set(range(13)) | {16, 31, 64}
    refused = set()
    for n in range(65):
        cases = [_signed_permutation_heavy(rng, n), _automorphism_block(n, n)]
        if n in dense_sizes:
            cases.append(_dense_product(rng, n))
        for index, m in enumerate(cases):
            assert reduce_to_identity(m) == dense_reduce_to_identity(m)
            # a refused dense block costs a near-full reduction on each side
            if n == 0 or (index == 2 and n > 16):
                continue
            r = rng.randrange(n)
            for bad in (
                # determinant +-2: a row doubled
                m[:r] + (tuple(2 * x for x in m[r]),) + m[r + 1 :],
                # singular: a row repeated
                m[:r] + (m[(r + 1) % n],) + m[r + 1 :],
                # singular: a zero column
                tuple(row[:r] + (0,) + row[r + 1 :] for row in m),
            ):
                if n == 1 and bad[0] == m[0]:
                    continue  # repeating the only row changes nothing
                message = _refusal(dense_reduce_to_identity, bad)
                assert message is not None
                assert _refusal(reduce_to_identity, bad) == message
                refused.add(message)
    assert refused == {"matrix is singular", "column gcd exceeds 1"}


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
