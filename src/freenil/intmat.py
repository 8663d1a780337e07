"""Exact integer matrix helpers: determinants, unimodular inverses, and
factorization of a determinant +-1 matrix into elementary row moves.

Matrices are tuples of tuples of ints (rows), indices 0-based.  Everything is
fraction-free; numpy is deliberately avoided because entries must stay
arbitrary-precision.

A RowMove records left multiplication by an elementary matrix:

    add(i, j, k):  row_i += k * row_j        (E_ij(k), i != j)
    swap(i, j):    rows i and j exchange
    negate(i):     row_i *= -1

`factor_unimodular(A)` returns moves m_1..m_t whose matrix product
M(m_1) * ... * M(m_t) equals A exactly.  The swaps come as one consecutive
run, a cycle walk that undoes the signed permutation the reduction leaves,
so a caller can merge them into a few permutations (decompose: permutations
moving at most half of E) instead of one factor per swap.  The negates
follow them, one per row that the walk leaves at -1.

`replay(n, moves)` applies moves to the identity.  Replaying a reduction's
moves gives the inverse, so a caller holding a factorization inverts A with
the inverted moves, and reduces nothing twice.
"""

from __future__ import annotations

from typing import Iterable

from .context import Record
from .errors import NotUnimodular

Matrix = tuple[tuple[int, ...], ...]


class RowMove(Record):
    __slots__ = ("kind", "i", "j", "k")
    kind: str  # "add" | "swap" | "negate"
    i: int
    j: int
    k: int

    def __init__(self, kind: str, i: int, j: int = 0, k: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)

    def inverse(self) -> "RowMove":
        if self.kind == "add":
            return RowMove("add", self.i, self.j, -self.k)
        return self


def det(m: Matrix) -> int:
    """Bareiss fraction-free determinant; every division below is exact, and
    rows with a zero lead are left untouched when the pivot repeats."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            lead = row_i[k]
            # (x * pivot - 0 * y) // prev == x when pivot == prev
            if lead == 0 and row_k[k] == prev:
                continue
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * row_k[k] - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _apply_move(move: RowMove, rows: list[list[int]]) -> None:
    if move.kind == "add":
        ri, rj = rows[move.i], rows[move.j]
        rows[move.i] = [x + move.k * y for x, y in zip(ri, rj)]
    elif move.kind == "swap":
        rows[move.i], rows[move.j] = rows[move.j], rows[move.i]
    else:
        rows[move.i] = [-x for x in rows[move.i]]


def reduce_to_identity(m: Matrix) -> list[RowMove]:
    """Row moves L_1..L_t with L_t * ... * L_1 * m = I.  Requires det = +-1.

    Column by column, without swapping rows: euclidean gcd runs among the
    rows not yet used as pivots (the gcd is forced to 1, because those rows
    restricted to the remaining columns form a unimodular block), then the
    +-1 pivot clears its column in every other row.  The rows end as a signed
    permutation, undone by one cycle walk of swaps and then one negate per
    row left at -1.  The reduction itself decides unimodularity: a column
    with no live entry or with gcd above 1 raises NotUnimodular.
    """
    n = len(m)
    rows = [list(r) for r in m]
    moves: list[RowMove] = []
    unused = list(range(n))  # rows not yet used as pivots, in order
    column_of = [0] * n  # pivot row -> its column

    def do(move: RowMove) -> None:
        _apply_move(move, rows)
        moves.append(move)

    for col in range(n):
        while True:
            live = [r for r in unused if rows[r][col]]
            if not live:
                raise NotUnimodular("matrix is singular")
            best = min(live, key=lambda r: abs(rows[r][col]))
            if len(live) == 1 and abs(rows[best][col]) == 1:
                break
            progressed = False
            for r in live:
                if r == best:
                    continue
                q = rows[r][col] // rows[best][col]
                if q:
                    do(RowMove("add", r, best, -q))
                    progressed = True
            # when every other entry is a multiple of the minimum, one pass
            # clears them; otherwise remainders shrank and we loop again
            if not progressed and abs(rows[best][col]) != 1:
                raise NotUnimodular("column gcd exceeds 1")
        unused.remove(best)
        column_of[best] = col
        sign = rows[best][col]
        for r in range(n):
            if r != best and rows[r][col]:
                do(RowMove("add", r, best, -rows[r][col] * sign))
    # row r is now +-e_{column_of[r]}: each swap puts one row in place
    for i in range(n):
        while column_of[i] != i:
            c = column_of[i]
            do(RowMove("swap", i, c))
            column_of[i], column_of[c] = column_of[c], c
    for i in range(n):
        if rows[i][i] == -1:
            do(RowMove("negate", i))
    if not _is_identity(rows):
        raise NotUnimodular("reduction did not reach the identity")
    return moves


def _is_identity(rows: list[list[int]]) -> bool:
    # row i is e_i iff its entry i is 1 and every other entry is 0
    n = len(rows)
    return all(row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(rows))


def factor_unimodular(m: Matrix) -> list[RowMove]:
    """Ordered moves whose matrix product equals m (see module docstring)."""
    return [move.inverse() for move in reduce_to_identity(m)]


def replay(n: int, moves: Iterable[RowMove]) -> Matrix:
    """The moves L_1..L_t applied in order to the rows of the n x n
    identity: the matrix L_t * ... * L_1."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    for move in moves:
        _apply_move(move, rows)
    return tuple(tuple(r) for r in rows)


def inverse_unimodular(m: Matrix) -> Matrix:
    """Exact inverse of a determinant +-1 integer matrix: the moves that
    reduce it to the identity, replayed on the identity."""
    return replay(len(m), reduce_to_identity(m))
