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

The reduction keeps its rows sparse, {column: entry}, with an index of the
rows that hold each column, so a block that is nearly a signed permutation
costs about its number of entries, not n^2; `reduce_to_identity` and
`factor_unimodular` also take such rows, so a caller holding them builds no
dense matrix.  `replay_rows(n, moves)` applies moves to the identity's sparse
rows, `dense` turns sparse rows into a Matrix, and `replay` gives the dense
matrix.
Replaying a reduction's moves gives the inverse, so a caller holding a
factorization inverts A with the inverted moves, and reduces nothing twice.
"""

from __future__ import annotations

from typing import Iterable, Union

from .context import Record
from .errors import NotUnimodular

Matrix = tuple[tuple[int, ...], ...]
Rows = list[dict[int, int]]  # sparse rows, {column: nonzero entry}


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


def _apply_move(move: RowMove, rows: Rows) -> None:
    if move.kind == "add":
        ri, k = rows[move.i], move.k
        for c, v in rows[move.j].items():
            x = ri.pop(c, 0) + k * v
            if x:
                ri[c] = x
    elif move.kind == "swap":
        rows[move.i], rows[move.j] = rows[move.j], rows[move.i]
    else:
        rows[move.i] = {c: -v for c, v in rows[move.i].items()}


def reduce_to_identity(m: Union[Matrix, Rows]) -> list[RowMove]:
    """Row moves L_1..L_t with L_t * ... * L_1 * m = I.  Requires det = +-1.
    The rows of m may be dense sequences or sparse {column: entry} dicts;
    both give the same moves.

    Column by column, without swapping rows: euclidean gcd runs among the
    rows not yet used as pivots (the gcd is forced to 1, because those rows
    restricted to the remaining columns form a unimodular block), then the
    +-1 pivot clears its column in every other row.  The rows end as a signed
    permutation, undone by one cycle walk of swaps and then one negate per
    row left at -1.  The reduction itself decides unimodularity: a column
    with no live entry or with gcd above 1 raises NotUnimodular.
    """
    n = len(m)
    rows: Rows = [
        {c: v for c, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
        for r in m
    ]
    # the rows with an entry in each column: a column's live rows and the
    # rows its pivot clears are read off it, not off every row
    holders: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    moves: list[RowMove] = []
    unused = set(range(n))  # rows not yet used as pivots
    column_of = [0] * n  # pivot row -> its column

    def add(i: int, j: int, k: int) -> None:
        # row_i += k * row_j, keeping `holders` in step
        ri = rows[i]
        for c, v in rows[j].items():
            x = ri.get(c, 0) + k * v
            if not x:
                del ri[c]
                holders[c].discard(i)
            else:
                if c not in ri:
                    holders[c].add(i)
                ri[c] = x
        moves.append(RowMove("add", i, j, k))

    def do(move: RowMove) -> None:
        _apply_move(move, rows)
        moves.append(move)

    for col in range(n):
        while True:
            live = sorted(holders[col] & unused)
            if not live:
                raise NotUnimodular("matrix is singular")
            best = min(live, key=lambda r: abs(rows[r][col])) if live[1:] else live[0]
            lead = rows[best][col]
            if len(live) == 1 and abs(lead) == 1:
                break
            progressed = False
            for r in live:
                if r == best:
                    continue
                q = rows[r][col] // lead
                if q:
                    add(r, best, -q)
                    progressed = True
            # when every other entry is a multiple of the minimum, one pass
            # clears them; otherwise remainders shrank and we loop again
            if not progressed and abs(lead) != 1:
                raise NotUnimodular("column gcd exceeds 1")
        unused.remove(best)
        column_of[best] = col
        for r in sorted(holders[col]):
            if r != best:
                add(r, best, -rows[r][col] * lead)
    # row r is now +-e_{column_of[r]}: each swap puts one row in place
    for i in range(n):
        while column_of[i] != i:
            c = column_of[i]
            do(RowMove("swap", i, c))
            column_of[i], column_of[c] = column_of[c], c
    for i in range(n):
        if rows[i].get(i) == -1:
            do(RowMove("negate", i))
    if not _is_identity(rows):
        raise NotUnimodular("reduction did not reach the identity")
    return moves


def _is_identity(rows: Rows) -> bool:
    # sparse row i is e_i iff it holds the one entry 1 in column i
    return all(row == {i: 1} for i, row in enumerate(rows))


def factor_unimodular(m: Union[Matrix, Rows]) -> list[RowMove]:
    """Ordered moves whose matrix product equals m (see module docstring)."""
    return [move.inverse() for move in reduce_to_identity(m)]


def replay_rows(n: int, moves: Iterable[RowMove]) -> Rows:
    """The moves L_1..L_t applied in order to the rows of the n x n
    identity, as sparse rows: the matrix L_t * ... * L_1."""
    rows: Rows = [{i: 1} for i in range(n)]
    for move in moves:
        _apply_move(move, rows)
    return rows


def replay(n: int, moves: Iterable[RowMove]) -> Matrix:
    """`replay_rows` as a dense matrix."""
    return dense(replay_rows(n, moves))


def dense(rows: Rows) -> Matrix:
    """Square sparse rows as a dense matrix."""
    n = len(rows)
    return tuple(tuple(row.get(c, 0) for c in range(n)) for row in rows)


def inverse_unimodular(m: Matrix) -> Matrix:
    """Exact inverse of a determinant +-1 integer matrix: the moves that
    reduce it to the identity, replayed on the identity."""
    return replay(len(m), reduce_to_identity(m))
