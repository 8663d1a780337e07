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
M(m_1) * ... * M(m_t) equals A exactly, with at most one negate move.
Pairs of -1 pivots are absorbed into six add-moves (the rotation-squared
identity on two rows), so swap and negate moves together always have the
parity of det(A).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotUnimodular

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RowMove:
    kind: str  # "add" | "swap" | "negate"
    i: int
    j: int = 0
    k: int = 0

    def inverse(self) -> "RowMove":
        if self.kind == "add":
            return RowMove("add", self.i, self.j, -self.k)
        return self


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[r][t] * b[t][c] for t in range(mid)) for c in range(m))
        for r in range(n)
    )


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


def move_matrix(move: RowMove, n: int) -> Matrix:
    rows = [list(r) for r in identity_matrix(n)]
    _apply_move(move, rows)
    return tuple(tuple(r) for r in rows)


def reduce_to_identity(m: Matrix) -> list[RowMove]:
    """Row moves L_1..L_t with L_t * ... * L_1 * m = I.  Requires det = +-1.

    Column by column: euclidean gcd runs among the rows at and below the
    diagonal (the gcd is forced to 1 because every trailing minor of a
    unimodular matrix is unimodular), then the +-1 pivot clears its column.
    The reduction itself decides unimodularity: a column with no live entry
    or with gcd above 1 raises NotUnimodular.
    """
    n = len(m)
    rows = [list(r) for r in m]
    moves: list[RowMove] = []

    def do(move: RowMove) -> None:
        _apply_move(move, rows)
        moves.append(move)

    for col in range(n):
        while True:
            live = [r for r in range(col, n) if rows[r][col]]
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
        pivot_row = next(r for r in range(col, n) if rows[r][col])
        if pivot_row != col:
            do(RowMove("swap", col, pivot_row))
        sign = rows[col][col]
        for r in range(n):
            if r != col and rows[r][col]:
                do(RowMove("add", r, col, -rows[r][col] * sign))
    negs = [i for i in range(n) if rows[i][i] == -1]
    for a, b in zip(negs[0::2], negs[1::2]):
        # diag(-1,-1) on rows a,b equals ((r_a,r_b) -> (r_b,-r_a)) twice
        for _ in range(2):
            do(RowMove("add", a, b, 1))
            do(RowMove("add", b, a, -1))
            do(RowMove("add", a, b, 1))
    if len(negs) % 2:
        do(RowMove("negate", negs[-1]))
    if rows != [list(r) for r in identity_matrix(n)]:
        raise NotUnimodular("reduction did not reach the identity")
    return moves


def factor_unimodular(m: Matrix) -> list[RowMove]:
    """Ordered moves whose matrix product equals m (see module docstring)."""
    return [move.inverse() for move in reduce_to_identity(m)]


def inverse_unimodular(m: Matrix) -> Matrix:
    """Exact inverse of a determinant +-1 integer matrix."""
    n = len(m)
    rows = [list(r) for r in identity_matrix(n)]
    for move in reduce_to_identity(m):
        _apply_move(move, rows)
    return tuple(tuple(r) for r in rows)
