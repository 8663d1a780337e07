"""Dense integer matrices for checking `freenil.intmat` and generator maps.

Shares no arithmetic with the package: `matmul` is the schoolbook product,
`identity_matrix` is written out entry by entry, and `move_matrix` writes
down the elementary matrix of a row move directly instead of applying the
move to rows.  `reduce_to_identity` is the dense row reduction that
`freenil.intmat` ran on lists of lists before it kept its rows sparse,
copied unchanged: the sparse one must emit the same moves in the same order
and refuse with the same messages.  It builds the package's `RowMove`
records and raises its `NotUnimodular`, so the two compare directly.
"""

from __future__ import annotations

from freenil.errors import NotUnimodular
from freenil.intmat import RowMove


def identity_matrix(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def matmul(a, b):
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[r][t] * b[t][c] for t in range(mid)) for c in range(m))
        for r in range(n)
    )


def move_matrix(move, n):
    """The n x n matrix M with M * A equal to A after `move` (a RowMove)."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    if move.kind == "add":
        rows[move.i][move.j] += move.k
    elif move.kind == "swap":
        rows[move.i], rows[move.j] = rows[move.j], rows[move.i]
    else:
        rows[move.i][move.i] = -1
    return tuple(tuple(r) for r in rows)


# the dense reduction, as freenil.intmat ran it on lists of lists

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
