"""Dense integer matrices for checking `freenil.intmat` and generator maps.

Shares no code with the package: `matmul` is the schoolbook product, and
`identity_matrix` is written out entry by entry, and
`move_matrix` writes down the elementary matrix of a row move directly
instead of applying the move to rows.
"""

from __future__ import annotations


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
