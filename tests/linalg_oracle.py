"""Dense exact solving of A x = b, used by the tests as an independent oracle."""

from fractions import Fraction
from typing import Optional, Sequence

from mathieulab.linalg import rref


def solve_linear(a: Sequence[Sequence[Fraction]],
                 b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables set to zero), or None."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    for row in rows:
        if all(v == 0 for v in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, p in zip(rows, pivots):
        if p == ncols:
            return None
        x[p] = row[ncols] - sum(row[j] * x[j] for j in range(p + 1, ncols))
    # pivots of an rref already eliminated other pivot columns; with free
    # variables pinned to zero the assignment above is the full solution.
    for i in range(nrows):
        if sum(Fraction(a[i][j]) * x[j] for j in range(ncols)) != Fraction(b[i]):
            return None
    return x
