"""Small dense exact linear algebra over Fraction.

Everything here works on lists of lists of Fractions and is meant for
desk-scale systems (dimensions in the tens, occasionally low hundreds).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vec = list[Fraction]
Mat = list[Vec]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(map(Fraction, r)) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def solve_linear(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[Vec]:
    """One exact solution of A x = b (free variables set to zero), or None."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    for row in rows:
        if all(v == 0 for v in row[:ncols]) and row[ncols] != 0:
            return None
    x = [_ZERO] * ncols
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


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> Mat:
    """Basis of the right nullspace {x : M x = 0}."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: Mat = []
    for fc in free_cols:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for row, p in zip(rows, pivots):
            vec[p] = -row[fc]
        basis.append(vec)
    return basis

