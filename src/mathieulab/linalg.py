"""Small dense exact linear algebra over Fraction.

Everything here works on lists of lists of Fractions and is meant for
desk-scale systems (dimensions in the tens, occasionally low hundreds).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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

