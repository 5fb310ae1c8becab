"""Exact sparse column elimination over Fraction.

A vector is a dict {index: nonzero int or Fraction}.  Columns are fed one
at a time, in order, into a list of pivots (row, reduced vector with 1 on
that row, the combination of columns equal to it).  A later pivot is zero
on every earlier pivot's row, so one pass in order clears all their rows.
It serves radlab's nullspaces and ufdlab's echelon basis of the kernel of a
truncated shift operator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Mat = list[list[Fraction]]
Pivot = tuple[int, dict, dict]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def eliminate(pivots: Sequence[Pivot], vec: dict, comb: dict) -> None:
    """Reduce vec in place against the pivots, subtracting the same
    multiples of the pivots' combinations from comb."""
    for row, pvec, pcomb in pivots:
        factor = vec.get(row)
        if factor:
            _axpy(vec, -factor, pvec)
            _axpy(comb, -factor, pcomb)


def _axpy(y: dict, s: Fraction, x: dict) -> None:
    for key, v in x.items():
        w = y.get(key, _ZERO) + s * v
        if w:
            y[key] = w
        else:
            del y[key]


def add_column(pivots: list[Pivot], vec: dict, index: int) -> Optional[dict]:
    """Eliminate column number index (vec, consumed) against the pivots.

    A column the pivots do not clear becomes a new pivot on its least
    nonzero row, and None is returned.  A column they clear returns its
    combination: a kernel vector with 1 at index, supported on index and the
    independent columns before it.
    """
    comb = {index: _ONE}
    eliminate(pivots, vec, comb)
    if not vec:
        return comb
    row = min(vec)
    inv = _ONE / vec[row]
    pivots.append((row, {r: v * inv for r, v in vec.items()},
                   {j: v * inv for j, v in comb.items()}))
    return None


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> Mat:
    """Basis of the right nullspace {x : M x = 0} of an int or Fraction
    matrix: one Fraction vector per dependent column, with 1 there and
    support on it and the independent columns before it (the free-column
    vectors of the reduced row echelon form)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    pivots: list[Pivot] = []
    basis: Mat = []
    for col in range(ncols):
        vec = {r: row[col] for r, row in enumerate(matrix) if row[col]}
        comb = add_column(pivots, vec, col)
        if comb is not None:
            basis.append([comb.get(j, _ZERO) for j in range(ncols)])
    return basis
