"""Exact linear algebra over Fraction, used by the tests as an independent
oracle for the package's integer elimination: a dense RREF, the sparse
column echelon on Fractions that the integer one replaced, and banded
back-substitution."""

from fractions import Fraction
from typing import Optional, Sequence


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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
        inv = 1 / rows[r][col]
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


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : M x = 0}: the free-column vectors of the RREF."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[fc]
        basis.append(vec)
    return basis


def eliminate(pivots, vec: dict, comb: dict) -> None:
    """Reduce vec in place against the pivots (row, reduced vector with 1 on
    that row, its combination of columns), subtracting the same multiples
    of the pivots' combinations from comb."""
    for row, pvec, pcomb in pivots:
        factor = vec.get(row)
        if factor:
            _axpy(vec, -factor, pvec)
            _axpy(comb, -factor, pcomb)


def _axpy(y: dict, s: Fraction, x: dict) -> None:
    for key, v in x.items():
        w = y.get(key, Fraction(0)) + s * v
        if w:
            y[key] = w
        else:
            del y[key]


def add_column(pivots: list, vec: dict, index: int) -> Optional[dict]:
    """Eliminate column number index (vec, consumed) against the pivots.

    A column the pivots do not clear becomes a new pivot on its least
    nonzero row, and None is returned.  A column they clear returns its
    combination: a kernel vector with 1 at index, supported on index and the
    independent columns before it.
    """
    comb = {index: Fraction(1)}
    eliminate(pivots, vec, comb)
    if not vec:
        return comb
    row = min(vec)
    inv = 1 / Fraction(vec[row])
    pivots.append((row, {r: v * inv for r, v in vec.items()},
                   {j: v * inv for j, v in comb.items()}))
    return None


def fraction_nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The sparse column echelon's nullspace basis: one Fraction vector per
    dependent column, with 1 there and support on it and the independent
    columns before it."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    pivots: list = []
    basis = []
    for col in range(ncols):
        vec = {r: row[col] for r, row in enumerate(matrix) if row[col]}
        comb = add_column(pivots, vec, col)
        if comb is not None:
            basis.append([comb.get(j, Fraction(0)) for j in range(ncols)])
    return basis


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


def solve_band(lead, num, terms, low=0):
    """Back-substitution over Fraction for lead(k) x_k = num_k -
    sum (a + b k) x_(k+gap), k = top .. 0: (x, r), where a degree below low
    or with a zero lead gets x_k = 0 and keeps its right-hand side in r."""
    top = len(num) - 1
    x = [Fraction(0)] * (top + 1)
    r = [Fraction(0)] * (top + 1)
    for k in range(top, -1, -1):
        rhs = Fraction(num[k]) - sum((a + b * k) * x[k + gap]
                                     for gap, a, b in terms if k + gap <= top)
        d = lead[0] + lead[1] * k
        if k >= low and d:
            x[k] = rhs / d
        else:
            r[k] = rhs
    return x, r
