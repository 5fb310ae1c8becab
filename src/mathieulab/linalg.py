"""Exact linear algebra: sparse column elimination and a banded row solver.

Sparse column elimination runs over Fraction.  A vector is a dict
{index: nonzero int or Fraction}.  Columns are fed one at a time, in order,
into a list of pivots (row, reduced vector with 1 on that row, the
combination of columns equal to it).  A later pivot is zero on every
earlier pivot's row, so one pass in order clears all their rows.  It serves
radlab's annihilator (`nullspace`) and ufdlab's echelon basis of the kernel
of a truncated shift operator.  `solve_band`, on integers, serves opimage's
image elimination, momlab's classical orthogonal polynomials and ufdlab's
x-levels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def solve_band(lead: tuple[int, int], num: Sequence[int],
               terms: Sequence[tuple[int, int, int]], low: int = 0) -> tuple[list, list, int]:
    """Solve lead(k) x_k = num_k - sum (a + b k) x_(k+gap) for k = top .. 0.

    lead = (a, b) and each term (gap, a, b), gap >= 1, stand for a + b k,
    and x_k = 0 above top.  A degree below low, or whose lead vanishes, gets
    x_k = 0 and keeps its right-hand side as the residue r_k.  Returns
    (x, r, scale), integer lists over one nonzero denominator.

    Fraction-free (Bareiss 1968): x_k = X_k / (m_k ... m_top).  Step k forms
    s, the right-hand side times m_(k+1) ... m_top: num_k times the running
    product of the m above it (not kept below num's lowest nonzero entry),
    less each a + b k times X_(k+gap) times a window m_(k+1) ... m_(k+gap-1)
    that slides down with k, and cancels g = gcd(s, lead) into X_k = s / g
    and m_k = lead / g.
    """
    lead_a, lead_b = lead
    top = len(num) - 1
    if any(num[:top]):
        bottom, step = num.index(next(filter(None, num))), 1
    else:  # only the degrees top - i*step, step the gaps' gcd, can be nonzero
        bottom, step = top, gcd(*[t[0] for t in terms]) or 1
    plain, windowed = [], []
    for t in terms:
        if t[0] == step <= top:
            plain.append(t)
        elif step < t[0] <= top:  # a longer gap never lands
            windowed.append([*t, 1])
    x = [0] * (2 * top + 1)
    m = [1] * (2 * top + 1)
    r = [0] * (top + 1)
    running = 1
    for k in range(top, -1, -step):
        s = num[k] * running
        for gap, a, b in plain:
            s -= (a + b * k) * x[k + gap]
        for term in windowed:
            gap, a, b, window = term
            mk, out = m[k + step], m[k + gap]
            if mk != out:
                term[3] = window = window * mk // out
            s -= (a + b * k) * window * x[k + gap]
        if s:
            d = lead_a + lead_b * k
            if k >= low and d:
                g = gcd(s, d)
                x[k], m[k] = s // g, d // g
                if k > bottom:
                    running *= m[k]
            else:
                r[k] = s
    scale = 1
    for k in range(top + 1):
        if x[k]:
            x[k] *= scale
            scale *= m[k]
        elif r[k]:
            r[k] *= scale
    del x[top + 1:]
    return x, r, scale
