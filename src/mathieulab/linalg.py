"""Exact linear algebra on integers: sparse column elimination and a banded
row solver, both fraction-free.

Sparse column elimination: a vector is a dict {index: nonzero int}.
Columns are fed one at a time, in order, into a list of pivots (row,
reduced vector, the combination of columns equal to it), each held as a
primitive integer pair whose value p at its row is positive; as rationals
the pivot is that pair divided by p.  A later pivot is zero on every earlier
pivot's row, so one pass in order clears all their rows.  It serves radlab's
annihilator (`nullspace`) and ufdlab's echelon basis of the kernel of a
truncated shift operator.  `solve_band` serves opimage's image elimination,
momlab's classical orthogonal polynomials and ufdlab's x-levels.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

Pivot = tuple[int, dict, dict]


def eliminate(pivots: Sequence[Pivot], vec: dict, comb: dict) -> int:
    """Reduce vec in place against the pivots, subtracting the same
    multiples of the pivots' combinations from comb; return the positive
    scale s such that the rational reduction is vec / s (and comb / s).

    Fraction-free: against a pivot with p at its row, where vec holds f, a
    step is vec <- p vec - f pvec and the same on comb, with p and f first
    divided by their gcd.  The running scale takes the factor p, and then it
    and both dicts are divided by their common gcd, so that they are the
    rational values over their least common denominator and grow no faster
    than Fractions would.
    """
    scale = 1
    for row, pvec, pcomb in pivots:
        f = vec.get(row)
        if f:
            p = pvec[row]
            g = gcd(p, f)
            p, f = p // g, f // g
            _step(vec, p, f, pvec)
            _step(comb, p, f, pcomb)
            scale *= p
            if scale != 1:
                g = gcd(scale, *vec.values(), *comb.values())
                if g != 1:
                    scale //= g
                    _divide(vec, g)
                    _divide(comb, g)
    return scale


def _step(y: dict, p: int, f: int, x: dict) -> None:
    """y <- p y - f x, dropping the entries that cancel."""
    if p != 1:
        for key in y:
            y[key] *= p
    for key, v in x.items():
        w = y.get(key, 0) - f * v
        if w:
            y[key] = w
        else:
            del y[key]


def _divide(y: dict, g: int) -> None:
    for key in y:
        y[key] //= g


def add_column(pivots: list[Pivot], vec: dict, index: int) -> Optional[dict]:
    """Eliminate column number index (an integer vec, consumed) against the
    pivots.

    A column the pivots do not clear becomes a new pivot on its least
    nonzero row, and None is returned.  A column they clear returns its
    combination: the primitive integer kernel vector that is positive at
    index, supported on index and the independent columns before it.
    """
    comb = {index: 1}
    eliminate(pivots, vec, comb)
    if not vec:
        # comb[index] is the scale, and the scale has no factor common to
        # every entry, so comb is primitive
        return comb
    row = min(vec)
    g = gcd(*vec.values(), *comb.values())
    if vec[row] < 0:
        g = -g
    if g != 1:
        _divide(vec, g)
        _divide(comb, g)
    pivots.append((row, vec, comb))
    return None


def nullspace(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the right nullspace {x : M x = 0} of an integer matrix: one
    primitive integer vector per dependent column, positive there and
    supported on it and the independent columns before it (the free-column
    vectors of the reduced row echelon form, cleared of denominators)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    pivots: list[Pivot] = []
    basis = []
    for col in range(ncols):
        vec = {r: row[col] for r, row in enumerate(matrix) if row[col]}
        comb = add_column(pivots, vec, col)
        if comb is not None:
            basis.append([comb.get(j, 0) for j in range(ncols)])
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
