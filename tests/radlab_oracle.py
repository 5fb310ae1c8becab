"""Oracles for radlab: the largest interior ideal of a cofinite subspace by
Krylov rows and a nullspace, against radlab's one-gcd-per-block generator;
the residue vector and the radical window on residues taken by
`euclid_divmod`, against both on integer pseudo-division residues; and the
radical window m in [D, 2D] on those integer residues, against radlab's
Krylov test on the blocks where f is a unit; and the walk over all masks
for the least zero-sum set of factors, against radlab's meet in the
middle; and the power walk of `definition_witness` to a budget, against its
exact test on the steps m < 2D; and e_S by Poly products and a cofactor loop
on Poly values, against radlab's integer xgcd kernel; and the basis rows read
as one Fraction per entry, against the integer rows over one denominator."""

import math
from fractions import Fraction

from mathieulab import linalg
from mathieulab.corealg import (
    QQ,
    Poly,
    _build,
    _content,
    _prim,
    _qq,
    _zdivmod,
    _zstrip,
    clear_denominators,
    euclid_divmod,
    poly_one,
    poly_zero,
    qq_poly,
    squarefree_part,
)
from mathieulab.errors import BadInput
from mathieulab.radlab import _block_residue, _times_t

import corealg_oracle
from linalg_oracle import nullspace


def krylov_interior_ideal(space):
    """(h, r, live) as radlab._interior_ideal returns them.

    With lam_i the annihilator rows restricted to block b_i and M_i the
    multiplication by t mod b_i, a residue v of block i lies in the block's
    largest ideal inside V iff (lam_i M_i^j) . v = 0 for every j < deg b_i
    (Cayley-Hamilton bounds j); h_i is the gcd of b_i and the lifts of a
    basis of that common kernel.  r takes p_i for a live verified factor and
    the squarefree part of h_i for a live trusted one; block i is live when
    deg h_i >= 1.
    """
    h, r = poly_one(QQ), poly_one(QQ)
    live = 0
    if not space._ann:
        return h, h, live
    for i, ((p, _), block, start) in enumerate(zip(space.factors, space._blocks, space._starts)):
        b, scale = block.num, block.den
        rows = []
        for lam in space._ann:
            lam = lam[start:start + block.degree]
            for _ in range(block.degree):
                rows.append(lam)
                # scale times lam M: shift down, the top slot picks up
                # t^deg b = -sum b_k t^k; a positive factor on a row leaves
                # the common kernel unchanged
                top = -sum(bk * lk for bk, lk in zip(b, lam))
                lam = [scale * x for x in lam[1:]] + [top]
        h_i = block
        for vec in nullspace(rows):
            h_i = poly_gcd(h_i, qq_poly(vec))
        h = h * h_i
        if h_i.degree >= 1:
            live |= 1 << i
            r = r * (squarefree_part(h_i) if p in space.unverified_factors else p)
    return h, r, live


def divmod_radical_member_cofinite(space, f):
    """radlab.radical_member_cofinite with each block's residue r_i = f mod
    b_i taken by `euclid_divmod` as a canonical Poly: the columns
    t^j r_i mod b_i are stepped on integer numerators by the companion
    shift, den times them makes each block's multiplication matrix N_i an
    integer matrix, and f^m lies in V for every m in [D, 2D] exactly when
    each w_m = N_i w_(m-1), from the residue of 1, passes the membership
    test."""
    d = space.dim
    blocks = []
    for block in space._blocks:
        n, low, scale = block.degree, block.num[:-1], block.den
        r = euclid_divmod(f, block)[1]
        col, col_den = list(r.num) + [0] * (n - len(r.num)), r.den
        cols = []
        for j in range(n):
            if j:
                col, col_den = _times_t(col, low, scale), col_den * scale
            g = math.gcd(col_den, *col)
            cols.append(([x // g for x in col], col_den // g))
        blocks.append(cols)
    den = math.lcm(*(c for cols in blocks for _, c in cols))
    mats = [[list(row) for row in zip(*([x * (den // c) for x in col] for col, c in cols))]
            for cols in blocks]
    powers = [[1] + [0] * (len(mat) - 1) for mat in mats]
    for m in range(1, 2 * d + 1):
        powers = [[sum(a * x for a, x in zip(row, w)) for row in mat]
                  for mat, w in zip(mats, powers)]
        if m >= d and not space.contains_vec([x for w in powers for x in w]):
            return False
    return True


def divmod_residue_vec(space, f):
    """CofiniteSubspace.residue_vec with each block's residue f mod b_i
    taken by `euclid_divmod` as a canonical Poly and read as Fractions."""
    out = []
    for block in space._blocks:
        coeffs = euclid_divmod(f, block)[1].qq_coeffs()
        out.extend(coeffs)
        out.extend([Fraction(0)] * (block.degree - len(coeffs)))
    return out


def window_radical_member_cofinite(space, f):
    """radlab.radical_member_cofinite as the window m in [D, 2D] decided it
    before the Krylov test on the unit blocks: exact for 'all large powers
    of f lie in V'.

    Checks f^m in V for m in [D, 2D], D = deg g; this window is equivalent
    to eventual membership by a two-sided Cayley-Hamilton recurrence: the
    powers of f in QQ[t]/(g) satisfy the recurrence of f's minimal
    polynomial (degree <= D), so D + 1 consecutive members from exponent D
    on propagate upward, and multiplication by f is invertible on the
    stable range of f^D, so eventual membership propagates down to
    exponent D.  The powers are taken block by block on integer residue
    vectors.  With r_i = f mod p_i^(m_i), taken once per block, the columns
    t^j r_i mod p_i^(m_i) form the matrix of multiplication by f on block i.
    They are stepped on integer numerators by the companion shift, each over
    its own denominator, and den, the lcm of those denominators, makes den
    times each matrix an integer matrix N_i.  From the residue of 1,
    w_m = N_i w_(m-1) is den^m times the residue vector of f^m, and since
    every membership test is lam . w = 0 the positive factor den^m leaves
    each verdict of the window unchanged.
    For split moduli the residues r_i are the values f(a_i).

    Each r_i is read on integers by `_block_residue`, as `residue_vec`
    reads it, with no Poly built: r_i = R / (s f.den), which the first
    column's gcd brings to lowest terms.
    """
    d = space.dim
    blocks = []
    for block in space._blocks:
        # the monic block is num / den, so num[:-1] is den times its low part
        n, low, scale = block.degree, block.num[:-1], block.den
        col, col_den = _block_residue(f, block)
        cols = []  # column j is t^j r mod the block, as (numerators, denominator)
        for j in range(n):
            if j:
                col, col_den = _times_t(col, low, scale), col_den * scale
            g = math.gcd(col_den, *col)
            cols.append(([x // g for x in col], col_den // g))
        blocks.append(cols)
    den = math.lcm(*(c for cols in blocks for _, c in cols))
    # N_i row by row: row k holds den times coefficient k of each column
    mats = [[list(row) for row in zip(*([x * (den // c) for x in col] for col, c in cols))]
            for cols in blocks]
    powers = [[1] + [0] * (len(mat) - 1) for mat in mats]
    for m in range(1, 2 * d + 1):
        powers = [[sum(a * x for a, x in zip(row, w)) for row in mat]
                  for mat, w in zip(mats, powers)]
        if m >= d and not space.contains_vec([x for w in powers for x in w]):
            return False
    return True


def first_zero_sum_walk(vectors, live):
    """Least mask S meeting `live` with sum_{i in S} vectors[i] = 0, else None.

    Masks are walked in increasing order with one running sum.  Going from
    mask - 1 to mask, whose lowest set bit is i, removes vectors 0..i-1 and
    adds vector i, so each step is one precomputed vector addition.
    """
    steps, below = [], [0] * len(vectors[0])
    for u in vectors:
        steps.append([a - b for a, b in zip(u, below)])
        below = [a + b for a, b in zip(below, u)]
    total = [0] * len(below)
    for mask in range(1, 1 << len(vectors)):
        total = [a + b for a, b in zip(total, steps[(mask & -mask).bit_length() - 1])]
        if mask & live and not any(total):
            return mask
    return None


def definition_witness_walk(membership_oracle, a, b, budget):
    """radlab.definition_witness as the power walk to a budget decided it
    before the exact test on a cofinite space: the smallest N <= budget with
    a^m * b inside V for every m in [N, budget], None when a^budget * b is
    not.  Exact only when the budget reaches past the last m that leaves V."""
    last_out, power = 0, poly_one(QQ)
    for m in range(1, budget + 1):
        power = power * a
        if not membership_oracle(power * b):
            last_out = m
    return None if last_out == budget else last_out + 1


def poly_gcd(f, g):
    """The monic gcd over QQ of two Polys, by corealg_oracle's Euclidean loop
    on their Fraction coefficients."""
    return qq_poly(corealg_oracle.poly_gcd(f, g).qq_coeffs())


def poly_xgcd(f, g):
    """(d, u, v) with u*f + v*g = d, d the monic gcd (over QQ), as the
    earlier corealg.poly_xgcd computed them before the integer kernel.

    The remainders form the primitive remainder sequence of the numerators,
    and the loop carries only the cofactor u of each remainder a_i = u_i f
    mod g: from s a_(i-1) = Q a_i + R and a_(i+1) = R / c, u_(i+1) =
    (s u_(i-1) - Q u_i) / c.  v = (d - u*f) / g is one exact division at
    the end (v = 0 when g = 0).
    """
    ring = f.ring
    a, b = _prim(list(f.num)), _prim(list(g.num))
    # f = (c / f.den) a for the signed content c of f.num, so a = u0 f
    u0 = Poly.from_ints([f.den], f.num[-1] // a[-1]) if a else poly_one(ring)
    u1 = poly_zero(ring)
    while b:
        q, r, s = _zdivmod(a, b)
        r = _zstrip(r)
        if r:
            c = _content(r)
            u0, u1 = u1, (u0.scale(s) - _qq(q, 1) * u1).scale(Fraction(1, c))
            a, b = b, [x // c for x in r]
        else:
            u0, a, b = u1, b, r
    if not a:
        return poly_zero(ring), u0, poly_zero(ring)
    d = _build(Poly, QQ, tuple(a), a[-1])
    u = u0.scale(Fraction(1, a[-1]))
    v = poly_zero(ring) if g.is_zero else euclid_divmod(d - u * f, g)[0]
    return d, u, v


def poly_set_idempotent(space, mask):
    """e_S = 1 mod the blocks in S (the set bits of mask) and 0 mod the rest,
    as radlab._set_idempotent computed it on Polys.

    With B_S and B_rest the products of the blocks in and outside S, one
    xgcd on (B_rest mod B_S, B_S) gives u B_rest + v B_S = 1 (the blocks are
    coprime) with deg u < deg B_S, so u B_rest has degree < deg g and needs
    no reduction mod g.  It is e_S: the unique residue with those values, so
    it equals the sum of the single-block idempotents e_i over S.
    """
    chosen, rest = poly_one(QQ), poly_one(QQ)
    for i, block in enumerate(space._blocks):
        if mask >> i & 1:
            chosen = chosen * block
        else:
            rest = rest * block
    _, u, _ = poly_xgcd(euclid_divmod(rest, chosen)[1], chosen)
    return u * rest


def fraction_literal(text):
    """The rational that corealg.parse_rational reads, by Fraction itself:
    Fraction's literal grammar restricted to ASCII, with no '_' and no
    exponent; BadInput for anything else."""
    if text.isascii() and "_" not in text and "e" not in text.lower():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise BadInput(f"bad rational literal {text!r}")


def fraction_basis(dim, vbar_basis):
    """(basis rows, annihilator rows) of V/(g) in residue coordinates of
    dimension dim, as CofiniteSubspace read them with one Fraction per
    entry: the rows as Fractions, and the annihilator as the nullspace of
    the rows cleared of denominators.  BadInput with the constructor's
    message for a bool, a float, another non-rational entry, a bad
    literal, a wrong length or dependent rows, checked row by row in that
    order."""
    basis = []
    for vec in vbar_basis:
        if any(isinstance(v, bool) for v in vec):
            raise BadInput("basis entries must be integers or rational strings")
        if any(isinstance(v, float) for v in vec):
            raise BadInput("basis vectors must be exact rationals, not floats")
        try:
            entries = [v if type(v) is Fraction
                       else fraction_literal(v) if isinstance(v, str) else Fraction(v)
                       for v in vec]
        except TypeError:
            raise BadInput("basis entries must be integers or rational strings") from None
        if len(entries) != dim:
            raise BadInput(f"basis vectors must have length {dim}")
        basis.append(entries)
    ann = linalg.nullspace([clear_denominators(row)[1] for row in basis] or [[0] * dim])
    if len(ann) + len(basis) != dim:
        raise BadInput("basis vectors are linearly dependent")
    return basis, ann
