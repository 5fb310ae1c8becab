"""The largest interior ideal of a cofinite subspace by Krylov rows and a
nullspace, used by the tests as an independent oracle for radlab's
one-gcd-per-block generator."""

from mathieulab.corealg import QQ, poly_gcd, poly_one, qq_poly, squarefree_part

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

