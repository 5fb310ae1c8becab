"""Independent oracles for ufdlab: membership in the image of d/dt - a over
QQ[x] as the earlier top-down loop in `RingElement` arithmetic, for the solve
on integer t-coefficients; and, for the surjectivity check, the x-level
solve as its own top-down loop, for the same solve routed through
`linalg.solve_band`, and the level residual in canonical `Poly` arithmetic,
for the integer residual on (numerators, den) pairs."""

import math
from fractions import Fraction

from mathieulab.corealg import Poly, exact_divide, poly_zero, ring_scalar


def member_ufd(ctx, f: Poly):
    """(flag, witness) for f in the image of d/dt - a over QQ[x]: the
    t-coefficients h_i = ((i+1)*h_(i+1) - f_i) / a solved from the top degree
    down by exact division in QQ[x], and the witness re-applied to D."""
    if f.is_zero:
        return True, poly_zero(ctx.ring)
    n = f.degree
    h = [ring_scalar(ctx.ring, 0)] * (n + 1)
    top = exact_divide(-f.coeff(n), ctx.a)
    if top is None:
        return False, None
    h[n] = top
    for i in range(n - 1, -1, -1):
        sol = exact_divide(h[i + 1].scale(Fraction(i + 1)) - f.coeff(i), ctx.a)
        if sol is None:
            return False, None
        h[i] = sol
    witness = Poly(ctx.ring, tuple(h))
    if ctx.apply(witness) != f:
        raise AssertionError("witness h does not solve h' - a*h = f")
    return True, witness


def solve_level(g: Poly, c0: Fraction, a0: Fraction) -> Poly:
    """The h with c0*h' - a0*h = g over QQ, on the integer numerators of
    g = G/D: by integration with constant term 0 when a0 = 0, else from the
    top degree N down over the final denominator D*R^(N+1), for
    P*h' - R*h = S*g the equation cleared of the denominators of c0 and a0.
    """
    num, den = g.num, g.den
    p, q = Fraction(c0).as_integer_ratio()
    if not a0:  # h_n = q G_(n-1) / (p n D), over p D lcm(1..N+1)
        l = math.lcm(*range(1, len(num) + 1))
        return Poly.from_ints([0] + [q * x * (l // n) for n, x in enumerate(num, 1)], p * den * l)
    r, s = Fraction(a0).as_integer_ratio()
    big_p, big_r, big_s = p * s, r * q, q * s
    top, acc, out = big_r ** len(num), 0, [0] * len(num)
    # out[n] = h_n * D*R^(N+1); R divides the bracket, as h_(n+1) has denominator D*R^(N-n)
    for n in range(len(num) - 1, -1, -1):
        out[n] = acc = (big_p * (n + 1) * acc - big_s * num[n] * top) // big_r
    return Poly.from_ints(out, den * top)


def levels(p: Poly, k: int) -> list[Poly]:
    """The x-adic levels p_0, ..., p_(k-1) in QQ[t] of p = sum_j x^j p_j,
    over the common denominator of p's coefficients."""
    den = math.lcm(*(cf.den for cf in p.coeffs))
    return [Poly.from_ints([cf.num[j] * (den // cf.den) if j < len(cf.num) else 0
                            for cf in p.coeffs], den) for j in range(k)]


def residual(g: Poly, h: list[Poly], j: int, first: int, cs: list[Fraction],
             big_a: list[Poly]) -> Poly:
    """g - sum_(i=first..j) (c_i h_(j-i)' - A_i h_(j-i)), for g = f_j."""
    for i in range(first, j + 1):
        hi = h[j - i]
        if hi.is_zero:
            continue
        if cs[i]:
            g = g - hi.derivative().scale(cs[i])
        if not big_a[i].is_zero:
            g = g + big_a[i] * hi
    return g
