"""Image membership for shift operators over polynomial coefficient rings.

Over the UFD QQ[x] the operator D = d/dt - a sends h to h' - a*h; a
polynomial in t belongs to the image exactly when the triangular system
(i+1) h_(i+1) - a h_i = f_i is solvable by exact division from the top
degree down.  For constants the criterion degenerates to divisibility by a.
Several equivalent membership criteria and the bounds they imply are
implemented alongside:

* the factorial functional sending t^n to n!, which decides membership of
  substituted polynomials p(a*t) by whether it lands in the ideal (a);
* the radical test: p(a*t) has all large powers in the image iff every
  coefficient of p is divisible by the squarefree part of a;
* an absorption bound N(d+1) after which g * p(a*t)^m stays in the image;
* the gcd lift producing u, d~_i with u d_i = d~_i a and some d~_i outside
  the radical of (a);
* a surjectivity check over the truncated rings QQ[x]/(x^k), decided mod x
  (c*d/dt - a(t) is onto iff c_0*d/dt - A_0 is onto QQ[t]), with the
  witnesses for the monomials t^n solved level by level in powers of x: each
  x-level is an integer pair (numerators in t, one denominator), stepped with
  corealg's integer kernels, so the only Poly built is the witness returned,
  and every witness is re-applied to D level by level before it is returned.
  Its cost is bounded up front by MAX_TRUNC and MAX_WITNESS_SIZE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .corealg import (
    Poly,
    QQ_POLY,
    Ring,
    RingElement,
    _zadd,
    _zmul,
    _zstrip,
    exact_divide,
    parse_exponent,
    parse_key_values,
    parse_poly,
    parse_ring_element,
    poly_zero,
    qq_poly_trunc,
    ring_gcd,
    ring_scalar,
    squarefree_part,
)
from .errors import BadInput, NotInRadical

# cost limits of surjectivity_check: at the size limit, k = 16 with
# c = 1 + x/3, the dense a = sum_(1<=j<=15, 0<=i<=8) (2i+1)/(j+2) x^j t^i and
# deg bound 15 take 0.8 s on a 2-vCPU Xeon (0.3 s for a + 1, where A_0 = 1)
MAX_TRUNC = 16
MAX_WITNESS_SIZE = 40_000


@dataclass(frozen=True, slots=True)
class UfdContext:
    """The operator d/dt - a over QQ[x]; a must be nonzero and not a unit."""

    ring: Ring
    a: RingElement

    def __post_init__(self):
        if self.ring != QQ_POLY:
            raise BadInput("UFD contexts are implemented over QQ_POLY")
        if self.a.ring != self.ring:
            raise BadInput("context element from a different ring")
        if self.a.is_zero:
            raise BadInput("context element must be nonzero")
        if self.a.is_unit:
            raise BadInput("context element must not be a unit")

    def apply(self, h: Poly) -> Poly:
        return h.derivative() - h.scale(self.a)


def parse_ufd_context(text: str) -> UfdContext:
    head, _, rest = text.partition(":")
    if head.strip().lower() != "ufd":
        raise BadInput(f"expected a 'ufd:' context, got {text!r}")
    args = parse_key_values(rest, "context")
    if set(args) != {"a"}:
        raise BadInput("ufd context needs a single a=<element> argument")
    return UfdContext(QQ_POLY, parse_ring_element(args["a"], QQ_POLY))


def member_ufd(ctx: UfdContext, f: Poly) -> tuple[bool, Optional[Poly]]:
    """Membership of f in the image of d/dt - a, with witness.

    The witness degree is forced: leading coefficients cannot cancel in a
    domain, so deg h = deg f and the solve runs strictly top-down.
    """
    if f.ring != ctx.ring:
        raise BadInput("polynomial from a different ring")
    if f.is_zero:
        return True, poly_zero(ctx.ring)
    n = f.degree
    h: list[RingElement] = [ring_scalar(ctx.ring, 0)] * (n + 1)
    top = exact_divide(-f.coeff(n), ctx.a)
    if top is None:
        return False, None
    h[n] = top
    for i in range(n - 1, -1, -1):
        rhs = h[i + 1].scale(Fraction(i + 1)) - f.coeff(i)
        sol = exact_divide(rhs, ctx.a)
        if sol is None:
            return False, None
        h[i] = sol
    witness = Poly(ctx.ring, tuple(h))
    if ctx.apply(witness) != f:
        raise BadInput("internal inconsistency: witness h does not solve h' - a*h = f")
    return True, witness


def factorial_map(p: Poly) -> RingElement:
    """Coefficient-linear functional sending t^n to n!."""
    total = ring_scalar(p.ring, 0)
    fact = 1
    for n, c in enumerate(p.coeffs):
        if n:
            fact *= n
        if not c.is_zero:
            total = total + c.scale(Fraction(fact))
    return total


def member_via_factorial(ctx: UfdContext, p: Poly) -> bool:
    """Membership of p(a*t) in the image, via the factorial functional.

    p(a*t) lies in the image exactly when the functional value of p is
    divisible by a; this must agree with member_ufd on the substituted
    polynomial.
    """
    if p.ring != ctx.ring:
        raise BadInput("polynomial from a different ring")
    return exact_divide(factorial_map(p), ctx.a) is not None


def radical_via_coefficients(ctx: UfdContext, p: Poly) -> bool:
    """All large powers of p(a*t) are in the image iff every coefficient of
    p is divisible by the squarefree part of a."""
    if p.ring != ctx.ring:
        raise BadInput("polynomial from a different ring")
    rho = squarefree_part(ctx.a)
    return all(c.is_zero or exact_divide(c, rho) is not None for c in p.coeffs)


def absorption_bound(ctx: UfdContext, p: Poly, g: Poly) -> int:
    """N*(deg g + 1) where N is minimal with all coefficients of p^N in (a).

    By Gauss's lemma over QQ[x] the gcd of the coefficients of p^N is c^N,
    c the gcd of the coefficients of p, so N is the least exponent with
    a | c^N.  Once the radical test has passed, rad(a) divides c, so the
    loop stops at N <= deg a.  Beyond the bound, g * p(a*t)^m stays in the
    image; the returned value is validated by solving at the bound and one
    step past it.
    """
    if not radical_via_coefficients(ctx, p):
        raise NotInRadical("some coefficient of p escapes the radical of (a)")
    if g.ring != ctx.ring:
        raise BadInput("polynomial from a different ring")
    if g.is_zero:
        raise BadInput("g must be nonzero")
    if p.is_zero:
        return g.degree + 1  # N = 1 vacuously
    c = ring_gcd(*p.coeffs)
    n, power = 1, c
    while exact_divide(power, ctx.a) is None:
        n, power = n + 1, power * c
    bound = n * (g.degree + 1)
    f = p.scale_argument(ctx.a)
    at_bound = g * f ** bound
    if not member_ufd(ctx, at_bound)[0] or not member_ufd(ctx, at_bound * f)[0]:
        raise BadInput("internal inconsistency: validated bound failed")
    return bound


def gcd_lift(a: RingElement, d_list: Sequence[RingElement]) -> tuple[RingElement, list[RingElement]]:
    """u and d~_i with u*d_i = d~_i*a, some d~_i outside the radical of (a).

    Requires every d_i in the radical of (a) and some d_i outside (a);
    u = a/b and d~_i = d_i/b for b = gcd(a, d_1, ..., d_n).
    """
    if a.is_zero or a.is_unit:
        raise BadInput("need a nonzero non-unit")
    if not d_list:
        raise BadInput("need at least one element to lift")
    rho = squarefree_part(a)
    if not all(d.is_zero or exact_divide(d, rho) is not None for d in d_list):
        raise BadInput("every element must lie in the radical of (a)")
    if all(exact_divide(d, a) is not None for d in d_list):
        raise BadInput("some element must lie outside (a)")
    b = ring_gcd(a, *d_list)
    u = exact_divide(a, b)
    lifted = [exact_divide(d, b) for d in d_list]
    if u is None or any(v is None for v in lifted):
        raise BadInput("internal inconsistency: the gcd does not divide every element")
    if any(u * d != dt * a for d, dt in zip(d_list, lifted)):
        raise BadInput("internal inconsistency: u*d_i != d~_i*a")
    if all(dt.is_zero or exact_divide(dt, rho) is not None for dt in lifted):
        raise BadInput("internal inconsistency: lift stayed inside the radical")
    return u, lifted


# --------------------------------------------------------------------------
# surjectivity over truncated coefficient rings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SurjectivityReport:
    status: str  # "ONE_IN_IMAGE" | "UNDECIDED_ONE"
    one_witness: Optional[Poly]
    monomials: tuple  # of (n, witness Poly)
    unresolved: tuple  # monomial degrees left unsolved: all of them when 1 is not in the image
    note: Optional[str]


def parse_trunc_context(text: str) -> tuple[Ring, RingElement, Poly]:
    head, _, rest = text.partition(":")
    if head.strip().lower() != "trunc":
        raise BadInput(f"expected a 'trunc:' context, got {text!r}")
    args = parse_key_values(rest, "context")
    if set(args) != {"k", "c", "a"}:
        raise BadInput("trunc context needs exactly k=, c= and a=")
    k = parse_exponent(args["k"], f"k must be a positive integer, got {args['k']!r}")
    ring = qq_poly_trunc(k)
    c = parse_ring_element(args["c"], ring)
    a = parse_poly(args["a"], ring)
    return ring, c, a


def _int_levels(p: Poly, k: int) -> list[tuple[list[int], int]]:
    """The x-adic levels p_0, ..., p_(k-1) in QQ[t] of p = sum_j x^j p_j, as
    integer pairs (numerators, den) over the lcm of p's coefficients'
    denominators."""
    den = math.lcm(*(cf.den for cf in p.coeffs))
    return [(_zstrip([cf.num[j] * (den // cf.den) if j < len(cf.num) else 0 for cf in p.coeffs]), den)
            for j in range(k)]


def _residual(g: tuple, h: list, j: int, first: int, cs: list, big_a: list) -> tuple[list[int], int]:
    """g - sum_(i=first..j) (c_i h_(j-i)' - A_i h_(j-i)) for g = f_j, as the
    integer pair (numerators, den), stripped but not in lowest terms.

    g, the levels h_l and A_i = big_a[i] are pairs (numerators, den), and
    c_i = cs[i] = (cp, cq) is a ratio of integers.  Each term
    A_i h_l - c_i h_l' is formed over cq*aden*hd and added with `_zadd`.
    """
    num, den = g
    for i in range(first, j + 1):
        hn, hd = h[j - i]
        if not hn:
            continue
        cp, cq = cs[i]
        an, aden = big_a[i]
        term = [cq * v for v in _zmul(an, hn)]
        if cp:
            w = cp * aden
            term += [0] * (len(hn) - 1 - len(term))
            for m in range(1, len(hn)):
                term[m - 1] -= w * m * hn[m]
        if term:
            num, den = _zadd(num, den, term, cq * aden * hd)
    return _zstrip(num), den


def surjectivity_check(ring: Ring, c: RingElement, a: Poly, deg_bound: int) -> SurjectivityReport:
    """Decide 1 in the image of D = c*d/dt - a(t) over QQ[x]/(x^k); if it is
    there, solve D h = t^n for every n <= deg_bound.

    With c = sum c_j x^j and a = sum A_j(t) x^j, D is onto exactly when
    c_0*d/dt - A_0 is onto QQ[t] (Nakayama, as x^k = 0).  So UNDECIDED_ONE
    proves 1 outside the image: structurally when c_0 = A_0 = 0 (the note
    says so), and by degree when deg A_0 >= 1.  Otherwise the levels h_j of
    h = sum h_j x^j solve c_0 h_j' - A_0 h_j = f_j - sum_(i=1..j)
    (c_i h_(j-i)' - A_i h_(j-i)) in turn: from the top degree down when A_0
    is a nonzero constant, by integration with constant term 0 when A_0 = 0.
    Each level, like c_i and A_i, is an integer pair (numerators, den).  The
    right-hand side g is formed on integers and not brought to lowest terms,
    as the solve is linear in it; `linalg.solve_band` solves P h_j' - R h_j =
    S g for c_0 = p/q, A_0 = r/s, P = p*s, R = r*q and S = q*s, and one gcd
    brings each solved level to lowest terms.  Only the witness returned is
    built as a Poly.  Then D has one kernel vector K_j per level, the lift
    of 0 from h = x^j, and the witness is reduced against their echelon
    basis keyed by highest column (t^i x^l is column i*k + l): it is zero on
    every column whose image depends on earlier ones, the least-degree
    solution on the independent columns.  The vectors
    are integer numerators over the lcm of their levels' denominators, and
    `linalg.eliminate` returns the scale that joins that denominator, so no
    Fraction is built.  deg h <= deg f + 1 + (k-1)(deg_t a + 1).

    Each returned witness is checked on its levels read back from h, as
    integers over the lcm of its coefficients' denominators:
    sum_(i<=j) (c_i h_(j-i)' - A_i h_(j-i)) = f_j for every j < k, which is
    c*h' - a*h = f in QQ[x]/(x^k)[t].  Before any work, BadInput refuses
    k > MAX_TRUNC and more than MAX_WITNESS_SIZE witness coefficients at the
    degree budgets, sum_(n<=deg_bound) k*(n + extra + 1).
    """
    if ring.kind != "QQ_POLY_TRUNC":
        raise BadInput("surjectivity check runs over a truncated ring")
    if c.ring != ring or a.ring != ring:
        raise BadInput("operator data from a different ring")
    if deg_bound < 0:
        raise BadInput("degree bound must be non-negative")
    k = ring.trunc
    if k > MAX_TRUNC:
        raise BadInput(f"k = {k} exceeds the limit of {MAX_TRUNC} for the surjectivity check")
    extra = k * (max(a.degree, 0) + 1)
    size = k * (deg_bound + 1) * (2 * extra + deg_bound + 2) // 2
    if size > MAX_WITNESS_SIZE:
        raise BadInput(f"deg_bound = {deg_bound} at k = {k} budgets {size} witness "
                       f"coefficients, above the limit of {MAX_WITNESS_SIZE}")
    low = [i for i, g in enumerate(a.coeffs) if g.is_unit]  # the terms of A_0
    if not (c.is_unit or low) or max(low, default=0) >= 1:
        note = None if low else ("every image value lies in the proper ideal generated by c and "
                                 "the coefficients of a, so 1 is structurally unreachable")
        return SurjectivityReport("UNDECIDED_ONE", None, (), tuple(range(deg_bound + 1)), note)
    cs = [Fraction(v, c.den).as_integer_ratio() for v in c.num] + [(0, 1)] * (k - len(c.num))
    big_a = _int_levels(a, k)
    # -R h_n = S g_n - P (n+1) h_(n+1); when A_0 = 0, P n h_n = S g_(n-1) and h_0 = 0
    p, q = cs[0]
    a0, aden = big_a[0]
    r, s = Fraction(a0[0] if a0 else 0, aden).as_integer_ratio()
    big_p, big_r, big_s = p * s, r * q, q * s
    lead, terms, shift = ((-big_r, 0), [(1, big_p, big_p)], 0) if big_r else ((0, big_p), (), 1)

    def lift(f: list, h: list) -> list:
        """Extend the given lowest levels h of a solution of D h = f to all k;
        each solved level x / (scale*den) is cut down by one gcd."""
        for j in range(len(h), k):
            num, den = _residual(f[j], h, j, 1, cs, big_a)
            x, _, scale = linalg.solve_band(lead, [0] * shift + [big_s * v for v in num], terms)
            den *= scale
            g = math.gcd(den, *x)
            if den < 0:
                g = -g
            h.append((_zstrip([v // g for v in x]), den // g))
        return h

    def vector(levels: list) -> tuple[dict, int]:
        """(vec, den): the levels as integers over den, the lcm of their
        denominators; t^i x^j is keyed -(i*k + j), so that a pivot sits on
        its highest column."""
        den = math.lcm(*(d for _, d in levels))
        return {-(i * k + j): v * (den // d)
                for j, (num, d) in enumerate(levels) for i, v in enumerate(num) if v}, den

    zero = [([], 1)] * k
    pivots: list = []  # an echelon basis of the kernel of D, which is 0 unless A_0 = 0
    for j in range(0 if big_r else k):
        linalg.add_column(pivots, vector(lift(zero, zero[:j] + [([1], 1)]))[0], j)

    def solve(n: int) -> Poly:
        """The witness h of D h = t^n, whose levels are t^n, 0, ..., 0."""
        fl = [([0] * n + [1], 1)] + zero[1:]
        vec, den = vector(lift(fl, []))
        den *= linalg.eliminate(pivots, vec, {})
        h = Poly(ring, [RingElement.from_ints(ring, [vec.get(-(i * k + l), 0)
                                                     for l in range(k)], den)
                        for i in range(-min(vec, default=0) // k + 1)])
        # D h = t^n level by level, on the levels read back from h
        hl = _int_levels(h, k)
        for j in range(k):
            if _residual(fl[j], hl, j, 0, cs, big_a)[0]:
                raise BadInput(f"internal inconsistency: c*h' - a*h differs from t^{n} at x^{j}")
        if h.degree > n + extra:
            raise BadInput("internal inconsistency: witness exceeds its degree budget")
        return h

    monomials = tuple((n, solve(n)) for n in range(deg_bound + 1))
    return SurjectivityReport("ONE_IN_IMAGE", monomials[0][1], monomials, (), None)
