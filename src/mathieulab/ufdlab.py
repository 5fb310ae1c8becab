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
* the graded valuation v_a(c t^i) = v_a(c) - i;
* a surjectivity check over the truncated rings QQ[x]/(x^k): once 1 is in
  the image of c*d/dt - a(t), every monomial is, which is verified with a
  witness-degree budget deg f + k*(deg_t a + 1).  When c and every
  coefficient of a lie in (x), 1 is structurally out of reach and nothing
  is solved; otherwise the image columns of t^i x^j are fed once per check
  to linalg's sparse column echelon, every target is reduced against the
  pivots of a prefix of them, and each witness is the solution supported on
  the leftmost independent columns.
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
    exact_divide,
    parse_key_values,
    parse_poly,
    parse_ring_element,
    poly_one,
    poly_zero,
    qq_poly_trunc,
    ring_gcd,
    ring_scalar,
    squarefree_part,
    t_monomial,
)
from .errors import BadInput, NotInRadical

_F0 = Fraction(0)
INFINITE = math.inf


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

    def __str__(self):
        return f"ufd:a={self.a}"


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
    assert ctx.apply(witness).coeffs == f.coeffs
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

    Beyond the bound, g * p(a*t)^m stays in the image; the returned value is
    validated by solving at the bound and one step past it.
    """
    if not radical_via_coefficients(ctx, p):
        raise NotInRadical("some coefficient of p escapes the radical of (a)")
    if g.ring != ctx.ring:
        raise BadInput("polynomial from a different ring")
    if g.is_zero:
        raise BadInput("g must be nonzero")
    if p.is_zero:
        return g.degree + 1  # N = 1 vacuously
    n = 1
    power = p
    while not all(c.is_zero or exact_divide(c, ctx.a) is not None for c in power.coeffs):
        n += 1
        power = power * p
        if n > 10_000:
            raise BadInput("runaway absorption search")
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
    assert u is not None and all(v is not None for v in lifted)
    for d, dt in zip(d_list, lifted):
        assert (u * d).data == (dt * a).data
    if all(dt.is_zero or exact_divide(dt, rho) is not None for dt in lifted):
        raise BadInput("internal inconsistency: lift stayed inside the radical")
    return u, lifted


def va_valuation(ctx: UfdContext, c: RingElement, i: int = 0):
    """Graded valuation v_a(c * t^i) = v_a(c) - i, with v_a(0) infinite."""
    if c.ring != ctx.ring:
        raise BadInput("element from a different ring")
    if i < 0:
        raise BadInput("term exponent must be non-negative")
    if c.is_zero:
        return INFINITE
    v = 0
    current = c
    while True:
        nxt = exact_divide(current, ctx.a)
        if nxt is None:
            return v - i
        current = nxt
        v += 1


def s_of(ctx: UfdContext, f: Poly):
    """Minimum of v_a(c_i t^i) over the terms of f; infinite for zero."""
    if f.ring != ctx.ring:
        raise BadInput("polynomial from a different ring")
    values = [va_valuation(ctx, c, i) for i, c in enumerate(f.coeffs) if not c.is_zero]
    return min(values) if values else INFINITE


# --------------------------------------------------------------------------
# surjectivity over truncated coefficient rings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SurjectivityReport:
    status: str  # "ONE_IN_IMAGE" | "UNDECIDED_ONE"
    one_witness: Optional[Poly]
    monomials: tuple  # of (n, witness Poly)
    unresolved: tuple  # monomial degrees not reached within the budget
    note: Optional[str]
    witness_degree_budget: int


def parse_trunc_context(text: str) -> tuple[Ring, RingElement, Poly]:
    head, _, rest = text.partition(":")
    if head.strip().lower() != "trunc":
        raise BadInput(f"expected a 'trunc:' context, got {text!r}")
    args = parse_key_values(rest, "context")
    if set(args) != {"k", "c", "a"}:
        raise BadInput("trunc context needs exactly k=, c= and a=")
    ring = qq_poly_trunc(int(args["k"]))
    c = parse_ring_element(args["c"], ring)
    a = parse_poly(args["a"], ring)
    return ring, c, a


def _image(c: RingElement, a: Poly, k: int, col: int) -> dict:
    """Column number col = i*k + j of c*d/dt - a over QQ[x]/(x^k): the image
    of t^i x^j, as a sparse vector whose key s*k + l holds the coefficient
    of t^s x^l."""
    i, j = divmod(col, k)
    vec = {}
    if i:
        for l, v in enumerate(c.data[:k - j]):
            if v:
                vec[(i - 1) * k + j + l] = i * v
    for s, coeff in enumerate(a.coeffs):
        for l, v in enumerate(coeff.data[:k - j]):
            if v:
                vec[(i + s) * k + j + l] = -v
    return vec


def surjectivity_check(ring: Ring, c: RingElement, a: Poly, deg_bound: int) -> SurjectivityReport:
    """Decide 1 in the image of c*d/dt - a(t) over QQ[x]/(x^k); if found,
    verify that every monomial t^n (n <= deg_bound) is reached as well.

    When c and every coefficient of a lie in (x), every image value does
    too, so 1 is structurally unreachable and no solve is attempted.
    Otherwise witness degrees D are searched from deg f up to
    deg f + k*(deg_t a + 1); the nilpotency index bounds the correction
    terms that can appear.  The columns c*h' - a*h of the basis t^i x^j
    are eliminated once for the whole check, and each target is reduced by
    the pivots of the columns with i <= D for D = deg f, deg f + 1, ...,
    stopping at the first D that reaches it.  The witness is the unique
    solution supported on the leftmost independent columns (those with i
    <= D), the one a dense solve with free variables set to zero returns.
    """
    if ring.kind != "QQ_POLY_TRUNC":
        raise BadInput("surjectivity check runs over a truncated ring")
    if c.ring != ring or a.ring != ring:
        raise BadInput("operator data from a different ring")
    if deg_bound < 0:
        raise BadInput("degree bound must be non-negative")
    k = ring.trunc
    extra = k * (max(a.degree, 0) + 1)
    if not any(g.is_unit for g in (c, *a.coeffs)):
        note = (
            "every image value lies in the proper ideal generated by c and "
            "the coefficients of a, so 1 is structurally unreachable"
        )
        return SurjectivityReport("UNDECIDED_ONE", None, (), tuple(range(deg_bound + 1)), note, extra)
    pivots: list = []  # the image columns, eliminated once each, in order
    rank = [0]  # rank[n]: number of pivots among the first n columns

    def solve(f: Poly) -> Optional[Poly]:
        vec = {i * k + l: v for i, coeff in enumerate(f.coeffs) for l, v in enumerate(coeff.data) if v}
        comb: dict = {}
        used = 0
        base = max(f.degree, 0)
        for max_deg in range(base, base + extra + 1):
            n = (max_deg + 1) * k
            while len(rank) <= n:
                col = len(rank) - 1
                linalg.add_column(pivots, _image(c, a, k, col), col)
                rank.append(len(pivots))
            linalg.eliminate(pivots, vec, comb, used, rank[n])
            used = rank[n]
            if not vec:
                h = Poly(ring, tuple(
                    RingElement(ring, tuple(-comb.get(i * k + l, _F0) for l in range(k)))
                    for i in range(max_deg + 1)))
                assert (h.derivative().scale(c) - a * h).coeffs == f.coeffs
                return h
        return None

    h_one = solve(poly_one(ring))
    if h_one is None:
        return SurjectivityReport("UNDECIDED_ONE", None, (), tuple(range(deg_bound + 1)), None, extra)
    monomials = []
    unresolved = []
    for n in range(deg_bound + 1):
        h = solve(t_monomial(ring, n))
        if h is None:
            unresolved.append(n)
        else:
            monomials.append((n, h))
    return SurjectivityReport("ONE_IN_IMAGE", h_one, tuple(monomials), tuple(unresolved), None, extra)
