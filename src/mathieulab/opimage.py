"""Polynomial images of first-order differential operators over QQ[t].

Two operator families are supported:

* ``MonomialOperator(c, alpha, lam, d)`` acting as  c*d/dt + alpha/t - lam*t^d;
* ``JacobiOperator(alpha, beta)``        acting as  d/dt - alpha/(1-t) + beta/(1+t).

The *polynomial image* of D is the set of the D(h) with h keeping D(h)
pole-free: t | h when alpha != 0 in the monomial family, and (1-t) | h
resp. (1+t) | h for each nonzero Jacobi parameter.  With w the product of
the required factors, each operator is one Pearson pair (`pearson_pair`),
D(w g) = phi g' + psi g, and its image is spanned by the elements
D(w t^n) = n phi t^(n-1) + psi t^n, whose coefficients are affine in n:
one row of terms (`pearson_row`).  Eliminating the top term of f against
the element that leads at its degree, top degree down, gives an exact
normal form and an explicit witness.  The one membership rule: Im D
is spanned by the leading elements, those whose top coefficient is nonzero
(D(1) = -lam t^d when w = 1), and at most one non-leading element D(w t^n*)
where the top coefficient vanishes at an integer n* >= 0 (`member`).  Only
`reduce` leaves D(1) out, as the paper's functional L0 (`lzero`) needs.

All decisions are made over QQ, which decides solvability over any
extension field too, and on integers: the pair's coefficients are integers
over the common denominator q of the operator's parameters, and the
elimination is `linalg.solve_band`, the fraction-free banded solver that
momlab's orthogonal polynomials use too, on f's numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Union

from .corealg import (
    Poly,
    QQ,
    _zdivmod,
    _zmul,
    clear_denominators,
    parse_exponent,
    parse_key_values,
    parse_rational,
    poly_one,
)
from .errors import BadInput
from .linalg import solve_band


@dataclass(frozen=True, slots=True)
class MonomialOperator:
    """c*d/dt + alpha/t - lam*t^d with rational parameters, d >= 0."""

    c: Fraction
    alpha: Fraction
    lam: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "lam", Fraction(self.lam))
        if not isinstance(self.d, int) or self.d < 0:
            raise BadInput("exponent d must be a non-negative integer")

    def __str__(self):
        return f"mono:c={self.c},alpha={self.alpha},lambda={self.lam},d={self.d}"


@dataclass(frozen=True, slots=True)
class JacobiOperator:
    """d/dt - alpha/(1-t) + beta/(1+t) with rational parameters."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))

    def __str__(self):
        return f"jacobi:alpha={self.alpha},beta={self.beta}"


OperatorSpec = Union[MonomialOperator, JacobiOperator]


def hermite_operator() -> MonomialOperator:
    """d/dt - 2t, the operator attached to the Gaussian weight."""
    return MonomialOperator(1, 0, 2, 1)


def laguerre_operator(alpha) -> MonomialOperator:
    """d/dt + alpha/t - 1, the operator attached to the Laguerre weight."""
    return MonomialOperator(1, alpha, 1, 0)


def parse_operator(text: str) -> OperatorSpec:
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    args = parse_key_values(rest, "operator")
    if head not in ("mono", "jacobi"):
        raise BadInput(f"unknown operator family {head!r}")
    unknown = set(args) - ({"c", "alpha", "lambda", "d"} if head == "mono" else {"alpha", "beta"})
    if unknown:
        raise BadInput(f"unknown operator arguments {sorted(unknown)}")
    if head == "jacobi":
        return JacobiOperator(parse_rational(args.get("alpha", "0")),
                              parse_rational(args.get("beta", "0")))
    return MonomialOperator(
        parse_rational(args.get("c", "1")),
        parse_rational(args.get("alpha", "0")),
        parse_rational(args.get("lambda", "1")),
        parse_exponent(args.get("d", "0"), "exponent d must be a non-negative integer"),
    )


@dataclass(frozen=True, slots=True)
class ReductionResult:
    """normal_form + D(witness) reconstructs the input exactly."""

    normal_form: Poly
    witness: Poly
    admissible: bool


@dataclass(frozen=True, slots=True)
class ImStructure:
    one_in_image: bool


def _require_qq(f: Poly):
    if f.ring != QQ:
        raise BadInput("operator calculus works over QQ coefficients")


def pearson_pair(op: OperatorSpec):
    """The Pearson pair of D: D(w g) = (phi g' + psi g) / q for every g.

    Returns (w, q, phi, psi): integer tuples in ascending powers of t, w the
    witness factor, and q > 0 the common denominator of the parameters c,
    alpha (or the Jacobi alpha), lam and beta, which are C, A, L, B over q:

        mono, alpha = 0      w = 1        phi = C           psi = -L t^d
        mono, alpha != 0     w = t        phi = C t         psi = (C + A) - L t^(d+1)
        jacobi, alpha, beta  w = 1 - t^2  phi = q (1 - t^2) psi = (B - A) - (A + B + 2q) t
        jacobi, alpha only   w = 1 - t    phi = q (1 - t)   psi = -(q + A)
        jacobi, beta only    w = 1 + t    phi = q (1 + t)   psi = q + B
        jacobi, plain d/dt   w = 1        phi = 1           psi = 0

    Each is read off D(w g) = c (w g)' + (alpha / t - lam t^d) w g, resp.
    (w g)' + (beta / (1 + t) - alpha / (1 - t)) w g.  For a classical weight
    rho, (phi rho)' = psi rho is Pearson's equation, and the matched operator
    has the weight's pair (`momlab._weight_pair`) unless 1 is in its image.
    """
    if isinstance(op, MonomialOperator):
        q, (c, alpha, lam) = clear_denominators((op.c, op.alpha, op.lam))
        tail = (0,) * op.d + (-lam,) if lam else ()
        if not alpha:
            return (1,), q, (c,), tail
        return (0, 1), q, (0, c), (c + alpha, *tail)
    q, (alpha, beta) = clear_denominators((op.alpha, op.beta))
    if alpha and beta:
        return (1, 0, -1), q, (q, 0, -q), (beta - alpha, -(alpha + beta + 2 * q))
    if alpha:
        return (1, -1), q, (q, -q), (-(q + alpha),)
    if beta:
        return (1, 1), q, (q, q), (q + beta,)
    return (1,), q, (1,), ()


def pearson_row(phi, psi) -> list:
    """The elements D(w t^n) = (n phi t^(n-1) + psi t^n) / q as one row.

    A term (s, a, b) stands for (a + b n) t^(n+s), with a = psi_s and
    b = phi_(s+1), s >= -1, and the top term comes last.  Zero terms are
    dropped; D = 0 keeps the one term (-1, 0, 0).  Read on moments, with
    nu_(n+s) for t^(n+s), the same row is a weight's moment recurrence.
    """
    row = []
    for s in range(-1, max(len(phi) - 1, len(psi))):
        a = psi[s] if 0 <= s < len(psi) else 0
        b = phi[s + 1] if s + 1 < len(phi) else 0
        if a or b:
            row.append((s, a, b))
    return row or [(-1, 0, 0)]


def _pearson_form(phi, psi, g) -> list:
    """phi g' + psi g on integer coefficient lists: q D(w g)."""
    out = _zmul(psi, g)
    dg = [i * c for i, c in enumerate(g)][1:]
    return [a + b for a, b in zip_longest(_zmul(phi, dg), out, fillvalue=0)] if dg else out


def apply_operator(op: OperatorSpec, h: Poly) -> Poly:
    """Apply D to an admissible h; raises BadInput when h has a pole.

    h = w g for the witness factor w of `pearson_pair`, checked root by root
    (t, then 1 - t, then 1 + t), and D(h) = (phi g' + psi g) / q.
    """
    _require_qq(h)
    w, q, phi, psi = pearson_pair(op)
    for root, factor in ((0, "t when alpha"), (1, "(1 - t) when alpha"), (-1, "(1 + t) when beta")):
        w_at, h_at = (sum(c * root ** i for i, c in enumerate(p)) for p in (w, h.num))
        if not w_at and h_at:
            raise BadInput(f"witness must be divisible by {factor} != 0")
    g, _, sign = _zdivmod(h.num, w)  # exact, and lc(w) = +-1 makes sign = +-1
    return Poly.from_ints(_pearson_form(phi, psi, g), q * h.den * sign)


def _solve_row(row, num, extra=0) -> tuple[list, list, int]:
    """`linalg.solve_band` on the numerators num for a row of `pearson_row`:
    (y, r, scale).  Degree k takes the multiplier q y_k of the element that
    leads there, n = k - e for the top's shift e, top degree down:
    (lead_a + lead_b (k - e)) y_k = num_k - sum (a + b (k - j)) y_(k + e - j)
    over the lower terms (j, a, b).  Degrees below e + extra keep r_k."""
    *rest, (e, lead_a, lead_b) = row
    return solve_band((lead_a - lead_b * e, lead_b), num,
                      [(e - j, a - b * j, b) for j, a, b in rest], e + extra)


def _eliminate(pair, f: Poly, extra=0) -> tuple[Poly, Poly, Optional[int]]:
    """(normal form, witness, n*): f modulo the leading elements of Im D,
    the D(w t^n) with n >= extra whose lead is nonzero (`_solve_row`).  The
    normal form keeps the degrees below e + extra and n* + e, where the lead
    vanishes at an integer n* >= 0 (None if none); the witness is w g,
    g_n = q y_(n+e)."""
    w, q, phi, psi = pair
    row = pearson_row(phi, psi)
    e, lead_a, lead_b = row[-1]
    y, r, scale = _solve_row(row, f.num, extra)
    den = f.den * scale
    g = [q * v for v in ([0] * -e + y if e < 0 else y[e:])]
    vanishes = lead_b and not lead_a % lead_b and lead_a * lead_b <= 0
    n = -lead_a // lead_b if vanishes else None
    return Poly.from_ints(r, den), Poly.from_ints(_zmul(w, g), den), n


def reduce(op: OperatorSpec, f: Poly) -> ReductionResult:
    """Exact normal form of f modulo the leading elements of Im D but D(1).

    f = D(witness) + normal form, on the degrees no leading element leads
    (`_eliminate`): 1..t^d for lam != 0, the constants for Jacobi with both
    parameters nonzero, and the degree where a lead vanishes.  For w = 1 and
    lam != 0 it keeps t^d = D(-1/lam), the term the paper's L0 (`lzero`) reads.
    """
    _require_qq(f)
    pair = pearson_pair(op)
    return ReductionResult(*_eliminate(pair, f, len(pair[0]) == 1)[:2], True)


def member(op: OperatorSpec, f: Poly) -> tuple[bool, Optional[Poly]]:
    """Does f lie in the polynomial image of D?  Returns (flag, witness).

    The rule: Im D is spanned by the leading elements and at most one
    non-leading element E = D(w t^n) (`_eliminate`), so f is a member
    exactly when its normal form is mu times E's.  Then
    f = D(witness + mu (w t^n - h)), where E = D(h) + its normal form.  E
    reaches a degree that some element leads only for n >= 1, where the lead
    vanishes in the Jacobi family.  With alpha = -4, beta = 1 the lead of
    D((1 - t^2) t^n) vanishes at n = 1, and 1 = D((1 - t^2)(5 - t)) / 24.
    For w = 1 and lam = 0, E = D(1) = 0.
    """
    _require_qq(f)
    pair = pearson_pair(op)
    nf, witness, n = _eliminate(pair, f)
    if nf.is_zero or n is None:
        return nf.is_zero, witness if nf.is_zero else None
    w, q, phi, psi = pair
    g = [0] * n + [1]
    elem = Poly.from_ints(_pearson_form(phi, psi, g), q)
    if n:  # E = D(h) + its normal form
        elem, h, _ = _eliminate(pair, elem)
    a, b = nf.num, elem.num
    if len(a) != len(b) or [x * b[-1] for x in a] != [y * a[-1] for y in b]:
        return False, None
    base = Poly.from_ints(_zmul(w, g))  # D(w t^n - h) is E's normal form
    if n:
        base -= h
    return True, witness + base.scale(Fraction(a[-1] * elem.den, nf.den * b[-1]))


def lzero(op: MonomialOperator, f: Poly) -> Fraction:
    """Constant term of the normal form (monomial family)."""
    if not isinstance(op, MonomialOperator):
        raise BadInput("the normal-form functional is defined for the monomial family")
    return reduce(op, f).normal_form.coeff(0)


def im_structure(op: OperatorSpec) -> ImStructure:
    """Whether 1 lies in the image, decided by the exact solver."""
    return ImStructure(member(op, poly_one())[0])
