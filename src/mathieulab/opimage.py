"""Polynomial images of first-order differential operators over QQ[t].

Two operator families are supported:

* ``MonomialOperator(c, alpha, lam, d)`` acting as  c*d/dt + alpha/t - lam*t^d;
* ``JacobiOperator(alpha, beta)``        acting as  d/dt - alpha/(1-t) + beta/(1+t).

The *polynomial image* of an operator D is the set of polynomials D(h)
where h ranges over the polynomials keeping D(h) pole-free: t | h when
alpha != 0 in the monomial family, and (1-t) | h resp. (1+t) | h for each
nonzero Jacobi parameter.  It is spanned by the elements D(w*t^n), w the
product of the required factors, and each of them has coefficients affine
in n (the table in `_image_row`).  Eliminating the top term of f against
the element that leads at its degree, top degree down, produces an exact
normal form in a small residue space, and with it a membership decision
with an explicit witness.  A leading coefficient can vanish at one n: with
lam = 0 in the monomial family no image element reaches that degree, so
the term stays and f is not a member; in the Jacobi family (a parameter
<= -1) the elimination raises DegenerateDiagonal.

All decisions are made over QQ, on integers.  The defining linear systems
have rational coefficients, so solvability over any extension field
coincides with solvability over QQ.  The table's factors are integers over
the common denominator q of the operator's parameters, and the elimination
is `linalg.solve_band`, the fraction-free banded solver that momlab's
classical orthogonal polynomials use too: f's numerators, the witness and
the normal form are integers over one running denominator, with no Fraction
on the way, and each result is read into one Poly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .corealg import (
    Poly,
    QQ,
    clear_denominators,
    euclid_divmod,
    parse_exponent,
    parse_key_values,
    parse_rational,
    poly_one,
    qq_poly,
)
from .errors import (
    BadInput,
    DegenerateDiagonal,
    UnsupportedReduction,
)
from .linalg import solve_band

_F0 = Fraction(0)

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
    if head == "mono":
        known = {"c", "alpha", "lambda", "d"}
        if set(args) - known:
            raise BadInput(f"unknown operator arguments {sorted(set(args) - known)}")
        return MonomialOperator(
            parse_rational(args.get("c", "1")),
            parse_rational(args.get("alpha", "0")),
            parse_rational(args.get("lambda", "1")),
            parse_exponent(args.get("d", "0"), "exponent d must be a non-negative integer"),
        )
    if head == "jacobi":
        known = {"alpha", "beta"}
        if set(args) - known:
            raise BadInput(f"unknown operator arguments {sorted(set(args) - known)}")
        return JacobiOperator(
            parse_rational(args.get("alpha", "0")),
            parse_rational(args.get("beta", "0")),
        )
    raise BadInput(f"unknown operator family {head!r}")


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


def apply_operator(op: OperatorSpec, h: Poly) -> Poly:
    """Apply D to an admissible h; raises BadInput when h has a pole."""
    _require_qq(h)
    if isinstance(op, MonomialOperator):
        out = h.derivative().scale(op.c)
        if op.alpha != 0:
            coeffs = h.qq_coeffs()
            if coeffs and coeffs[0] != 0:
                raise BadInput("witness must be divisible by t when alpha != 0")
            out = out + qq_poly([c * op.alpha for c in coeffs[1:]])
        if op.lam != 0:
            shifted = [_F0] * op.d + [c * op.lam for c in h.qq_coeffs()]
            out = out - qq_poly(shifted)
        return out
    out = h.derivative()
    if op.alpha != 0:
        q, r = euclid_divmod(h, qq_poly([1, -1]))  # h / (1 - t)
        if not r.is_zero:
            raise BadInput("witness must be divisible by (1 - t) when alpha != 0")
        out = out - q.scale(op.alpha)
    if op.beta != 0:
        q, r = euclid_divmod(h, qq_poly([1, 1]))  # h / (1 + t)
        if not r.is_zero:
            raise BadInput("witness must be divisible by (1 + t) when beta != 0")
        out = out + q.scale(op.beta)
    return out


_ONE_MINUS_T2 = Poly.from_ints([1, 0, -1])
_ONE_MINUS_T = Poly.from_ints([1, -1])
_ONE_PLUS_T = Poly.from_ints([1, 1])


def _image_row(op: OperatorSpec):
    """The admissible image elements D(w*t^n), n >= n0, as one row.

    Returns (w, n0, q, top, rest, where).  A term (e, a, b) stands for the
    coefficient (a + b*n)/q on t^(n+e), with integers a, b and q > 0 the
    common denominator of the operator's parameters; top is the leading
    term and rest the nonzero lower ones (the two-factor row drops its t^n
    term when A = B).  w is the witness factor, None for 1.
    where names the solve that raises DegenerateDiagonal when the leading
    coefficient vanishes on a term to be eliminated; None leaves that term
    in place.  With C, A, L, B the parameters c, alpha (or the Jacobi
    alpha), lam and beta times q, the rows in units of 1/q are

        mono, lam != 0       (A + C n) t^(n-1) - L t^(n+d)                 n >= 1
        mono, lam = 0        (A + C n) t^(n-1)                             n >= 1
        jacobi, alpha, beta  q n t^(n-1) + (B - A) t^n
                               - (q n + 2q + A + B) t^(n+1)  w = 1 - t^2,  n >= 0
        jacobi, alpha only   q n t^(n-1) - (q n + q + A) t^n  w = 1 - t,    n >= 0
        jacobi, beta only    q n t^(n-1) + (q n + q + B) t^n  w = 1 + t,    n >= 0
        jacobi, plain d/dt   n t^(n-1)                        q = 1,        n >= 1
    """
    if isinstance(op, MonomialOperator):
        q, (c, alpha, lam) = clear_denominators((op.c, op.alpha, op.lam))
        low = (-1, alpha, c)
        if not lam:
            return None, 1, q, low, (), None
        return None, 1, q, (op.d, -lam, 0), (low,), None
    q, (alpha, beta) = clear_denominators((op.alpha, op.beta))
    down = (-1, 0, q)
    if alpha and beta:
        top = (1, -(2 * q + alpha + beta), -q)
        rest = ((0, beta - alpha, 0), down) if beta != alpha else (down,)
        return _ONE_MINUS_T2, 0, q, top, rest, "two-factor"
    if alpha:
        return _ONE_MINUS_T, 0, q, (0, -(q + alpha), -q), (down,), "single-factor"
    if beta:
        return _ONE_PLUS_T, 0, q, (0, q + beta, q), (down,), "single-factor"
    return None, 1, q, down, (), None


def _eliminate(op: OperatorSpec, f: Poly) -> tuple[Poly, Poly]:
    """(normal form, witness): eliminate f's terms top-down by `_image_row`.

    Degree k is removed by the element of n = k - e with the multiplier
    q y_k, so in terms of k the row reads (lead_a + lead_b (k - e)) y_k =
    f_k - sum (a + b (k - j)) y_(k + e - j) over the lower terms (j, a, b),
    which `linalg.solve_band` solves on f's numerators.  A degree below
    n0 + e, or one whose lead vanishes, keeps its term in the normal form;
    when `where` is set such a term at a degree an element leads raises
    DegenerateDiagonal.
    """
    w, n0, q, (e, lead_a, lead_b), rest, where = _image_row(op)
    low = n0 + e  # the lowest degree that an image element leads
    y, r, scale = solve_band((lead_a - lead_b * e, lead_b), f.num,
                             [(e - j, a - b * j, b) for j, a, b in rest], low)
    if where is not None and any(r[low:]):
        raise DegenerateDiagonal(f"vanishing diagonal entry in the {where} solve")
    den = f.den * scale
    witness = Poly.from_ints([q * v for v in ([0] * -e + y if e < 0 else y[e:])], den)
    return Poly.from_ints(r, den), witness if w is None else w * witness


def reduce(op: OperatorSpec, f: Poly) -> ReductionResult:
    """Exact normal form of f modulo the polynomial image of D.

    Eliminates the top term of f against the image element of
    `_image_row` that leads at its degree, from the top degree down.  The
    normal form keeps the degrees no element leads: 1..t^d in the monomial
    family (for alpha = 0, t^d = D(-1/lam) is itself an image element, which
    `member` takes out), the constants for Jacobi with both parameters
    nonzero, and nothing for the other Jacobi cases.  A Jacobi leading
    coefficient n+2+alpha+beta or n+1+parameter vanishes only for
    parameters <= -1, and raises DegenerateDiagonal.  lam = 0 leaves no
    finite residue space and raises UnsupportedReduction.
    """
    _require_qq(f)
    if isinstance(op, MonomialOperator) and op.lam == 0:
        raise UnsupportedReduction("lam = 0 has no finite residue space; use member")
    return ReductionResult(*_eliminate(op, f), True)


def member(op: OperatorSpec, f: Poly) -> tuple[bool, Optional[Poly]]:
    """Does f lie in the polynomial image of D?  Returns (flag, witness)."""
    _require_qq(f)
    nf, witness = _eliminate(op, f)
    if (isinstance(op, MonomialOperator) and op.lam != 0 and op.alpha == 0
            and nf.degree == op.d and not any(nf.num[:-1])):
        # t^d = D(-1/lam) is the one image element of the residue space
        p, q = op.lam.as_integer_ratio()
        return True, witness - Poly.from_ints([nf.num[-1] * q], nf.den * p)
    if nf.is_zero:
        return True, witness
    return False, None


def lzero(op: MonomialOperator, f: Poly) -> Fraction:
    """Constant term of the normal form (monomial family, lam != 0)."""
    if not isinstance(op, MonomialOperator):
        raise BadInput("the normal-form functional is defined for the monomial family")
    return reduce(op, f).normal_form.coeff(0)


def im_structure(op: OperatorSpec) -> ImStructure:
    """Whether 1 lies in the image, decided by the exact solver."""
    return ImStructure(member(op, poly_one())[0])
