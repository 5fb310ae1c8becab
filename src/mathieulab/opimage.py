"""Polynomial images of first-order differential operators over QQ[t].

Two operator families are supported:

* ``MonomialOperator(c, alpha, lam, d)`` acting as  c*d/dt + alpha/t - lam*t^d;
* ``JacobiOperator(alpha, beta)``        acting as  d/dt - alpha/(1-t) + beta/(1+t).

The *polynomial image* of an operator D is the set of polynomials D(h)
where h ranges over the polynomials keeping D(h) pole-free: t | h when
alpha != 0 in the monomial family, and (1-t) | h resp. (1+t) | h for each
nonzero Jacobi parameter.  Since the admissible images D(t^n) (monomial,
lam != 0) and D((1-t)^e (1+t)^e t^n) (Jacobi) have invertible leading
coefficients, top-degree elimination produces an exact normal form in a
small residue space, and with it a membership decision with an explicit
witness.

All decisions are made over QQ.  The defining linear systems have rational
coefficients, so solvability over any extension field coincides with
solvability over QQ and nothing is lost by staying exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .corealg import (
    Poly,
    QQ,
    euclid_divmod,
    parse_key_values,
    parse_rational,
    poly_zero,
    qq_poly,
)
from .errors import (
    BadInput,
    DegenerateDiagonal,
    UnsupportedReduction,
)

_F0 = Fraction(0)

S_CAP_ZERO = "ZERO"
S_CAP_SPAN_TD = "SPAN_TD"
S_CAP_ALL = "ALL"


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
            int(args.get("d", "0")),
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
    s_cap_im: str
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


def reduce(op: OperatorSpec, f: Poly) -> ReductionResult:
    """Exact normal form of f modulo the polynomial image of D.

    Monomial family (lam != 0): the residue space is span{1..t^d} for
    alpha != 0 and span{1..t^(d-1)} for alpha = 0; each elimination step
    trades t^(n+d) for (c*n+alpha)/lam * t^(n-1).  A vanishing multiplier
    never obstructs progress because the eliminated leading coefficient is
    -lam != 0.  Jacobi family: with both parameters nonzero the residue
    space is the constants; with one parameter zero the triangular system
    is degree-preserving and the normal form is 0 unless a diagonal entry
    n+1+parameter vanishes (possible only for parameters <= -1).
    """
    _require_qq(f)
    if isinstance(op, MonomialOperator):
        return _reduce_monomial(op, f)
    return _reduce_jacobi(op, f)


def _reduce_monomial(op: MonomialOperator, f: Poly) -> ReductionResult:
    if op.lam == 0:
        raise UnsupportedReduction("lam = 0 has no finite residue space; use member")
    work = list(f.qq_coeffs())
    wit = [_F0] * max(len(work) - op.d, 1)
    # eliminate t^(n+d) via D(t^n) for n >= 1; the normal form lives in
    # degrees <= d, where the only image element is lam*t^d = D(-1) when
    # alpha = 0 (handled by member, not here)
    for k in range(len(work) - 1, op.d, -1):
        a = work[k]
        if a == 0:
            continue
        n = k - op.d
        mult = a / op.lam
        work[n - 1] += mult * (op.c * n + op.alpha)
        work[k] = _F0
        wit[n] -= mult
    return ReductionResult(qq_poly(work), qq_poly(wit), True)


def _jacobi_diag(op: JacobiOperator, value: Fraction, where: str):
    if value == 0:
        raise DegenerateDiagonal(f"vanishing diagonal entry in the {where} solve")
    return value


def _reduce_jacobi(op: JacobiOperator, f: Poly) -> ReductionResult:
    alpha, beta = op.alpha, op.beta
    work = list(f.qq_coeffs())
    if alpha != 0 and beta != 0:
        # images D((1-t^2) t^n) = n t^(n-1) + (beta-alpha) t^n - (n+2+a+b) t^(n+1)
        g = [_F0] * max(len(work) - 1, 1)
        for k in range(len(work) - 1, 0, -1):
            a = work[k]
            if a == 0:
                continue
            n = k - 1
            diag = _jacobi_diag(op, -(Fraction(k + 1) + alpha + beta), "two-factor")
            mult = a / diag
            work[k] = _F0
            work[n] -= mult * (beta - alpha)
            if n >= 1:
                work[n - 1] -= mult * n
            g[n] += mult
        witness = qq_poly([1, 0, -1]) * qq_poly(g)
        return ReductionResult(qq_poly(work), witness, True)
    if alpha != 0 or beta != 0:
        # single factor (1 -/+ t): degree-preserving triangular system
        param = alpha if alpha != 0 else beta
        lead_sign = -1 if alpha != 0 else 1
        g = [_F0] * len(work)
        for k in range(len(work) - 1, -1, -1):
            a = work[k]
            if a == 0:
                continue
            diag = _jacobi_diag(op, Fraction(lead_sign) * (Fraction(k + 1) + param), "single-factor")
            mult = a / diag
            work[k] = _F0
            if k >= 1:
                work[k - 1] -= mult * k
            g[k] += mult
        factor = qq_poly([1, -1]) if alpha != 0 else qq_poly([1, 1])
        witness = factor * qq_poly(g)
        return ReductionResult(qq_poly(work), witness, True)
    # plain d/dt: antiderivative with constant term 0
    wit = [_F0] * (len(work) + 1)
    for k, a in enumerate(work):
        wit[k + 1] = a / (k + 1)
    return ReductionResult(poly_zero(QQ), qq_poly(wit), True)


def member(op: OperatorSpec, f: Poly) -> tuple[bool, Optional[Poly]]:
    """Does f lie in the polynomial image of D?  Returns (flag, witness)."""
    _require_qq(f)
    if isinstance(op, MonomialOperator) and op.lam == 0:
        return _member_monomial_no_tail(op, f)
    rr = reduce(op, f)
    nf = rr.normal_form
    if isinstance(op, MonomialOperator) and op.alpha == 0 and nf.degree == op.d:
        # t^d = D(-1/lam) is the one image element of the residue space
        top = nf.coeff(op.d)
        nf = nf - qq_poly([_F0] * op.d + [top])
        witness = rr.witness - qq_poly([top / op.lam])
        if nf.is_zero:
            return True, witness
        return False, None
    if nf.is_zero:
        return True, rr.witness
    return False, None


def _member_monomial_no_tail(op: MonomialOperator, f: Poly) -> tuple[bool, Optional[Poly]]:
    # D(t^n) = (c*n + alpha) t^(n-1): solve degreewise; the only failures are
    # degrees n-1 whose multiplier c*n + alpha vanishes.
    coeffs = f.qq_coeffs()
    wit = [_F0] * (len(coeffs) + 1)
    for j, a in enumerate(coeffs):
        mult = op.c * (j + 1) + op.alpha
        if mult == 0:
            if a != 0:
                return False, None
            continue
        wit[j + 1] = a / mult
    return True, qq_poly(wit)


def lzero(op: MonomialOperator, f: Poly) -> Fraction:
    """Constant term of the normal form (monomial family, lam != 0)."""
    if not isinstance(op, MonomialOperator):
        raise BadInput("the normal-form functional is defined for the monomial family")
    rr = reduce(op, f)
    nf = rr.normal_form
    return nf.coeff(0)


def im_structure(op: OperatorSpec) -> ImStructure:
    """Shape of (residue space) ∩ (image), plus whether 1 is in the image.

    The s_cap_im classification refers to the lam != 0 normal-form space of
    the monomial family; one_in_image is always decided by the exact solver.
    """
    one = qq_poly([1])
    one_in = member(op, one)[0]
    if isinstance(op, MonomialOperator):
        if op.alpha != 0:
            cap = S_CAP_ZERO
        elif op.d >= 1:
            cap = S_CAP_SPAN_TD
        else:
            cap = S_CAP_ALL
        return ImStructure(cap, one_in)
    cap = S_CAP_ZERO if (op.alpha != 0 and op.beta != 0) else S_CAP_ALL
    return ImStructure(cap, one_in)
