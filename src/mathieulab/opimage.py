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
<= -1) the solver raises DegenerateDiagonal.

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


def _image_row(op: OperatorSpec):
    """The admissible image elements D(w*t^n), n >= n0, as one row.

    Returns (w, n0, top, rest, where).  A term (e, a, b) is the coefficient
    a + b*n on t^(n+e); top is the leading term and rest the lower ones.
    w is the witness factor, None for 1.  where names the solve that raises
    DegenerateDiagonal when the leading coefficient vanishes on a term to
    be eliminated; None leaves that term in place.

        mono, lam != 0       (alpha + c*n) t^(n-1) - lam t^(n+d)           n >= 1
        mono, lam = 0        (alpha + c*n) t^(n-1)                         n >= 1
        jacobi, alpha, beta  n t^(n-1) + (beta - alpha) t^n
                               - (n + 2 + alpha + beta) t^(n+1)  w = 1 - t^2, n >= 0
        jacobi, alpha only   n t^(n-1) - (n + 1 + alpha) t^n     w = 1 - t,   n >= 0
        jacobi, beta only    n t^(n-1) + (n + 1 + beta) t^n      w = 1 + t,   n >= 0
        jacobi, plain d/dt   n t^(n-1)                                     n >= 1
    """
    if isinstance(op, MonomialOperator):
        low = (-1, op.alpha, op.c)
        if op.lam == 0:
            return None, 1, low, (), None
        return None, 1, (op.d, -op.lam, 0), (low,), None
    alpha, beta = op.alpha, op.beta
    down = (-1, 0, 1)
    if alpha != 0 and beta != 0:
        top = (1, -(2 + alpha + beta), -1)
        return qq_poly([1, 0, -1]), 0, top, ((0, beta - alpha, 0), down), "two-factor"
    if alpha != 0:
        return qq_poly([1, -1]), 0, (0, -(1 + alpha), -1), (down,), "single-factor"
    if beta != 0:
        return qq_poly([1, 1]), 0, (0, 1 + beta, 1), (down,), "single-factor"
    return None, 1, down, (), None


def _eliminate(op: OperatorSpec, f: Poly) -> tuple[Poly, Poly]:
    """(normal form, witness): eliminate f's terms top-down by `_image_row`."""
    w, n0, (e, a0, b0), rest, where = _image_row(op)
    work = list(f.qq_coeffs())
    g = [_F0] * max(len(work) - e, 0)
    for k in range(len(work) - 1, n0 + e - 1, -1):
        a = work[k]
        if a == 0:
            continue
        n = k - e
        lead = a0 + b0 * n if b0 else a0
        if lead == 0:
            if where is None:
                continue  # no image element leads at t^k
            raise DegenerateDiagonal(f"vanishing diagonal entry in the {where} solve")
        mult = a / lead
        work[k] = _F0
        for j, aj, bj in rest:
            if n + j >= 0:  # n t^(n-1) has no term at n = 0
                work[n + j] -= mult * (aj + bj * n if bj else aj)
        g[n] = mult
    witness = qq_poly(g)
    return qq_poly(work), witness if w is None else w * witness


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
    if isinstance(op, MonomialOperator) and op.lam != 0 and op.alpha == 0 and nf.degree == op.d:
        # t^d = D(-1/lam) is the one image element of the residue space
        top = nf.coeff(op.d)
        nf = nf - qq_poly([_F0] * op.d + [top])
        witness = witness - qq_poly([top / op.lam])
    if nf.is_zero:
        return True, witness
    return False, None


def lzero(op: MonomialOperator, f: Poly) -> Fraction:
    """Constant term of the normal form (monomial family, lam != 0)."""
    if not isinstance(op, MonomialOperator):
        raise BadInput("the normal-form functional is defined for the monomial family")
    return reduce(op, f).normal_form.coeff(0)


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
