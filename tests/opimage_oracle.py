"""Earlier versions of the opimage module, kept verbatim as independent
oracles for the integer elimination and the Pearson pair.  Their refusals,
``UnsupportedReduction`` and ``DegenerateDiagonal``, are kept here with them.

* The per-family loops: one hand-written loop per operator family
  (``_reduce_monomial``, the three branches of ``_reduce_jacobi`` and
  ``_member_monomial_no_tail``) behind ``reduce``, ``member`` and ``lzero``.
* The table-driven elimination on Fractions: ``_image_row`` with its
  factors as Fractions and ``_eliminate`` on ``qq_coeffs()`` lists, behind
  ``table_reduce``, ``table_member`` and ``table_lzero``.
* The hand-written integer table ``image_row``, one case per operator
  family, and ``apply_operator`` with one branch per parameter: the rows
  and the operator that ``opimage.pearson_pair`` now derives from one
  pair (phi, psi).
* ``parse_operator``, the operator reader with every absent parameter read
  from its default text, the slow path of the reader's cross-oracle."""

from fractions import Fraction
from typing import Optional

from mathieulab.corealg import (
    Poly,
    QQ,
    clear_denominators,
    euclid_divmod,
    parse_exponent,
    parse_key_values,
    parse_rational,
    poly_zero,
    qq_poly,
)
from mathieulab.errors import AlgebraError, BadInput
from mathieulab.opimage import JacobiOperator, MonomialOperator, OperatorSpec, ReductionResult


class UnsupportedReduction(AlgebraError):
    """The earlier refusal of lam = 0 in the monomial family."""

    code = "UNSUPPORTED_REDUCTION"


class DegenerateDiagonal(AlgebraError):
    """The earlier refusal of a vanishing Jacobi lead."""

    code = "DEGENERATE_DIAGONAL"

_F0 = Fraction(0)


def _require_qq(f: Poly):
    if f.ring != QQ:
        raise BadInput("operator calculus works over QQ coefficients")


def reduce(op: OperatorSpec, f: Poly) -> ReductionResult:
    """Exact normal form of f modulo the polynomial image of D."""
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


# -- the table-driven elimination on Fractions --------------------------------

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


def table_reduce(op: OperatorSpec, f: Poly) -> ReductionResult:
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


def table_member(op: OperatorSpec, f: Poly) -> tuple[bool, Optional[Poly]]:
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


def table_lzero(op: MonomialOperator, f: Poly) -> Fraction:
    """Constant term of the normal form (monomial family, lam != 0)."""
    if not isinstance(op, MonomialOperator):
        raise BadInput("the normal-form functional is defined for the monomial family")
    return table_reduce(op, f).normal_form.coeff(0)


# -- the hand-written integer table and operator --------------------------------

def image_row(op: OperatorSpec):
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
        return qq_poly([1, 0, -1]), 0, q, top, rest, "two-factor"
    if alpha:
        return qq_poly([1, -1]), 0, q, (0, -(q + alpha), -q), (down,), "single-factor"
    if beta:
        return qq_poly([1, 1]), 0, q, (0, q + beta, q), (down,), "single-factor"
    return None, 1, q, down, (), None


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


# The operator reader, kept verbatim: every parameter, an absent one from
# its default text, is read by parse_rational.

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
