"""The certificate search and checker of the earlier certlab module, kept
as an independent oracle for the single derivation that both now share: the
search derives (s0, s_star, h) by hand and restarts its own candidate loop
after every prime it finds (the earlier ``dirichlet_prime``), and the
checker re-checks each progression condition by hand before it compares
the valuations.  ``certificate_to_dict`` is the earlier JSON writer, which
names every field by hand.  ``lzero_monomial`` is the closed form of the
normal-form constant functional on a monomial, which tests compare with
``opimage.lzero``."""

import math
from fractions import Fraction

from mathieulab.certlab import (
    MAX_CERT_DEGREE,
    Certificate,
    _alpha_admissible,
    _derive_valuations,
    _normalized_lowest,
    bracket_factorial,
    is_prime,
)
from mathieulab.corealg import Poly, format_poly
from mathieulab.errors import AlgebraError, BadInput, BudgetExhausted


def lzero_monomial(q: int, i: int, d: int, alpha: Fraction) -> Fraction:
    """Closed form of the normal-form constant functional on t^(q(d+1)+i)."""
    if not (0 <= i <= d):
        raise BadInput("residue index out of range")
    if q < 0:
        raise BadInput("q must be non-negative")
    if i > 0:
        return Fraction(0)
    return bracket_factorial(q, d + 1, alpha)


def next_prime(step: int, h: int, m_min: int, budget: int):
    """(m, p) for the least m in [m_min, budget] with p = step*m + h prime,
    or None."""
    for m in range(m_min, budget + 1):
        p = step * m + h
        if p >= 2 and is_prime(p):
            return m, p
    return None


def certificate_nonmembership(f: Poly, d: int, alpha: Fraction, budget: int = 10 ** 6) -> Certificate:
    """Search for (m, prime) proving f^(m(d+1)) outside the image of D.

    The progression step and offset come from alpha = r/q in lowest terms:
    with s0 = gcd(s(d+1), q+r), s(d+1) = s0*s_star and q+r = s0*h, the
    candidate primes are p = (s_star*q)m + h.  A candidate is rejected when
    it divides a coefficient denominator of f (the phi values must stay
    p-integral).  The L0 identity is checked exactly before returning.  The
    search ends with BudgetExhausted once the next candidate would need a
    power of degree above MAX_CERT_DEGREE.
    """
    alpha = Fraction(alpha)
    if budget < 1:
        raise BadInput("budget must be at least 1")
    if d < 0:
        raise BadInput("d must be non-negative")
    if d == 0 and alpha == 0:
        raise BadInput("the operator d/dt - 1 is surjective; nothing to certify")
    if not _alpha_admissible(d, alpha):
        raise BadInput("alpha lies in -(1 + (d+1)N); powers of t^(d+1) stay in the image")
    s = _normalized_lowest(f)
    q, r = alpha.denominator, alpha.numerator
    if q + r == 0:
        raise BadInput("alpha = -1 is excluded")
    s0 = math.gcd(s * (d + 1), q + r)
    s_star = s * (d + 1) // s0
    h = (q + r) // s0
    step = s_star * q
    assert math.gcd(step, h) == 1  # Dirichlet: the progression holds infinitely many primes
    denominators = {c.denominator for c in f.coeffs if c}
    m_min = 1
    while m_min <= budget:
        found = next_prime(step, h, m_min, budget)
        if found is None:
            break
        m, p = found
        if f.degree * m * (d + 1) > MAX_CERT_DEGREE:
            raise BudgetExhausted(f"the next candidate m = {m} needs f^{m * (d + 1)} of degree "
                                  f"{f.degree * m * (d + 1)}, above the limit "
                                  f"MAX_CERT_DEGREE = {MAX_CERT_DEGREE}")
        m_min = m + 1
        if any(den % p == 0 for den in denominators):
            continue
        derived = _derive_valuations(f, s, d, alpha, m, p)
        if derived is not None:
            return Certificate(f, m, p, s0, s_star, h, q, r, *derived, m * (d + 1))
    raise BudgetExhausted(f"no admissible prime among {budget} progression candidates")


def verify_certificate(cert: Certificate) -> bool:
    """Re-derive every field of a certificate from scratch.  A failed domain
    check (an AlgebraError) makes it invalid; other exceptions propagate.  A
    power above MAX_CERT_DEGREE is refused with BadInput before it is built."""
    if cert.f.degree * cert.conclusion_exponent > MAX_CERT_DEGREE:
        raise BadInput(f"f^{cert.conclusion_exponent} would have degree "
                       f"{cert.f.degree * cert.conclusion_exponent}, above the limit "
                       f"MAX_CERT_DEGREE = {MAX_CERT_DEGREE}")
    try:
        m = cert.m
        if m < 1 or cert.conclusion_exponent % m != 0:
            return False
        d = cert.conclusion_exponent // m - 1
        if d < 0:
            return False
        if cert.q < 1 or math.gcd(cert.r, cert.q) != 1:
            return False
        alpha = Fraction(cert.r, cert.q)
        if d == 0 and alpha == 0:
            return False
        if not _alpha_admissible(d, alpha):
            return False
        s = _normalized_lowest(cert.f)
        if cert.q + cert.r == 0:
            return False
        if cert.s0 != math.gcd(s * (d + 1), cert.q + cert.r):
            return False
        if s * (d + 1) != cert.s0 * cert.s_star:
            return False
        if cert.q + cert.r != cert.s0 * cert.h:
            return False
        if cert.prime != cert.s_star * cert.q * m + cert.h:
            return False
        if not is_prime(cert.prime):
            return False
        derived = _derive_valuations(cert.f, s, d, alpha, m, cert.prime)
        return derived == (tuple(cert.bi_valuations), tuple(cert.phi_valuations))
    except AlgebraError:
        return False


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "f": format_poly(cert.f),
        "m": cert.m,
        "prime": cert.prime,
        "s0": cert.s0,
        "s_star": cert.s_star,
        "h": cert.h,
        "q": cert.q,
        "r": cert.r,
        "bi_valuations": [list(pair) for pair in cert.bi_valuations],
        "phi_valuations": [list(pair) for pair in cert.phi_valuations],
        "conclusion_exponent": cert.conclusion_exponent,
    }
