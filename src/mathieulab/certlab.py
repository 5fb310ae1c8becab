"""Number-theoretic non-membership certificates for monomial-family images.

For D = d/dt + alpha/t - t^d with rational alpha outside -(1 + (d+1)N) and
(d, alpha) != (0, 0), no nonzero polynomial keeps all of its powers inside
the polynomial image of D.  The machinery that proves it for a concrete f
with monic lowest term t^s (s >= 1) is assembled here:

* bracket factorials    [q*n, n]_alpha! = ((q-1)n+1+alpha)...(1+alpha),
  the value of the normal-form constant functional on t^(q*n) when n = d+1;
* the expansion  f^(m(d+1)) = t^(s*m*(d+1)) + sum phi_k t^k;
* the products   b_i = ((sm+i-1)(d+1)+1+alpha)...(sm(d+1)+1+alpha);
* a prime p = (s_* q) m + h in an arithmetic progression (Dirichlet) that
  divides every b_i numerator while all phi coefficients are p-integral.

Then the exact identity

    L0(f^(m(d+1))) = [sm(d+1), d+1]_alpha! * (1 + sum_i b_i phi_((sm+i)(d+1)))

forces a positive p-adic valuation on sum b_i phi, so the bracketed factor
cannot vanish, and f^(m(d+1)) is certified to lie outside the image.  The
certificate records the integers and valuations of that derivation.  The
search walks m = 1 .. budget once, testing each candidate p >= 2 once for
primality and deriving the valuations at each admissible prime; the checker
rebuilds the certificate from its own (f, d, r/q, m) and accepts only a
rebuild equal to the one it was handed, so it trusts none of the derived
fields.  A certificate's prime at or above psi_12 ~ 3.19e23 rests on
Baillie-PSW, a probable-prime test, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Optional, Union

from .corealg import Poly, QQ, format_poly, parse_poly
from .errors import (
    AlgebraError,
    BadInput,
    BudgetExhausted,
    NotNormalized,
    ZeroInput,
)
from .opimage import MonomialOperator, lzero

_F0 = Fraction(0)
_F1 = Fraction(1)

INFINITE = math.inf

# largest degree deg f * m(d+1) of the power f^(m(d+1)) that a certificate
# may need; the cost grows five- to fifteenfold per doubling of that degree.
# At the limit, re-deriving a certificate for t + 123/457*t^2 (d = 1,
# alpha = 0, m = 249) takes 0.9 s on a 2-vCPU Xeon; larger coefficients
# cost more
MAX_CERT_DEGREE = 1000

# the first twelve prime bases make Miller-Rabin deterministic below _PSI_12,
# the least strong pseudoprime to all of them (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Primality: deterministic below _PSI_12, Baillie-PSW (the bases above
    plus a strong Lucas test) from there on."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for odd
    n > 37 (Baillie and Wagstaff 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k, Q^k mod n, walking k along the binary digits of d
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _valuation(x: Union[Fraction, int], p: int) -> Union[int, float]:
    """p-adic valuation for a p already known to be prime."""
    x = Fraction(x)
    if x == 0:
        return INFINITE
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def bracket_factorial(q: int, n: int, alpha: Fraction) -> Fraction:
    """((q-1)n + 1 + alpha)((q-2)n + 1 + alpha) ... (1 + alpha); empty = 1."""
    if q < 0 or n < 1:
        raise BadInput("bracket factorial needs q >= 0 and n >= 1")
    alpha = Fraction(alpha)
    out = _F1
    for j in range(q):
        out *= j * n + 1 + alpha
    return out


def _normalized_lowest(f: Poly) -> int:
    if f.ring != QQ:
        raise BadInput("certificates require rational coefficients")
    if f.is_zero:
        raise ZeroInput("zero polynomial")
    s = f.lowest_degree()
    if s is None or s < 1 or f.coeff(s) != 1:
        raise NotNormalized("lowest term must be a monic t^s with s >= 1")
    return s


def phi_expansion(f: Poly, m: int, d: int) -> dict[int, Fraction]:
    """Coefficients of f^(m(d+1)) above the monic lowest term t^(s*m*(d+1))."""
    s = _normalized_lowest(f)
    if m < 1 or d < 0:
        raise BadInput("need m >= 1 and d >= 0")
    return _phi_coefficients(f ** (m * (d + 1)), s * m * (d + 1))


def _phi_coefficients(power: Poly, base: int) -> dict[int, Fraction]:
    """The nonzero coefficients of power above its lowest term t^base."""
    coeffs = power.qq_coeffs()
    if coeffs[base] != 1:
        raise NotNormalized("lowest coefficient of the power is not 1")
    return {k: coeffs[k] for k in range(base + 1, len(coeffs)) if coeffs[k] != 0}


def b_products(s: int, m: int, d: int, alpha: Fraction, i_max: int) -> list[Fraction]:
    """b_1 .. b_imax with b_i = prod_{j=0}^{i-1} ((sm+j)(d+1) + 1 + alpha)."""
    if s < 1 or m < 1 or i_max < 1:
        raise BadInput("need s, m, i_max >= 1")
    alpha = Fraction(alpha)
    out = []
    acc = _F1
    for j in range(i_max):
        acc *= (s * m + j) * (d + 1) + 1 + alpha
        out.append(acc)
    return out


def _alpha_admissible(d: int, alpha: Fraction) -> bool:
    """alpha not of the form -(1 + q(d+1)) for a non-negative integer q."""
    q = Fraction(-1 - alpha, d + 1)
    return not (q.denominator == 1 and q >= 0)


@dataclass(frozen=True, slots=True)
class Certificate:
    """Re-checkable proof data that f^(m(d+1)) avoids the image; fields in JSON key order."""

    f: Poly
    m: int
    prime: int
    s0: int
    s_star: int
    h: int
    q: int
    r: int
    bi_valuations: tuple  # of (i, v_p(b_i)), for i = 1..i_max
    phi_valuations: tuple  # of (i, v_p(phi)), for the nonzero phi only
    conclusion_exponent: int  # m*(d+1)


def _progression(f: Poly, d: int, alpha: Fraction) -> tuple[int, int, int, int]:
    """(s, s0, s_star, h) for f's lowest degree s and alpha = r/q in lowest
    terms: s0 = gcd(s(d+1), q+r) = s(d+1)/s_star = (q+r)/h.  BadInput when
    the theorem does not cover (d, alpha), alpha = -1 included.  s_star*q and
    h are coprime, as gcd cofactors with gcd(q, q+r) = gcd(q, r) = 1."""
    if d < 0:
        raise BadInput("d must be non-negative")
    if d == 0 and alpha == 0:
        raise BadInput("the operator d/dt - 1 is surjective; nothing to certify")
    if not _alpha_admissible(d, alpha):
        raise BadInput("alpha lies in -(1 + (d+1)N); powers of t^(d+1) stay in the image")
    s = _normalized_lowest(f)
    s0 = math.gcd(s * (d + 1), alpha.denominator + alpha.numerator)
    return s, s0, s * (d + 1) // s0, (alpha.denominator + alpha.numerator) // s0


def _certificate(f: Poly, d: int, alpha: Fraction, m: int) -> Optional[Certificate]:
    """The certificate for f, D and m with the prime p = (s_star*q)m + h, or
    None when p is not prime or _derive_valuations rejects it: the rebuild
    that verify_certificate compares."""
    s, s0, s_star, h = _progression(f, d, alpha)
    q, r = alpha.denominator, alpha.numerator
    p = s_star * q * m + h
    if not is_prime(p) or (derived := _derive_valuations(f, s, d, alpha, m, p)) is None:
        return None
    return Certificate(f, m, p, s0, s_star, h, q, r, *derived, m * (d + 1))


def certificate_nonmembership(f: Poly, d: int, alpha: Fraction, budget: int = 10 ** 6) -> Certificate:
    """Search for (m, prime) proving f^(m(d+1)) outside the image of D.

    One walk over m = 1 .. budget tests each candidate p = (s_star*q)m + h
    >= 2 once with is_prime and returns the first certificate a prime
    builds; building it checks the L0 identity exactly.  At a prime the walk
    ends with BudgetExhausted if f^(m(d+1)) would have degree above
    MAX_CERT_DEGREE, and skips a p dividing a denominator of f unbuilt: with
    c_k t^k the lowest term of f of least p-adic valuation v < 0, phi at
    t^(k*N), N = m(d+1), has valuation N*v.  s_star*q and h are coprime, so
    the progression holds infinitely many primes (Dirichlet).
    """
    alpha = Fraction(alpha)
    if budget < 1:
        raise BadInput("budget must be at least 1")
    s, s0, s_star, h = _progression(f, d, alpha)
    q, r = alpha.denominator, alpha.numerator
    for m in range(1, budget + 1):
        p = s_star * q * m + h
        if p < 2 or not is_prime(p):
            continue
        if f.degree * m * (d + 1) > MAX_CERT_DEGREE:
            raise BudgetExhausted(f"the next candidate m = {m} needs f^{m * (d + 1)} of degree "
                                  f"{f.degree * m * (d + 1)}, above the limit "
                                  f"MAX_CERT_DEGREE = {MAX_CERT_DEGREE}")
        if f.den % p and (derived := _derive_valuations(f, s, d, alpha, m, p)) is not None:
            return Certificate(f, m, p, s0, s_star, h, q, r, *derived, m * (d + 1))
    raise BudgetExhausted(f"no admissible prime among {budget} progression candidates")


def _derive_valuations(f: Poly, s: int, d: int, alpha: Fraction, m: int,
                       p: int) -> Optional[tuple[tuple, tuple]]:
    """(bi_valuations, phi_valuations) of f for the prime p, or None when p
    misses some b_i, some phi is not p-integral, or the L0 identity fails.

    p must already be known prime: the valuations skip the primality test.
    """
    i_max = (f.degree - s) * m
    power = f ** (m * (d + 1))  # shared by the phi values and the L0 cross-check
    phi = _phi_coefficients(power, s * m * (d + 1))
    bi_vals = []
    phi_vals = []
    correction = _F0
    if i_max >= 1:
        for i, b in enumerate(b_products(s, m, d, alpha, i_max), start=1):
            v = _valuation(b, p)
            if not (isinstance(v, int) and v > 0):
                return None
            bi_vals.append((i, v))
            coeff = phi.get((s * m + i) * (d + 1), _F0)
            if coeff != 0:
                v_phi = _valuation(coeff, p)
                if v_phi < 0:
                    return None
                phi_vals.append((i, v_phi))
                correction += b * coeff
    # exact cross-check of the factored identity against the reducer
    bracket = bracket_factorial(s * m, d + 1, alpha)
    value = lzero(MonomialOperator(1, alpha, 1, d), power)
    if value == 0 or value != bracket * (1 + correction):
        return None
    return tuple(bi_vals), tuple(phi_vals)


def verify_certificate(cert: Certificate) -> bool:
    """Rebuild the certificate from its (f, d, r/q, m) by the derivation the
    search uses, and compare the two field by field (valuations given as
    lists compare as tuples).  Only the inputs of the rebuild are checked
    first: m >= 1 divides conclusion_exponent, q >= 1 and gcd(r, q) = 1.  A
    failed domain check (an AlgebraError) makes it invalid; other exceptions
    propagate.  A power above MAX_CERT_DEGREE is refused with BadInput
    before it is built.  A prime >= _PSI_12 rests on `is_prime`'s Baillie-PSW
    test, a probable-prime test with no known counterexample, not a proof."""
    if cert.f.degree * cert.conclusion_exponent > MAX_CERT_DEGREE:
        raise BadInput(f"f^{cert.conclusion_exponent} would have degree "
                       f"{cert.f.degree * cert.conclusion_exponent}, above the limit "
                       f"MAX_CERT_DEGREE = {MAX_CERT_DEGREE}")
    try:
        m = cert.m
        if m < 1 or cert.conclusion_exponent % m != 0:
            return False
        if cert.q < 1 or math.gcd(cert.r, cert.q) != 1:
            return False
        d, alpha = cert.conclusion_exponent // m - 1, Fraction(cert.r, cert.q)
        given = replace(cert, bi_valuations=tuple(cert.bi_valuations),
                        phi_valuations=tuple(cert.phi_valuations))
        return _certificate(cert.f, d, alpha, m) == given
    except AlgebraError:
        return False


def _integer(value, name: str) -> int:
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    return value


# how each Certificate field is written to JSON and read back, by its annotation string
_TO_JSON = {"Poly": format_poly, "int": lambda n: n,
            "tuple": lambda pairs: [list(pair) for pair in pairs]}
_FROM_JSON = {"Poly": lambda text, _: parse_poly(text, QQ), "int": _integer,
              "tuple": lambda pairs, name: tuple((_integer(i, name), _integer(v, name))
                                                 for i, v in pairs)}


def certificate_to_dict(cert: Certificate) -> dict:
    return {field.name: _TO_JSON[field.type](getattr(cert, field.name))
            for field in fields(Certificate)}


def certificate_from_dict(data: dict) -> Certificate:
    """The certificate certificate_to_dict wrote.  BadInput names the first
    missing or malformed field; integer fields and valuation pairs take
    integers only, not floats, booleans or strings."""
    try:
        return Certificate(**{field.name: _FROM_JSON[field.type](data[field.name], field.name)
                              for field in fields(Certificate)})
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"malformed certificate: {exc}") from exc
