"""Exact-arithmetic foundation: rationals, coefficient rings, dense polynomials.

The main variable is always ``t``.  Coefficients live in one of three rings:

* ``QQ`` — arbitrary-precision rationals;
* ``QQ_POLY`` — polynomials in a second variable ``x`` over the rationals
  (a UFD with computable gcd);
* ``QQ_POLY_TRUNC(k)`` — ``x``-polynomials truncated modulo x^k, a
  finite-dimensional ring with nilpotents.

A polynomial over QQ (a ``Poly`` in t) and an element of the other two
rings (a ``RingElement``, a polynomial in x) are both held as a tuple of
integer numerators ``num`` over one positive denominator ``den``, in lowest
terms (no prime divides ``den`` and every numerator) and without trailing
zeros, so each rational polynomial has exactly one representation.  Both
types hold ``ring``, ``num`` and ``den`` and nothing else: ``Poly.coeffs``,
``Poly.qq_coeffs()`` and ``RingElement.data`` build a tuple of
``fractions.Fraction`` from them on each read, and ``Poly.coeff(i)`` reads
one entry.  Over QQ_POLY and QQ_POLY_TRUNC(k) a ``Poly`` coefficient is a
RingElement, and ``num`` (which ``coeffs`` returns) is their tuple.

Every value is immutable and every operation exact; there is no floating
point anywhere.  The canonical zero polynomial has an empty coefficient
tuple and degree -1 (the distinguished sentinel); all operations branch on
it explicitly.

The rational arithmetic runs on integers, and one set of kernels serves
both types: one canonical form, one sum, one plain convolution (whose
product QQ_POLY_TRUNC(k) cuts at x^k), one division and one gcd.  Sums,
products, scaling, derivatives, evaluation and substitution build no
Fraction; one gcd brings each result to lowest terms.  Long division is
integer pseudo-division: a monic integer divisor divides the numerators
with no scaling at all, and any other divisor first loses its content and
then multiplies each remainder coefficient by the powers of its leading
coefficient only when the loop reaches it, so the work stays one multiply
per divisor term and step however many steps there are.  Gcds, extended
gcds and squarefree parts run the primitive remainder sequence (von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 6) on the numerators.

Text format (whitespace-insensitive; digits and spaces are ASCII)::

    poly := sign? term (sign term)* ;  sign := '+' | '-' ;
    term := coeff ('*'? mono)? | mono ;  coeff := uint ('/' uint)? ;
    mono := var ('^' uint)? ('*' var ('^' uint)?)? ;  var := 'x' | 't' .

A mono names each variable at most once, in either order (``3*t*x^2``
reads as ``3*x^2*t``); a repeated variable is a ParseError, and so is
``x`` over QQ.

The grammar has no nesting, so it is regular: ``parse_poly`` reads it term
by term, one regular-expression match per term.  An exponent may not
exceed MAX_EXPONENT.  Canonical printing uses descending powers of t,
lowest-terms coefficients, '^' exponents and no unary '+'.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    AmbiguousDivision,
    BadInput,
    DivisionByZero,
    ParseError,
    RingMismatch,
    ZeroInput,
)

_F0 = Fraction(0)

# largest exponent of t or x that parse_poly accepts: the parser builds a
# dense coefficient list as long as the largest exponent it reads
MAX_EXPONENT = 10_000


# --------------------------------------------------------------------------
# ring descriptors
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Ring:
    """Descriptor of a coefficient ring (QQ, QQ_POLY or QQ_POLY_TRUNC(k))."""

    kind: str
    trunc: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("QQ", "QQ_POLY", "QQ_POLY_TRUNC"):
            raise BadInput(f"unknown ring kind {self.kind!r}")
        if self.kind == "QQ_POLY_TRUNC":
            if not isinstance(self.trunc, int) or self.trunc < 1:
                raise BadInput("truncation order must be a positive integer")
        elif self.trunc is not None:
            raise BadInput("truncation order only applies to QQ_POLY_TRUNC")

    @property
    def is_field(self) -> bool:
        return self.kind == "QQ"

    def __str__(self) -> str:
        if self.kind == "QQ_POLY_TRUNC":
            return f"QQ_POLY_TRUNC({self.trunc})"
        return self.kind


QQ = Ring("QQ")
QQ_POLY = Ring("QQ_POLY")


def qq_poly_trunc(k: int) -> Ring:
    return Ring("QQ_POLY_TRUNC", k)


# --------------------------------------------------------------------------
# integer kernels: lists of ints in ascending powers
# --------------------------------------------------------------------------

def clear_denominators(values: Iterable) -> tuple[int, list[int]]:
    """(d, [v * d for v in values]) for d the lcm of the denominators.

    The values are ints or Fractions.  When they are Fractions in lowest
    terms, no prime divides d and every scaled value.
    """
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in pairs])
    return d, [p * (d // q) for p, q in pairs]


def _from_values(values: Iterable, limit: Optional[int] = None):
    """(num, den) in canonical form of rational values, cut after ``limit``
    entries when given."""
    values = [c if type(c) is Fraction or type(c) is int else _as_fraction(c) for c in values]
    n = len(values) if limit is None else min(len(values), limit)
    while n and not values[n - 1]:
        n -= 1
    del values[n:]
    # lowest-terms Fractions over the lcm of their denominators are
    # already in lowest terms as a whole
    den, num = clear_denominators(values)
    return tuple(num), den


def _canonical(cls, ring: "Ring", num: Sequence[int], den: int):
    """The Poly over QQ or RingElement with coefficients num[i] / den
    (den != 0) in canonical form: no trailing zeros, den > 0 and
    gcd(den, num...) = 1."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    if not n:
        return _build(cls, ring, (), 1)
    if n != len(num):
        num = num[:n]
    if den < 0:
        den = -den
        num = [-x for x in num]
    g = math.gcd(den, *num)
    if g != 1:
        den //= g
        num = [x // g for x in num]
    return _build(cls, ring, tuple(num), den)


def _zadd(a: Sequence[int], da: int, b: Sequence[int], db: int,
          sign: int = 1) -> tuple[list[int], int]:
    """a/da + sign * b/db as (numerators, denominator), not yet canonical;
    sign is 1 or -1.  With da = db = None it adds lists of RingElements."""
    if da != db:
        c = math.gcd(da, db)
        sa, sb = db // c, da // c
        a = [x * sa for x in a]
        b = [x * sb for x in b]
        da *= sa
    if sign < 0:
        b = [-x for x in b]
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out, da


def _zmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _content(a: Sequence[int]) -> int:
    """gcd of the entries of a nonzero stripped list, signed like its last entry."""
    c = math.gcd(*a)
    return -c if a[-1] < 0 else c


def _prim(a: list[int]) -> list[int]:
    """a divided by its signed content, so that the last entry is positive;
    a must be stripped, and [] stays []."""
    if not a:
        return a
    c = _content(a)
    return a if c == 1 else [x // c for x in a]


def _zstrip(a: list[int]) -> list[int]:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a if n == len(a) else a[:n]


def _zdivmod(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: (q, r, s) with s*f = q*g + r, deg r < deg g.

    g is stripped and nonzero with leading coefficient lc; s = lc^(m-n+1)
    for m = deg f >= n = deg g (s = 1 when lc = 1, and q = [], r = f when
    m < n).  Step k of the classical loop multiplies the whole remainder
    by lc; here each entry keeps the step it was last brought up to date
    and is multiplied by the missing power of lc only when the loop next
    writes it, so a step costs one multiply per nonzero term of g.
    """
    n = len(g) - 1
    m = len(f) - 1
    if m < n:
        return [], list(f), 1
    lc = g[-1]
    steps = m - n + 1
    w = list(f)
    terms = [(j, c) for j, c in enumerate(g[:n]) if c]
    q = [0] * steps
    if lc == 1:
        for k in range(m, n - 1, -1):
            c = w[k]
            if c:
                base = k - n
                q[base] = c
                for j, gj in terms:
                    w[base + j] -= c * gj
        return q, w[:n], 1
    pw = [1]
    for _ in range(steps):
        pw.append(pw[-1] * lc)
    seen = [0] * (m + 1)  # entry i stands for w[i] * lc^(step - seen[i])
    for step in range(steps):
        k = m - step
        c = w[k] * pw[step - seen[k]]
        if c:
            base = k - n
            q[base] = c * pw[steps - 1 - step]
            for j, gj in terms:
                i = base + j
                w[i] = w[i] * pw[step + 1 - seen[i]] - c * gj
                seen[i] = step + 1
    return q, [w[i] * pw[steps - seen[i]] for i in range(n)], pw[steps]


def _qq_divmod(df: int, f: Sequence[int], dg: int, g: Sequence[int], cls, ring: "Ring"):
    """(q, r) with f/df = q * g/dg + r and deg r < deg g, as Polys over QQ or
    RingElements of ring, for stripped integer lists f and g (g nonzero)
    and nonzero denominators.

    With c the content of g, signed like its leading coefficient, and
    P = g / c, the pseudo-division s*f = Q*P + R gives
    q = Q*dg / (s*df*c) and r = R / (s*df).
    """
    c = _content(g)
    if c != 1:
        g = [x // c for x in g]
    q, r, s = _zdivmod(f, g)
    if dg != 1:
        q = [x * dg for x in q]
    return _canonical(cls, ring, q, s * df * c), _canonical(cls, ring, r, s * df)


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, with positive leading coefficient, of two stripped
    integer lists by the primitive remainder sequence; [] when both are zero."""
    a, b = _prim(a), _prim(b)
    while b:
        a, b = b, _prim(_zstrip(_zdivmod(a, b)[1]))
    return a


def _zxgcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """(d, u, k) for stripped integer lists a and b: d their primitive gcd
    with positive leading coefficient ([] when both are zero), and an
    integer list u and an integer k != 0 with u a = k d mod b and
    deg u < deg b (u a = k d when b = 0).

    The remainders a_i form the primitive remainder sequence from
    a_0 = a / c_a and a_1 = b / c_b, and the loop carries one cofactor of
    each, u_i a = k_i a_i mod b, from u_0 = 1, k_0 = c_a and u_1 = 0, k_1 = 1:
    s a_(i-1) = q a_i + r and a_(i+1) = r / c give
    u_(i+1) = s k_i u_(i-1) - k_(i-1) q u_i and k_(i+1) = c k_(i-1) k_i, both
    over gcd(k_(i-1), k_i) and then over their common content.  No cofactor
    of b is formed.
    """
    u0, k0 = [1], _content(a) if a else 1
    u1, k1 = [], 1
    a, b = _prim(a), _prim(b)
    while b:
        q, r, s = _zdivmod(a, b)
        r = _zstrip(r)
        if not r:
            return b, u1, k1
        c = _content(r)
        g = math.gcd(k0, k1)
        u2, _ = _zadd([x * (s * (k1 // g)) for x in u0], 1,
                      [x * (k0 // g) for x in _zmul(q, u1)], 1, -1)
        u2, k2 = _zstrip(u2), c * (k0 // g) * k1
        e = math.gcd(k2, *u2)
        if e != 1:
            u2, k2 = [x // e for x in u2], k2 // e
        if len(r) == 1:  # a nonzero constant: the gcd is 1, and a_(i+1) = 1
            return [1], u2, k2
        u0, k0, u1, k1 = u1, k1, u2, k2
        a, b = b, [x // c for x in r]
    return a, u0, k0


def _zsquarefree(a: list[int]) -> list[int]:
    """Primitive squarefree part a / gcd(a, a') of a nonzero stripped list."""
    return _prim(_zdivmod(a, _zgcd(a, [a[i] * i for i in range(1, len(a))]))[0])


def _power(x, n: int):
    """x ** n for n >= 1, left to right from the top bit: x ** 1 is x itself,
    and x ** n takes n.bit_length() - 1 squarings and n.bit_count() - 1
    products with x."""
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


_new = object.__new__
_set = object.__setattr__


def _build(cls, ring: "Ring", num: tuple, den: int):
    """A Poly over QQ or a RingElement from numerators and a denominator
    already in canonical form."""
    obj = _new(cls)
    _set(obj, "ring", ring)
    _set(obj, "num", num)
    _set(obj, "den", den)
    return obj


# --------------------------------------------------------------------------
# ring elements
# --------------------------------------------------------------------------

class RingElement:
    """An element of QQ_POLY or QQ_POLY_TRUNC(k); elements of QQ are plain
    Fractions.

    ``num`` is the tuple of integer numerators in ascending powers of x and
    ``den`` their positive common denominator, in lowest terms, without
    trailing zeros and, over QQ_POLY_TRUNC(k), of length at most k.
    ``data`` reads them as Fractions.  Instances are immutable.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, data=()):
        if ring.is_field:
            raise BadInput("QQ elements are Fractions, not ring elements")
        if isinstance(data, (int, Fraction)):
            data = (data,)
        num, den = _from_values(data, ring.trunc)
        _set(self, "ring", ring)
        _set(self, "num", num)
        _set(self, "den", den)

    @staticmethod
    def from_ints(ring: Ring, num: Sequence[int], den: int = 1) -> "RingElement":
        """The element with x-coefficients num[i] / den (den != 0) of ring,
        cut at x^k over QQ_POLY_TRUNC(k) and brought to canonical form."""
        if ring.is_field:
            raise BadInput("QQ elements are Fractions, not ring elements")
        k = ring.trunc
        if k is not None and len(num) > k:
            num = num[:k]
        return _elem(ring, num, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"RingElement is immutable; cannot set {name!r}")

    @property
    def data(self) -> tuple:
        """Coefficients in ascending powers of x, as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    def __eq__(self, other):
        if type(other) is not RingElement:
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.ring == other.ring

    def __hash__(self) -> int:
        return hash((self.ring, self.num, self.den))

    def __repr__(self) -> str:
        return f"RingElement(ring={self.ring!r}, data={self.data!r})"

    def __reduce__(self):
        return RingElement, (self.ring, self.data)

    # -- structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_unit(self) -> bool:
        if self.ring.kind == "QQ_POLY":
            return len(self.num) == 1
        return bool(self.num) and self.num[0] != 0

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "RingElement"):
        if self.ring != other.ring:
            raise RingMismatch(f"cannot mix {self.ring} and {other.ring}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return _elem(self.ring, *_zadd(self.num, self.den, other.num, other.den))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return _elem(self.ring, *_zadd(self.num, self.den, other.num, other.den, -1))

    def __neg__(self) -> "RingElement":
        return _build(RingElement, self.ring, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return RingElement.from_ints(self.ring, _zmul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, q) -> "RingElement":
        if type(q) is not int and type(q) is not Fraction:
            q = _as_fraction(q)
        p = q.numerator
        return _elem(self.ring, [x * p for x in self.num], self.den * q.denominator)

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise BadInput("negative ring-element power")
        return _power(self, n) if n else ring_scalar(self.ring, 1)

    def derivative(self) -> "RingElement":
        """d/dx."""
        a = self.num
        return _elem(self.ring, [a[i] * i for i in range(1, len(a))], self.den)

    def __str__(self) -> str:
        return format_ring_element(self)


_elem = functools.partial(_canonical, RingElement)


def ring_scalar(ring: Ring, value):
    """The rational ``value`` as an element of ``ring``."""
    if ring.is_field:
        return Fraction(value)
    return RingElement(ring, Fraction(value))


def ring_monomial(ring: Ring, n: int, coeff=1) -> RingElement:
    """coeff * x^n in a polynomial coefficient ring."""
    p, q = Fraction(coeff).as_integer_ratio()
    return RingElement.from_ints(ring, [0] * n + [p], q)


def exact_divide(b: RingElement, a: RingElement) -> Optional[RingElement]:
    """Some c with b = a*c in QQ_POLY, or None when no such c exists.

    Dividing zero by zero is ambiguous (every c works) and raises rather
    than guessing.
    """
    if b.ring != a.ring:
        raise RingMismatch(f"cannot mix {b.ring} and {a.ring}")
    ring = a.ring
    if ring.kind != "QQ_POLY":
        raise BadInput("exact division is only defined over QQ_POLY")
    if a.is_zero:
        if b.is_zero:
            raise AmbiguousDivision("0 = 0 * c holds for every c")
        return None
    if b.is_zero:
        return ring_scalar(ring, 0)
    q, r = _qq_divmod(b.den, b.num, a.den, a.num, RingElement, ring)
    return None if r else q


def ring_gcd(*elements: RingElement) -> RingElement:
    """Monic gcd in QQ_POLY, by the primitive remainder sequence on the
    integer numerators of the elements."""
    if not elements:
        raise BadInput("gcd of nothing")
    ring = elements[0].ring
    for e in elements[1:]:
        if e.ring != ring:
            raise RingMismatch("gcd operands in different rings")
    if ring.kind != "QQ_POLY":
        raise BadInput("gcd is only defined over QQ_POLY")
    acc: list[int] = []
    for e in elements:
        acc = _zgcd(acc, list(e.num))
    # a primitive list over its positive leading entry is in lowest terms
    return _build(RingElement, ring, tuple(acc), acc[-1]) if acc else ring_scalar(ring, 0)


# --------------------------------------------------------------------------
# polynomials in t
# --------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial in t over a coefficient ring.

    Over QQ, ``num`` is the tuple of integer numerators and ``den`` their
    positive common denominator, in lowest terms and without trailing zeros;
    ``coeffs`` reads them as Fractions.  Over the other rings ``num`` is the
    tuple of RingElements, ``coeffs`` is ``num`` itself and ``den`` is None.
    Instances are immutable.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, coeffs: Iterable = ()):
        if ring.is_field:
            num, den = _from_values(coeffs)
        else:
            cleaned = [c if isinstance(c, RingElement) else RingElement(ring, c) for c in coeffs]
            if any(c.ring != ring for c in cleaned):
                raise RingMismatch("coefficient from a different ring")
            n = len(cleaned)
            while n and not cleaned[n - 1]:
                n -= 1
            num, den = tuple(cleaned[:n]), None
        _set(self, "ring", ring)
        _set(self, "num", num)
        _set(self, "den", den)

    @staticmethod
    def from_ints(num: Sequence[int], den: int = 1) -> "Poly":
        """The polynomial over QQ with coefficients num[i] / den (den != 0),
        brought to canonical form."""
        return _canonical(Poly, QQ, num, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"Poly is immutable; cannot set {name!r}")

    @property
    def coeffs(self) -> tuple:
        """Coefficients in ascending powers of t: Fractions over QQ."""
        den = self.den
        if den is None:
            return self.num
        return tuple(Fraction(x, den) for x in self.num)

    def __eq__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self) -> int:
        return hash((self.ring, self.num, self.den))

    def __repr__(self) -> str:
        return f"Poly(ring={self.ring!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return Poly, (self.ring, self.coeffs)

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree in t; the zero polynomial reports the sentinel -1."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, i: int):
        if 0 <= i < len(self.num):
            return self.num[i] if self.den is None else Fraction(self.num[i], self.den)
        return ring_scalar(self.ring, 0)

    def lowest_degree(self) -> Optional[int]:
        """Smallest exponent with a nonzero coefficient; None for zero."""
        for i, c in enumerate(self.num):
            if c:
                return i
        return None

    def qq_coeffs(self) -> tuple[Fraction, ...]:
        if self.den is None:
            raise BadInput("rational coefficient view requires ring QQ")
        return self.coeffs

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"cannot mix {self.ring} and {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out, den = _zadd(self.num, self.den, other.num, other.den)
        return _qq(out, den) if den else Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out, den = _zadd(self.num, self.den, other.num, other.den, -1)
        return _qq(out, den) if den else Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        out = tuple(-x for x in self.num)
        return _build(Poly, QQ, out, self.den) if self.den else Poly(self.ring, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.num, other.num
        if self.den is not None:
            return _qq(_zmul(a, b), self.den * other.den)
        if not a or not b:
            return Poly(self.ring, ())
        out = [ring_scalar(self.ring, 0)] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    if cj:
                        out[i + j] = out[i + j] + ci * cj
        return Poly(self.ring, tuple(out))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise BadInput("negative polynomial power")
        return _power(self, n) if n else poly_one(self.ring)

    def scale(self, q) -> "Poly":
        """Multiply every coefficient by q, a rational or a ring element."""
        if self.den is not None:
            if type(q) is not int and type(q) is not Fraction:
                q = _as_fraction(q)
            p = q.numerator
            return _qq([x * p for x in self.num], self.den * q.denominator)
        if not isinstance(q, RingElement):
            q = Fraction(q)
        return Poly(self.ring, tuple(c * q for c in self.num))

    def derivative(self) -> "Poly":
        """d/dt."""
        a = self.num
        out = [a[i] * i for i in range(1, len(a))]
        return _qq(out, self.den) if self.den else Poly(self.ring, out)

    def evaluate(self, point: Fraction) -> Fraction:
        if self.den is None:
            raise BadInput("evaluation at a rational point requires ring QQ")
        if not self.num:
            return _F0
        # sum a_i p^i q^(n-i) over den q^n for point = p / q, by Horner
        point = Fraction(point)
        p, q = point.numerator, point.denominator
        acc, qk = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, self.den * (qk // q))

    def scale_argument(self, a) -> "Poly":
        """p(t) -> p(a*t) for a in the coefficient ring."""
        if isinstance(a, RingElement) and a.ring != self.ring:
            raise RingMismatch("scaling element from a different ring")
        if self.den is not None:
            # coefficient i times a^i, over the common denominator q^n of a = p / q
            a = _as_fraction(a)
            p, q = a.numerator, a.denominator
            out = list(self.num)
            pk = 1
            for i in range(len(out)):
                out[i] *= pk
                pk *= p
            qk = 1
            for i in range(len(out) - 1, -1, -1):
                out[i] *= qk
                qk *= q
            return _qq(out, self.den * (qk // q))
        out = []
        apow = ring_scalar(self.ring, 1)
        for c in self.num:
            out.append(c * apow)
            apow = apow * a
        return Poly(self.ring, tuple(out))

    def monic(self) -> "Poly":
        if self.den is None:
            raise BadInput("monic normalization requires ring QQ")
        if not self.num:
            raise ZeroInput("cannot normalize the zero polynomial")
        lead = self.num[-1]
        if lead == self.den:
            return self  # Poly is immutable, so sharing it is safe
        return _qq(self.num, lead)

    def __str__(self) -> str:
        return format_poly(self)


_qq = functools.partial(_canonical, Poly, QQ)


def _as_fraction(value) -> Fraction:
    """A QQ coefficient from any value Fraction() accepts; ring elements belong elsewhere."""
    if isinstance(value, RingElement):
        raise RingMismatch("coefficient from a different ring")
    return Fraction(value)


def qq_poly(coeffs: Iterable) -> Poly:
    """Polynomial over QQ from ascending rational coefficients."""
    return Poly(QQ, coeffs)


def poly_zero(ring: Ring = QQ) -> Poly:
    return Poly(ring, ())


def poly_one(ring: Ring = QQ) -> Poly:
    if ring.is_field:
        return _build(Poly, QQ, (1,), 1)
    return Poly(ring, (ring_scalar(ring, 1),))


def t_monomial(ring: Ring, n: int, coeff=1) -> Poly:
    if n < 0:
        raise BadInput("negative exponent")
    if ring.is_field and type(coeff) is int:
        return _qq([0] * n + [coeff], 1)
    c = coeff if isinstance(coeff, RingElement) else ring_scalar(ring, coeff)
    return Poly(ring, (ring_scalar(ring, 0),) * n + (c,))


# --------------------------------------------------------------------------
# Euclidean division, gcds, squarefree parts (field coefficients)
# --------------------------------------------------------------------------

def euclid_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """(q, r) with f = q*g + r and deg r < deg g, over QQ."""
    if f.ring != g.ring:
        raise RingMismatch("operands in different rings")
    if not f.ring.is_field:
        raise BadInput("Euclidean division needs field coefficients")
    if g.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    if f.degree < g.degree:
        return poly_zero(f.ring), f
    return _qq_divmod(f.den, f.num, g.den, g.num, Poly, QQ)


def poly_divides(d: Poly, f: Poly) -> bool:
    if d.is_zero:
        return f.is_zero
    return euclid_divmod(f, d)[1].is_zero


def squarefree_part(value):
    """Squarefree part a / gcd(a, a'), made monic.

    Accepts a Poly over QQ or a RingElement over QQ_POLY; both run the
    primitive remainder sequence on their integer numerators.  Membership
    in the radical of the principal ideal (a) is exactly divisibility by
    the squarefree part (characteristic zero).
    """
    if not isinstance(value, (Poly, RingElement)):
        raise BadInput("unsupported operand for squarefree part")
    if isinstance(value, Poly) and not value.ring.is_field:
        raise BadInput("squarefree part of a t-polynomial requires ring QQ")
    if value.is_zero:
        raise ZeroInput("squarefree part of zero")
    if isinstance(value, RingElement) and value.ring.kind != "QQ_POLY":
        raise BadInput("squarefree part requires QQ or QQ_POLY")
    s = _zsquarefree(list(value.num))
    # a primitive list over its positive leading entry is in lowest terms
    return _build(type(value), value.ring, tuple(s), s[-1])


# --------------------------------------------------------------------------
# parsing and printing
# --------------------------------------------------------------------------

# any character outside the alphabet; it is reported before any grammar error.
# Every pattern is ASCII, as in parse_rational: a digit is 0-9 and a space is
# one of " \t\n\r\f\v", so '٣', '３' and U+2003 are unexpected characters
_BAD_CHAR = re.compile(r"[^\s\dxt^*/+-]", re.ASCII)
# one term at the cursor: sign, numerator, denominator, '*', then the factors
# [xt] ('^' INT)? joined only by '*'.  A '/' or '^' without digits still
# matches, with empty digits, so that the error can name what follows it.
_TERM = re.compile(r"""\s*([+-]?)\s*(?:(\d+)\s*(?:/\s*(\d*)\s*)?(\*?)\s*)?
    ((?:[xt]\s*(?:\^\s*\d*\s*)?(?:\*\s*[xt]\s*(?:\^\s*\d*\s*)?)*)?)""", re.X | re.ASCII)
_FACTOR = re.compile(r"([xt])\s*(?:\^\s*(\d*))?", re.ASCII)
# the token at a position: a digit run, one character, or '' at the end
_NEXT = re.compile(r"\s*(\d+|\S?)", re.ASCII)


def _expected(what: str, text: str, pos: int):
    tok = _NEXT.match(text, pos)
    raise ParseError(f"expected {what}, found {tok[1]!r}", tok.start(1))


def _integer(digits: str, pos: int) -> int:
    """int(digits) for the ASCII digits read at pos; BadInput past the
    limit of sys.get_int_max_str_digits() digits, which int() refuses."""
    try:
        return int(digits)
    except ValueError:
        raise BadInput(f"integer above the limit of {sys.get_int_max_str_digits()} digits "
                       f"(at position {pos})") from None


def _read_term(text: str, m, ring: Ring) -> tuple[int, int, int, int]:
    """(t exponent, x exponent, numerator, denominator) of the term that m
    matched, checked in reading order."""
    sign, num, den, star, run = m.groups()
    if num is None:
        if not run:
            _expected("a term", text, m.end(1))
        num, den = 1, 1
    else:
        num = _integer(num, m.start(2))
        if den == "":
            _expected("INT", text, m.end(3))
        den = 1 if den is None else _integer(den, m.start(3))
        if den == 0:
            raise ParseError("zero denominator", m.start(3))
        if star and not run:
            raise ParseError("expected a variable after '*'", _NEXT.match(text, m.end(4)).start(1))
    exps = {}
    for f in _FACTOR.finditer(text, m.start(5), m.end(5)):
        name, digits = f.groups()
        if name in exps:
            raise ParseError(f"variable {name!r} repeated in a term", f.start())
        if name == "x" and ring.kind == "QQ":
            raise ParseError("coefficient variable x is not allowed over QQ", f.start())
        if digits == "":
            _expected("INT", text, f.end())
        # compare the digits before converting, so that no huge integer is built
        digits = (digits or "1").lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise BadInput(f"exponent above the limit {MAX_EXPONENT} (at position {f.start(2)})")
        exps[name] = int(digits)
    return exps.get("t", 0), exps.get("x", 0), -num if sign == "-" else num, den


def _sum_terms(terms, ring: Ring) -> Poly:
    """The polynomial of the terms; each coefficient is summed as integers
    over the lcm of its terms' denominators, and no Fraction is built."""
    top = max(te for te, _, _, _ in terms)
    if ring.kind == "QQ":
        den = math.lcm(*(d for _, _, _, d in terms))
        num = [0] * (top + 1)
        for te, _, n, d in terms:
            num[te] += n * (den // d)
        return _qq(num, den)
    parts: dict[int, list] = {}
    for te, xe, n, d in terms:
        parts.setdefault(te, []).append((xe, n, d))
    coeffs = []
    for te in range(top + 1):
        here = parts.get(te, ())
        den = math.lcm(*(d for _, _, d in here))
        num = [0] * (max((xe for xe, _, _ in here), default=-1) + 1)
        for xe, n, d in here:
            num[xe] += n * (den // d)
        coeffs.append(RingElement.from_ints(ring, num, den))
    return Poly(ring, coeffs)


def parse_poly(text: str, ring: Ring = QQ) -> Poly:
    """Parse the polynomial grammar one term at a time; raises ParseError
    with a position, and BadInput with a position for an exponent above
    MAX_EXPONENT or an integer of more digits than int() converts."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    m = _TERM.match(text)
    terms = [_read_term(text, m, ring)]
    # every later term starts with its sign
    while (m := _TERM.match(text, m.end()))[1]:
        terms.append(_read_term(text, m, ring))
    if m.end(1) < len(text):
        _expected("END", text, m.end(1))
    return _sum_terms(terms, ring)


def parse_ring_element(text: str, ring: Ring) -> RingElement:
    poly = parse_poly(text, ring)
    if poly.degree > 0:
        raise ParseError("expected a coefficient-ring element without t", 0)
    return poly.coeff(0)


# Fraction's literal grammar without underscores, exponents or non-ASCII
# digits and spaces: an exponent lets a few characters such as '1e10000000'
# build an integer of millions of digits
_RATIONAL = re.compile(r"\s*([-+]?)(?=[0-9]|\.[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?\s*",
                       re.ASCII)


def _read_rational(text: str) -> tuple[int, int]:
    """(p, q) in lowest terms, q > 0, for the text that `parse_rational`
    reads; BadInput for anything else."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise BadInput(f"bad rational literal {text!r}")
    sign, whole, den, frac = m.groups()
    try:
        # int() refuses more digits than sys.get_int_max_str_digits()
        num = int(whole) if whole else 0
        if den:
            den = int(den)
        elif frac:
            den = 10 ** len(frac)
            num = num * den + int(frac)
        else:
            den = 1
    except ValueError as exc:
        raise BadInput(f"bad rational literal {text!r}") from exc
    if not den:
        raise BadInput(f"bad rational literal {text!r}")
    g = math.gcd(num, den)
    return (-num if sign == "-" else num) // g, den // g


def parse_rational(text: str) -> Fraction:
    """An integer, p/q or plain decimal literal in ASCII, with optional
    sign and surrounding whitespace; anything else raises BadInput."""
    return Fraction(*_read_rational(text))


_EXPONENT = re.compile(r"\s*([0-9]+)\s*", re.ASCII)


def parse_exponent(text: str, message: str) -> int:
    """A non-negative ASCII integer with optional surrounding whitespace, else
    BadInput(message); int() alone would also read a sign, '1_0' and '٣'."""
    m = _EXPONENT.fullmatch(text)
    if m is None:
        raise BadInput(message)
    try:
        return int(m.group(1))
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise BadInput(message) from exc


def parse_key_values(text: str, what: str, sep: str = ",") -> dict[str, str]:
    """The ``key=value`` pieces of ``text`` split at ``sep``; empty pieces are
    skipped, and a key given twice is refused."""
    args = {}
    for piece in text.split(sep):
        piece = piece.strip()
        if not piece:
            continue
        key, eq, val = piece.partition("=")
        key = key.strip()
        if not eq:
            raise BadInput(f"bad {what} argument {piece!r}")
        if key in args:
            raise BadInput(f"repeated {what} argument {key!r}")
        args[key] = val.strip()
    return args


def _decimal(n: int) -> str:
    """The digits of n.  Python refuses to convert an int of more than
    sys.get_int_max_str_digits() digits, to guard parsers against huge input
    text; printed results are exact and exempt, while parsing keeps the
    guard.  Every printed coefficient and rational goes through here."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def _magnitude(n: int, d: int) -> str:
    """|n / d| in lowest terms, as str(Fraction) writes it."""
    g = math.gcd(n, d)
    n, d = _decimal(abs(n) // g), d // g
    return n if d == 1 else f"{n}/{_decimal(d)}"


def _ratio_text(n: int, d: int) -> str:
    """n / d (d > 0) as str(Fraction(n, d)) writes it, at any size."""
    return ("-" if n < 0 else "") + _magnitude(n, d)


def format_rational(x: Fraction) -> str:
    """x as str(Fraction) writes it, at any size."""
    return _ratio_text(x.numerator, x.denominator)


def _term_strings(p: Poly):
    """Yield (magnitude text, x_exp, t_exp, negative) in canonical order."""
    for te in range(p.degree, -1, -1):
        c = p.num[te]
        if not c:
            continue
        if p.den is not None:
            yield _magnitude(c, p.den), 0, te, c < 0
        else:
            for xe in range(len(c.num) - 1, -1, -1):
                v = c.num[xe]
                if v:
                    yield _magnitude(v, c.den), xe, te, v < 0


def _render_term(mag: str, xe: int, te: int) -> str:
    parts = []
    if xe:
        parts.append("x" if xe == 1 else f"x^{xe}")
    if te:
        parts.append("t" if te == 1 else f"t^{te}")
    if not parts or mag != "1":
        parts.insert(0, mag)
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical rendering; parse_poly(format_poly(p), p.ring) == p."""
    pieces = []
    for mag, xe, te, neg in _term_strings(p):
        body = _render_term(mag, xe, te)
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces) if pieces else "0"


def format_ring_element(e: RingElement) -> str:
    return format_poly(Poly(e.ring, (e,)))
