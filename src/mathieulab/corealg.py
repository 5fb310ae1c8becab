"""Exact-arithmetic foundation: rationals, coefficient rings, dense polynomials.

The main variable is always ``t``.  Coefficients live in one of three rings:

* ``QQ`` — arbitrary-precision rationals;
* ``QQ_POLY`` — polynomials in a second variable ``x`` over the rationals
  (a UFD with computable gcd);
* ``QQ_POLY_TRUNC(k)`` — ``x``-polynomials truncated modulo x^k, a
  finite-dimensional ring with nilpotents.

A coefficient is a ``fractions.Fraction`` over QQ and a ``RingElement``
otherwise.  Both support ``+``, ``-``, ``*`` and truth value, which is all
``Poly`` uses of them outside its QQ-only methods.

Every value is immutable and every operation exact; there is no floating
point anywhere.  The canonical zero polynomial has an empty coefficient
tuple and degree -1 (the distinguished sentinel); all operations branch on
it explicitly.

Two integer kernels carry the rational arithmetic; both are exact and
return the same canonical Fractions as the schoolbook loops on Fractions.
Every product of rational coefficient lists (``Poly`` over QQ and
``RingElement`` alike) is one convolution of integer numerators over the two
common denominators.  Long division runs on integers when the divisor is
monic with integer coefficients: the numerator is scaled to a common
denominator, and no step divides.  Any other divisor keeps the loop on
Fractions, which stays cheaper there when the numerator has many distinct
denominators.

Text format (whitespace-insensitive)::

    poly := ['-'] term (('+'|'-') term)* ;  term := coeff ('*'? mono)? | mono ;
    mono := 'x' ('^' uint)? ('*' 't' ('^' uint)?)? | 't' ('^' uint)? ;
    coeff := int ('/' uint)? .

Canonical printing uses descending powers of t, lowest-terms coefficients,
'^' exponents and no unary '+'.
"""

from __future__ import annotations

import math
import re
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

Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


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
# dense tuple arithmetic for the x-polynomials backing QQ_POLY / trunc rings
# --------------------------------------------------------------------------

def _strip(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _tadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _strip(out)


def _tneg(a):
    return tuple(-v for v in a)


def _tdivmod(num, den):
    """Long division of x-polynomial tuples over the rationals.

    A monic divisor with integer coefficients divides the integer numerators
    of num over their common denominator, so no step divides; any other
    divisor runs the loop on Fractions.
    """
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return (), _strip(num)
    if den[-1] == 1 and all(c.denominator == 1 for c in den):
        return _zdivmod(num, [c.numerator for c in den])
    num = list(num)
    lead = den[-1]
    q = [_F0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            c = c / lead
            q[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    return _strip(q), _strip(num)


def _zdivmod(num, den):
    """_tdivmod for a monic integer divisor den (ints): with num = N/dn over
    the common denominator dn, N = Q*den + R on the integers, so q = Q/dn and
    r = R/dn."""
    dn = math.lcm(*(c.denominator for c in num))
    n = [c.numerator * (dn // c.denominator) for c in num]
    dd = len(den) - 1
    terms = [(j, c) for j, c in enumerate(den[:dd]) if c]
    q = [0] * (len(n) - dd)
    for k in range(len(n) - 1, dd - 1, -1):
        c = n[k]
        if c:
            base = k - dd
            q[base] = c
            for j, dj in terms:
                n[base + j] -= c * dj
    return (_strip([Fraction(c, dn) for c in q]),
            _strip([Fraction(c, dn) for c in n[:dd]]))


def _tgcd(a, b):
    """Monic gcd of x-polynomial tuples."""
    while b:
        a, b = b, _tdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(v / lead for v in a)
    return a


def _tderiv(a):
    return _strip([a[i] * i for i in range(1, len(a))])


# --------------------------------------------------------------------------
# ring elements
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RingElement:
    """An element of QQ_POLY or QQ_POLY_TRUNC(k): a stripped tuple of Fractions
    in ascending powers of x.  Elements of QQ are plain Fractions."""

    ring: Ring
    data: tuple

    def __post_init__(self):
        if self.ring.is_field:
            raise BadInput("QQ elements are Fractions, not ring elements")
        raw = self.data
        if isinstance(raw, (int, Fraction)):
            raw = (raw,)
        # Arithmetic hands over coefficients that are already Fractions; only
        # other values are converted, since a Fraction(...) copy is the
        # dominant cost of building an element.
        coeffs = [v if type(v) is Fraction else Fraction(v) for v in raw]
        if self.ring.kind == "QQ_POLY_TRUNC":
            coeffs = coeffs[: self.ring.trunc]
        object.__setattr__(self, "data", _strip(coeffs))

    # -- structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.data)

    @property
    def is_zero(self) -> bool:
        return not self.data

    @property
    def is_unit(self) -> bool:
        if self.ring.kind == "QQ_POLY":
            return len(self.data) == 1
        return bool(self.data) and self.data[0] != 0

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "RingElement"):
        if self.ring != other.ring:
            raise RingMismatch(f"cannot mix {self.ring} and {other.ring}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, _tadd(self.data, other.data))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, _tneg(self.data))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return RingElement(self.ring, _qq_convolve(self.data, other.data, self.ring.trunc))

    __rmul__ = __mul__

    def scale(self, q: Fraction) -> "RingElement":
        q = Fraction(q)
        return RingElement(self.ring, tuple(v * q for v in self.data))

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise BadInput("negative ring-element power")
        out = ring_scalar(self.ring, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "RingElement":
        """d/dx."""
        return RingElement(self.ring, _tderiv(self.data))

    def __str__(self) -> str:
        return format_ring_element(self)


def ring_scalar(ring: Ring, value):
    """The rational ``value`` as an element of ``ring``."""
    if ring.is_field:
        return Fraction(value)
    return RingElement(ring, Fraction(value))


def ring_monomial(ring: Ring, n: int, coeff=1) -> RingElement:
    """coeff * x^n in a polynomial coefficient ring."""
    return RingElement(ring, (_F0,) * n + (Fraction(coeff),))


def exact_divide(b: RingElement, a: RingElement) -> Optional[RingElement]:
    """Some c with b = a*c, or None when no such c exists in the ring.

    In QQ_POLY_TRUNC the solution need not be unique; the minimal-degree
    one is returned.  Dividing zero by zero is ambiguous (every c works)
    and raises rather than guessing.
    """
    if b.ring != a.ring:
        raise RingMismatch(f"cannot mix {b.ring} and {a.ring}")
    ring = a.ring
    if a.is_zero:
        if b.is_zero:
            raise AmbiguousDivision("0 = 0 * c holds for every c")
        return None
    if b.is_zero:
        return ring_scalar(ring, 0)
    if ring.kind == "QQ_POLY":
        q, r = _tdivmod(b.data, a.data)
        return RingElement(ring, q) if not r else None
    # truncated ring: forward-substitute past the x-adic valuation of a
    k = ring.trunc
    av = a.data
    v = next(i for i, c in enumerate(av) if c != 0)
    bv = b.data
    if any(c != 0 for c in bv[:v]):
        return None
    lead = av[v]
    width = k - v
    c = [_F0] * width
    for j in range(width):
        target = bv[v + j] if v + j < len(bv) else _F0
        acc = sum(av[v + i] * c[j - i] for i in range(1, j + 1) if v + i < len(av))
        c[j] = (target - acc) / lead
    cand = RingElement(ring, tuple(c))
    return cand if (a * cand).data == b.data else None


def ring_gcd(*elements: RingElement) -> RingElement:
    """Monic gcd in QQ_POLY."""
    if not elements:
        raise BadInput("gcd of nothing")
    ring = elements[0].ring
    for e in elements[1:]:
        if e.ring != ring:
            raise RingMismatch("gcd operands in different rings")
    if ring.kind != "QQ_POLY":
        raise BadInput("gcd is only defined over QQ_POLY")
    acc = ()
    for e in elements:
        acc = _tgcd(acc, e.data)
    return RingElement(ring, acc)


# --------------------------------------------------------------------------
# polynomials in t
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Poly:
    """Dense univariate polynomial in t over a coefficient ring."""

    ring: Ring
    coeffs: tuple  # Fraction over QQ, RingElement otherwise; no trailing zeros

    def __post_init__(self):
        ring = self.ring
        if ring.is_field:
            cleaned = [c if type(c) is Fraction else _as_fraction(c) for c in self.coeffs]
        else:
            cleaned = [c if isinstance(c, RingElement) else RingElement(ring, c)
                       for c in self.coeffs]
            if any(c.ring != ring for c in cleaned):
                raise RingMismatch("coefficient from a different ring")
        n = len(cleaned)
        while n and not cleaned[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(cleaned[:n]))

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree in t; the zero polynomial reports the sentinel -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ring_scalar(self.ring, 0)

    def leading(self):
        if self.is_zero:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def lowest_degree(self) -> Optional[int]:
        """Smallest exponent with a nonzero coefficient; None for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def qq_coeffs(self) -> tuple[Fraction, ...]:
        if self.ring.kind != "QQ":
            raise BadInput("rational coefficient view requires ring QQ")
        return self.coeffs

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatch(f"cannot mix {self.ring} and {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return Poly(self.ring, tuple(out))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly(self.ring, ())
        if self.ring.kind == "QQ":
            return Poly(self.ring, tuple(_qq_convolve(self.coeffs, other.coeffs)))
        out = [ring_scalar(self.ring, 0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    if cj:
                        out[i + j] = out[i + j] + ci * cj
        return Poly(self.ring, tuple(out))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise BadInput("negative polynomial power")
        if n == 0:
            return poly_one(self.ring)
        # left to right from the top bit: p ** 1 is p itself, and p ** n takes
        # n.bit_length() - 1 squarings and n.bit_count() - 1 products with p
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def scale(self, q) -> "Poly":
        """Multiply every coefficient by q, a rational or a ring element."""
        if not isinstance(q, RingElement):
            q = Fraction(q)
        return Poly(self.ring, tuple(c * q for c in self.coeffs))

    def derivative(self) -> "Poly":
        """d/dt."""
        return Poly(self.ring, tuple(self.coeffs[i] * i for i in range(1, len(self.coeffs))))

    def evaluate(self, point: Fraction) -> Fraction:
        if self.ring.kind != "QQ":
            raise BadInput("evaluation at a rational point requires ring QQ")
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def scale_argument(self, a) -> "Poly":
        """p(t) -> p(a*t) for a in the coefficient ring."""
        if isinstance(a, RingElement) and a.ring != self.ring:
            raise RingMismatch("scaling element from a different ring")
        out = []
        apow = ring_scalar(self.ring, 1)
        for c in self.coeffs:
            out.append(c * apow)
            apow = apow * a
        return Poly(self.ring, tuple(out))

    def monic(self) -> "Poly":
        if self.ring.kind != "QQ":
            raise BadInput("monic normalization requires ring QQ")
        if self.is_zero:
            raise ZeroInput("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self  # Poly is frozen, so sharing it is safe
        return self.scale(_F1 / self.coeffs[-1])

    def __str__(self) -> str:
        return format_poly(self)


def _as_fraction(value) -> Fraction:
    """A QQ coefficient from any value Fraction() accepts; ring elements belong elsewhere."""
    if isinstance(value, RingElement):
        raise RingMismatch("coefficient from a different ring")
    return Fraction(value)


def _qq_convolve(fa: Sequence[Fraction], fb: Sequence[Fraction],
                 limit: Optional[int] = None) -> list[Fraction]:
    """Convolution over QQ via integer scaling (big-int multiplies are cheap),
    stopped after the first limit coefficients when a limit is given."""
    if not fa or not fb:
        return []
    la = math.lcm(*(f.denominator for f in fa))
    lb = math.lcm(*(f.denominator for f in fb))
    a = [f.numerator * (la // f.denominator) for f in fa]
    b = [f.numerator * (lb // f.denominator) for f in fb]
    n = len(a) + len(b) - 1
    n = n if limit is None else min(n, limit)
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i], i):
                out[j] += ai * bj
    scale = la * lb
    return [Fraction(c, scale) for c in out]


def qq_poly(coeffs: Iterable) -> Poly:
    """Polynomial over QQ from ascending rational coefficients."""
    return Poly(QQ, tuple(coeffs))


def poly_zero(ring: Ring = QQ) -> Poly:
    return Poly(ring, ())


def poly_one(ring: Ring = QQ) -> Poly:
    return Poly(ring, (ring_scalar(ring, 1),))


def poly_t(ring: Ring = QQ) -> Poly:
    return t_monomial(ring, 1)


def t_monomial(ring: Ring, n: int, coeff=1) -> Poly:
    if n < 0:
        raise BadInput("negative exponent")
    c = coeff if isinstance(coeff, RingElement) else ring_scalar(ring, coeff)
    return Poly(ring, (ring_scalar(ring, 0),) * n + (c,))


def poly_arith(op: str, f: Poly, g) -> Poly:
    """Dispatcher over {add, sub, mul, pow}; pow takes an integer exponent."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    if op == "pow":
        if not isinstance(g, int) or g < 0:
            raise BadInput("pow needs a non-negative integer exponent")
        return f ** g
    raise BadInput(f"unknown operation {op!r}")


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
    q, r = _tdivmod(f.qq_coeffs(), g.qq_coeffs())
    return qq_poly(q), qq_poly(r)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over QQ."""
    if f.ring != g.ring:
        raise RingMismatch("operands in different rings")
    return qq_poly(_tgcd(f.qq_coeffs(), g.qq_coeffs()))


def poly_xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with u*f + v*g = d, d the monic gcd (over QQ).

    The loop carries u alone; v = (d - u*f) / g is one exact division at
    the end (v = 0 when g = 0).
    """
    ring = f.ring
    r0, r1 = f, g
    s0, s1 = poly_one(ring), poly_zero(ring)
    while not r1.is_zero:
        q, r = euclid_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if not r0.is_zero:
        lead = _F1 / r0.leading()
        r0, s0 = r0.scale(lead), s0.scale(lead)
    v = poly_zero(ring) if g.is_zero else euclid_divmod(r0 - s0 * f, g)[0]
    return r0, s0, v


def poly_divides(d: Poly, f: Poly) -> bool:
    if d.is_zero:
        return f.is_zero
    return euclid_divmod(f, d)[1].is_zero


def squarefree_part(value):
    """Squarefree part a / gcd(a, a'), made monic.

    Accepts a Poly over QQ or a RingElement over QQ_POLY.  Membership
    in the radical of the principal ideal (a) is exactly divisibility by
    the squarefree part (characteristic zero).
    """
    if not isinstance(value, (Poly, RingElement)):
        raise BadInput("unsupported operand for squarefree part")
    if isinstance(value, Poly) and not value.ring.is_field:
        raise BadInput("squarefree part of a t-polynomial requires ring QQ")
    if value.is_zero:
        raise ZeroInput("squarefree part of zero")
    if isinstance(value, Poly):
        data = value.qq_coeffs()
    elif value.ring.kind == "QQ_POLY":
        data = value.data
    else:
        raise BadInput("squarefree part requires QQ or QQ_POLY")
    q = _tdivmod(data, _tgcd(data, _tderiv(data)))[0]
    q = tuple(v / q[-1] for v in q)
    return qq_poly(q) if isinstance(value, Poly) else RingElement(value.ring, q)


# --------------------------------------------------------------------------
# parsing and printing
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([xt])|(\^)|(\*)|(/)|(\+)|(-)|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.group(1):
            tokens.append(("INT", m.group(1), pos))
        elif m.group(2):
            tokens.append(("VAR", m.group(2), pos))
        elif m.group(3):
            tokens.append(("CARET", "^", pos))
        elif m.group(4):
            tokens.append(("STAR", "*", pos))
        elif m.group(5):
            tokens.append(("SLASH", "/", pos))
        elif m.group(6):
            tokens.append(("PLUS", "+", pos))
        elif m.group(7):
            tokens.append(("MINUS", "-", pos))
        else:
            raise ParseError(f"unexpected character {m.group(8)!r}", pos)
    tokens.append(("END", "", len(text)))
    return tokens


class _PolyParser:
    def __init__(self, text: str, ring: Ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> Poly:
        terms: dict[int, list] = {}
        sign = 1
        kind, _, _ = self.peek()
        if kind in ("PLUS", "MINUS"):
            sign = -1 if kind == "MINUS" else 1
            self.take()
        self.term(terms, sign)
        while self.peek()[0] in ("PLUS", "MINUS"):
            sign = -1 if self.take()[0] == "MINUS" else 1
            self.term(terms, sign)
        self.take("END")
        return self.build(terms)

    def exponent(self) -> int:
        if self.peek()[0] == "CARET":
            self.take()
            return int(self.take("INT")[1])
        return 1

    def term(self, terms, sign):
        coeff = None
        kind, _, pos = self.peek()
        if kind == "INT":
            num = int(self.take()[1])
            if self.peek()[0] == "SLASH":
                self.take()
                den_tok = self.take("INT")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            if self.peek()[0] == "STAR":
                self.take()
                if self.peek()[0] != "VAR":
                    tok = self.peek()
                    raise ParseError("expected a variable after '*'", tok[2])
        x_exp = 0
        t_exp = 0
        seen = set()
        while self.peek()[0] == "VAR":
            name_tok = self.take()
            name = name_tok[1]
            if name in seen:
                raise ParseError(f"variable {name!r} repeated in a term", name_tok[2])
            seen.add(name)
            if name == "x" and self.ring.kind == "QQ":
                raise ParseError("coefficient variable x is not allowed over QQ", name_tok[2])
            e = self.exponent()
            if name == "x":
                x_exp = e
            else:
                t_exp = e
            if self.peek()[0] == "STAR" and self.tokens[self.i + 1][0] == "VAR":
                self.take()
                continue
            break
        if coeff is None and not seen:
            kind, text, pos = self.peek()
            raise ParseError(f"expected a term, found {text!r}", pos)
        if coeff is None:
            coeff = _F1
        coeff *= sign
        terms.setdefault(t_exp, []).append((x_exp, coeff))

    def build(self, terms) -> Poly:
        if not terms:
            return poly_zero(self.ring)
        top = max(terms)
        coeffs = []
        for te in range(top + 1):
            parts = terms.get(te, [])
            if self.ring.kind == "QQ":
                coeffs.append(sum((c for _, c in parts), _F0))
            else:
                width = max((xe for xe, _ in parts), default=-1) + 1
                data = [_F0] * width
                for xe, c in parts:
                    data[xe] += c
                coeffs.append(RingElement(self.ring, tuple(data)))
        return Poly(self.ring, tuple(coeffs))


def parse_poly(text: str, ring: Ring = QQ) -> Poly:
    """Parse the polynomial grammar; raises ParseError with a position."""
    return _PolyParser(text, ring).parse()


def parse_ring_element(text: str, ring: Ring) -> RingElement:
    poly = parse_poly(text, ring)
    if poly.degree > 0:
        raise ParseError("expected a coefficient-ring element without t", 0)
    return poly.coeff(0)


def parse_rational(text: str) -> Fraction:
    """An integer, p/q or plain decimal literal.  Exponent notation is
    refused: a few characters such as '1e10000000' would build an integer
    of millions of digits."""
    if "e" in text or "E" in text:
        raise BadInput(f"bad rational literal {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput(f"bad rational literal {text!r}") from exc


def parse_key_values(text: str, what: str, sep: str = ",") -> dict[str, str]:
    """The ``key=value`` pieces of ``text`` split at ``sep``; empty pieces are skipped."""
    args = {}
    for piece in text.split(sep):
        piece = piece.strip()
        if not piece:
            continue
        key, eq, val = piece.partition("=")
        if not eq:
            raise BadInput(f"bad {what} argument {piece!r}")
        args[key.strip()] = val.strip()
    return args


def _term_strings(p: Poly):
    """Yield (magnitude, x_exp, t_exp, negative) in canonical order."""
    for te in range(p.degree, -1, -1):
        c = p.coeffs[te]
        if not c:
            continue
        if p.ring.kind == "QQ":
            yield abs(c), 0, te, c < 0
        else:
            for xe in range(len(c.data) - 1, -1, -1):
                v = c.data[xe]
                if v:
                    yield abs(v), xe, te, v < 0


def _render_term(mag: Fraction, xe: int, te: int) -> str:
    parts = []
    if xe:
        parts.append("x" if xe == 1 else f"x^{xe}")
    if te:
        parts.append("t" if te == 1 else f"t^{te}")
    if not parts or mag != 1:
        parts.insert(0, str(mag))
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
