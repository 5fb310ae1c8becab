"""The Fraction polynomial kernels of the earlier corealg module, kept
verbatim as an independent oracle for the integer-numerator ``Poly``: a
``Poly`` whose coefficients are a tuple of Fractions, its arithmetic,
``euclid_divmod`` through the Fraction or monic-integer long division
``_tdivmod``, the Euclidean gcd ``_tgcd`` behind ``poly_gcd``,
``squarefree_part`` and ``ring_gcd``, ``poly_xgcd``, the parser and
printer that build and read Fraction coefficients, the Fraction-tuple
helpers ``_strip`` and ``_tderiv`` they use, and ``stopped_convolution``,
the integer product that stops after k entries, against which a product
over QQ_POLY_TRUNC(k), a full convolution cut at x^k, is checked."""

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from mathieulab.corealg import QQ, Ring, RingElement, ring_scalar
from mathieulab.errors import BadInput, DivisionByZero, ParseError, RingMismatch, ZeroInput

_F0 = Fraction(0)
_F1 = Fraction(1)


def _strip(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _tderiv(a):
    return _strip([a[i] * i for i in range(1, len(a))])


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


def stopped_convolution(a, b, limit):
    """The product of two integer lists, stopped after the first ``limit``
    entries: no product past x^(limit-1) is formed."""
    if not a or not b:
        return []
    n = min(len(a) + len(b) - 1, limit)
    a = a[:n]
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b if n - i >= len(b) else b[:n - i], i):
                out[j] += ai * bj
    return out


def _tgcd(a, b):
    """Monic gcd of x-polynomial tuples."""
    while b:
        a, b = b, _tdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(v / lead for v in a)
    return a


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


# ASCII digits and spaces only: any other character is unexpected
_TOKEN_RE = re.compile(r"(\d+)|([xt])|(\^)|(\*)|(/)|(\+)|(-)|(\S)", re.ASCII)


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
