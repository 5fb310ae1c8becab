"""Core arithmetic: worked examples plus randomized algebraic laws."""

import collections
import copy
import math
import pickle
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import corealg_oracle
from mathieulab.corealg import (
    MAX_EXPONENT,
    Poly,
    QQ,
    QQ_POLY,
    RingElement,
    _zgcd,
    _zmul,
    _zxgcd,
    clear_denominators,
    euclid_divmod,
    exact_divide,
    format_poly,
    parse_poly,
    parse_rational,
    parse_ring_element,
    poly_one,
    poly_zero,
    qq_poly,
    qq_poly_trunc,
    ring_gcd,
    ring_monomial,
    ring_scalar,
    squarefree_part,
    t_monomial,
)
from mathieulab.errors import (
    AlgebraError,
    AmbiguousDivision,
    BadInput,
    DivisionByZero,
    ParseError,
    RingMismatch,
    ZeroInput,
)

TRUNC3 = qq_poly_trunc(3)
TRUNC5 = qq_poly_trunc(5)


def rand_fraction(rng, height=9):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_qq(rng, max_deg=6, height=9):
    return qq_poly([rand_fraction(rng, height) for _ in range(rng.randint(0, max_deg + 1))])


def rand_element(rng, ring, max_deg=3, height=5):
    if ring.kind == "QQ":
        return ring_scalar(ring, rand_fraction(rng, height))
    data = [rand_fraction(rng, height) for _ in range(rng.randint(0, max_deg + 1))]
    return RingElement(ring, tuple(data))


def rand_poly(rng, ring, max_deg=4, coeff_deg=3, height=5):
    coeffs = [rand_element(rng, ring, coeff_deg, height) for _ in range(rng.randint(0, max_deg + 1))]
    return Poly(ring, tuple(coeffs))


# -- parsing and printing ----------------------------------------------------

def test_parse_examples():
    assert parse_poly("3/2*t^2 - t + 1").qq_coeffs() == (Fraction(1), Fraction(-1), Fraction(3, 2))
    assert parse_poly("t^3").qq_coeffs() == (0, 0, 0, 1)
    p = parse_poly("x^2*t - 1", QQ_POLY)
    assert p.coeff(0) == ring_scalar(QQ_POLY, -1)
    assert p.coeff(1) == ring_monomial(QQ_POLY, 2)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("t^2 + %")
    assert err.value.position == 6
    # digits and spaces are ASCII, as in parse_rational: an Arabic-Indic or a
    # fullwidth digit and an em space are unexpected characters, in the
    # parser and in the token oracle
    for text, pos in (("\u0663*t", 0), ("t^\u0663", 2), ("\uff13*t", 0), ("t\u2003+ 1", 1),
                      ("3*t + \u0661/2", 6), ("t^2 +\u00a01", 5)):
        for parse in (parse_poly, corealg_oracle.parse_poly):
            message = re.escape(f"unexpected character {text[pos]!r} ")
            with pytest.raises(ParseError, match=message) as err:
                parse(text)
            assert err.value.position == pos, (text, parse)


def test_parse_refuses_integers_past_the_digit_limit():
    # int() refuses more than sys.get_int_max_str_digits() digits; the parser
    # names the position of the numerator or denominator instead
    limit = sys.get_int_max_str_digits()
    big = "1" * (limit + 1)
    for text, pos in ((f"{big}*t", 0), (f"t + 3/{big}", 6), (f"t^2 - {big}/7*t", 6)):
        with pytest.raises(BadInput, match=re.escape(
                f"integer above the limit of {limit} digits (at position {pos})")):
            parse_poly(text)
    assert parse_poly("1" * limit + "*t").num == (0, int("1" * limit))


def test_parse_rejects_x_over_qq():
    with pytest.raises(ParseError):
        parse_poly("x^2 + 1", QQ)


def test_parse_accepts_leading_minus_and_juxtaposition():
    assert parse_poly("-t + 1") == qq_poly([1, -1])
    assert parse_poly("3t") == qq_poly([0, 3])


def test_parse_reads_a_monomial_in_either_order_and_refuses_a_repeat():
    # mono := var ('^' uint)? ('*' var ('^' uint)?)?, each variable at most once
    for text, want in (("t*x", "x*t"), ("x*t", "x*t"), ("3*t*x^2", "3*x^2*t"),
                       ("3*x^2*t", "3*x^2*t"), ("2/3 t^2*x - t*x^3", "2/3*x*t^2 - x^3*t")):
        p = parse_poly(text, QQ_POLY)
        assert format_poly(p) == want, text
        assert parse_poly(want, QQ_POLY) == p
    assert parse_poly("3*t*x^2", TRUNC3) == parse_poly("3*x^2*t", TRUNC3)
    assert parse_poly("+t") == parse_poly("t")
    for text, name, pos in (("t*t", "t", 2), ("x*x", "x", 2), ("x^2*t*x", "x", 6),
                            ("3*t^2*t", "t", 6), ("t*x*t^3", "t", 4)):
        with pytest.raises(ParseError, match=f"^variable {name!r} repeated in a term") as err:
            parse_poly(text, QQ_POLY)
        assert err.value.position == pos, text
    with pytest.raises(ParseError, match="coefficient variable x is not allowed over QQ"):
        parse_poly("t*x", QQ)


def test_parse_rational_refuses_exponent_notation():
    for text in ("7", " -3 ", "2/6", "-1.25", ".5", "+1", "1.", "+.5", " \t-0.250\n", "007/014"):
        assert parse_rational(text) == Fraction(text)
    # the third literal would build an integer of a billion digits; the
    # rest are refused as not ASCII digits and spaces, or with an underscore
    for text in ("1e3", "2E-1", "1e1000000000", "1/0", "x", "1_0", "\u0663", "3/\u0664",
                 "\u00a01", "1 / 2", "- 1", "", "."):
        with pytest.raises(BadInput, match="^bad rational literal"):
            parse_rational(text)


def test_parse_rational_matches_fraction_on_ascii_text():
    """Seeded cross-oracle: on ASCII text without '_' or an exponent,
    parse_rational accepts exactly what Fraction accepts, with its value."""
    rng = random.Random(5077)
    accepted = 0
    for _ in range(20_000):
        if rng.random() < 0.5:  # a literal of the grammar, sometimes with /0
            digits = ["".join(rng.choices("0123456789", k=rng.randint(0, 4))) for _ in range(2)]
            text = (rng.choice(("", " ", "\t")) + rng.choice(("", "+", "-")) + digits[0]
                    + rng.choice(("", "/", ".")) + digits[1] + rng.choice(("", " ", "\n")))
        else:
            text = "".join(rng.choices(" \t+-./0123456789", k=rng.randint(0, 7)))
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            got = parse_rational(text)
        except BadInput:
            got = None
        assert got == expected and type(got) is type(expected), text
        accepted += got is not None
    assert accepted > 5_000


def test_arith_examples():
    t = t_monomial(QQ, 1)
    one = poly_one()
    assert (t + one) + (t - one) == qq_poly([0, 2])
    assert (t + one) ** 2 == qq_poly([1, 2, 1])
    xt = parse_poly("x*t", QQ_POLY)
    assert xt * xt == parse_poly("x^2*t^2", QQ_POLY)
    assert parse_poly("t^2 + t").scale_argument(Fraction(2)) == parse_poly("4*t^2 + 2*t")
    assert xt.scale_argument(ring_monomial(QQ_POLY, 1)) == parse_poly("x^2*t", QQ_POLY)


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        t_monomial(QQ, 1) + t_monomial(QQ_POLY, 1)
    with pytest.raises(RingMismatch):
        Poly(QQ, (RingElement(QQ_POLY, 1),))
    with pytest.raises(BadInput):
        RingElement(QQ, 1)  # QQ coefficients are plain Fractions


def test_euclid_examples():
    q, r = euclid_divmod(parse_poly("t^3"), parse_poly("t^2 - 1"))
    assert q == qq_poly([0, 1]) and r == qq_poly([0, 1])
    q, r = euclid_divmod(parse_poly("t^2 - 1"), parse_poly("t - 1"))
    assert q == qq_poly([1, 1]) and r.is_zero
    # generic shape: remainder degree strictly below the divisor degree
    b = parse_poly("t^5 - 3*t^2 + 7")
    a = parse_poly("t^2 + t + 1")
    q, r = euclid_divmod(b, a)
    assert q * a + r == b and r.degree < a.degree


def test_euclid_division_by_zero():
    with pytest.raises(DivisionByZero):
        euclid_divmod(parse_poly("t"), poly_zero())


def test_exact_divide_examples():
    x3 = ring_monomial(QQ_POLY, 3)
    x2 = ring_monomial(QQ_POLY, 2)
    x1 = ring_monomial(QQ_POLY, 1)
    assert exact_divide(x3, x2) == x1
    assert exact_divide(x1, x2) is None
    with pytest.raises(AmbiguousDivision):
        exact_divide(ring_scalar(QQ_POLY, 0), ring_scalar(QQ_POLY, 0))
    assert exact_divide(ring_scalar(QQ_POLY, 1), ring_scalar(QQ_POLY, 0)) is None
    x_t = ring_monomial(qq_poly_trunc(2), 1)
    with pytest.raises(BadInput, match="^exact division is only defined over QQ_POLY$"):
        exact_divide(x_t, x_t)


def test_squarefree_examples():
    assert squarefree_part(ring_monomial(QQ_POLY, 2)) == ring_monomial(QQ_POLY, 1)
    assert squarefree_part(parse_poly("t^2 - t")) == parse_poly("t^2 - t")
    # oracle: gcd((t-1)^2 (t+2), derivative) = (t-1), quotient = (t-1)(t+2)
    f = parse_poly("t - 1") ** 2 * parse_poly("t + 2")
    g = zgcd(f, f.derivative())
    assert g == parse_poly("t - 1")
    expected = (parse_poly("t - 1") * parse_poly("t + 2")).monic()
    assert squarefree_part(f) == expected
    with pytest.raises(ZeroInput):
        squarefree_part(poly_zero())


# -- randomized laws ---------------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(20240601)
    cases = [(QQ, 600), (QQ_POLY, 260), (TRUNC3, 200)]
    for ring, count in cases:
        for _ in range(count):
            f, g, h = (rand_poly(rng, ring) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + (-f)).is_zero
            assert f + g == g + f
            assert f * g == g * f


def test_euclid_postcondition_random():
    rng = random.Random(7)
    for _ in range(300):
        f = rand_qq(rng, max_deg=8)
        g = rand_qq(rng, max_deg=4)
        if g.is_zero:
            continue
        q, r = euclid_divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        for p in (f, g, q, r, zgcd(f, g)):
            _assert_poly_canonical(p)


def test_exact_divide_roundtrip_random():
    rng = random.Random(11)
    for _ in range(250):
        a = rand_poly(rng, QQ_POLY, max_deg=0, coeff_deg=3)
        c = rand_poly(rng, QQ_POLY, max_deg=0, coeff_deg=3)
        ea = a.coeff(0)
        ec = c.coeff(0)
        if ea.is_zero:
            continue
        assert exact_divide(ea * ec, ea) == ec


def test_squarefree_idempotent_and_divides():
    rng = random.Random(13)
    atoms = [parse_poly("t"), parse_poly("t - 1"), parse_poly("t + 2"), parse_poly("t^2 + 1")]
    for _ in range(60):
        f = poly_one()
        for atom in atoms:
            f = f * atom ** rng.randint(0, 2)
        if f.degree < 1:
            continue
        s = squarefree_part(f)
        assert squarefree_part(s) == s
        assert euclid_divmod(f, s)[1].is_zero


def test_parse_format_roundtrip_random():
    rng = random.Random(17)
    for ring in (QQ, QQ_POLY, TRUNC3):
        for _ in range(120):
            f = rand_poly(rng, ring, max_deg=5, coeff_deg=3)
            parsed = parse_poly(format_poly(f), ring)
            _assert_poly_canonical(parsed)
            assert parsed == f


def test_pow_matches_iterated_product():
    rng = random.Random(19)
    for _ in range(40):
        f = rand_qq(rng, max_deg=3, height=4)
        n = rng.randint(0, 5)
        naive = poly_one()
        for _ in range(n):
            naive = naive * f
        assert f ** n == naive


@pytest.mark.parametrize("ring", [QQ, QQ_POLY, TRUNC3], ids=str)
def test_pow_products_start_at_the_top_bit(monkeypatch, ring):
    f = {QQ: parse_poly("2/3*t - 1/2"), QQ_POLY: parse_poly("x*t^2 - 1/2*t + x + 1", QQ_POLY),
         TRUNC3: parse_poly("x*t - 1/3*x^2 + 1", TRUNC3)}[ring]
    naive, powers = poly_one(ring), []
    for _ in range(34):
        powers.append(naive)
        naive = naive * f
    products = []
    counted = Poly.__mul__

    def mul(a, b):
        products.append(1)
        return counted(a, b)

    monkeypatch.setattr(Poly, "__mul__", mul)
    for n, expected in enumerate(powers):
        products.clear()
        assert f ** n == expected, n
        assert len(products) == (n.bit_length() - 1 + n.bit_count() - 1 if n else 0), n
    products.clear()
    assert f ** 1 is f and not products
    if ring is QQ:
        return
    # RingElement powers run the same loop
    e = parse_ring_element("1/2*x^2 - x + 3", ring)
    naive, powers = ring_scalar(ring, 1), []
    for _ in range(34):
        powers.append(naive)
        naive = naive * e
    counted_ring = RingElement.__mul__

    def ring_mul(a, b):
        products.append(1)
        return counted_ring(a, b)

    monkeypatch.setattr(RingElement, "__mul__", ring_mul)
    for n, expected in enumerate(powers):
        products.clear()
        assert e ** n == expected, n
        assert len(products) == (n.bit_length() - 1 + n.bit_count() - 1 if n else 0), n
    products.clear()
    assert e ** 1 is e and not products


def test_monic_of_a_monic_poly_is_unchanged():
    f = parse_poly("t^3 - 1/2*t + 7")
    assert f.monic() == f
    assert parse_poly("3*t^3 - 3/2*t + 21").monic() == f
    assert parse_poly("-2/5").monic() == poly_one()


def test_zero_polynomial_sentinel():
    z = poly_zero()
    assert z.degree == -1
    assert z.is_zero
    assert z.lowest_degree() is None
    assert format_poly(z) == "0"
    assert (z + z).is_zero and (z * t_monomial(QQ, 1)).is_zero


def test_trunc_ring_element_is_truncated():
    t2 = qq_poly_trunc(2)
    e = parse_ring_element("x^5 + x + 1", t2)
    assert e == RingElement(t2, (Fraction(1), Fraction(1)))
    assert len(e.data) <= 2


def test_negative_pow_rejected():
    with pytest.raises(BadInput):
        t_monomial(QQ, 1) ** -1


# -- cross-oracle: plain Fraction-list arithmetic ----------------------------
#
# Every coefficient-ring element is modelled as a stripped list of Fractions in
# ascending powers of x (QQ elements have length <= 1, truncated ones length
# <= k); a polynomial in t is a stripped list of such lists.

def _ref_strip(v):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return v


def _ref_cut(ring, v):
    return _ref_strip(v[: ring.trunc] if ring.kind == "QQ_POLY_TRUNC" else v)


def _ref_add(ring, a, b):
    n = max(len(a), len(b))
    return _ref_cut(ring, [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                           for i in range(n)])


def _ref_mul(ring, a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ref_cut(ring, out)


def _ref_pow(ring, a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = _ref_mul(ring, out, a)
    return out


def _ref_exact_divide(b, a):
    """The quotient in QQ_POLY as a list, or None when a (nonzero) does not
    divide b."""
    if not b:
        return []
    num, q = list(b), [Fraction(0)] * max(len(b) - len(a) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = num[k + len(a) - 1] / a[-1]
        for j, aj in enumerate(a):
            num[k + j] -= q[k] * aj
    return _ref_strip(q) if not _ref_strip(num) else None


def _ref_poly_add(ring, f, g):
    n = max(len(f), len(g))
    return _ref_strip_poly([_ref_add(ring, f[i] if i < len(f) else [],
                                     g[i] if i < len(g) else []) for i in range(n)])


def _ref_poly_mul(ring, f, g):
    out = [[] for _ in range(max(len(f) + len(g) - 1, 0))]
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = _ref_add(ring, out[i + j], _ref_mul(ring, fi, gj))
    return _ref_strip_poly(out)


def _ref_strip_poly(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _raw_value(rng):
    """An int, Fraction or bool coefficient value."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-4, 4)
    if kind == 1:
        return rng.random() < 0.5
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def _raw_element(rng, ring):
    """(constructor argument, reference list) for a random ring element."""
    if ring.kind == "QQ" or rng.random() < 0.2:
        v = _raw_value(rng)
        return v, _ref_cut(ring, [Fraction(v)])
    # trailing zeros and, for truncated rings, terms past x^k are included
    raw = tuple(_raw_value(rng) for _ in range(rng.randint(0, 5)))
    return raw, _ref_cut(ring, [Fraction(v) for v in raw])


def _element(ring, raw):
    return Fraction(raw) if ring.kind == "QQ" else RingElement(ring, raw)


def _as_list(e):
    if type(e) is Fraction:
        return [e] if e != 0 else []
    return list(e.data)


def _assert_canonical(e, ring):
    """A QQ coefficient is exactly a Fraction; any other holds integer
    numerators over one denominator in lowest terms, and its data view is
    the stripped Fraction tuple, cut at k."""
    if ring.kind == "QQ":
        assert type(e) is Fraction, e
        return
    assert type(e) is RingElement and e.ring == ring, e
    assert type(e.num) is tuple and all(type(x) is int for x in e.num), e.num
    assert type(e.den) is int and e.den > 0 and math.gcd(e.den, *e.num) == 1, (e.num, e.den)
    assert not e.num or e.num[-1] != 0, e.num
    assert all(type(v) is Fraction for v in e.data), e.data
    assert e.data == tuple(Fraction(x, e.den) for x in e.num), e.data
    assert not e.data or e.data[-1] != 0, e.data
    if ring.kind == "QQ_POLY_TRUNC":
        assert len(e.data) <= ring.trunc, e.data


def _check_element(e, ref):
    """e, built by arithmetic, holds ref; the same value built from ints
    (unreduced, and over a truncated ring with terms past x^k), from
    Fractions and by parsing is equal to it and hashes equal; e cannot be
    assigned to, and pickle and deepcopy give it back."""
    _assert_canonical(e, e.ring)
    assert _as_list(e) == ref
    ring = e.ring
    den, num = clear_denominators(ref)
    if ring.kind == "QQ_POLY_TRUNC":
        num = num + [0] * (ring.trunc - len(num)) + [5, -6]
    same = (RingElement.from_ints(ring, num, den),
            RingElement.from_ints(ring, [-3 * x for x in num], -3 * den),
            RingElement(ring, tuple(ref)), parse_ring_element(str(e), ring),
            pickle.loads(pickle.dumps(e)), copy.deepcopy(e))
    for other in same:
        _assert_canonical(other, ring)
        assert other == e and hash(other) == hash(e), (other, e)
    if e:  # the same numerators over another denominator differ
        assert RingElement.from_ints(ring, num, 2 * den) != e
    with pytest.raises(AttributeError):
        e.num = ()


def _assert_poly_canonical(f):
    assert not f.coeffs or f.coeffs[-1]
    for c in f.coeffs:
        _assert_canonical(c, f.ring)


def _check_poly(f, ref):
    _assert_poly_canonical(f)
    assert [_as_list(c) for c in f.coeffs] == ref
    for same in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        _assert_poly_canonical(same)
        assert same == f and hash(same) == hash(f)


def test_ring_arithmetic_matches_fraction_lists():
    rng = random.Random(4051)
    for ring in (QQ_POLY, qq_poly_trunc(1), TRUNC3, qq_poly_trunc(4)):
        for _ in range(150):
            (ra, a), (rb, b) = _raw_element(rng, ring), _raw_element(rng, ring)
            ea, eb = RingElement(ring, ra), RingElement(ring, rb)
            _check_element(ea, a)
            _check_element(ea + eb, _ref_add(ring, a, b))
            _check_element(ea - eb, _ref_add(ring, a, [-v for v in b]))
            _check_element(-ea, [-v for v in a])
            _check_element(ea.derivative(), _ref_strip([v * i for i, v in enumerate(a)][1:]))
            _check_element(ea * eb, _ref_mul(ring, a, b))
            n = rng.randint(0, 4)
            _check_element(ea ** n, _ref_pow(ring, a, n))
            q = _raw_value(rng)
            _check_element(ea.scale(q), _ref_cut(ring, [v * q for v in a]))
            _check_element(ea * q, _ref_cut(ring, [v * q for v in a]))
            if not a or ring.kind != "QQ_POLY":
                continue
            got = exact_divide(eb, ea)
            want = _ref_exact_divide(b, a)
            if want is None:
                assert got is None
            else:
                _assert_canonical(got, ring)
                assert _as_list(got) == want
            product = _ref_mul(ring, a, b)
            got = exact_divide(ea * eb, ea)
            _assert_canonical(got, ring)
            assert _ref_mul(ring, a, _as_list(got)) == product
        if ring.kind == "QQ_POLY_TRUNC":
            # both operands with all k terms: the product stops at x^(k-1)
            k = ring.trunc
            for _ in range(50):
                a, b = ([Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 5)) for _ in range(k)]
                        for _ in range(2))
                _check_element(RingElement(ring, a) * RingElement(ring, b), _ref_mul(ring, a, b))


def test_poly_arithmetic_matches_fraction_lists():
    rng = random.Random(4052)
    for ring in (QQ, QQ_POLY, qq_poly_trunc(2), TRUNC3):
        for _ in range(80):
            pairs = [[_raw_element(rng, ring) for _ in range(rng.randint(0, 4))]
                     for _ in range(2)]
            f, g = (Poly(ring, tuple(raw if rng.random() < 0.5 else _element(ring, raw)
                                     for raw, _ in pair)) for pair in pairs)
            rf, rg = (_ref_strip_poly([ref for _, ref in pair]) for pair in pairs)
            _check_poly(f, rf)
            _check_poly(f + g, _ref_poly_add(ring, rf, rg))
            _check_poly(f - g, _ref_poly_add(ring, rf, [[-v for v in c] for c in rg]))
            _check_poly(f * g, _ref_poly_mul(ring, rf, rg))
            n = rng.randint(0, 3)
            power = [[Fraction(1)]]
            for _ in range(n):
                power = _ref_poly_mul(ring, power, rf)
            _check_poly(f ** n, power)
            q = _raw_value(rng)
            _check_poly(f.scale(q), _ref_strip_poly([_ref_cut(ring, [v * q for v in c])
                                                     for c in rf]))
            re, r = _raw_element(rng, ring)
            _check_poly(f.scale(_element(ring, re)),
                        _ref_strip_poly([_ref_mul(ring, c, r) for c in rf]))


def test_bench_tracer_wraps_and_restores_the_arithmetic_methods():
    # the benchmark's tracer wraps Poly and RingElement methods by name
    import mathieulab
    import mathieulab.cli  # noqa: F401  (the tracer wraps every layer module)
    from bench.trace import Tracer

    originals = (Poly.__mul__, RingElement.__mul__)
    f = parse_poly("t + 1/2")
    x = ring_monomial(QQ_POLY, 1)
    tracer = Tracer(mathieulab, lambda: 0)
    tracer.install()
    try:
        assert Poly.__mul__ is not originals[0] and RingElement.__mul__ is not originals[1]
        before = tracer.snapshot()
        assert f * f == parse_poly("t^2 + t + 1/4")
        assert x * x == ring_monomial(QQ_POLY, 2)
        metrics = tracer.pass_metrics(before, tracer.snapshot(), 1.0, 0)
        assert metrics["corealg.mul.calls"] == 1
        assert metrics["corealg.ring_mul.calls"] == 1
    finally:
        tracer.uninstall()
    assert Poly.__mul__ is originals[0] and RingElement.__mul__ is originals[1]


# -- cross-oracle: the integer kernels against the Fraction loops ------------

def _strip(coeffs):
    """A Fraction list without trailing zeros, as a tuple."""
    return tuple(_ref_strip(coeffs))


def _ref_tdivmod(num, den):
    """Long division on Fractions, the loop the integer path replaces."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return (), _strip(num)
    q = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            c = c / lead
            q[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    return _strip(q), _strip(num)


def _ref_tmul(a, b):
    """Product of Fraction tuples by the double loop on Fractions."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _strip(out)


def _rand_tuple(rng, length, kind):
    """A stripped Fraction tuple: "int", "rat", "bigint" (200 bits), "big"
    (200-bit numerators and denominators) or "sparse" (mostly zero entries,
    the others integers or fractions)."""
    out = []
    for _ in range(length):
        if kind == "int":
            out.append(Fraction(rng.randint(-20, 20)))
        elif kind == "bigint":
            out.append(Fraction(rng.getrandbits(200) - (1 << 199)))
        elif kind == "big":
            out.append(Fraction(rng.getrandbits(200) - (1 << 199), rng.getrandbits(200) | 1))
        elif kind == "sparse" and rng.random() < 0.7:
            out.append(Fraction(0))
        elif kind == "sparse" and rng.random() < 0.5:
            out.append(Fraction(rng.randint(-30, 30)))
        else:
            out.append(Fraction(rng.randint(-30, 30), rng.randint(1, 40)))
    return _strip(out)


def _rand_divisor(rng, case):
    deg = 0 if case == "degree 0" else rng.randint(1, 6)
    kind = {"big": "bigint", "monic rational": "rat", "zero entries": "sparse"}.get(case, "int")
    low = list(_rand_tuple(rng, deg, kind)) + [Fraction(0)] * deg
    lead = {"monic integer": 1, "monic rational": 1, "lead -1": -1, "big": 1,
            "zero entries": 1}.get(case)
    if lead is None:  # non-monic or degree 0
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 9))
        if case == "degree 0" and rng.random() < 0.5:
            lead = rng.choice([Fraction(1), Fraction(-1)])
    return tuple(low[:deg]) + (Fraction(lead),)


def _assert_fraction_tuple(value):
    assert type(value) is tuple, value
    assert all(type(v) is Fraction for v in value), value
    assert not value or value[-1] != 0, value


def test_division_kernel_matches_fraction_loop():
    rng = random.Random(4061)
    cases = ("monic integer", "non-monic", "lead -1", "monic rational", "degree 0",
             "short numerator", "zero entries", "big")
    fast = 0
    for case in cases:
        for _ in range(120):
            short = case == "short numerator"
            den = _rand_divisor(rng, "monic integer" if short else case)
            length = rng.randint(0, len(den) - 1) if short else rng.randint(0, 14)
            kind = {"big": "big", "zero entries": "sparse"}.get(case, rng.choice(["int", "rat"]))
            num = _rand_tuple(rng, length, kind)
            want_q, want_r = _ref_tdivmod(num, den)
            # the Poly entry point returns quotient and remainder
            got = tuple(part.coeffs for part in euclid_divmod(qq_poly(num), qq_poly(den)))
            for part in got:
                _assert_fraction_tuple(part)
            assert got == (want_q, want_r), (case, num, den)
            # the RingElement one divides exactly or returns None; minus the
            # remainder, every numerator divides exactly
            b, a = RingElement(QQ_POLY, num), RingElement(QQ_POLY, den)
            quotient = exact_divide(b, a)
            assert (quotient is None) == bool(want_r), (case, num, den)
            if quotient is not None:
                _assert_canonical(quotient, QQ_POLY)
                assert quotient.data == want_q
            if b:
                quotient = exact_divide(b - RingElement(QQ_POLY, want_r), a)
                _assert_canonical(quotient, QQ_POLY)
                assert quotient.data == want_q, (case, num, den)
            fast += den[-1] == 1 and all(c.denominator == 1 for c in den)
    assert fast >= 400  # the integer path is well represented


def test_convolution_kernel_matches_fraction_loop():
    rng = random.Random(4062)
    for kind in ("int", "rat", "sparse", "big"):
        for _ in range(150):
            a = _rand_tuple(rng, rng.randint(0, 12), kind)
            b = _rand_tuple(rng, rng.randint(0, 12), rng.choice([kind, "int", "rat"]))
            want = _ref_tmul(a, b)
            got = RingElement(QQ_POLY, a) * RingElement(QQ_POLY, b)
            _assert_canonical(got, QQ_POLY)
            assert got.data == want
            # the same convolution stopped at x^5
            cut = RingElement(TRUNC5, a) * RingElement(TRUNC5, b)
            _assert_canonical(cut, TRUNC5)
            assert cut.data == _strip(_ref_tmul(_strip(a[:5]), _strip(b[:5]))[:5])
            product = (Poly(QQ, a) * Poly(QQ, b)).coeffs
            _assert_fraction_tuple(product)
            assert product == want


def test_ring_kernels_match_fraction_loops_on_qq_poly_data():
    rng = random.Random(4063)
    for _ in range(300):
        ea = rand_element(rng, QQ_POLY, max_deg=6, height=30)
        eb = rand_element(rng, QQ_POLY, max_deg=6, height=30)
        product = ea * eb
        _assert_canonical(product, QQ_POLY)
        assert product.data == _ref_tmul(ea.data, eb.data)
        if eb:
            want_q, want_r = _ref_tdivmod(ea.data, eb.data)
            got = exact_divide(ea, eb)
            assert (got is None) == bool(want_r)
            if ea:
                got = exact_divide(ea - RingElement(QQ_POLY, want_r), eb)
                _assert_canonical(got, QQ_POLY)
                assert got.data == want_q
            # the monic associate of eb takes the integer path when integral
            monic = tuple(v / eb.data[-1] for v in eb.data)
            want_q, want_r = _ref_tdivmod(product.data, monic)
            assert not want_r
            got = exact_divide(product, RingElement(QQ_POLY, monic))
            _assert_canonical(got, QQ_POLY)
            assert got.data == want_q


def _hostile_numerator():
    """Degree 2000 with random denominators up to 2^10: their lcm has about
    1,400 bits, so every quotient coefficient is a large fraction."""
    rng = random.Random(4064)
    return tuple(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 1 << 10)) for _ in range(2001))


@pytest.mark.parametrize("den", [(Fraction(3), Fraction(1)), (Fraction(5), Fraction(3))],
                         ids=["t+3", "3t+5"])
def test_division_is_fast_on_many_distinct_denominators(den):
    # exact_divide over QQ_POLY, once with the remainder den(root) and once
    # without; each division takes about 50 ms on a shared 2-core Xeon, and
    # the bound leaves room for a slower host
    num = _hostile_numerator()
    rest = qq_poly(num).evaluate(-den[0] / den[1])
    assert rest != 0
    b, a = RingElement(QQ_POLY, num), RingElement(QQ_POLY, den)
    start = time.perf_counter()
    assert exact_divide(b, a) is None
    assert time.perf_counter() - start < 1.0
    b = b - ring_scalar(QQ_POLY, rest)
    start = time.perf_counter()
    q = exact_divide(b, a)
    assert time.perf_counter() - start < 1.0
    assert len(q.num) == 2000 and q * a == b


def two_cofactor_xgcd(f, g):
    """The earlier poly_xgcd, which updates both Bezout cofactors each step."""
    r0, r1 = f, g
    s0, s1 = poly_one(QQ), poly_zero(QQ)
    t0, t1 = poly_zero(QQ), poly_one(QQ)
    while not r1.is_zero:
        q, r = euclid_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    lead = 1 / r0.coeffs[-1]
    return r0.scale(lead), s0.scale(lead), t0.scale(lead)


def zgcd(f, g):
    """The monic gcd over QQ from the integer kernel `_zgcd` on the numerators."""
    d = _zgcd(list(f.num), list(g.num))
    return Poly.from_ints(d, d[-1]) if d else poly_zero()


def zxgcd(f, g):
    """(d, u, v) with u*f + v*g = d, d the monic gcd, from the integer kernel
    `_zxgcd` on the numerators: u f.num = k d_0 mod g.num, d_0 primitive,
    gives d = d_0 / lc(d_0) and u = u f.den / (k lc(d_0)); v = (d - u*f) / g."""
    d, u, k = _zxgcd(list(f.num), list(g.num))
    if not d:
        return poly_zero(), Poly.from_ints(u, k), poly_zero()
    u = Poly.from_ints([x * f.den for x in u], k * d[-1])
    d = Poly.from_ints(d, d[-1])
    return d, u, poly_zero() if g.is_zero else euclid_divmod(d - u * f, g)[0]


def test_xgcd_matches_two_cofactor_loop():
    rng = random.Random(4065)
    kinds = ("random", "zero", "constant", "common factor")
    for _ in range(400):
        f_kind, g_kind = rng.choice(kinds), rng.choice(kinds)
        common = rand_qq(rng, max_deg=3) if "common factor" in (f_kind, g_kind) else poly_one()
        f, g = (
            {"random": rand_qq(rng), "zero": poly_zero(), "constant": qq_poly([rand_fraction(rng)]),
             "common factor": common * rand_qq(rng, max_deg=4)}[kind]
            for kind in (f_kind, g_kind)
        )
        d, u, v = zxgcd(f, g)
        assert (d, u, v) == two_cofactor_xgcd(f, g), (f, g)
        assert u * f + v * g == d
        # the integer kernel behind it: u a = k d mod b with deg u < deg b
        d, u, k = _zxgcd(list(f.num), list(g.num))
        assert k and (not d or d[-1] > 0) and Poly.from_ints(d, d[-1] if d else 1) == zgcd(f, g)
        rest = Poly.from_ints(_zmul(u, f.num)) - Poly.from_ints(d).scale(k)
        if g.is_zero:
            assert rest.is_zero
        else:
            assert len(u) < len(g.num) and euclid_divmod(rest, g)[1].is_zero, (f, g)


# -- cross-oracle: integer-numerator Poly against the Fraction Poly ----------

def _assert_qq_canonical(p):
    """num over a positive den in lowest terms, no trailing zero, and the
    Fraction view equal to num[i] / den."""
    assert type(p.num) is tuple and all(type(x) is int for x in p.num), p.num
    assert type(p.den) is int and p.den > 0, p.den
    assert math.gcd(p.den, *p.num) == 1, (p.num, p.den)
    assert not p.num or p.num[-1] != 0, p.num
    if not p.num:
        assert p.den == 1
    _assert_fraction_tuple(p.coeffs)
    assert p.coeffs == tuple(Fraction(x, p.den) for x in p.num)


def _same(new, old):
    """A new Poly and an oracle Poly hold the same polynomial."""
    if new.ring == QQ:
        _assert_qq_canonical(new)
    assert new.ring == old.ring and new.coeffs == old.coeffs, (new, old)


def _oracle_pair(rng):
    """The same random rational coefficient list as a Poly and as an oracle Poly."""
    kind = rng.choice(("int", "rat", "sparse", "big", "zero", "constant", "rat"))
    # the oracle's Euclidean gcd grows 200-bit fractions fast, so "big" stays short
    length = {"zero": 0, "constant": 1, "big": rng.randint(1, 4)}.get(kind, rng.randint(1, 9))
    coeffs = _rand_tuple(rng, length, {"zero": "int", "constant": "rat"}.get(kind, kind))
    return qq_poly(coeffs), corealg_oracle.qq_poly(coeffs)


def test_integer_poly_matches_fraction_oracle():
    rng = random.Random(4066)
    seen = {"common factor": 0, "repeated factor": 0, "nonmonic divisor": 0}
    for _ in range(400):
        (f, of), (g, og) = _oracle_pair(rng), _oracle_pair(rng)
        if rng.random() < 0.2:  # a shared factor, so gcd and squarefree part are not 1
            c, oc = _oracle_pair(rng)
            if c.degree >= 1:
                f, of, g, og = f * c * c, of * oc * oc, g * c, og * oc
                seen["common factor"] += 1
                seen["repeated factor"] += not f.is_zero
        _same(f, of)
        _same(g, og)
        # == and hash agree with the Fraction view
        assert (f == g) == (f.coeffs == g.coeffs)
        k = rng.choice([1, 2, 3, 12]) * rng.choice([1, -1])
        same_f = Poly.from_ints([x * k for x in f.num], f.den * k)
        assert same_f == f and hash(same_f) == hash(f) and same_f.num == f.num
        assert qq_poly(f.coeffs) == f and hash(qq_poly(f.coeffs)) == hash(f)
        _same(f + g, of + og)
        _same(f - g, of - og)
        _same(-f, -of)
        _same(f * g, of * og)
        n = rng.randint(0, 4)
        _same(f ** n, of ** n)
        q = rng.choice([Fraction(0), Fraction(1), Fraction(-1), rand_fraction(rng), rng.randint(-5, 5)])
        _same(f.scale(q), of.scale(q))
        _same(f.derivative(), of.derivative())
        point = rng.choice([Fraction(0), rand_fraction(rng), rng.randint(-4, 4)])
        value = f.evaluate(point)
        assert type(value) is Fraction and value == of.evaluate(point)
        _same(f.scale_argument(point), of.scale_argument(Fraction(point)))
        text = format_poly(f)
        assert text == corealg_oracle.format_poly(of)
        assert parse_poly(text) == f
        _same(parse_poly(text), corealg_oracle.parse_poly(text))
        if not f.is_zero:
            _same(f.monic(), of.monic())
            _same(squarefree_part(f), corealg_oracle.squarefree_part(of))
        if not g.is_zero:
            seen["nonmonic divisor"] += g.num[-1] != g.den
            (q_new, r_new), (q_old, r_old) = euclid_divmod(f, g), corealg_oracle.euclid_divmod(of, og)
            _same(q_new, q_old)
            _same(r_new, r_old)
        _same(zgcd(f, g), corealg_oracle.poly_gcd(of, og))
        for new, old in zip(zxgcd(f, g), corealg_oracle.poly_xgcd(of, og)):
            _same(new, old)
    assert min(seen.values()) >= 40, seen
    # t_monomial over QQ builds its numerators from an int coefficient directly
    for n in range(31):
        for c in (1, 0, -7, 10 ** 20):
            mono = t_monomial(QQ, n, c)
            ref = qq_poly([Fraction(0)] * n + [Fraction(c)])
            assert ((mono.num, mono.den, mono.coeffs, hash(mono), format_poly(mono))
                    == (ref.num, ref.den, ref.coeffs, hash(ref), format_poly(ref)))
        assert t_monomial(QQ, n) == t_monomial(QQ, n, 1)


def _parse_outcome(parse, text, ring):
    try:
        return parse(text, ring)
    except AlgebraError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parser_matches_token_parser_oracle_on_random_text():
    # strings over the grammar's alphabet, spaces and one stray character;
    # digit runs stay under five digits, because the oracle has no exponent
    # limit and would build a coefficient list as long as the exponent
    rng = random.Random(1919)
    alphabet = "0123456789" + "xt^*/+-" * 2 + "   ?"
    seen = collections.Counter()
    start = time.perf_counter()
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        text = re.sub(r"\d{5,}", lambda m: m[0][:4], text)
        for ring in (QQ, QQ_POLY, TRUNC3):
            got = _parse_outcome(parse_poly, text, ring)
            want = _parse_outcome(corealg_oracle.parse_poly, text, ring)
            if isinstance(want, tuple):
                assert got == want, (text, ring)
                seen[want[0].__name__] += 1
            else:
                _same(got, want)
                seen["parsed"] += 1
    elapsed = time.perf_counter() - start
    assert seen["parsed"] >= 1000 and seen["ParseError"] >= 1000, seen
    assert elapsed < 2.0, elapsed


def test_gcd_kernel_matches_euclidean_oracle():
    # ring_gcd and squarefree_part over QQ_POLY run the primitive remainder
    # sequence; the oracle runs the Euclidean gcd on Fraction tuples
    rng = random.Random(4067)
    for _ in range(300):
        common = rand_element(rng, QQ_POLY, max_deg=2, height=7)
        elements = [rand_element(rng, QQ_POLY, max_deg=4, height=7) * common
                    for _ in range(rng.randint(1, 3))]
        got, want = ring_gcd(*elements), corealg_oracle.ring_gcd(*elements)
        _assert_fraction_tuple(got.data)
        assert got == want
        e = elements[0] * elements[-1] * common
        if e:
            got, want = squarefree_part(e), corealg_oracle.squarefree_part(e)
            _assert_fraction_tuple(got.data)
            assert got == want


@pytest.mark.parametrize("den", [(Fraction(3), Fraction(1)), (Fraction(5), Fraction(3))],
                         ids=["t+3", "3t+5"])
def test_poly_division_and_gcd_are_fast_on_many_distinct_denominators(den):
    # the same bound as the exact_divide test above, for the Poly entry points;
    # pseudo-division that multiplies the whole remainder by the leading
    # coefficient at every step takes far longer on 3t + 5
    f, g = qq_poly(_hostile_numerator()), qq_poly(den)
    start = time.perf_counter()
    q, r = euclid_divmod(f, g)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    d = zgcd(f, g)
    assert time.perf_counter() - start < 1.0
    assert q.degree == 1999 and r.degree <= 0
    assert d == (g.monic() if r.is_zero else poly_one())
    assert q * g + r == f


def test_parse_poly_refuses_exponents_above_the_limit():
    assert parse_poly(f"t^{MAX_EXPONENT}").degree == MAX_EXPONENT
    assert parse_poly("t^0010 + 1") == parse_poly("t^10 + 1")
    cases = [("t^10001", QQ), ("t^1000000000", QQ), ("2*t^" + "9" * 100_000, QQ),
             ("x^10001*t - 1", QQ_POLY), ("t^2 + x^99999999", QQ_POLY)]
    tracemalloc.start()
    try:
        for text, ring in cases:
            with pytest.raises(BadInput, match=f"^exponent above the limit {MAX_EXPONENT}"):
                parse_poly(text, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the refusal reads the exponent's text; a list as long as the exponent
    # would take gigabytes
    assert peak < 2_000_000


# -- the stored fields and the views read from them --------------------------

def _view_cases(rng):
    """(how, value) pairs: Polys over QQ and RingElements over QQ_POLY and
    QQ_POLY_TRUNC(k) built from Fractions, from ints and by arithmetic."""
    for _ in range(60):
        coeffs = _rand_tuple(rng, rng.randint(0, 8), rng.choice(("int", "rat", "sparse", "big")))
        f, g = qq_poly(coeffs), rand_qq(rng)
        k = rng.choice([1, 2, 3, 12]) * rng.choice([1, -1])
        yield "Poly from Fractions", f
        yield "Poly from ints", Poly.from_ints([x * k for x in f.num], f.den * k)
        yield "Poly by arithmetic", rng.choice((f * g, f + g, f - g, -f, f.derivative(),
                                                f.scale(rand_fraction(rng)), g ** 2))
        for ring in (QQ_POLY, qq_poly_trunc(rng.randint(1, 5))):
            ea, eb = rand_element(rng, ring, max_deg=5), rand_element(rng, ring, max_deg=5)
            yield "RingElement from Fractions", RingElement(ring, coeffs)
            yield "RingElement from ints", RingElement.from_ints(ring, [x * k for x in ea.num],
                                                                 ea.den * k)
            yield "RingElement by arithmetic", rng.choice((ea * eb, ea + eb, ea - eb, -ea,
                                                           ea.derivative(), ea ** 3,
                                                           ea.scale(rand_fraction(rng))))


def test_views_are_read_from_num_and_den():
    rng = random.Random(3801)
    seen = collections.Counter()
    for how, value in _view_cases(rng):
        seen[how] += 1
        want = tuple(Fraction(x, value.den) for x in value.num)
        if type(value) is Poly:
            _assert_qq_canonical(value)
            assert value.coeffs == want and value.qq_coeffs() == want, how
            for i in range(-1, len(value.num) + 2):
                got = value.coeff(i)
                assert type(got) is Fraction, how
                assert got == (want[i] if 0 <= i < len(want) else 0), (how, i)
        else:
            _assert_canonical(value, value.ring)
            assert value.data == want, how
    assert min(seen.values()) >= 60 and len(seen) == 6, seen
    # over a coefficient ring, coeffs is num itself and coeff(i) one entry
    for ring in (QQ_POLY, TRUNC3):
        f = rand_poly(rng, ring) + t_monomial(ring, 2, ring_monomial(ring, 1, Fraction(2, 3)))
        assert f.den is None and f.coeffs is f.num
        assert all(f.coeff(i) is f.num[i] for i in range(len(f.num)))
        assert f.coeff(len(f.num)) == ring_scalar(ring, 0)
        with pytest.raises(BadInput, match="rational coefficient view requires ring QQ"):
            f.qq_coeffs()


def test_stored_fields_are_ring_num_and_den():
    assert Poly.__slots__ == ("ring", "num", "den")
    assert RingElement.__slots__ == ("ring", "num", "den")
    namespace = {"Poly": Poly, "RingElement": RingElement, "Ring": type(QQ), "Fraction": Fraction}
    rng = random.Random(3802)
    values = [value for _, value in _view_cases(rng)]
    values += [rand_poly(rng, ring) for ring in (QQ_POLY, TRUNC3) for _ in range(40)]
    for value in values:
        assert not hasattr(value, "__dict__")
        # reading a view leaves nothing behind
        view = value.data if type(value) is RingElement else value.coeffs
        assert view == (value.data if type(value) is RingElement else value.coeffs)
        assert [getattr(value, name) for name in type(value).__slots__] == [
            value.ring, value.num, value.den]
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      eval(repr(value), namespace)):
            assert type(again) is type(value) and again == value and hash(again) == hash(value)
            assert (again.ring, again.num, again.den) == (value.ring, value.num, value.den)
        with pytest.raises(AttributeError):
            value.den = 1


def test_truncated_product_matches_stopped_convolution():
    # a product over QQ_POLY_TRUNC(k) is the full convolution cut at x^k: the
    # same as the convolution that stops after k entries, and as the QQ_POLY
    # product cut at x^k
    rng = random.Random(3803)
    for k in range(1, 7):
        ring = qq_poly_trunc(k)
        for _ in range(80):
            ea, eb = (RingElement(ring, _rand_tuple(rng, rng.randint(0, k + 2),
                                                    rng.choice(("int", "rat", "sparse", "big"))))
                      for _ in range(2))
            got = ea * eb
            _assert_canonical(got, ring)
            stopped = corealg_oracle.stopped_convolution(list(ea.num), list(eb.num), k)
            assert got == RingElement.from_ints(ring, stopped, ea.den * eb.den)
            full = RingElement(QQ_POLY, ea.data) * RingElement(QQ_POLY, eb.data)
            assert got.data == _strip(full.data[:k])
            assert eb * ea == got and ea.__rmul__(eb) == got

