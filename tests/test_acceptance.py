"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass line (visible with ``pytest -s``); a failed
assertion is the fail line.  Expected runtime: well under two minutes.
"""

import random
from fractions import Fraction

from mathieulab.certlab import (
    b_products,
    bracket_factorial,
    certificate_nonmembership,
    phi_expansion,
    verify_certificate,
)
from mathieulab.corealg import (
    QQ,
    QQ_POLY,
    Poly,
    RingElement,
    parse_poly,
    parse_ring_element,
    poly_divides,
    poly_one,
    qq_poly,
    ring_monomial,
    t_monomial,
)
from mathieulab.momlab import (
    HermiteWeight,
    JacobiWeight,
    LaguerreWeight,
    equivalence_check,
    inner_product,
    orthopoly,
)
from mathieulab.opimage import (
    JacobiOperator,
    MonomialOperator,
    hermite_operator,
    im_structure,
    laguerre_operator,
    lzero,
    member,
)
from mathieulab.radlab import (
    MATHIEU_EXACT,
    NOT_MATHIEU,
    atomic_space,
    definition_witness,
    escape_exponent,
    mathieu_check,
    radical_member_cofinite,
    radical_probe,
)
from mathieulab.ufdlab import (
    UfdContext,
    absorption_bound,
    gcd_lift,
    member_ufd,
    member_via_factorial,
    parse_trunc_context,
    radical_via_coefficients,
    surjectivity_check,
)


def _double_factorial_odd(q):
    out = Fraction(1)
    for j in range(1, q + 1):
        out *= 2 * j - 1
    return out


def test_criterion_1_moment_bridge():
    hermite = hermite_operator()
    for q in range(1, 21):
        assert lzero(hermite, t_monomial(QQ, 2 * q)) == _double_factorial_odd(q) / 2 ** q
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
        op = laguerre_operator(alpha)
        expected = Fraction(1)
        for q in range(1, 21):
            expected *= alpha + q
            assert lzero(op, t_monomial(QQ, q)) == expected
    print("criterion 1: PASS — normal-form constants match both moment recursions")


def test_criterion_2_image_integral_equivalence():
    pairs = [
        (HermiteWeight(), hermite_operator()),
        (LaguerreWeight(Fraction(1, 2)), laguerre_operator(Fraction(1, 2))),
        (LaguerreWeight(1), laguerre_operator(1)),
        (JacobiWeight(1, 1), JacobiOperator(1, 1)),
        (JacobiWeight(1, 2), JacobiOperator(1, 2)),
        (JacobiWeight(Fraction(1, 2), Fraction(1, 2)),
         JacobiOperator(Fraction(1, 2), Fraction(1, 2))),
        (JacobiWeight(Fraction(-1, 2), Fraction(-1, 2)),
         JacobiOperator(Fraction(-1, 2), Fraction(-1, 2))),
        (LaguerreWeight(Fraction(-1, 2)), laguerre_operator(Fraction(-1, 2))),
    ]
    for weight, op in pairs:
        report = equivalence_check(weight, op, 12)
        assert not report.one_in_image
        assert report.equivalent is True and report.violations == ()
    print("criterion 2: PASS — the operator image is the vanishing-integral hyperplane in every degree")


def test_criterion_3_jacobi_constant_reachability_grid():
    grid = (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    checked = 0
    for alpha in grid:
        for beta in grid:
            expected = alpha == 0 or beta == 0
            assert im_structure(JacobiOperator(alpha, beta)).one_in_image == expected
            checked += 1
    assert checked == 25
    print("criterion 3: PASS — 1 is reachable exactly when a Jacobi parameter vanishes (25 cases)")


def test_criterion_4_escape_property():
    rng = random.Random(20240604)
    ops = [MonomialOperator(1, 0, 1, 1), MonomialOperator(1, 1, 1, 0),
           MonomialOperator(1, Fraction(1, 3), 1, 2)]
    for _ in range(50):
        while True:
            coeffs = [Fraction(rng.randint(-10, 10)) for _ in range(rng.randint(1, 7))]
            f = qq_poly(coeffs)
            if not f.is_zero:
                break
        low = f.lowest_degree()
        f = f.scale(1 / f.coeff(low))  # normalize the lowest term
        for op in ops:
            m = escape_exponent(op, f, 50)
            assert m is not None and m <= 50
    print("criterion 4: PASS — 150 random power sequences escape the image within budget")


def test_criterion_5_certificate_identity_chain():
    rng = random.Random(20240605)
    cases = [(1, Fraction(0)), (0, Fraction(1)), (2, Fraction(1, 3))]
    for k in range(20):
        d, alpha = cases[k % len(cases)]
        s = rng.randint(1, 2)
        tail = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))]
        f = qq_poly([0] * s + [1] + tail)
        deg = f.degree
        op = MonomialOperator(1, alpha, 1, d)
        for m in range(1, 4):
            phi = phi_expansion(f, m, d)
            i_max = (deg - s) * m
            correction = Fraction(0)
            if i_max >= 1:
                for i, b in enumerate(b_products(s, m, d, alpha, i_max), start=1):
                    correction += b * phi.get((s * m + i) * (d + 1), Fraction(0))
            assert lzero(op, f ** (m * (d + 1))) == \
                bracket_factorial(s * m, d + 1, alpha) * (1 + correction)
        cert = certificate_nonmembership(f, d, alpha, budget=5000)
        assert verify_certificate(cert)
        assert not member(op, f ** cert.conclusion_exponent)[0]
    print("criterion 5: PASS — factored identity holds and all 20 certificates verify")


def test_criterion_6_degenerate_parameter_suite():
    op = MonomialOperator(1, -1, 1, 1)
    for k in range(1, 16):
        assert member(op, t_monomial(QQ, 2 * k))[0]
    for m in range(16):
        assert not member(op, t_monomial(QQ, 2 * m + 1))[0]
    op0 = MonomialOperator(1, -2, 1, 0)
    for n in range(2, 21):
        assert member(op0, t_monomial(QQ, n))[0]
    assert not member(op0, t_monomial(QQ, 1))[0]
    assert not member(op0, poly_one())[0]
    assert radical_probe(lambda p: member(op0, p)[0], t_monomial(QQ, 1), range(2, 21))
    print("criterion 6: PASS — degenerate-parameter membership pattern confirmed")


def test_criterion_7_mathieu_engine():
    atomic = atomic_space([0, 1, 2], [1, 1, 1])
    expected_ideal = (parse_poly("t") * parse_poly("t - 1") * parse_poly("t - 2")).monic()
    for _ in range(4):
        verdict = mathieu_check(atomic)
        assert verdict.status == MATHIEU_EXACT
        assert verdict.i_v_generator == expected_ideal

    equal_values = atomic_space([0, 1], [1, -1])  # {f : f(0) = f(1)}
    for _ in range(4):
        verdict = mathieu_check(equal_values)
        assert verdict.status == NOT_MATHIEU
        a, b = verdict.witness
        assert radical_member_cofinite(equal_values, a)
        assert not poly_divides(verdict.radical_iv_generator, a)
        assert definition_witness(equal_values, a, b) is None
        assert equal_values.mod(a * a) == equal_values.mod(a)  # powers stabilize
    print("criterion 7: PASS — atomic space exactly Mathieu, value-equality space refuted, both repeatable")


def test_criterion_8_coefficient_ring_suite():
    contexts = [
        UfdContext(QQ_POLY, ring_monomial(QQ_POLY, 1)),
        UfdContext(QQ_POLY, ring_monomial(QQ_POLY, 2)),
        UfdContext(QQ_POLY, parse_ring_element("x^2 - x", QQ_POLY)),
    ]
    # power congruences a^n t^n = n! modulo the image
    for ctx in contexts:
        fact = 1
        apow = parse_ring_element("1", QQ_POLY)
        for n in range(11):
            if n:
                fact *= n
                apow = apow * ctx.a
            f = t_monomial(QQ_POLY, n, apow) - poly_one(QQ_POLY).scale(Fraction(fact))
            assert member_ufd(ctx, f)[0]
    # factorial criterion vs direct solve on 100 seeded polynomials
    rng = random.Random(20240608)
    for k in range(100):
        ctx = contexts[k % 3]
        coeffs = []
        for _ in range(rng.randint(0, 5)):
            data = tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 4)))
            coeffs.append(RingElement(QQ_POLY, data))
        p = Poly(QQ_POLY, tuple(coeffs))
        assert member_via_factorial(ctx, p) == member_ufd(ctx, p.scale_argument(ctx.a))[0]
    # absorption bound validation
    ctx2 = contexts[1]
    p = parse_poly("x*t", QQ_POLY)
    assert radical_via_coefficients(ctx2, p)
    bound = absorption_bound(ctx2, p, parse_poly("t", QQ_POLY))
    assert bound == 4
    f = p.scale_argument(ctx2.a)
    for m in (bound, bound + 1):
        assert member_ufd(ctx2, parse_poly("t", QQ_POLY) * f ** m)[0]
    # gcd lift postconditions
    u, lifted = gcd_lift(ring_monomial(QQ_POLY, 2),
                         [ring_monomial(QQ_POLY, 1), ring_monomial(QQ_POLY, 3)])
    assert u == ring_monomial(QQ_POLY, 1)
    assert lifted == [parse_ring_element("1", QQ_POLY), ring_monomial(QQ_POLY, 2)]
    # surjectivity over the length-2 truncated ring
    ring, c, a = parse_trunc_context("trunc:k=2,c=1,a=x")
    report = surjectivity_check(ring, c, a, 10)
    assert report.status == "ONE_IN_IMAGE"
    assert report.one_witness == parse_poly("t + 1/2*x*t^2", ring)
    assert report.unresolved == () and len(report.monomials) == 11
    print("criterion 8: PASS — coefficient-ring membership suite (congruences, criteria, bounds, lifts, surjectivity)")


def test_criterion_9_gram_schmidt():
    w = JacobiWeight(0, 0)
    polys = [orthopoly(w, n) for n in range(7)]
    for i in range(7):
        for j in range(i):
            assert inner_product(w, polys[i], polys[j]) == 0
    assert polys[2] == parse_poly("t^2 - 1/3")
    print("criterion 9: PASS — monic orthogonal family exact through degree 6")
