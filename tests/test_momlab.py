"""Moment functionals: examples, recursion oracles, orthogonality."""

import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import momlab_oracle
from mathieulab import momlab
from mathieulab.certlab import bracket_factorial
from mathieulab.corealg import QQ, Poly, parse_poly, poly_one, qq_poly, t_monomial
from mathieulab.errors import AlgebraError, BadInput, BadPair, BadWeight, Degenerate
from mathieulab.momlab import (
    MAX_MOMENT_INDEX,
    MAX_ORTHOPOLY_BITS,
    AtomicWeight,
    EquivalenceReport,
    HermiteWeight,
    JacobiWeight,
    LaguerreWeight,
    MomentFunctional,
    equivalence_check,
    inner_product,
    orthopoly,
    parse_weight,
    vb_member,
)
from mathieulab.opimage import apply_operator, hermite_operator, laguerre_operator, lzero
from mathieulab.opimage import JacobiOperator, im_structure, pearson_pair, pearson_row
from mathieulab.radlab import radical_probe


def jacobi_moment_closed_form(alpha, beta, n):
    """Independent oracle: substituting t = 1 - 2u turns the Jacobi weight into
    the Beta(a+1, b+1) density, so nu_n = sum_k (-1)^k C(n,k) 2^k E[u^k] with
    E[u^k] = prod_{j=1..k} (a+j)/(a+b+1+j)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    total, ratio = Fraction(0), Fraction(1)
    for k in range(n + 1):
        if k:
            ratio *= (alpha + k) / (alpha + beta + 1 + k)
        total += (-1) ** k * math.comb(n, k) * 2 ** k * ratio
    return total


def gram_schmidt_orthopoly(w, n):
    """Reference: Gram-Schmidt on 1, t, t^2, ... with the public inner product."""
    if isinstance(w, AtomicWeight) and n >= len(w.points):
        raise Degenerate("no orthogonal polynomial beyond the atomic point count")
    basis, norms = [], []
    for k in range(n + 1):
        p = t_monomial(QQ, k)
        for q, nq in zip(basis, norms):
            coeff = inner_product(w, p, q) / nq
            if coeff:
                p = p - q.scale(coeff)
        if k < n:
            nq = inner_product(w, p, p)
            if nq == 0:
                raise Degenerate("Gram matrix is singular at this degree")
            basis.append(p)
            norms.append(nq)
    return p


def test_moment_examples():
    # oracle for the Gaussian weight: nu_4 = (3/2)(1/2)
    assert MomentFunctional(HermiteWeight()).moment(4) == Fraction(3, 4)
    # oracle for the Laguerre weight: prod_{j=1..3} (1+j) = 24
    assert MomentFunctional(LaguerreWeight(1)).moment(3) == 24
    # oracle: (int t^2 dt) / (int dt) over (-1,1) = 1/3
    assert MomentFunctional(JacobiWeight(0, 0)).moment(2) == Fraction(1, 3)
    assert MomentFunctional(AtomicWeight((0, 1), (1, 1))).moment(3) == Fraction(1, 2)


def test_moment_normalization_and_parity():
    for w in (HermiteWeight(), LaguerreWeight(Fraction(1, 2)), JacobiWeight(1, 2)):
        assert MomentFunctional(w).moment(0) == 1
    assert MomentFunctional(HermiteWeight()).moment(7) == 0


def test_jacobi_closed_form_matches_recursion():
    params = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-2, 3)]
    for alpha in params:
        for beta in params:
            mf = MomentFunctional(JacobiWeight(alpha, beta))
            for n in range(21):
                assert mf.moment(n) == jacobi_moment_closed_form(alpha, beta, n)


def test_bad_weight_parameters():
    with pytest.raises(BadWeight):
        LaguerreWeight(-1)
    with pytest.raises(BadWeight):
        JacobiWeight(0, -2)
    with pytest.raises(BadWeight):
        AtomicWeight((0, 0), (1, 1))
    with pytest.raises(BadWeight):
        AtomicWeight((0, 1), (1, -1))


def test_vb_member_examples():
    assert vb_member(JacobiWeight(0, 0), parse_poly("3*t^2 - 1"))
    assert vb_member(AtomicWeight((0, 1), (1, 1)), parse_poly("2*t - 1"))
    assert not vb_member(HermiteWeight(), poly_one())


def test_inner_product_examples():
    assert inner_product(JacobiWeight(0, 0), parse_poly("t"), parse_poly("t")) == Fraction(1, 3)
    for w in (HermiteWeight(), LaguerreWeight(1), JacobiWeight(1, 2), AtomicWeight((0, 2), (1, 3))):
        assert inner_product(w, poly_one(), poly_one()) == 1
    assert inner_product(HermiteWeight(), parse_poly("t"), poly_one()) == 0


def test_orthopoly_examples():
    assert orthopoly(JacobiWeight(0, 0), 2) == parse_poly("t^2 - 1/3")
    for w in (HermiteWeight(), LaguerreWeight(Fraction(1, 2)), JacobiWeight(1, 1)):
        assert orthopoly(w, 0) == poly_one()
    assert orthopoly(HermiteWeight(), 1) == parse_poly("t")


def test_orthopoly_monic_orthogonal():
    for w in (JacobiWeight(0, 0), HermiteWeight(), LaguerreWeight(Fraction(1, 2)),
              AtomicWeight((0, 1, 2, 3, 4, 5, 6, 7, 8), (1,) * 9)):
        polys = [orthopoly(w, n) for n in range(9)]
        for n, p in enumerate(polys):
            assert p.degree == n and p.coeffs[-1] == 1
        for i in range(9):
            for j in range(i):
                assert inner_product(w, polys[i], polys[j]) == 0


def _random_weight(rng, family):
    def param():
        return Fraction(rng.randint(-4, 20), rng.randint(5, 9))  # always > -1

    if family == "jacobi":
        return JacobiWeight(param(), param())
    if family == "laguerre":
        return LaguerreWeight(param())
    if family == "hermite":
        return HermiteWeight()
    k = rng.randint(1, 9)
    den = rng.randint(1, 3)
    points = tuple(Fraction(p, den) for p in rng.sample(range(-12, 13), k))
    weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k))
    return AtomicWeight(points, weights)


def _outcome(build, w, n):
    try:
        return build(w, n)
    except Degenerate as exc:
        return ("Degenerate", str(exc))


def test_orthopoly_matches_gram_schmidt_reference():
    rng = random.Random(20260)
    for family in ("jacobi", "laguerre", "hermite", "atomic"):
        for _ in range(3):
            w = _random_weight(rng, family)
            for n in range(13):
                expected = _outcome(gram_schmidt_orthopoly, w, n)
                assert _outcome(orthopoly, w, n) == expected, (str(w), n)


def _oracle_weight(rng, family):
    """A seeded weight with parameter denominators up to 9; atomic weights
    have 1 to 10 points, mixed point and weight denominators."""
    def param():
        den = rng.randint(1, 9)
        return Fraction(rng.randint(1 - den, 4 * den), den)  # always > -1

    if family == "jacobi":
        return JacobiWeight(param(), param())
    if family == "laguerre":
        return LaguerreWeight(param())
    if family == "hermite":
        return HermiteWeight()
    size = rng.randint(1, 10)
    points = set()
    while len(points) < size:
        points.add(Fraction(rng.randint(-12, 12), rng.randint(1, 9)))
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
    return AtomicWeight(tuple(sorted(points)), tuple(weights))


def _outcome_or_error(build, w, n):
    try:
        return build(w, n)
    except Exception as exc:  # the exception class and message are compared
        return (type(exc), str(exc))


def test_integer_chebyshev_matches_fraction_oracle():
    rng = random.Random(91715)
    seen, one_point = set(), 0
    for _ in range(500):
        w = _oracle_weight(rng, "atomic")
        # degrees run past the point count into the degenerate case
        n = rng.randint(0, len(w.points) + 2)
        one_point += len(w.points) == 1
        got = _outcome_or_error(orthopoly, w, n)
        assert got == _outcome_or_error(momlab_oracle.orthopoly, w, n), (str(w), n)
        seen.add(got[0].__name__ if isinstance(got, tuple) else "Poly")
    assert seen == {"Poly", "Degenerate"} and one_point


def test_classical_recurrence_matches_both_chebyshev_runs():
    # the differential-equation path against the Fraction Chebyshev oracle and
    # the integer Chebyshev run on the same moments; parameters lie in
    # (-1, 4] with denominators up to 9
    rng = random.Random(40213)
    degrees, negative = set(), 0
    for i in range(450):
        w = _oracle_weight(rng, ("jacobi", "laguerre", "hermite")[i % 3])
        if i % 15 == 0:
            w = JacobiWeight(w.alpha, w.alpha)  # a row without its odd term
        # every degree to 40 occurs, the slow high ones less often
        n = min(rng.randint(0, 40), rng.randint(0, 40))
        degrees.add(n)
        negative += any(getattr(w, name, 0) < 0 for name in ("alpha", "beta"))
        got = orthopoly(w, n)
        assert got == momlab_oracle.orthopoly(w, n), (str(w), n)
        assert got == momlab._chebyshev_orthopoly(w, n), (str(w), n)
    assert degrees == set(range(41)) and negative


def test_integer_atomic_moments_match_fraction_oracle():
    # atomic weights to index 40, classical ones to 200
    rng = random.Random(5273)
    for i in range(200):
        w = _oracle_weight(rng, ("atomic", "jacobi", "laguerre", "hermite")[i % 4])
        top = 40 if isinstance(w, AtomicWeight) else 200
        oracle = momlab_oracle.MomentFunctional(w)
        # two functionals on one weight, each asked out of order
        first, second = MomentFunctional(w), MomentFunctional(w)
        for n in [12, 3, 0, 13, 7, top, 25]:
            assert first.moment(n) == oracle.moment(n), (str(w), n)
            assert second.moment(top - n) == oracle.moment(top - n), (str(w), top - n)


def _functional_weights(rng):
    """The weights of the functional cross-oracle: zero, negative and 7-digit
    parameters, alpha = beta, alpha + beta = -1 and one-point atomic weights,
    then seeded ones."""
    third = Fraction(1, 3)
    seven = Fraction(rng.randint(10 ** 6, 10 ** 7 - 1), rng.randint(10 ** 6, 10 ** 7 - 1))
    unit = Fraction(rng.randint(10 ** 6, 10 ** 7 - 1), 10 ** 7 + 19)  # in (0, 1)
    weights = [
        HermiteWeight(), LaguerreWeight(0), LaguerreWeight(Fraction(-1, 2)),
        LaguerreWeight(Fraction(-999982, 999983)), LaguerreWeight(seven), LaguerreWeight(-unit),
        JacobiWeight(third, third), JacobiWeight(-third, -third), JacobiWeight(0, 0),
        # alpha + beta = -1: the top factor vanishes at degree 0
        JacobiWeight(-third, -2 * third), JacobiWeight(-unit, unit - 1),
        JacobiWeight(Fraction(-999982, 999983), Fraction(-999978, 999979)),
        JacobiWeight(Fraction(-999982, 999983), seven),
        AtomicWeight((Fraction(5, 7),), (Fraction(3, 11),)), AtomicWeight((0,), (1,)),
        AtomicWeight((Fraction(1, 2), Fraction(-3, 5), 2), (Fraction(2, 3), 1, Fraction(9, 4))),
    ]
    for i in range(24):
        weights.append(_oracle_weight(rng, ("atomic", "jacobi", "laguerre", "hermite")[i % 4]))
    return weights


def test_functional_matches_moment_sum():
    # vb_member and inner_product, which build no moment, against the sum of
    # coefficients times Fraction moments that they replace
    rng = random.Random(26026)
    weights = _functional_weights(rng)
    functionals = {w: momlab_oracle.MomentFunctional(w) for w in weights}

    def integral(w, f):
        return momlab_oracle.integral(functionals[w], f.qq_coeffs())

    def poly(kind):
        if kind == "zero":
            return qq_poly([])
        size = 1 if kind == "constant" else rng.randint(2, 13)
        return qq_poly([Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(size)])

    kinds = ("zero", "constant", "dense", "dense", "planted")
    verdicts = set()
    for i in range(2400):
        w = weights[i % len(weights)]
        kind = kinds[i // len(weights) % len(kinds)]
        f = poly("dense" if kind == "planted" else kind)
        if kind == "planted":  # f - L(f) lies in ker L
            f = f - qq_poly([integral(w, f)])
        g = poly(kinds[i % len(kinds)])
        member = vb_member(w, f)
        assert member == (integral(w, f) == 0), (str(w), f)
        assert member or kind not in ("zero", "planted"), (str(w), f)
        assert inner_product(w, f, g) == integral(w, f * g), (str(w), f, g)
        verdicts.add(member)
    assert verdicts == {True, False}


@pytest.mark.parametrize("w", [JacobiWeight(Fraction(123, 457), Fraction(511, 997)),
                               LaguerreWeight(Fraction(123, 457))])
def test_functional_at_the_moment_index_limit_is_fast(w):
    # dense inputs of total degree 2000; D(h) for the matched operator D lies
    # in ker L, so g h - <g, h> + D(h) is a member and one more than it is not
    rng = random.Random(2000)

    def dense(degree):
        return Poly.from_ints([rng.randint(-9, 9) for _ in range(degree)] + [1], rng.randint(1, 9))

    h = dense(1999) * (qq_poly([1, 0, -1]) if isinstance(w, JacobiWeight) else qq_poly([0, 1]))
    image = apply_operator(momlab.matched_operator(w), h)
    g, k = dense(1000), dense(1000)
    start = time.perf_counter()
    value = inner_product(w, g, k)
    assert time.perf_counter() - start < 2.0
    planted = g * k - qq_poly([value]) + image
    assert planted.degree == 2000
    for f, expected in ((planted, True), (planted + poly_one(), False)):
        start = time.perf_counter()
        assert vb_member(w, f) is expected
        assert time.perf_counter() - start < 2.0


def test_singular_gram_matrix_is_degenerate(monkeypatch):
    # the moments of a point mass at 1 (nu_n = 1 for every n) on the Chebyshev
    # path of a three-point weight: p_1 = t - 1 has norm zero.  They go in as
    # the integer sums of `_atomic_moments`, d = 1 and W = 1
    w = AtomicWeight((0, 1, 2), (1, 1, 1))
    monkeypatch.setattr(momlab, "_atomic_moments", lambda weight: (1, 1, itertools.repeat(1)))
    assert orthopoly(w, 1) == parse_poly("t - 1")
    with pytest.raises(Degenerate, match="^Gram matrix is singular at this degree$"):
        orthopoly(w, 2)


def test_orthopoly_degree_40_is_fast():
    w = JacobiWeight(Fraction(1, 2), Fraction(1, 3))
    start = time.perf_counter()
    p = orthopoly(w, 40)
    assert time.perf_counter() - start < 2.0
    assert p.degree == 40 and p.coeffs[-1] == 1
    for j in range(40):
        assert inner_product(w, p, t_monomial(QQ, j)) == 0


def test_jacobi_degree_200_is_fast_and_solves_its_equation():
    a, b = Fraction(123, 457), Fraction(511, 997)
    start = time.perf_counter()
    p = orthopoly(JacobiWeight(a, b), 200)
    assert time.perf_counter() - start < 1.0
    assert p.degree == 200 and p.coeffs[-1] == 1
    # (1 - t^2) p'' + (b - a - (a + b + 2) t) p' + n (n + a + b + 1) p = 0
    d1 = p.derivative()
    lhs = (qq_poly([1, 0, -1]) * d1.derivative() + qq_poly([b - a, -(a + b + 2)]) * d1
           + p.scale(200 * (201 + a + b)))
    assert lhs.is_zero


def test_orthopoly_cost_limit_refuses_before_any_work():
    jacobi = JacobiWeight(Fraction(123, 457), Fraction(511, 997))
    row = momlab._bochner_row(*momlab._weight_pair(jacobi)[2:], 1000)
    assert momlab._output_bits(1000, row) <= MAX_ORTHOPOLY_BITS
    for w, n in ((jacobi, 1001), (HermiteWeight(), 2400), (LaguerreWeight(1), 10 ** 9)):
        start = time.perf_counter()
        with pytest.raises(BadInput, match="above the limit of 30000$"):
            orthopoly(w, n)
        assert time.perf_counter() - start < 0.1, (str(w), n)


def test_orthopoly_atomic_degeneracy():
    w = AtomicWeight((0, 1), (1, 1))
    with pytest.raises(Degenerate):
        orthopoly(w, 2)


def test_equivalence_examples():
    rep = equivalence_check(HermiteWeight(), hermite_operator(), 12)
    assert rep.equivalent and not rep.violations
    rep = equivalence_check(LaguerreWeight(1), laguerre_operator(1), 12)
    assert rep.equivalent
    rep = equivalence_check(JacobiWeight(1, 0), JacobiOperator(1, 0), 12)
    assert rep.one_in_image and rep.equivalent is None


def test_equivalence_matches_per_degree_oracle():
    # the all-degree verdict against the per-degree comparison of
    # `momlab_oracle`; zero parameters take the one_in_image path
    rng = random.Random(30529)
    half = Fraction(-1, 2)
    weights = [HermiteWeight(), JacobiWeight(half, half), LaguerreWeight(half),
               LaguerreWeight(0), JacobiWeight(0, 0), JacobiWeight(0, half), JacobiWeight(1, 0)]
    for i in range(45):
        w = _oracle_weight(rng, ("jacobi", "laguerre")[i % 2])
        weights.append(JacobiWeight(w.alpha, w.alpha) if i % 9 == 0 else w)
    kinds = set()
    for w in weights:
        op = momlab.matched_operator(w)
        got = equivalence_check(w, op, 30)
        assert got == momlab_oracle.equivalence_check(w, op, 30), str(w)
        kinds.add((got.one_in_image, got.equivalent,
                   any(getattr(w, name, 0) < 0 for name in ("alpha", "beta"))))
    assert kinds == {(True, None, False), (True, None, True), (False, True, False),
                     (False, True, True)}


def test_weight_rows_match_the_hand_written_rows():
    """The moment row and the Bochner row of the weight's pair against the
    three-case rows of the earlier module, on seeded weights with zero,
    negative and equal parameters.  The Laguerre moment row is the old one
    shifted by n -> n - 1: its pair has w = t, so its n is the old n - 1."""
    rng = random.Random(3133)
    half = Fraction(1, 2)
    weights = [HermiteWeight(), LaguerreWeight(0), JacobiWeight(0, 0), JacobiWeight(0, half),
               JacobiWeight(-half, -half), LaguerreWeight(Fraction(-999982, 999983))]
    for i in range(3000):
        w = _oracle_weight(rng, ("jacobi", "laguerre", "hermite")[i % 3])
        weights.append(JacobiWeight(w.alpha, w.alpha) if i % 7 == 0 and i % 3 == 0 else w)
    kinds = set()
    for w in weights:
        _, _, phi, psi = momlab._weight_pair(w)
        old = momlab_oracle.moment_row(w)
        if isinstance(w, LaguerreWeight):
            old = tuple((e + 1, a + b, b) for e, a, b in old)
        assert tuple(pearson_row(phi, psi)) == old, str(w)
        for n in (1, 2, 5, 17, 40):
            assert momlab._bochner_row(phi, psi, n) == momlab_oracle.ode_row(w, n), (str(w), n)
        kinds.add((type(w).__name__, len(old),
                   any(getattr(w, name, 1) <= 0 for name in ("alpha", "beta"))))
    assert len(kinds) == 7


@pytest.mark.parametrize("w", [
    HermiteWeight(),
    *(LaguerreWeight(Fraction(a)) for a in ("0", "1/2", "-1/2", "3", "123/457")),
    *(JacobiWeight(Fraction(a), Fraction(b)) for a, b in (
        ("0", "0"), ("0", "1/2"), ("-1/3", "0"), ("2", "0"),  # a zero parameter
        ("1/2", "1/2"), ("-1/2", "-1/2"), ("3", "3"),  # equal
        ("1/2", "1/3"), ("2", "5"),  # distinct
        ("-1/2", "2/3"), ("-1/3", "-2/5"),  # negative
    )),
], ids=str)
def test_matched_operator_pair_is_the_weight_pair(monkeypatch, w):
    # equivalence_check rests on this: the matched operator's Pearson pair is
    # the weight's exactly when 1 is not in the image, and Laguerre alpha = 0
    # and a zero Jacobi parameter are the only mismatches; it reads no moment
    op = momlab.matched_operator(w)
    one_in_image = im_structure(op).one_in_image
    assert (pearson_pair(op) == momlab._weight_pair(w)) is not one_in_image
    assert one_in_image is (0 in (getattr(w, "alpha", 1), getattr(w, "beta", 1)))
    reads = []
    moment = MomentFunctional.moment
    monkeypatch.setattr(MomentFunctional, "moment", lambda mf, n: reads.append(n) or moment(mf, n))
    rep = equivalence_check(w, op, 50)
    assert rep == EquivalenceReport(one_in_image, 0 if one_in_image else 51, (),
                                    None if one_in_image else True)
    assert reads == []


def test_moment_index_limit_refuses_before_any_work():
    w = JacobiWeight(Fraction(1, 2), Fraction(1, 3))
    high = t_monomial(QQ, MAX_MOMENT_INDEX + 1)
    half = t_monomial(QQ, MAX_MOMENT_INDEX // 2 + 1)
    calls = (
        (lambda: MomentFunctional(w).moment(MAX_MOMENT_INDEX + 1), MAX_MOMENT_INDEX + 1),
        (lambda: MomentFunctional(w).moment(10 ** 9), 10 ** 9),
        (lambda: vb_member(w, high), MAX_MOMENT_INDEX + 1),
        (lambda: inner_product(w, half, half), MAX_MOMENT_INDEX + 2),
    )
    for call, index in calls:
        start = time.perf_counter()
        with pytest.raises(BadInput, match=f"^moment index {index} is above the limit of 2000$"):
            call()
        assert time.perf_counter() - start < 0.2
    assert MomentFunctional(HermiteWeight()).moment(MAX_MOMENT_INDEX) > 0


def test_equivalence_rejects_mismatched_pair():
    with pytest.raises(BadPair):
        equivalence_check(HermiteWeight(), laguerre_operator(1), 5)


def test_gegenbauer_style_escape_probe():
    # for the Legendre and both Chebyshev weights, random small polynomials
    # leave the vanishing-integral space within a modest power
    rng = random.Random(53)
    half = Fraction(1, 2)
    for w in (JacobiWeight(0, 0), JacobiWeight(-half, -half), JacobiWeight(half, half)):
        for _ in range(8):
            f = qq_poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
            if f.is_zero:
                continue
            power = poly_one()
            escaped = None
            for m in range(1, 31):
                power = power * f
                if not vb_member(w, power):
                    escaped = m
                    break
            assert escaped is not None


def test_moment_bridge_to_normal_form_constant():
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
        mf = MomentFunctional(LaguerreWeight(alpha))
        for n in range(15):
            assert mf.moment(n) == bracket_factorial(n, 1, alpha)
    hermite_mf = MomentFunctional(HermiteWeight())
    op = hermite_operator()
    for q in range(1, 12):
        assert lzero(op, t_monomial(QQ, 2 * q)) == hermite_mf.moment(2 * q)


def test_atomic_radical_structure():
    w = AtomicWeight((0, 1, 3), (2, 1, 1))
    vanishing = parse_poly("t") * parse_poly("t - 1") * parse_poly("t - 3")
    for multiplier in (poly_one(), parse_poly("t + 5"), parse_poly("t^2 - 2")):
        f = vanishing * multiplier
        assert radical_probe(lambda p: vb_member(w, p), f, range(1, 12))


def test_weight_text_format_roundtrip():
    for text in ("hermite", "laguerre:alpha=1/2", "jacobi:alpha=0,beta=0",
                 "atomic:points=0,1;weights=1,1"):
        w = parse_weight(text)
        assert parse_weight(str(w)) == w


def _reader_outcome(read, text):
    try:
        return read(text)
    except AlgebraError as exc:
        return type(exc), str(exc)


# literals of the rational grammar and near it: decimals, a sign, spaces,
# exponent notation, non-ASCII digits, a zero denominator, an empty piece and
# an integer past int()'s digit limit
_LITERALS = ("0", "1", "-1", "3", "+2", " 5 ", "007", "1/2", "-4/6", "0.5", ".5", "-1.25", "1.",
             "7/3", "-2/3", "1e3", "٣", "3/0", "", "x", "1 / 2", "1_0", "-0", "9" * 4301)


def _weight_text(rng):
    """A seeded weight text near the grammar: known and unknown families and
    keys, repeated and missing keys, and atomic lists with spaces around the
    commas, empty pieces, duplicates such as 1/2 and 0.5, nonpositive
    weights and lengths that do not match."""
    def value():
        return rng.choice(_LITERALS) if rng.random() < 0.3 else rng.choice(("1/2", "3", "-1/3", "2"))

    def listed(pool, size):
        items = [rng.choice(pool) if rng.random() < 0.95 else value() for _ in range(size)]
        commas = [rng.choice((",", ",", " , ", ", ")) for _ in items]
        text = "".join(item + comma for item, comma in zip(items, commas))[:-len(commas[-1])]
        return text if rng.random() < 0.95 else text + ","

    head = rng.choice(("laguerre", "jacobi", "atomic", "atomic", "atomic", "hermite", "Jacobi ",
                       "gauss"))
    if head == "hermite":
        return rng.choice(("hermite", "hermite:", "hermite: ", "hermite:alpha=1"))
    keys = {"laguerre": ["alpha"], "jacobi ": ["alpha", "beta"], "atomic": ["points", "weights"]}
    keys = list(keys.get(head.lower(), ["alpha"]))
    if rng.random() < 0.1:
        keys.pop(rng.randrange(len(keys)))
    if rng.random() < 0.1:
        keys.append(rng.choice(("gamma", "alpha", "points")))
    rng.shuffle(keys)
    size = rng.randint(1, 4)
    lists = {"points": listed(("1/2", "0.5", "-3", "2", ".25", "4/3", "5", "-1", "7/2"), size),
             "weights": listed(("1", "2", "3/2", "0.5", "7", "0", "-1"),
                               size if rng.random() < 0.9 else rng.randint(1, 4))}
    sep = ";" if head == "atomic" else ","
    return f"{head}:" + sep.join(f"{key}={lists.get(key) or value()}" for key in keys)


def test_weight_reader_matches_the_piece_by_piece_oracle():
    rng = random.Random(4221)
    cases = [
        "atomic:points=.5,-1.25,3;weights=1,2,3", "atomic:points=1e3;weights=1",
        "atomic:points=٣,1;weights=1,1", "atomic:points= 1 , 2 ,3 ;weights=1 ,2, 3",
        "atomic:points=1/2,0.5;weights=1,1", "atomic:points=1,,2;weights=1,1,1",
        "atomic:points=;weights=", "atomic:points=1,2;weights=1", "atomic:points=1,2,;weights=1,2",
        "atomic:points=1,2;weights=1,0", "atomic:points=1,2;weights=1,-1/2",
        "atomic:points=1,3/0;weights=1,1", "atomic:points=1;weights=" + "9" * 4301,
        "atomic:points=1;weights=1;gamma=2", "atomic:points=1;points=2;weights=1",
        "atomic:weights=1", "atomic:points=1", "laguerre:alpha=-1", "laguerre:alpha=-1.0",
        "laguerre:alpha=-0.999", "laguerre:beta=1", "laguerre:", "jacobi:alpha=-1,beta=0",
        "jacobi:alpha=0,beta=-1", "jacobi:alpha=1/2", "jacobi:alpha=1,alpha=2,beta=0",
        "jacobi:alpha=1e3,beta=0", "gauss:alpha=1", "hermite:alpha=1", " Hermite ",
    ]
    seen = collections.Counter()
    for text in cases + [_weight_text(rng) for _ in range(2500)]:
        got = _reader_outcome(parse_weight, text)
        want = _reader_outcome(momlab_oracle.parse_weight, text)
        if isinstance(want, tuple):
            assert got == want, text
            seen[want[0].__name__] += 1
        else:
            assert got == want and str(got) == str(want) and hash(got) == hash(want), text
            seen[type(want).__name__] += 1
    assert seen["AtomicWeight"] >= 200 and seen["BadInput"] >= 500, seen
    assert seen["BadWeight"] >= 200 and min(seen["LaguerreWeight"], seen["JacobiWeight"]) >= 100, seen


def test_weight_records_accept_ints_strings_and_fractions():
    half = Fraction(1, 2)
    assert LaguerreWeight(half).alpha is half
    assert LaguerreWeight("1/2") == LaguerreWeight(half) and type(LaguerreWeight(3).alpha) is Fraction
    assert JacobiWeight("1/2", 0) == JacobiWeight(half, Fraction(0))
    for bad in (-1, "-1", Fraction(-3, 2), -1.0):
        with pytest.raises(BadWeight, match="^Laguerre parameter must exceed -1$"):
            LaguerreWeight(bad)
        with pytest.raises(BadWeight, match="^Jacobi parameters must exceed -1$"):
            JacobiWeight(0, bad)
    # an atomic weight keeps ints and Fractions and wraps anything else
    w = AtomicWeight(("1/2", 3, Fraction(1, 4)), ("2", Fraction(1, 3), 1))
    assert w.points == (half, 3, Fraction(1, 4))
    assert [type(p) for p in w.points + w.weights] == [Fraction, int, Fraction, Fraction, Fraction, int]
    with pytest.raises(BadWeight, match="^atomic points must be distinct$"):
        AtomicWeight(("1/2", 1, half), (1, 1, 1))
    assert AtomicWeight((1, 2), (3, 4)) == AtomicWeight((Fraction(1), "2"), (3, Fraction(4)))
    assert str(AtomicWeight((1, "-1/2"), (3, 4))) == "atomic:points=1,-1/2;weights=3,4"


def test_atomic_orthopoly_builds_no_fraction_in_momlab(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    weights = [AtomicWeight((0, 1, 2, 5), (1, 1, 1, 2)),
               AtomicWeight((Fraction(-1, 3), Fraction(1, 2), 2, 7), (Fraction(2, 5), 1, 3, 1)),
               parse_weight("atomic:points=-1/2,0.25,3,-4,5/3;weights=1/7,2,.5,3,1")]
    expected = [[momlab_oracle.orthopoly(w, n) for n in range(len(w.points))] for w in weights]
    monkeypatch.setattr(momlab, "Fraction", counting)
    for w, want in zip(weights, expected):
        assert [orthopoly(w, n) for n in range(len(w.points))] == want
    assert built == []
    # the stand-in counts: the moments printout still builds its Fractions
    MomentFunctional(weights[0]).moment(3)
    assert len(built) == 3
