"""Operator-image calculus: worked examples and structural invariants.

Expected values marked as derived are computed by independent oracles
inside this module: direct differentiation for witness identities, the
Gaussian and Laguerre moment recursions for normal-form constants.
"""

import math
import random
from fractions import Fraction

import pytest

from mathieulab.corealg import (
    QQ,
    QQ_POLY,
    Poly,
    parse_poly,
    poly_one,
    qq_poly,
    t_monomial,
)
from mathieulab.errors import AlgebraError, BadInput, ZeroInput
from mathieulab.opimage import (
    JacobiOperator,
    MonomialOperator,
    apply_operator,
    hermite_operator,
    im_structure,
    laguerre_operator,
    lzero,
    member,
    parse_operator,
    pearson_pair,
    pearson_row,
    reduce,
)
from mathieulab.radlab import escape_exponent

import opimage_oracle


def double_factorial_odd(q):
    """(2q-1)!! as an exact fraction."""
    out = Fraction(1)
    for j in range(1, q + 1):
        out *= 2 * j - 1
    return out


def gaussian_moment(q):
    """Normalized even moment of exp(-t^2): (2q-1)!! / 2^q."""
    return double_factorial_odd(q) / 2 ** q


def laguerre_moment(alpha, q):
    """Normalized moment of t^alpha exp(-t): prod_{j=1..q} (alpha + j)."""
    out = Fraction(1)
    for j in range(1, q + 1):
        out *= alpha + j
    return out


def rand_qq(rng, max_deg=6, height=9):
    coeffs = [Fraction(rng.randint(-height, height)) for _ in range(rng.randint(1, max_deg + 1))]
    return qq_poly(coeffs)


MONOMIAL_SAMPLE = [
    MonomialOperator(1, 0, 1, 1),
    MonomialOperator(1, 0, 2, 1),
    MonomialOperator(1, 1, 1, 0),
    MonomialOperator(1, Fraction(1, 2), 1, 2),
    MonomialOperator(2, Fraction(-1, 3), Fraction(3, 2), 1),
    MonomialOperator(1, -1, 1, 1),
]

JACOBI_SAMPLE = [
    JacobiOperator(1, 1),
    JacobiOperator(1, 2),
    JacobiOperator(Fraction(1, 2), Fraction(1, 2)),
    JacobiOperator(1, 0),
    JacobiOperator(0, 1),
    JacobiOperator(0, 0),
]


# -- reduce -------------------------------------------------------------------

def test_reduce_examples():
    op = MonomialOperator(1, 0, 1, 1)
    rr = reduce(op, parse_poly("t^3"))
    assert rr.normal_form == parse_poly("2*t")
    assert rr.witness == parse_poly("-t^2")
    # witness identity by direct differentiation: D(t^2) = 2t - t^3
    assert apply_operator(op, parse_poly("t^2")) == parse_poly("2*t - t^3")

    hermite = hermite_operator()
    rr = reduce(hermite, parse_poly("t^2"))
    assert rr.normal_form == qq_poly([gaussian_moment(1)])  # = 1/2

    for j in range(2):
        rr = reduce(op, t_monomial(QQ, j))
        assert rr.normal_form == t_monomial(QQ, j)
        assert rr.witness.is_zero


def test_reduce_lambda_zero_decided():
    # D = d/dt + 1/t: D(t^(n+1)) = (n + 2) t^n leads at every degree
    op = MonomialOperator(1, 1, 0, 0)
    rr = reduce(op, parse_poly("t"))
    assert rr.normal_form.is_zero and rr.witness == parse_poly("1/3*t^2")
    assert lzero(op, parse_poly("t")) == 0
    # D = d/dt - 2/t: the lead n - 1 of D(t^(n+1)) vanishes at n = 1, so t stays
    op = MonomialOperator(1, -2, 0, 0)
    rr = reduce(op, parse_poly("t^2 + t + 1"))
    assert rr.normal_form == parse_poly("t")
    assert apply_operator(op, rr.witness) == parse_poly("t^2 + 1")
    assert lzero(op, parse_poly("t^2 + t + 1")) == 0


def test_reduce_normal_form_degrees():
    rng = random.Random(23)
    for op in MONOMIAL_SAMPLE:
        for _ in range(20):
            rr = reduce(op, rand_qq(rng))
            assert rr.normal_form.degree <= op.d
    for op in JACOBI_SAMPLE[:3]:  # both parameters nonzero
        for _ in range(20):
            rr = reduce(op, rand_qq(rng))
            assert rr.normal_form.degree <= 0


# -- member ---------------------------------------------------------------

def test_member_examples():
    lag = MonomialOperator(1, 1, 1, 0)
    ok, witness = member(lag, parse_poly("t - 2"))
    assert ok and witness == parse_poly("-t")
    assert apply_operator(lag, parse_poly("-t")) == parse_poly("t - 2")

    for d in (0, 1, 2):
        for alpha in (1, Fraction(1, 2), -2):
            op = MonomialOperator(1, alpha, 1, d)
            ok, witness = member(op, poly_one())
            assert not ok and witness is None

    op = MonomialOperator(1, -1, 1, 1)
    ok, witness = member(op, parse_poly("t^2"))
    assert ok and witness == parse_poly("-t")
    assert apply_operator(op, parse_poly("-t")) == parse_poly("t^2")


def test_member_without_polynomial_tail():
    # c d/dt + alpha/t with lam = 0: solvable degreewise except where the
    # multiplier c*n + alpha vanishes
    op = MonomialOperator(1, -2, 0, 0)
    ok, witness = member(op, poly_one())
    assert ok and apply_operator(op, witness) == poly_one()
    ok, _ = member(op, parse_poly("t"))  # needs n = 2, multiplier 0
    assert not ok
    ok, witness = member(op, parse_poly("t^2"))
    assert ok and apply_operator(op, witness) == parse_poly("t^2")


def test_member_jacobi_constant_obstruction():
    op = JacobiOperator(1, 1)
    ok, _ = member(op, poly_one())
    assert not ok
    ok, witness = member(op, parse_poly("t"))
    assert ok and apply_operator(op, witness) == parse_poly("t")


# -- lzero ----------------------------------------------------------------

def test_lzero_examples():
    assert lzero(MonomialOperator(1, 0, 1, 1), parse_poly("t^4")) == 3
    # oracle: variance-1/2 Gaussian-type recursion value [4,2]_0! = 3*1
    assert lzero(MonomialOperator(1, 1, 1, 0), parse_poly("t^3")) == laguerre_moment(1, 3) == 24
    for op in MONOMIAL_SAMPLE:
        assert lzero(op, poly_one()) == 1


def test_hermite_moment_identity():
    op = hermite_operator()
    for q in range(1, 21):
        assert lzero(op, t_monomial(QQ, 2 * q)) == gaussian_moment(q)


# -- im_structure -----------------------------------------------------------

def test_im_structure_examples():
    assert not im_structure(MonomialOperator(1, 1, 1, 0)).one_in_image
    assert not im_structure(MonomialOperator(1, 0, 1, 1)).one_in_image
    assert member(MonomialOperator(1, 0, 1, 1), parse_poly("t"))[0]  # t^d = D(-1)
    s = im_structure(JacobiOperator(1, 0))
    assert s.one_in_image
    ok, witness = member(JacobiOperator(1, 0), poly_one())
    assert ok and apply_operator(JacobiOperator(1, 0), witness) == poly_one()
    # the classical witness: D(t - 1) = 1 + alpha
    assert apply_operator(JacobiOperator(1, 0), parse_poly("t - 1")) == qq_poly([2])


def test_im_structure_invertible_case():
    assert im_structure(MonomialOperator(1, 0, 1, 0)).one_in_image


# -- structural properties ---------------------------------------------------

def test_witness_soundness_random():
    rng = random.Random(29)
    for op in MONOMIAL_SAMPLE + JACOBI_SAMPLE:
        for _ in range(15):
            f = rand_qq(rng)
            rr = reduce(op, f)
            assert apply_operator(op, rr.witness) + rr.normal_form == f
            ok, witness = member(op, f)
            if ok:
                assert apply_operator(op, witness) == f


def test_linearity_random():
    rng = random.Random(31)
    for op in MONOMIAL_SAMPLE:
        for _ in range(15):
            f, g = rand_qq(rng), rand_qq(rng)
            if member(op, f)[0] and member(op, g)[0]:
                assert member(op, f + g)[0]
            if member(op, f)[0]:
                q = Fraction(rng.randint(1, 7), rng.randint(1, 7))
                assert member(op, f.scale(q))[0]


def test_kernel_vanishing_on_image():
    # every image element is annihilated by the normal-form constant
    # functional whenever (d, alpha) != (0, 0)
    rng = random.Random(37)
    for op in MONOMIAL_SAMPLE:
        if op.d == 0 and op.alpha == 0:
            continue
        for _ in range(20):
            h = rand_qq(rng, max_deg=5)
            if op.alpha != 0:
                h = h * t_monomial(QQ, 1)  # admissible domain: t | h
            f = apply_operator(op, h)
            assert member(op, f)[0]
            assert lzero(op, f) == 0


def test_witness_determinism():
    rng = random.Random(41)
    for op in MONOMIAL_SAMPLE + JACOBI_SAMPLE[:4]:
        f = rand_qq(rng)
        first = reduce(op, f)
        second = reduce(op, f)
        assert first.witness == second.witness
        assert first.normal_form == second.normal_form


def test_basic_image_relation_instances():
    # t^(n+d) - (n+alpha) t^(n-1) is an image element for c = lam = 1
    rng = random.Random(43)
    for d, alpha in ((1, Fraction(0)), (0, Fraction(1)), (2, Fraction(1, 3)), (1, Fraction(-1))):
        op = MonomialOperator(1, alpha, 1, d)
        for _ in range(10):
            n = rng.randint(1, 12)
            f = t_monomial(QQ, n + d) - t_monomial(QQ, n - 1).scale(n + alpha)
            assert member(op, f)[0]


def test_jacobi_degenerate_diagonal_decided():
    # alpha = -2: the lead n - 1 of D((1 - t) t^n) vanishes at n = 1, so the
    # normal form keeps t, and D((1 - t) t) = 1 is one more image element
    op = JacobiOperator(-2, 0)
    rr = reduce(op, parse_poly("t^2"))
    assert rr.normal_form == parse_poly("2*t")
    assert apply_operator(op, rr.witness) == parse_poly("t^2 - 2*t")
    assert member(op, parse_poly("t")) == (False, None)
    ok, witness = member(op, parse_poly("t^2 - 2*t"))
    assert ok and apply_operator(op, witness) == parse_poly("t^2 - 2*t")
    # alpha = -4, beta = 1: the lead of D((1 - t^2) t^n) vanishes at n = 1,
    # and D((1 - t^2) t) = 1 + 5t reduces to the constant -24
    op = JacobiOperator(-4, 1)
    assert member(op, poly_one()) == (True, parse_poly("1/24*t^3 - 5/24*t^2 - 1/24*t + 5/24"))
    assert im_structure(op).one_in_image


def test_apply_operator_rejects_inadmissible():
    with pytest.raises(BadInput):
        apply_operator(MonomialOperator(1, 1, 1, 0), poly_one())
    with pytest.raises(BadInput):
        apply_operator(JacobiOperator(1, 1), parse_poly("t"))


def member_by_linear_solve(op, f):
    """Independent membership oracle: is f in the span of the D(h) over the
    admissible monomial basis?  Exact Gaussian elimination, no triangular
    shortcuts, on integer rows (the columns are the numerators of D(h) and
    f, and each new row is divided by its content): f is a member exactly
    when its column, taken last, gets no pivot."""
    if isinstance(op, MonomialOperator):
        start = 1 if op.alpha != 0 else 0
        max_h = max(f.degree - op.d, f.degree, 0) + 1
        basis = [t_monomial(QQ, n) for n in range(start, max_h + 1)]
    else:
        factor = poly_one()
        if op.alpha != 0:
            factor = factor * parse_poly("1 - t")
        if op.beta != 0:
            factor = factor * parse_poly("1 + t")
        # D(w t^n) drops in degree where its lead vanishes, at some
        # n <= |alpha| + |beta|, so the basis reaches past that n
        reach = f.degree + 3 + math.floor(abs(op.alpha) + abs(op.beta))
        basis = [factor * t_monomial(QQ, n) for n in range(0, reach)]
    columns = [apply_operator(op, h) for h in basis] + [f]
    rows = [[c.num[i] if i < len(c.num) else 0 for c in columns]
            for i in range(max(c.degree for c in columns) + 1)]
    for col in range(len(columns)):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        if col == len(columns) - 1:
            return False
        rows.remove(pivot)
        for i, row in enumerate(rows):
            if row[col]:
                row = [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
    return True


def test_membership_matches_linear_solve_oracle():
    rng = random.Random(47)
    ops = MONOMIAL_SAMPLE + [MonomialOperator(1, -2, 0, 0), MonomialOperator(2, 3, 0, 0),
                             JacobiOperator(1, 1), JacobiOperator(1, 2),
                             JacobiOperator(1, 0), JacobiOperator(0, 0)]
    for op in ops:
        for _ in range(12):
            f = rand_qq(rng, max_deg=5, height=5)
            assert member(op, f)[0] == member_by_linear_solve(op, f)
        # image elements must come back positive through both routes
        for _ in range(4):
            h = rand_qq(rng, max_deg=4, height=4)
            if isinstance(op, MonomialOperator):
                if op.alpha != 0:
                    h = h * t_monomial(QQ, 1)
            else:
                if op.alpha != 0:
                    h = h * parse_poly("1 - t")
                if op.beta != 0:
                    h = h * parse_poly("1 + t")
            image = apply_operator(op, h)
            assert member(op, image)[0]
            assert member_by_linear_solve(op, image)


def test_operator_text_format_roundtrip():
    op = parse_operator("mono:c=1,alpha=1/2,lambda=1,d=2")
    assert op == MonomialOperator(1, Fraction(1, 2), 1, 2)
    assert parse_operator(str(op)) == op
    jop = parse_operator("jacobi:alpha=1,beta=2")
    assert jop == JacobiOperator(1, 2)
    assert parse_operator(str(jop)) == jop
    assert parse_operator("mono:alpha=1") == laguerre_operator(1)
    assert parse_operator("mono:d=007") == MonomialOperator(1, 0, 1, 7)
    # d is ASCII digits, and every rational an ASCII literal without '_'
    for text in ("mono:d=1_0", "mono:d=abc", "mono:d=-1", "mono:d=+3", "mono:d=\u0663",
                 "mono:d=", "mono:c=1_0", "mono:alpha=\u0663", "jacobi:beta=3/\u0664"):
        with pytest.raises(BadInput):
            parse_operator(text)
    with pytest.raises(BadInput, match="^exponent d must be a non-negative integer$"):
        parse_operator("mono:d=abc")


# -- cross-oracle: the table-driven elimination against the per-family loops --

def random_image_case(rng, wide=False):
    """(operator, polynomial, image-table row), drawn so that every row
    occurs, with leading coefficients that vanish at some degree: lam = 0
    with alpha = -c*n, and integer Jacobi parameters <= -1; d = 3 gives
    steps d+1 degrees apart.  With wide, many cases also take parameters
    such as -999982/999983, coefficients over 7-digit denominators or
    degrees up to 40; without it the draws are those of the small cases
    alone."""
    def param():
        if wide and rng.random() < 0.3:
            den = rng.randint(10 ** 5, 10 ** 7)
            return Fraction(rng.choice((-1, 1)) * (den - rng.randint(1, 20)), den)
        return Fraction(rng.randint(-4, 3), rng.choice((1, 1, 2, 3)))

    def nonzero():
        return param() or Fraction(rng.choice((-1, 1)), rng.randint(1, 3))

    row = rng.choice(("mono", "mono lam=0", "jacobi alpha,beta", "jacobi alpha",
                      "jacobi beta", "jacobi plain"))
    if row == "mono":
        op = MonomialOperator(param(), param(), nonzero(), rng.randint(0, 3))
    elif row == "mono lam=0":
        c = param()
        alpha = -c * rng.randint(1, 6) if rng.random() < 0.5 else param()
        op = MonomialOperator(c, alpha, 0, rng.randint(0, 3))
    elif row == "jacobi alpha,beta":
        op = JacobiOperator(nonzero(), nonzero())
    elif row == "jacobi alpha":
        op = JacobiOperator(nonzero(), 0)
    elif row == "jacobi beta":
        op = JacobiOperator(0, nonzero())
    else:
        op = JacobiOperator(0, 0)
    if rng.random() < 0.01:
        return op, parse_poly("x*t", QQ_POLY), row
    den_bound = 10 ** 7 if wide and rng.random() < 0.5 else 4
    degree = rng.randint(9, 40) if wide and rng.random() < 0.5 else rng.randint(0, 8)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, den_bound)) if rng.random() < 0.7 else 0
              for _ in range(degree)]
    return op, qq_poly(coeffs), row


def outcome(fn, op, f):
    try:
        return fn(op, f)
    except AlgebraError as exc:
        return type(exc), str(exc)


def two_factor_spare(op):
    """Whether op is two-factor Jacobi whose lead vanishes at an integer
    n* = -(alpha + beta + 2) >= 0, where the per-family loops miss D(w t^n*)."""
    if not isinstance(op, JacobiOperator) or not (op.alpha and op.beta):
        return False
    n = -(op.alpha + op.beta + 2)
    return n.denominator == 1 and n >= 0


def checked_member(op, f, got=None):
    """member's flag, checked: D(witness) = f proves a member, and the linear
    solve confirms a non-member."""
    ok, witness = got or member(op, f)
    if ok:
        assert apply_operator(op, witness) == f, (op, f)
    else:
        assert witness is None and not member_by_linear_solve(op, f), (op, f)
    return ok


def check_by_linear_solve(op, f, name, got):
    """What the rule answers where the earlier code refused or missed an
    element: member as `checked_member`, and f = D(witness) + normal form
    with lzero its constant term."""
    if name == "member":
        checked_member(op, f, got)
    elif name == "reduce":
        assert apply_operator(op, got.witness) + got.normal_form == f, (op, f)
    else:
        assert got == reduce(op, f).normal_form.coeff(0), (op, f)


def test_image_table_matches_per_family_loops():
    """The integer elimination against the per-family Fraction loops on every
    case, and on the wide cases also against the Fraction table elimination,
    exceptions included; where these refuse (a vanishing Jacobi lead, lam = 0)
    or, in member, miss the element of a two-factor n* >= 0, against the
    linear solve."""
    rng = random.Random(1414)
    refusals = (opimage_oracle.DegenerateDiagonal, opimage_oracle.UnsupportedReduction)
    loop_fns = (opimage_oracle.reduce, opimage_oracle.member, opimage_oracle.lzero)
    table_fns = (opimage_oracle.table_reduce, opimage_oracle.table_member,
                 opimage_oracle.table_lzero)
    rows, decided, lam_zero_nonmember, big = set(), 0, 0, 0
    for i in range(20_000 + 1_500):
        wide = i >= 20_000
        op, f, row = random_image_case(rng, wide)
        rows.add(row)
        got = [outcome(fn, op, f) for fn in (reduce, member, lzero)]
        for fns in (loop_fns, table_fns) if wide else (loop_fns,):
            for name, answer, fn in zip(("reduce", "member", "lzero"), got, fns):
                want = outcome(fn, op, f)
                if (isinstance(want, tuple) and want[0] in refusals
                        or name == "member" and two_factor_spare(op) and f.ring == QQ):
                    check_by_linear_solve(op, f, name, answer)
                    decided += 1
                else:
                    assert answer == want, (op, f, name)
        lam_zero_nonmember += row == "mono lam=0" and got[1] == (False, None)
        big += f.ring == QQ and (f.degree > 8 or f.den > 10 ** 6)
    assert len(rows) == 6
    assert decided and lam_zero_nonmember and big > 500


def random_degenerate_case(rng):
    """(family, operator): an operator whose image needs the non-leading
    element, or one the earlier code refused.  Two-factor Jacobi with
    alpha + beta in -2..-9, integer or half-integer (n* = 0..7); one-factor
    Jacobi with the parameter in -1..-7; lam = 0 with and without a
    vanishing lead; c = 0 with any alpha, lam and d; and witness factor
    w = 1, where D(1) leads: alpha = 0 with d = 0..3, c and lam zero or
    not, and jacobi:alpha=0,beta=0."""
    family = rng.choice(("jacobi two-factor", "jacobi one-factor", "mono lam=0 vanishing",
                         "mono lam=0", "mono c=0", "w = 1"))
    if family == "w = 1":
        if rng.random() < 0.2:
            return family, JacobiOperator(0, 0)
        return family, MonomialOperator(rng.choice((0, 1, 2, Fraction(-1, 2))), 0,
                                        rng.choice((0, 1, -2, Fraction(3, 2))), rng.randint(0, 3))
    if family == "jacobi two-factor":
        total = -rng.randint(2, 9)
        alpha = Fraction(rng.randint(2 * total - 4, 4), rng.choice((1, 2)))
        if alpha in (0, total):
            alpha = Fraction(total, 2)
        return family, JacobiOperator(alpha, total - alpha)
    if family == "jacobi one-factor":
        param = -rng.randint(1, 7)
        return family, JacobiOperator(param, 0) if rng.random() < 0.5 else JacobiOperator(0, param)
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
    d = rng.randint(0, 3)
    if family == "mono lam=0 vanishing":
        return family, MonomialOperator(c, -c * rng.randint(0, 5), 0, d)
    if family == "mono lam=0":
        return family, MonomialOperator(c, c * Fraction(rng.randint(1, 5), rng.randint(2, 3)), 0, d)
    value = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))  # noqa: E731
    return family, MonomialOperator(0, value(), value(), d)


def test_membership_rule_matches_linear_solve_on_degenerate_operators():
    """member, reduce, im_structure and escape against the linear solve on
    the operators whose image needs the non-leading element, and on those
    with w = 1, where member eliminates D(1) and reduce keeps t^d."""
    rng = random.Random(3333)
    seen = set()
    for _ in range(300):
        family, op = random_degenerate_case(rng)
        assert im_structure(op).one_in_image == checked_member(op, poly_one()), op
        if family == "w = 1" and isinstance(op, MonomialOperator) and op.lam:
            rr = reduce(op, t_monomial(QQ, op.d))  # D(1) = -lam t^d is left out
            assert rr.normal_form == t_monomial(QQ, op.d) and rr.witness.is_zero, op
        w = Poly.from_ints(pearson_pair(op)[0])
        for f in (rand_qq(rng, max_deg=5, height=5),
                  apply_operator(op, w * rand_qq(rng, max_deg=4, height=4)) + rand_qq(rng, 0, 3),
                  t_monomial(QQ, rng.randint(0, 4))):
            ok = checked_member(op, f)
            rr = reduce(op, f)
            assert apply_operator(op, rr.witness) + rr.normal_form == f, (op, f)
            seen.add((family, ok, ok and not rr.normal_form.is_zero))
            if f.is_zero:
                with pytest.raises(ZeroInput):
                    escape_exponent(op, f, 3)
                continue
            want = next((m for m in (1, 2, 3) if not checked_member(op, f ** m)), None)
            assert escape_exponent(op, f, 3) == want, (op, f)
    # members and non-members in every family but lam = 0 without a vanishing
    # lead, where every f is a member, and members whose normal form is
    # nonzero: those that need the non-leading element, or D(1) for w = 1
    assert {(family, ok) for family, ok, _ in seen} == {
        (family, ok) for family in ("jacobi two-factor", "jacobi one-factor",
                                    "mono lam=0 vanishing", "mono lam=0", "mono c=0", "w = 1")
        for ok in (False, True)} - {("mono lam=0", False)}
    assert {("jacobi two-factor", True, True), ("mono c=0", True, True),
            ("w = 1", True, True)} <= seen


# -- cross-oracle: the Pearson pair against the hand-written table and operator --

def random_operator(rng):
    """An operator of any table row: zero, negative, equal and 7-digit
    parameters, c = 0 and lam = 0 included, d up to 4."""
    def param():
        r = rng.random()
        if r < 0.2:
            return Fraction(0)
        if r < 0.3:
            den = rng.randint(10 ** 5, 10 ** 7)
            return Fraction(rng.choice((-1, 1)) * (den - rng.randint(1, 20)), den)
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    if rng.random() < 0.5:
        return MonomialOperator(param(), param(), param(), rng.randint(0, 4))
    alpha = param()
    return JacobiOperator(alpha, alpha if rng.random() < 0.15 else param())


def test_pearson_rows_match_the_hand_written_table():
    """pearson_row of the pair is the six-case table row term by term: the
    table's zero terms dropped, and for w = t each n shifted down by one,
    because D(t t^n) is the table's element of n + 1."""
    rng = random.Random(3131)
    cases = set()
    for _ in range(3000):
        op = random_operator(rng)
        w, q, phi, psi = pearson_pair(op)
        old_w, n0, old_q, top, rest, where = opimage_oracle.image_row(op)
        old = sorted(rest) + [top]
        if w == (0, 1):
            old, n0 = [(e + 1, a + b, b) for e, a, b in old], n0 - 1
        assert pearson_row(phi, psi) == [t for t in old[:-1] if t[1] or t[2]] + old[-1:], op
        assert q == old_q and n0 == (len(w) == 1)
        assert old_w == (None if len(w) == 1 or w == (0, 1) else Poly.from_ints(w))
        assert where == ({2: "single-factor", 3: "two-factor"}.get(len(w)) if w[0] else None)
        cases.add((w, op.lam == 0 if isinstance(op, MonomialOperator) else None))
    assert len(cases) == 8


def test_apply_operator_is_the_pearson_form():
    """apply_operator(op, w g) = (phi g' + psi g) / q, and it agrees with the
    per-parameter operator of the earlier module, its three divisibility
    messages included, on admissible and inadmissible h."""
    rng = random.Random(3132)
    seen, cases = set(), set()
    for _ in range(1500):
        op = random_operator(rng)
        w, q, phi, psi = pearson_pair(op)
        g = rand_qq(rng, max_deg=rng.choice((0, 3, 8)), height=7)
        h = Poly.from_ints(w) * g
        want = Poly.from_ints(phi, q) * g.derivative() + Poly.from_ints(psi, q) * g
        assert apply_operator(op, h) == want == opimage_oracle.apply_operator(op, h), (op, g)
        bad = h + rand_qq(rng, max_deg=2, height=3)
        got = outcome(apply_operator, op, bad)
        assert got == outcome(opimage_oracle.apply_operator, op, bad), (op, bad)
        if isinstance(got, tuple):
            seen.add(got[1])
        cases.add((w, op.lam == 0 if isinstance(op, MonomialOperator) else None, g.degree > 3))
    assert seen == {"witness must be divisible by t when alpha != 0",
                    "witness must be divisible by (1 - t) when alpha != 0",
                    "witness must be divisible by (1 + t) when beta != 0"}
    assert len(cases) == 16
