"""Coefficient-ring operators: membership, criteria, bounds, lifts."""

import random
import time
from fractions import Fraction

import pytest

from mathieulab.corealg import (
    Poly,
    QQ,
    QQ_POLY,
    RingElement,
    exact_divide,
    parse_poly,
    parse_ring_element,
    poly_one,
    poly_zero,
    qq_poly,
    qq_poly_trunc,
    ring_monomial,
    ring_scalar,
    squarefree_part,
    t_monomial,
)
from mathieulab import linalg
from mathieulab.errors import BadInput, NotInRadical
from mathieulab.ufdlab import (
    SurjectivityReport,
    _int_levels,
    _residual,
    UfdContext,
    absorption_bound,
    factorial_map,
    gcd_lift,
    member_ufd,
    member_via_factorial,
    parse_trunc_context,
    parse_ufd_context,
    radical_via_coefficients,
    surjectivity_check,
)

from linalg_oracle import add_column, eliminate, solve_linear
from ufdlab_oracle import levels, residual, solve_level

X = ring_monomial(QQ_POLY, 1)
X2 = ring_monomial(QQ_POLY, 2)
XX1 = parse_ring_element("x^2 - x", QQ_POLY)  # x(x - 1)

CTX_X = UfdContext(QQ_POLY, X)
CTX_X2 = UfdContext(QQ_POLY, X2)
CTX_XX1 = UfdContext(QQ_POLY, XX1)
ALL_CTX = (CTX_X, CTX_X2, CTX_XX1)


def rand_p(rng, max_deg=4, coeff_deg=3, height=5):
    coeffs = []
    for _ in range(rng.randint(0, max_deg + 1)):
        data = [Fraction(rng.randint(-height, height)) for _ in range(rng.randint(0, coeff_deg + 1))]
        coeffs.append(RingElement(QQ_POLY, tuple(data)))
    return Poly(QQ_POLY, tuple(coeffs))


def test_context_validation():
    with pytest.raises(BadInput):
        UfdContext(QQ_POLY, ring_scalar(QQ_POLY, 0))
    with pytest.raises(BadInput):
        UfdContext(QQ_POLY, ring_scalar(QQ_POLY, 3))  # unit
    assert parse_ufd_context("ufd:a=x^2").a == X2


def test_member_examples():
    ok, w = member_ufd(CTX_X2, parse_poly("x^2*t - 1", QQ_POLY))
    assert ok and w == parse_poly("-t", QQ_POLY)
    assert CTX_X2.apply(w) == parse_poly("x^2*t - 1", QQ_POLY)
    ok, w = member_ufd(CTX_X2, parse_poly("x*t", QQ_POLY))
    assert not ok and w is None
    ok, w = member_ufd(CTX_X2, parse_poly("x^2", QQ_POLY))
    assert ok and w == parse_poly("-1", QQ_POLY)


def test_factorial_map_examples():
    assert factorial_map(parse_poly("t^2 - 2", QQ_POLY)).is_zero
    assert factorial_map(poly_one(QQ_POLY)) == ring_scalar(QQ_POLY, 1)
    assert factorial_map(parse_poly("t^3", QQ_POLY)) == ring_scalar(QQ_POLY, 6)


def test_member_via_factorial_examples():
    assert member_via_factorial(CTX_X2, parse_poly("t^2 - 2", QQ_POLY))
    assert not member_via_factorial(CTX_X2, parse_poly("t + 1", QQ_POLY))
    assert not member_via_factorial(CTX_X2, parse_poly("t", QQ_POLY))


def test_radical_examples():
    assert radical_via_coefficients(CTX_X2, parse_poly("x*t", QQ_POLY))
    assert not radical_via_coefficients(CTX_X2, parse_poly("t", QQ_POLY))
    assert radical_via_coefficients(CTX_XX1, parse_poly("x^2 - x", QQ_POLY) * parse_poly("t^2", QQ_POLY))


def test_absorption_bound_examples():
    assert absorption_bound(CTX_X2, parse_poly("x*t", QQ_POLY), parse_poly("t", QQ_POLY)) == 4
    assert absorption_bound(CTX_X, parse_poly("x*t", QQ_POLY), poly_one(QQ_POLY)) == 1
    assert absorption_bound(CTX_X2, parse_poly("x*t", QQ_POLY), parse_poly("t^2", QQ_POLY)) == 6
    with pytest.raises(NotInRadical):
        absorption_bound(CTX_X2, parse_poly("t", QQ_POLY), poly_one(QQ_POLY))


def searched_absorption_exponent(ctx, p):
    """The earlier search for N: multiply whole t-polynomials p^N until every
    coefficient lies in (a)."""
    n = 1
    power = p
    while not all(c.is_zero or exact_divide(c, ctx.a) is not None for c in power.coeffs):
        n += 1
        power = power * p
    return n


def test_absorption_bound_matches_power_search():
    rng = random.Random(1415)
    pool = ["x", "x + 1", "x^2 + 1", "x - 2", "2*x + 3"]
    exponents = set()
    for _ in range(300):
        factors = [(parse_ring_element(f, QQ_POLY), rng.randint(1, 3))
                   for f in rng.sample(pool, rng.randint(1, 2))]
        a = ring_scalar(QQ_POLY, 1)
        for f, m in factors:
            a = a * f ** m
        ctx = UfdContext(QQ_POLY, a)
        rho = squarefree_part(a)
        coeffs = []
        for _ in range(rng.randint(1, 3)):
            c = rho * rand_p(rng, max_deg=0, coeff_deg=1).coeff(0)
            for f, m in factors:
                c = c * f ** rng.randint(0, m)
            coeffs.append(c)
        p = Poly(QQ_POLY, tuple(coeffs))
        g = t_monomial(QQ_POLY, rng.randint(0, 1))
        if p.is_zero:
            assert absorption_bound(ctx, p, g) == g.degree + 1
            continue
        n = searched_absorption_exponent(ctx, p)
        assert absorption_bound(ctx, p, g) == n * (g.degree + 1), (a, p)
        exponents.add(n)
    assert exponents == {1, 2, 3}


def test_gcd_lift_examples():
    u, lifted = gcd_lift(X2, [X, ring_monomial(QQ_POLY, 3)])
    assert u == X and lifted == [ring_scalar(QQ_POLY, 1), X2]
    u, lifted = gcd_lift(ring_monomial(QQ_POLY, 3), [X])
    assert u == X2 and lifted == [ring_scalar(QQ_POLY, 1)]
    a = parse_ring_element("x^3 - x^2", QQ_POLY)  # x^2 (x - 1)
    d1 = parse_ring_element("x^2 - x", QQ_POLY)
    u, lifted = gcd_lift(a, [d1, a])
    assert u == X and lifted == [ring_scalar(QQ_POLY, 1), X]


def test_gcd_lift_postconditions_random():
    rng = random.Random(83)
    bases = [X2, ring_monomial(QQ_POLY, 3), parse_ring_element("x^3 - x^2", QQ_POLY)]
    from mathieulab.corealg import squarefree_part

    for _ in range(40):
        a = rng.choice(bases)
        rho = squarefree_part(a)
        d_list = []
        for _ in range(rng.randint(1, 3)):
            scale = RingElement(QQ_POLY, tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))))
            if scale.is_zero:
                scale = ring_scalar(QQ_POLY, 1)
            d_list.append(rho * scale)
        if all(exact_divide(d, a) is not None for d in d_list):
            continue
        u, lifted = gcd_lift(a, d_list)
        for d, dt in zip(d_list, lifted):
            assert u * d == dt * a
        assert any(exact_divide(dt, rho) is None for dt in lifted if not dt.is_zero)


def test_power_congruence_identities():
    # a^n t^n - n! lies in the image, for each test element and n <= 10
    for ctx in ALL_CTX:
        fact = 1
        apow = ring_scalar(QQ_POLY, 1)
        for n in range(11):
            if n:
                fact *= n
                apow = apow * ctx.a
            f = t_monomial(QQ_POLY, n, apow) - poly_one(QQ_POLY).scale(Fraction(fact))
            ok, witness = member_ufd(ctx, f)
            assert ok
            if witness is not None and not f.is_zero:
                assert ctx.apply(witness) == f


def test_ideal_tail_members():
    # a^(n+1) t^n r lies in the image for every coefficient-ring element r
    rng = random.Random(89)
    for ctx in ALL_CTX:
        for _ in range(8):
            n = rng.randint(0, 6)
            r = RingElement(QQ_POLY, tuple(Fraction(rng.randint(-5, 5))
                                           for _ in range(rng.randint(1, 4))))
            f = t_monomial(QQ_POLY, n, ctx.a ** (n + 1) * r)
            assert member_ufd(ctx, f)[0]


def test_factorial_criterion_matches_solver():
    rng = random.Random(97)
    for _ in range(60):
        ctx = ALL_CTX[rng.randrange(3)]
        p = rand_p(rng)
        assert member_via_factorial(ctx, p) == member_ufd(ctx, p.scale_argument(ctx.a))[0]


def test_radical_implies_absorption():
    rng = random.Random(101)
    from mathieulab.corealg import squarefree_part

    for ctx in ALL_CTX:
        rho = squarefree_part(ctx.a)
        p = Poly(QQ_POLY, (rho, rho * 2)) * rand_p(rng, max_deg=1, coeff_deg=1)
        if p.is_zero or not radical_via_coefficients(ctx, p):
            continue
        g = parse_poly("t + 1", QQ_POLY)
        bound = absorption_bound(ctx, p, g)
        f = p.scale_argument(ctx.a)
        for m in range(bound, bound + 4):
            assert member_ufd(ctx, g * f ** m)[0]


def test_surjectivity_truncated_example():
    ring, c, a = parse_trunc_context("trunc:k=2,c=1,a=x")
    report = surjectivity_check(ring, c, a, 10)
    assert report.status == "ONE_IN_IMAGE"
    assert report.one_witness == parse_poly("t + 1/2*x*t^2", ring)
    assert report.unresolved == ()
    assert len(report.monomials) == 11
    for n, witness in report.monomials:
        image = witness.derivative().scale(c) - a * witness
        assert image == t_monomial(ring, n)


def test_surjectivity_field_case():
    ring, c, a = parse_trunc_context("trunc:k=1,c=1,a=1")
    report = surjectivity_check(ring, c, a, 6)
    assert report.status == "ONE_IN_IMAGE" and report.unresolved == ()


def test_surjectivity_structurally_blocked():
    ring, c, a = parse_trunc_context("trunc:k=2,c=0,a=x")
    report = surjectivity_check(ring, c, a, 5)
    assert report.status == "UNDECIDED_ONE"
    assert report.note is not None and "proper ideal" in report.note


def test_surjectivity_never_reports_counterexample():
    cases = ["trunc:k=2,c=1,a=x", "trunc:k=1,c=1,a=1", "trunc:k=3,c=1,a=x",
             "trunc:k=2,c=1,a=1+x*t"]
    for text in cases:
        ring, c, a = parse_trunc_context(text)
        report = surjectivity_check(ring, c, a, 6)
        if report.status == "ONE_IN_IMAGE":
            assert report.unresolved == ()


# reference: one dense solve per target and witness degree, the search that
# the single incremental elimination in surjectivity_check replaces
def _vectorize(poly, max_t_deg, k):
    out = []
    for i in range(max_t_deg + 1):
        data = poly.coeff(i).data if i <= poly.degree else ()
        for j in range(k):
            out.append(data[j] if j < len(data) else Fraction(0))
    return out


def _solve_image(ring, c, a, f, max_deg):
    k = ring.trunc
    out_deg = max(max_deg + max(a.degree, 0), max_deg, f.degree)
    columns = []
    for i in range(max_deg + 1):
        for j in range(k):
            basis = t_monomial(ring, i, RingElement(ring, (Fraction(0),) * j + (Fraction(1),)))
            image = basis.derivative().scale(c) - a * basis
            columns.append(_vectorize(image, out_deg, k))
    rows = [[col[r] for col in columns] for r in range((out_deg + 1) * k)]
    solution = solve_linear(rows, _vectorize(f, out_deg, k))
    if solution is None:
        return None
    return Poly(ring, tuple(RingElement(ring, tuple(solution[i * k:(i + 1) * k]))
                            for i in range(max_deg + 1)))


def reference_surjectivity_check(ring, c, a, deg_bound):
    k = ring.trunc
    extra = k * (max(a.degree, 0) + 1)

    def solve(f):
        base = max(f.degree, 0)
        for max_deg in range(base, base + extra + 1):
            h = _solve_image(ring, c, a, f, max_deg)
            if h is not None:
                return h
        return None

    h_one = solve(poly_one(ring))
    if h_one is None:
        note = None
        if all(g.is_zero or not g.is_unit for g in [c] + list(a.coeffs)):
            note = ("every image value lies in the proper ideal generated by c and "
                    "the coefficients of a, so 1 is structurally unreachable")
        return SurjectivityReport("UNDECIDED_ONE", None, (), tuple(range(deg_bound + 1)), note)
    monomials, unresolved = [], []
    for n in range(deg_bound + 1):
        h = solve(t_monomial(ring, n))
        if h is None:
            unresolved.append(n)
        else:
            monomials.append((n, h))
    return SurjectivityReport("ONE_IN_IMAGE", h_one, tuple(monomials), tuple(unresolved), None)


def test_surjectivity_matches_dense_reference():
    # k = 4 with deg_t a = 2 costs the reference about a second per failed
    # search, so it enters through one fixed context instead of the draw
    rng = random.Random(107)
    cases = [parse_trunc_context("trunc:k=4,c=x,a=1 + x*t^2") + (1,)]
    for _ in range(100):
        k = rng.randint(1, 4)
        ring = qq_poly_trunc(k)
        structural = rng.random() < 0.35

        def element():
            data = [Fraction(rng.randint(-2, 2)) for _ in range(k)]
            if structural:
                data[0] = Fraction(0)
            return RingElement(ring, tuple(data))

        a_terms = rng.randint(0, 3 if k < 4 else 2)
        cases.append((ring, element(), Poly(ring, tuple(element() for _ in range(a_terms))),
                      rng.randint(0, 4)))
    seen = set()
    for ring, c, a, deg_bound in cases:
        report = surjectivity_check(ring, c, a, deg_bound)
        assert report == reference_surjectivity_check(ring, c, a, deg_bound), (ring, c, a, deg_bound)
        seen.add((a.is_zero, report.status, report.note is not None))
    # zero and nonzero a, the structural note, and both outcomes of the search
    assert {(True, "ONE_IN_IMAGE", False), (False, "ONE_IN_IMAGE", False),
            (True, "UNDECIDED_ONE", True), (False, "UNDECIDED_ONE", True),
            (False, "UNDECIDED_ONE", False)} <= seen


# reference: the column search that surjectivity_check replaces.  The image
# columns c*h' - a*h of t^i x^j are eliminated once, in the order of their
# column number i*k + j, and each target is reduced by the pivots of the
# columns with i <= D for D = deg f, deg f + 1, ..., up to the witness-degree
# budget; the witness is the solution supported on the independent columns.
# It runs on linalg_oracle's Fraction column echelon.
def _image(c, a, k, col):
    i, j = divmod(col, k)
    vec = {}
    if i:
        for l, v in enumerate(c.data[:k - j]):
            if v:
                vec[(i - 1) * k + j + l] = i * v
    for s, coeff in enumerate(a.coeffs):
        for l, v in enumerate(coeff.data[:k - j]):
            if v:
                vec[(i + s) * k + j + l] = -v
    return vec


def column_search_surjectivity_check(ring, c, a, deg_bound):
    k = ring.trunc
    extra = k * (max(a.degree, 0) + 1)
    if not any(g.is_unit for g in (c, *a.coeffs)):
        note = ("every image value lies in the proper ideal generated by c and "
                "the coefficients of a, so 1 is structurally unreachable")
        return SurjectivityReport("UNDECIDED_ONE", None, (), tuple(range(deg_bound + 1)), note)
    pivots = []
    rank = [0]  # rank[n]: number of pivots among the first n columns

    def solve(f):
        vec = {i * k + l: v for i, coeff in enumerate(f.coeffs) for l, v in enumerate(coeff.data) if v}
        comb = {}
        used = 0
        base = max(f.degree, 0)
        for max_deg in range(base, base + extra + 1):
            n = (max_deg + 1) * k
            while len(rank) <= n:
                col = len(rank) - 1
                add_column(pivots, _image(c, a, k, col), col)
                rank.append(len(pivots))
            eliminate(pivots[used:rank[n]], vec, comb)
            used = rank[n]
            if not vec:
                return Poly(ring, tuple(
                    RingElement(ring, tuple(-comb.get(i * k + l, Fraction(0)) for l in range(k)))
                    for i in range(max_deg + 1)))
        return None

    h_one = solve(poly_one(ring))
    if h_one is None:
        return SurjectivityReport("UNDECIDED_ONE", None, (), tuple(range(deg_bound + 1)), None)
    monomials, unresolved = [], []
    for n in range(deg_bound + 1):
        h = solve(t_monomial(ring, n))
        if h is None:
            unresolved.append(n)
        else:
            monomials.append((n, h))
    return SurjectivityReport("ONE_IN_IMAGE", h_one, tuple(monomials), tuple(unresolved), None)


SURJECTIVITY_BRANCHES = ("unit", "integral", "raising", "structural", "zero")


def surjectivity_branch(c, a):
    """Which case of the decision mod x the context (c, a) falls in."""
    c0 = c.data[0] if c.data else 0
    low = [coeff.data[0] if coeff.data else 0 for coeff in a.coeffs]
    while low and not low[-1]:
        low.pop()
    if not c0 and not low:
        return "structural"
    if a.is_zero:
        return "zero"
    return ("integral", "unit")[len(low)] if len(low) < 2 else "raising"


def random_trunc_context(rng):
    """(ring, c, a, deg_bound) with rational coefficients, k = 1..6, steered
    towards one branch of the decision mod x."""
    branch = rng.choice(SURJECTIVITY_BRANCHES)
    # a raising context makes the column search run its whole budget, which
    # costs it about 40 ms at k = 6; those k enter as fixed contexts instead
    k = rng.randint(1, 4 if branch == "raising" else 6)
    ring = qq_poly_trunc(k)

    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    def nonzero():
        return q() or Fraction(rng.choice((-1, 1)), rng.randint(1, 4))

    def element(x0):
        return RingElement(ring, (x0, *(q() if rng.random() < 0.5 else 0 for _ in range(k - 1))))

    c0 = {"structural": Fraction(0), "integral": nonzero()}.get(branch, q())
    deg = rng.randint(1 if branch == "raising" else 0, 2 if k < 4 else 1)
    low = [Fraction(0)] * (deg + 1)
    if branch == "unit":
        low[0] = nonzero()
    elif branch == "raising":
        low = [q() for _ in range(deg)] + [nonzero()]
    a_coeffs = () if branch == "zero" else tuple(element(v) for v in low)
    return ring, element(c0), Poly(ring, a_coeffs), rng.randint(0, 3)


def test_surjectivity_matches_column_search():
    rng = random.Random(1313)
    fixed = ["trunc:k=5,c=x,a=1/2*t - x^2 + 3*x^4*t", "trunc:k=6,c=1 + 2/3*x,a=t - x^5*t"]
    cases = [parse_trunc_context(text) + (2,) for text in fixed]
    # k = 12 with both kinds of level solve: top-down (A_0 = 1) and integration (A_0 = 0)
    cases += [parse_trunc_context(text) + (20,)
              for text in ("trunc:k=12,c=x,a=1 + x*t^4", "trunc:k=12,c=1 + x,a=x + x*t^4")]
    cases += [random_trunc_context(rng) for _ in range(2000)]
    seen = set()
    for ring, c, a, deg_bound in cases:
        report = surjectivity_check(ring, c, a, deg_bound)
        assert report == column_search_surjectivity_check(ring, c, a, deg_bound), (ring, c, a, deg_bound)
        seen.add(surjectivity_branch(c, a))
    assert seen == set(SURJECTIVITY_BRANCHES)


def test_level_solve_matches_the_top_down_loop(monkeypatch):
    """Every x-level solve of surjectivity_check, routed through
    linalg.solve_band, equals the earlier top-down loop on the same level.

    The levels come from seeded contexts: with k = 2 and f = t^n, level 1
    solves c_0 h_1' - A_0 h_1 = A_1 h_0 - c_1 h_0', so the seeded A_1 (some
    over 7-digit denominators) reaches the solver almost as drawn.  c_0 and
    A_0 = 0 or not take either sign, also over 7-digit denominators, and
    contexts without higher x-terms give zero levels.
    """
    calls = []
    solve_band = linalg.solve_band

    def spy(lead, num, terms, low=0):
        x, r, scale = solve_band(lead, num, terms, low)
        calls.append((list(num), x, r, scale))
        return x, r, scale

    monkeypatch.setattr(linalg, "solve_band", spy)
    rng = random.Random(2501)

    def rational(big):
        den = rng.choice([1000003, 9999991]) if big else rng.randint(1, 7)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 7 if big else 9), den)

    def text(terms):
        return " ".join(f"{'-' if q < 0 else '+'} {abs(q)}{mono}" for q, mono in terms)

    seen = set()
    for case in range(160):
        k = rng.choice([1, 2, 2, 3, 4])
        c0, a0 = rational(case % 3 == 0), rational(case % 4 == 1) if case % 2 else Fraction(0)
        c = text([(c0, "")] + [(rational(case % 5 == 2), f"*x^{j}")
                               for j in range(1, k) if rng.random() < 0.4])
        a = text([(a0, "")] + [(rational(case % 5 == 3), f"*x^{j}*t^{rng.randint(0, 3)}")
                               for j in range(1, k) for _ in range(rng.randint(0, 2))])
        ring, c, a = parse_trunc_context(f"trunc:k={k},c={c},a={a}")
        calls.clear()
        assert surjectivity_check(ring, c, a, rng.randint(0, 4)).status == "ONE_IN_IMAGE"
        # the right-hand side is S*G, G the level's integer numerators,
        # one degree up with a zero constant term when A_0 = 0
        big_s, shift = c0.denominator * a0.denominator, 0 if a0 else 1
        for num, x, r, scale in calls:
            assert not any(num[:shift]) and all(v % big_s == 0 for v in num) and not any(r)
            level = Poly.from_ints([v // big_s for v in num[shift:]])
            assert Poly.from_ints(x, scale) == solve_level(level, c0, a0), (ring, c, a, level)
            seen.add("A_0 = 0" if not a0 else "A_0 < 0" if a0 < 0 else "A_0 > 0")
            seen.add("c_0 < 0" if c0 < 0 else "c_0 > 0")
            seen.add("zero level" if level.is_zero else "nonzero level")
            if big_s >= 10 ** 6 or max(map(abs, level.num), default=0) >= 10 ** 6:
                seen.add("7 digits")
    assert seen == {"A_0 = 0", "A_0 < 0", "A_0 > 0", "c_0 < 0", "c_0 > 0", "zero level",
                    "nonzero level", "7 digits"}


def test_integer_residual_matches_poly_residual():
    """The level residual of surjectivity_check on integer pairs equals the
    canonical Poly residual of the oracle, as rationals, on 1,200 seeded
    cases, for every level j and from i = 0 and i = 1.

    c and the levels of a mix small and 7-digit rationals, A_0 is zero or a
    nonzero constant, and levels can be zero.  Half of the cases take h from
    a witness of surjectivity_check, read back by both level readers, so the
    residual from i = 0 vanishes at every level, and most of those then
    corrupt h: a bumped coefficient, a doubled witness, a doubled or a
    dropped level.  The other half feed random levels as pairs over a
    denominator that need not be the least.  The integer residual must be
    nonzero exactly when the oracle's is.
    """
    rng = random.Random(2828)

    def rational(big):
        if big:
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 7), rng.choice([1000003, 9999991]))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    def level(deg, big):
        """A random level in QQ[t], zero about one time in four."""
        if rng.random() < 0.25:
            return poly_zero()
        return qq_poly([rational(big) for _ in range(rng.randint(1, deg + 1))])

    def pair(p):
        m = rng.choice([1, 1, 2, 6])
        return [v * m for v in p.num], p.den * m

    def bivariate(ring, lev):
        """sum_j x^j lev[j] over ring."""
        width = max(p.degree + 1 for p in lev)
        return Poly(ring, [RingElement(ring, tuple(p.coeff(i) for p in lev)) for i in range(width)])

    seen = set()
    for case in range(1200):
        k = rng.randint(1, 4)
        ring = qq_poly_trunc(k)
        big = case % 3 == 0
        cs = [rational(big and rng.random() < 0.5) for _ in range(k)]
        a0 = rational(big) if case % 2 else Fraction(0)
        a = bivariate(ring, [qq_poly([a0])] + [level(3, big and rng.random() < 0.5) for _ in range(k - 1)])
        big_a, int_a = levels(a, k), _int_levels(a, k)
        assert [Poly.from_ints(*v) for v in int_a] == big_a
        c_pairs = [q.as_integer_ratio() for q in cs]
        witness = case % 4 < 2 and (cs[0] or a0)
        if witness:
            n = rng.randint(0, 3)
            report = surjectivity_check(ring, RingElement(ring, tuple(cs)), a, n)
            lev = levels(report.monomials[n][1], k)
            g = [t_monomial(QQ, n)] + [poly_zero()] * (k - 1)
            kind = rng.choice(["exact", "bump", "double", "double a level", "drop a level"])
            j = rng.choice([j for j, p in enumerate(lev) if not p.is_zero])
            if kind == "bump":
                lev[j] = lev[j] + t_monomial(QQ, rng.randint(0, 3))
            elif kind == "double":
                lev = [p.scale(2) for p in lev]
            elif kind == "double a level":
                lev[j] = lev[j].scale(2)
            elif kind == "drop a level":
                lev[j] = poly_zero()
            h = bivariate(ring, lev)
            h_levels, h_pairs = levels(h, k), _int_levels(h, k)
            g_pairs = [(list(p.num), p.den) for p in g]
        else:
            kind = "random"
            h_levels = [level(4, big and rng.random() < 0.5) for _ in range(k)]
            g = [level(5, big and rng.random() < 0.5) for _ in range(k)]
            h_pairs, g_pairs = [pair(p) for p in h_levels], [pair(p) for p in g]
        for j in range(k):
            for first in (0, 1):
                num, den = _residual(g_pairs[j], h_pairs, j, first, c_pairs, int_a)
                want = residual(g[j], h_levels, j, first, cs, big_a)
                assert Poly.from_ints(num, den) == want, (case, j, first)
                assert bool(num) == (not want.is_zero), (case, j, first)
                if first == 0 and want.is_zero and kind == "exact":
                    seen.add("exact witness")
                elif first == 0 and not want.is_zero and kind not in ("exact", "random"):
                    seen.add(f"corrupted: {kind}")
        seen.add("A_0 = 0" if not a0 else "A_0 != 0")
        if big:
            seen.add("7 digits")
        if any(p.is_zero for p in h_levels):
            seen.add("zero level")
    assert seen == {"exact witness", "corrupted: bump", "corrupted: double", "corrupted: double a level",
                    "corrupted: drop a level", "A_0 = 0", "A_0 != 0", "7 digits", "zero level"}


def test_surjectivity_eliminates_only_kernel_vectors(monkeypatch):
    calls = []
    add_column = linalg.add_column
    monkeypatch.setattr(linalg, "add_column", lambda *args: calls.append(args) or add_column(*args))
    cases = {
        "trunc:k=4,c=x + 1,a=x*t + x": "integral",
        "trunc:k=5,c=2 - x^3,a=x*t^2 - 1/2*x^4*t": "integral",
        "trunc:k=3,c=1 + x,a=0": "zero",
        "trunc:k=4,c=x,a=1 + x*t^2": "unit",
        "trunc:k=3,c=1,a=-2/3 + x^2*t": "unit",
        "trunc:k=3,c=1,a=t + x": "raising",
        "trunc:k=2,c=0,a=x": "structural",
    }
    for text, branch in cases.items():
        ring, c, a = parse_trunc_context(text)
        assert surjectivity_branch(c, a) == branch
        calls.clear()
        report = surjectivity_check(ring, c, a, 6)
        assert report.status == ("UNDECIDED_ONE" if branch in ("raising", "structural") else "ONE_IN_IMAGE")
        assert len(calls) <= ring.trunc
        if branch in ("unit", "raising", "structural"):
            assert not calls


def test_surjectivity_check_is_fast():
    ring, c, a = parse_trunc_context("trunc:k=4,c=x + 1,a=x*t + x")
    start = time.perf_counter()
    report = surjectivity_check(ring, c, a, 10)
    elapsed = time.perf_counter() - start
    assert report.status == "ONE_IN_IMAGE" and report.unresolved == ()
    assert [n for n, _ in report.monomials] == list(range(11))
    assert elapsed < 1.5, elapsed


def _run_with_corrupted_witness(monkeypatch, text, corruption):
    """surjectivity_check on text, with every witness changed by corruption
    after elimination."""
    eliminate = linalg.eliminate

    def corrupt(pivots, vec, comb):
        witness = not comb  # a kernel vector comes with its column's combination
        scale = eliminate(pivots, vec, comb)
        if witness:
            if corruption == "bump an entry":
                vec[min(vec)] += 1
            elif corruption == "double every entry":
                for key in vec:
                    vec[key] *= 2
            else:
                scale *= 2
        return scale

    ring, c, a = parse_trunc_context(text)
    monkeypatch.setattr(linalg, "eliminate", corrupt)
    surjectivity_check(ring, c, a, 3)


CORRUPTED_WITNESS_CONTEXTS = ["trunc:k=3,c=1,a=-2/3 + x^2*t", "trunc:k=4,c=x + 1,a=x*t + x"]


@pytest.mark.parametrize("text", CORRUPTED_WITNESS_CONTEXTS)
def test_surjectivity_rejects_a_corrupted_witness(monkeypatch, text):
    with pytest.raises(BadInput, match="internal inconsistency"):
        _run_with_corrupted_witness(monkeypatch, text, "bump an entry")


@pytest.mark.parametrize("corruption", ["double every entry", "double the scale"])
@pytest.mark.parametrize("text", CORRUPTED_WITNESS_CONTEXTS)
def test_surjectivity_rejects_a_rescaled_witness(monkeypatch, text, corruption):
    """Doubling every entry or the scale keeps every numerator ratio, so a
    check that ignored the denominator would let these witnesses through."""
    with pytest.raises(BadInput, match="internal inconsistency"):
        _run_with_corrupted_witness(monkeypatch, text, corruption)


def test_surjectivity_refuses_costly_requests_at_once():
    start = time.perf_counter()
    for text, deg_bound, word in [("trunc:k=2,c=1,a=x*t", 100000, "deg_bound"),
                                  ("trunc:k=2,c=1,a=x*t", 10 ** 30, "deg_bound"),
                                  ("trunc:k=3,c=1,a=x*t", 400, "deg_bound"),
                                  ("trunc:k=2,c=0,a=x", 100000, "deg_bound"),
                                  ("trunc:k=2,c=1,a=1 + x*t^10000", 0, "deg_bound"),
                                  ("trunc:k=17,c=1,a=x*t", 1, "k = 17"),
                                  ("trunc:k=32,c=1 + x,a=x + x*t^4", 10, "k = 32")]:
        with pytest.raises(BadInput, match=word):
            surjectivity_check(*parse_trunc_context(text), deg_bound)
    assert time.perf_counter() - start < 0.5
    for k, word in [("1.5", "k must be"), ("x", "k must be"), ("0", "positive"), ("-2", "positive")]:
        with pytest.raises(BadInput, match=word):
            parse_trunc_context(f"trunc:k={k},c=1,a=x")
    # past every request of the tests and the benchmark (k <= 12, deg bound <= 20)
    ring, c, a = parse_trunc_context("trunc:k=16,c=x,a=1 + x*t^4")
    assert surjectivity_check(ring, c, a, 20).status == "ONE_IN_IMAGE"
