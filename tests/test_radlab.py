"""Cofinite subspaces: radicals, largest ideals, Mathieu verdicts.

The window rule behind the exact radical decision is cross-checked here
against an independent oracle built from multiplication matrices.
"""

import collections
import itertools
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from math import lcm, prod

import pytest

from mathieulab import radlab
from mathieulab.cli import main
from mathieulab.corealg import (
    QQ,
    QQ_POLY,
    Poly,
    euclid_divmod,
    parse_poly,
    poly_divides,
    poly_one,
    poly_zero,
    qq_poly,
    squarefree_part,
    t_monomial,
)
from mathieulab.errors import BadInput, RingMismatch, ZeroInput
from mathieulab.opimage import MonomialOperator, member
from mathieulab.radlab import (
    CONSISTENT_UP_TO_BUDGET,
    MATHIEU_EXACT,
    NOT_MATHIEU,
    CofiniteSubspace,
    _set_idempotent,
    atomic_space,
    definition_witness,
    escape_exponent,
    largest_ideal,
    mathieu_check,
    radical_member_cofinite,
    radical_probe,
    radical_probe_space,
)

from linalg_oracle import nullspace, solve_linear
from radlab_oracle import (
    definition_witness_walk,
    divmod_radical_member_cofinite,
    divmod_residue_vec,
    first_zero_sum_walk,
    fraction_basis,
    krylov_interior_ideal,
    poly_gcd,
    poly_set_idempotent,
    poly_xgcd,
    window_radical_member_cofinite,
)

VALUE_SUM = atomic_space([0, 1], [1, 1])          # {f : f(0) + f(1) = 0}
VALUE_EQUAL = atomic_space([0, 1], [1, -1])       # {f : f(0) = f(1)}


def basis_fractions(space):
    """The basis rows of V/(g) that space was built from, as Fractions."""
    return [[Fraction(x, den) for x in row] for row, den in space._basis]


def coefficient_space(factors, basis):
    """The space whose V/(g) is spanned by the polynomials with the given
    coefficient vectors, handed to the constructor in residue coordinates."""
    coords = CofiniteSubspace(factors, [])
    return CofiniteSubspace(factors, [coords.residue_vec(qq_poly(v)) for v in basis])


def powers_in_space_by_matrix(space, f, window):
    """Independent oracle: multiplication matrix T of f on QQ[t]/(g); the
    vector of f^m is T^m applied to the coordinates of 1."""
    d = space.dim
    columns = [space.reduce_vec(space.mod(f * t_monomial(QQ, j))) for j in range(d)]
    matrix = [[columns[j][i] for j in range(d)] for i in range(d)]

    def apply(mat, vec):
        return [sum(mat[i][j] * vec[j] for j in range(d)) for i in range(d)]

    vec = space.reduce_vec(poly_one())
    results = {}
    current = vec
    for m in range(1, max(window) + 1):
        current = apply(matrix, current)
        if m in window:
            results[m] = space.contains_vec(space.residue_vec(qq_poly(current)))
    return all(results[m] for m in window)


# -- construction and coordinates ---------------------------------------------

def test_residue_coordinates_match_evaluations():
    # for split moduli the residue coordinates are point evaluations
    space = VALUE_EQUAL
    f = parse_poly("t^2 + 3*t - 1")
    assert space.residue_vec(f) == [f.evaluate(Fraction(0)), f.evaluate(Fraction(1))]


def test_space_json_roundtrip():
    data = {"modulus": [["t", 1], ["t - 1", 1]], "vbar_basis": [[1, 1]]}
    space = CofiniteSubspace.from_dict(data)
    assert space.contains(poly_one())          # 1 has equal values at 0 and 1
    assert not space.contains(parse_poly("t"))
    again = CofiniteSubspace.from_dict(space.to_dict())
    assert again.contains(poly_one()) and not again.contains(parse_poly("t"))
    # the stored residue vectors are printed as given
    data = {"modulus": [["t", 2], ["t - 1", 1]], "vbar_basis": [["0", "1", "0"], ["1/2", "0", "-1"]]}
    assert CofiniteSubspace.from_dict(data).to_dict() == data


def test_space_validation():
    with pytest.raises(BadInput):
        CofiniteSubspace([(parse_poly("t^2 - 1"), 1)], [])  # reducible factor
    with pytest.raises(BadInput):
        CofiniteSubspace([(parse_poly("t"), 1), (parse_poly("t"), 1)], [])
    with pytest.raises(BadInput, match="multiplicities"):
        CofiniteSubspace([(parse_poly("t"), True)], [])
    # JSON integers only: no float, bool, null or string, however it reads
    for mult in (2.9, True, None, "2", "\u0663", " 2 ", "1_0", 2.0, [2]):
        with pytest.raises(BadInput, match="^factor multiplicities must be positive integers$"):
            CofiniteSubspace.from_dict({"modulus": [["t", mult]], "vbar_basis": []})
    assert CofiniteSubspace.from_dict({"modulus": [["t", 3]]}).factors[0][1] == 3
    # a description is a JSON object with no key but modulus and vbar_basis
    for data in ("hello", [["t", 1]], None, 3):
        with pytest.raises(BadInput, match="^malformed subspace description: expected a JSON object$"):
            CofiniteSubspace.from_dict(data)
    for key in ("vbar_bases", "Modulus", ""):
        with pytest.raises(BadInput, match=f"^malformed subspace description: unknown key {key!r}$"):
            CofiniteSubspace.from_dict({"modulus": [["t", 1], ["t - 1", 1]], key: [[1, 1]]})
    for entry in (True, False, None):
        with pytest.raises(BadInput, match="basis entries must be integers or rational strings"):
            CofiniteSubspace([(parse_poly("t"), 1), (parse_poly("t - 1"), 1)], [[entry, 1]])
        with pytest.raises(BadInput, match="basis entries must be integers or rational strings"):
            CofiniteSubspace.from_dict({"modulus": [["t", 1], ["t - 1", 1]],
                                        "vbar_basis": [[entry, 1]]})
    with pytest.raises(BadInput):
        CofiniteSubspace([(parse_poly("t"), 1), (parse_poly("t - 1"), 1)],
                         [[1, 0], [2, 0]])  # dependent basis
    quartic = CofiniteSubspace([(parse_poly("t^4 + t + 7"), 1)], [])
    assert len(quartic.unverified_factors) == 1  # trusted but flagged
    # residue coordinates need coprime blocks; only trusted factors can share one
    CofiniteSubspace([(parse_poly("t^4 - 1"), 1), (parse_poly("t - 2"), 2)], [])
    for other in ("t - 1", "t^4 + 3*t^2 + 2"):  # t^4 - 1 = (t - 1)(t + 1)(t^2 + 1)
        with pytest.raises(BadInput, match="not pairwise coprime"):
            CofiniteSubspace([(parse_poly("t^4 - 1"), 1), (parse_poly(other), 2)], [])


def test_constructor_parses_basis_strings_and_keeps_fractions():
    factors = [(parse_poly("t"), 1), (parse_poly("t - 1"), 1)]
    # exponent notation is refused as in the CLI; the last literal would
    # build an integer of ten million digits
    for text in ("1e3", "2E-1", "1e10000000", "abc", "1/0"):
        with pytest.raises(BadInput, match="^bad rational literal"):
            CofiniteSubspace(factors, [[text, "1"]])
    # each row is held as integers over the lcm of its denominators
    assert CofiniteSubspace(factors, [["-1/2", " 3 "]])._basis == (([-1, 6], 2),)
    assert CofiniteSubspace(factors, [["0.25", 2]])._basis == (([1, 8], 4),)
    assert CofiniteSubspace(factors, [[Fraction(1, 2), 1]])._basis == (([1, 2], 2),)
    lowest = CofiniteSubspace(factors, [["2/6", "-007/014"]])
    assert lowest.to_dict()["vbar_basis"] == [["1/3", "-1/2"]]
    with pytest.raises(BadInput, match="not floats"):
        CofiniteSubspace(factors, [[0.5, 1]])


def has_rational_root_by_divisors(f):
    """Reference: rational-root theorem by enumerating divisors of the end terms."""
    coeffs = f.qq_coeffs()
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    if ints[0] == 0:
        return True

    def divisors(n):
        return [i for i in range(1, abs(n) + 1) if n % i == 0]

    return any(f.evaluate(Fraction(sign * p, q)) == 0
               for p in divisors(ints[0]) for q in divisors(ints[-1]) for sign in (1, -1))


def factor_is_accepted(f):
    try:
        CofiniteSubspace([(f, 1)], [])
    except BadInput:
        return False
    return True


def test_factor_validation_matches_divisor_enumeration():
    rng = random.Random(2017)
    for _ in range(400):
        degree = rng.choice((2, 3))
        if rng.random() < 0.5:
            # plant a rational root p/q so reducible factors are common
            root = qq_poly([-Fraction(rng.randint(-30, 30), rng.randint(1, 6)), 1])
            rest = qq_poly([rng.randint(-9, 9) for _ in range(degree - 1)] + [rng.randint(1, 5)])
            f = root * rest
        else:
            f = qq_poly([Fraction(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(degree)]
                        + [rng.randint(1, 7)])
        if f.degree != degree:
            continue
        assert factor_is_accepted(f) == (not has_rational_root_by_divisors(f)), f


def test_factor_validation_is_fast_on_large_constants():
    big = 10 ** 19 + 51  # 20 digits, neither a square nor a cube
    start = time.perf_counter()
    assert factor_is_accepted(parse_poly(f"t^2 - {big}"))
    assert factor_is_accepted(parse_poly(f"t^3 - {big}"))
    assert factor_is_accepted(parse_poly(f"{big}*t^3 - t - 1"))
    assert not factor_is_accepted(parse_poly(f"t^2 - {big ** 2}"))
    assert not factor_is_accepted(parse_poly(f"t^3 - {big ** 3}"))
    assert not factor_is_accepted(qq_poly([-big, 7]) * parse_poly("t^2 + 1"))
    assert time.perf_counter() - start < 2.0


# -- probes -------------------------------------------------------------

def test_modulus_degree_limit_refuses_before_any_work():
    limit = radlab.MAX_MODULUS_DEGREE
    t1, t2 = parse_poly("t + 1"), parse_poly("t^2 + 1")
    for factors, degree in (([(t1, limit + 1)], limit + 1),
                            ([(t1, 10 ** 9)], 10 ** 9),
                            ([(t2, limit // 2), (parse_poly("t"), 1)], limit + 1)):
        start = time.perf_counter()
        with pytest.raises(BadInput, match=f"^modulus degree {degree} is above the limit of 32$"):
            CofiniteSubspace(factors, [])
        assert time.perf_counter() - start < 0.2
    assert CofiniteSubspace([(t1, limit)], []).dim == limit


def test_radical_probe_examples():
    op = MonomialOperator(1, -1, 1, 1)
    assert radical_probe(lambda p: member(op, p)[0], parse_poly("t^2"), range(1, 16))
    # (2t-1)^2 has value sum 1 + 1 = 2 at {0, 1}
    assert not radical_probe(VALUE_SUM.contains, parse_poly("2*t - 1"), range(1, 3))
    assert radical_probe(VALUE_SUM.contains, poly_zero(), range(1, 3))
    # a malformed window is refused before the first oracle call, so an
    # accepting and a rejecting oracle get the same answer
    asked = []
    for accepts in (lambda p: True, VALUE_SUM.contains):
        oracle = lambda p, accepts=accepts: asked.append(p) or accepts(p)  # noqa: E731
        with pytest.raises(BadInput, match="^empty probe window$"):
            radical_probe(oracle, poly_one(), [])
        with pytest.raises(BadInput, match="^window exponents must be non-negative$"):
            radical_probe(oracle, poly_one(), [-1, 2])
        for window in ([2, 2], [3, 1], [1, 5, 4]):
            with pytest.raises(BadInput, match="^window exponents must increase$"):
                radical_probe(oracle, poly_one(), window)
    assert asked == []
    # a range is checked from its start and step, with the message and at
    # the exponent of the same window read one exponent at a time
    t3, limit = parse_poly("t^3"), radlab.MAX_POWER_DEGREE

    def walk(window):
        out = []
        try:
            for m in radlab._exponents(t3, window):
                out.append(m)
        except BadInput as exc:
            return out, str(exc)
        return out, None

    cases = {
        range(0): (0, "empty probe window"), range(5, 5): (0, "empty probe window"),
        range(-1, 3): (0, "window exponents must be non-negative"),
        range(-3, 9, 4): (0, "window exponents must be non-negative"),
        range(5, 0, -1): (0, "window exponents must increase"),
        range(2, -3, -1): (0, "window exponents must increase"),
        range(0, -5, -1): (0, "window exponents must be non-negative"),
        range(3, 2, -1): (1, None), range(1, 10 ** 30): (166, "f^167 would have degree 501"),
        range(160, 10 ** 9, 3): (3, "f^169 would have degree 507"), range(2, 40, 7): (6, None),
    }
    for window, (count, message) in cases.items():
        got = walk(window)
        assert got == walk(iter(window)) == walk(list(window[:limit + 2])), window
        assert got[0] == list(window[:count]), window
        assert got[1] is None if message is None else got[1].startswith(message), (window, got)


def test_escape_exponent_examples():
    # Laguerre alpha=1: moments mu_1 = 2, mu_2 = 6; L0(t-2) = 0, L0((t-2)^2) = 2
    assert escape_exponent(MonomialOperator(1, 1, 1, 0), parse_poly("t - 2"), 50) == 2
    assert escape_exponent(MonomialOperator(1, 0, 1, 1), parse_poly("t"), 50) == 2
    assert escape_exponent(MonomialOperator(1, -1, 1, 1), parse_poly("t^2"), 50) is None
    with pytest.raises(ZeroInput):
        escape_exponent(MonomialOperator(1, 1, 1, 0), poly_zero(), 10)


def test_power_walks_stop_at_the_degree_limit():
    limit = radlab.MAX_POWER_DEGREE
    t = parse_poly("t")
    assert radical_probe(lambda p: True, t, [limit])
    with pytest.raises(BadInput, match="MAX_POWER_DEGREE"):
        radical_probe(lambda p: True, t, [limit, limit + 1])
    # a walk that stops below the limit is unaffected
    assert not radical_probe(lambda p: False, t, range(1, 4 * limit))
    assert escape_exponent(MonomialOperator(1, 1, 1, 0), parse_poly("t - 2"), 10 ** 9) == 2
    # t^2 stays in this image, so the walk runs until the next power passes the limit
    message = re.escape(f"f^{limit // 2 + 1} would have degree {limit + 2}")
    start = time.perf_counter()
    for budget in (limit, 10 ** 9):
        with pytest.raises(BadInput, match=message):
            escape_exponent(MonomialOperator(1, -1, 1, 1), parse_poly("t^2"), budget)
    assert time.perf_counter() - start < 6.0


def test_power_walks_are_bounded_for_constants_windows_and_witnesses(capsys):
    limit = radlab.MAX_POWER_DEGREE
    t, c = parse_poly("t"), parse_poly("3/7")

    def window():  # a walk that drew all of it first would fail here
        for m in itertools.count(1):
            if m > 1000:
                raise AssertionError("more than 1,000 window exponents drawn")
            yield m

    one_point = '{"modulus":[["t",1]],"vbar_basis":[[1]]}'
    cases = [
        lambda: radical_probe(lambda p: True, t, window()),
        lambda: radical_probe(lambda p: True, c, range(1, 10 ** 9)),
        lambda: escape_exponent(MonomialOperator(1, 0, 0, 0), c, 4000),
    ]
    for case in cases:
        start = time.perf_counter()
        with pytest.raises(BadInput, match="MAX_POWER_DEGREE"):
            case()
        assert time.perf_counter() - start < 0.5
    for argv in (["radical-probe", "--space", one_point, "--poly", "t", "--window", "1:1000000"],
                 ["escape", "--op", "mono:c=1,alpha=0,lambda=0,d=0", "--poly", "3/7",
                  "--budget", "4000"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["code"] == "BAD_INPUT"
        assert time.perf_counter() - start < 0.5
    # a constant walks at most MAX_POWER_DEGREE powers, under its own message
    assert radical_probe(lambda p: True, c, [limit])
    with pytest.raises(BadInput, match=f"^f\\^{limit + 1} of a constant f is above the limit"):
        radical_probe(lambda p: True, c, [1, limit + 1])
    # windows are read in order and must increase
    for bad, message in (([2, 1], "increase"), ([1, 1], "increase"), ([3, -1], "non-negative"),
                         (iter(()), "empty")):
        with pytest.raises(BadInput, match=message):
            radical_probe(lambda p: True, t, bad)


def test_largest_ideal_examples():
    assert largest_ideal(VALUE_SUM) == parse_poly("t^2 - t")
    ideal = CofiniteSubspace([(parse_poly("t"), 1), (parse_poly("t - 1"), 1)], [])
    assert largest_ideal(ideal) == parse_poly("t^2 - t")
    full = CofiniteSubspace([(parse_poly("t"), 1), (parse_poly("t - 1"), 1)],
                            [[1, 0], [0, 1]])
    assert largest_ideal(full) == poly_one()


def random_spaces(seed, count):
    """Seeded random cofinite spaces over split, non-split and non-reduced moduli."""
    rng = random.Random(seed)
    pool = ["t", "t - 1", "t + 2", "t^2 + 1", "t^2 - 2", "t^2 + t + 1", "t^3 - 2"]
    spaces = []
    while len(spaces) < count:
        factors = [(parse_poly(p), rng.randint(1, 2)) for p in rng.sample(pool, rng.randint(1, 3))]
        dim = sum(p.degree * m for p, m in factors)
        if dim > 7:
            continue
        # an ideal (d) with d | g, plus a few random vectors (coefficient coordinates)
        d = poly_one()
        for p, m in factors:
            d = d * p ** rng.randint(0, m)
        basis = [list((d * t_monomial(QQ, j)).qq_coeffs()) + [0] * (dim - d.degree - j - 1)
                 for j in range(dim - d.degree)] if rng.random() < 0.7 else []
        basis += [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
        try:
            spaces.append(coefficient_space(factors, basis))
        except BadInput:
            continue  # dependent basis
    return spaces


def test_largest_ideal_maximality():
    spaces = [VALUE_SUM, VALUE_EQUAL, atomic_space([0, 1, 2], [1, 1, 1]),
              CofiniteSubspace([(parse_poly("t"), 2), (parse_poly("t - 1"), 1)],
                               [[0, 1, 0], [1, 0, -1]])] + random_spaces(41, 60)
    for space in spaces:
        h = largest_ideal(space)
        ranges = [range(m + 1) for _, m in space.factors]
        for exponents in itertools.product(*ranges):
            divisor = poly_one()
            for (p, _), e in zip(space.factors, exponents):
                divisor = divisor * p ** e
            prod, contained = divisor, True
            for _ in range(space.dim - divisor.degree):
                if not space.contains(prod):
                    contained = False
                    break
                prod = prod * t_monomial(QQ, 1)
            # every ideal inside V is a multiple of h; nothing below h passes
            if contained:
                assert poly_divides(h, divisor)
            if divisor.degree < h.degree:
                assert not contained


def test_largest_ideal_with_reducible_trusted_factor():
    # t^4 - 1 = (t - 1)(t + 1)(t^2 + 1) is trusted unchecked; the space is
    # {f : f(1) = 0}, whose largest ideal is (t - 1), not (t^4 - 1)
    space = CofiniteSubspace([(parse_poly("t^4 - 1"), 1)],
                             [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
    assert space.unverified_factors
    assert largest_ideal(space) == parse_poly("t - 1")


def test_radical_member_examples():
    assert radical_member_cofinite(VALUE_SUM, parse_poly("t^2 - t"))
    assert not radical_member_cofinite(VALUE_SUM, parse_poly("2*t - 1"))
    assert radical_member_cofinite(VALUE_EQUAL, poly_one())


def test_radical_window_stability():
    rng = random.Random(73)
    spaces = [VALUE_SUM, VALUE_EQUAL, atomic_space([0, 1, 2], [1, 2, 1]),
              CofiniteSubspace([(parse_poly("t"), 2)], [[0, 1]])]
    for space in spaces:
        d = space.dim
        for _ in range(25):
            f = qq_poly([rng.randint(-3, 3) for _ in range(rng.randint(1, d + 2))])
            base = radical_member_cofinite(space, f)
            oracle = lambda p: space.contains(p)  # noqa: E731
            wide = radical_probe(oracle, f, range(d, 3 * d + 1))
            assert base == wide


def test_radical_decision_matches_matrix_oracle():
    rng = random.Random(79)
    spaces = [VALUE_SUM, VALUE_EQUAL, atomic_space([0, 1, 2], [1, 1, 1]),
              CofiniteSubspace([(parse_poly("t"), 2), (parse_poly("t - 1"), 1)],
                               [[0, 1, 0], [1, 0, -1]])]
    for space in spaces:
        d = space.dim
        for _ in range(30):
            f = qq_poly([rng.randint(-3, 3) for _ in range(rng.randint(1, d + 2))])
            expected = powers_in_space_by_matrix(space, f, range(d, 2 * d + 1))
            assert radical_member_cofinite(space, f) == expected


def test_value_sum_space_with_multiplicity_block():
    # {f : f(0) + f(1) = 0} presented modulo t^2 (t-1): residue coordinates
    # are (f(0), f'(0), f(1)), so the condition is the kernel of (1, 0, 1)
    space = CofiniteSubspace([(parse_poly("t"), 2), (parse_poly("t - 1"), 1)],
                             [[0, 1, 0], [1, 0, -1]])
    assert space.contains(parse_poly("2*t - 1"))
    assert not space.contains(poly_one())
    assert largest_ideal(space) == parse_poly("t^2 - t")
    # t(t-1) is nilpotent enough: its square is divisible by the modulus
    assert radical_member_cofinite(space, parse_poly("t^2 - t"))
    assert not radical_member_cofinite(space, poly_one())
    # the space is Mathieu (its radical equals the ideal radical): the
    # weights 1 at t^2 and at t - 1 have no zero-sum subset
    verdict = mathieu_check(space)
    assert verdict.status == MATHIEU_EXACT
    assert verdict.radical_iv_generator == parse_poly("t^2 - t")


# -- degenerate-parameter membership suite ------------------------------------

def test_degenerate_parameter_membership_suite():
    op = MonomialOperator(1, -2, 1, 0)
    for n in range(2, 21):
        assert member(op, t_monomial(QQ, n))[0]
    assert not member(op, parse_poly("t"))[0]
    assert not member(op, poly_one())[0]
    assert radical_probe(lambda p: member(op, p)[0], parse_poly("t"), range(2, 21))


def test_definition_witness_examples():
    ideal = CofiniteSubspace([(parse_poly("t"), 1)], [])
    assert definition_witness(ideal, parse_poly("t"), parse_poly("7*t^3 - 1")) == 1
    assert definition_witness(ideal, poly_one(), parse_poly("t - 1")) is None
    # (2t - 1)^m is -1 at 0 and 1 at 1, so m must be even: never from some N on
    assert definition_witness(VALUE_EQUAL, parse_poly("2*t - 1"), poly_one()) is None
    # t^m (t - 2) has values 0 and -1 at {0, 1}: outside the value-sum space for every m
    assert definition_witness(VALUE_SUM, parse_poly("t"), parse_poly("t - 2")) is None
    # V = {f : f(1) = 0, f''(0) = 0} modulo t^3 (t - 1), spanned by t - 1 and
    # t^3 - 1: t^m (t - 1) has t^2-coefficient 1, -1, 0, 0, ... for m = 1, 2, ...
    space = coefficient_space([(parse_poly("t"), 3), (parse_poly("t - 1"), 1)],
                              [[-1, 1], [-1, 0, 0, 1]])
    b = parse_poly("t - 1")
    assert [space.contains(t_monomial(QQ, m) * b) for m in range(1, 6)] == [
        False, False, True, True, True]
    assert definition_witness(space, parse_poly("t"), b) == 3


def test_definition_witness_matches_the_power_walk():
    """The exact test against the walk it replaced, on seeded (space, a, b)
    over ten spaces with multiplicity and t^2 + 1 blocks, blocks t - 1/2 and
    t^2 - 1/3 and atomic points k/3 and k/2, and two budgets
    past 2D: the answers agree where the walk's last failure
    is below D, and where it is not, the exact answer is None."""
    rng = random.Random(2400)
    t = parse_poly("t")
    spaces = [VALUE_SUM, VALUE_EQUAL, atomic_space([0, 1, 2], [1, -2, 1]),
              CofiniteSubspace([(t, 2), (parse_poly("t - 1"), 1)], [[0, 1, 0], [1, 0, -1]]),
              CofiniteSubspace([(parse_poly("t^2 + 1"), 1), (parse_poly("t + 2"), 2)],
                               [[1, 0, 0, 1], [0, 1, 1, 0]]),
              CofiniteSubspace([(parse_poly("t^2 + 1"), 2)], [[1, 0, 2, 0], [0, 1, 0, -1]]),
              coefficient_space([(t, 3), (parse_poly("t - 1"), 1)], [[-1, 1], [-1, 0, 0, 1]]),
              # monic blocks with non-integer coefficients: each block residue
              # comes over its own denominator
              CofiniteSubspace([(parse_poly("t - 1/2"), 2), (parse_poly("t^2 - 1/3"), 1)],
                               [[1, 0, 0, 1], [0, 1, 2, 0]]),
              atomic_space([Fraction(k, 3) for k in (-4, -1, 1, 2, 5)], [1, -2, 3, -1, 2]),
              atomic_space([Fraction(k, 3) for k in (-2, 1, 4)] + [Fraction(1, 2), Fraction(-3, 2)],
                           [2, 1, -1, -2, 3])]
    answers = set()
    for index, space in enumerate(spaces):
        d = space.dim
        for _ in range(60):
            a = qq_poly([rng.randint(-2, 2) for _ in range(rng.randint(1, d + 1))])
            if rng.random() < 0.5:  # nilpotent on a block
                a = a * rng.choice(space.factors)[0]
            b = qq_poly([rng.randint(-2, 2) for _ in range(rng.randint(1, d))])
            if index >= 7 and rng.random() < 0.5:
                # b in V, past the degree of g, so that each block reads its
                # residue over another denominator; a a unit mod g half the time
                rows = basis_fractions(space)
                coeffs = [rng.randint(-2, 2) for _ in rows]
                vec = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]
                b = (residue_lift(space, crt_idempotents(space), vec)
                     + space.modulus * qq_poly([rng.randint(-2, 2), rng.randint(1, 2)]))
                if rng.random() < 0.5:
                    a = space.modulus * qq_poly([rng.randint(-2, 2)]) + qq_poly([rng.randint(1, 3)])
            got = definition_witness(space, a, b)
            answers.add(got)
            for budget in (3 * d, 4 * d + 1):
                walked = definition_witness_walk(space.contains, a, b, budget)
                if got is None:
                    assert walked is None or walked > d, (space.to_dict(), a, b)
                else:
                    assert walked == got, (space.to_dict(), a, b, budget)
    assert answers == {None, 1, 2, 3}, answers


# -- Mathieu verdicts -----------------------------------------------------

def test_mathieu_atomic_space_is_exact():
    verdict = mathieu_check(VALUE_SUM)
    assert verdict.status == MATHIEU_EXACT
    assert verdict.i_v_generator == parse_poly("t^2 - t")
    assert verdict.radical_iv_generator == parse_poly("t^2 - t")


def test_mathieu_value_equality_space_refuted():
    verdict = mathieu_check(VALUE_EQUAL)
    assert verdict.status == NOT_MATHIEU
    a, b = verdict.witness
    assert a == poly_one() and b == parse_poly("t")
    # soundness: a is in the radical of V, not in the radical of I_V
    assert radical_member_cofinite(VALUE_EQUAL, a)
    assert not poly_divides(verdict.radical_iv_generator, a)
    # and the absorption property fails on a doubled finite budget
    assert definition_witness(VALUE_EQUAL, a, b) is None
    # structural stabilization: powers of a are eventually constant mod g
    second = VALUE_EQUAL.mod(a * a)
    assert second == VALUE_EQUAL.mod(a)


def test_mathieu_ideal_is_exact():
    space = CofiniteSubspace([(parse_poly("t"), 2)], [])
    verdict = mathieu_check(space)
    assert verdict.status == MATHIEU_EXACT
    assert verdict.i_v_generator == parse_poly("t^2")
    assert verdict.radical_iv_generator == parse_poly("t")


def test_mathieu_verdict_deterministic_across_configs():
    for _ in range(3):
        verdict = mathieu_check(VALUE_EQUAL)
        assert verdict.status == NOT_MATHIEU
        assert verdict.witness[0] == poly_one()


def test_mathieu_nilpotent_modulus_refuted():
    # V spanned by 1 and t^2 mod t^3: the largest interior ideal is (t^2)
    # with radical (t), but the constant 1 keeps all its powers in V
    space = coefficient_space([(parse_poly("t"), 3)], [[1, 0, 0], [0, 0, 1]])
    verdict = mathieu_check(space)
    assert verdict.status == NOT_MATHIEU
    assert verdict.i_v_generator == parse_poly("t^2")
    assert radical_member_cofinite(space, verdict.witness[0])
    assert not poly_divides(verdict.radical_iv_generator, verdict.witness[0])


def test_mathieu_budget_exhaustion_is_honest():
    # span{1 + t} mod t(t-1): the radical of V is (g) = radical of I_V, so
    # the space is Mathieu; none of the idempotents 1 - t, t and 1 lies in
    # V, so the finished walk over the idempotent sums proves it
    space = coefficient_space([(parse_poly("t"), 1), (parse_poly("t - 1"), 1)], [[1, 1]])
    verdict = mathieu_check(space)
    assert verdict.status == MATHIEU_EXACT
    assert verdict.budget_used == {"window": [2, 4], "candidates_tried": 3}


def test_mathieu_trusted_factor_is_not_exact():
    # t^4 - 1 is trusted unverified, but (t^2 + 1)/2 is an idempotent of
    # Q[t]/(t^4 - 1) lying in V, so V is not Mathieu; the engine cannot see
    # that factor split and must not claim MATHIEU_EXACT
    rows = [[0, 2, 0, 2], [1, 0, -1, 0]]
    space = coefficient_space([(parse_poly("t^4 - 1"), 1)], nullspace(rows))
    refuter = parse_poly("1/2*t^2 + 1/2")
    assert space.mod(refuter * refuter) == refuter and space.contains(refuter)
    assert not poly_divides(squarefree_part(largest_ideal(space)), refuter)
    verdict = mathieu_check(space)
    assert verdict.status == CONSISTENT_UP_TO_BUDGET
    # an ideal stays exact whether or not its factors are verified
    ideal = CofiniteSubspace.from_dict({"modulus": [["t^4 + t + 7", 1]], "vbar_basis": []})
    assert ideal.unverified_factors
    assert mathieu_check(ideal).status == MATHIEU_EXACT


def crt_idempotents(space):
    """Reference: e_i = 1 mod p_i^(m_i) and 0 mod the other factor powers,
    one xgcd per block."""
    out = []
    for i, block in enumerate(space._blocks):
        rest = poly_one()
        for j, other in enumerate(space._blocks):
            if j != i:
                rest = rest * other
        _, u, _ = poly_xgcd(rest, block)  # the blocks are coprime: gcd 1
        out.append(space.mod(u * rest))
    return out


def window_holds(space, a, b):
    """Is a^m * b in V for every m in [D, 2D]?"""
    d = space.dim
    current = space.mod(space.pow_mod(a, d) * b)
    for _ in range(d, 2 * d + 1):
        if not space.contains(current):
            return False
        current = space.mod(current * a)
    return True


def residue_lift(space, idems, vec):
    """The polynomial of degree < D with residue vector vec: sum_i e_i v_i mod g."""
    out, start = poly_zero(), 0
    for e, (p, m) in zip(idems, space.factors):
        width = p.degree * m
        out = out + e * qq_poly(vec[start:start + width])
        start += width
    return space.mod(out)


def search_candidates(space, height=2, max_combinations=200):
    """The earlier engine's candidates: CRT idempotent sums by mask, then
    combinations of the basis with coefficients in [-height, height]."""
    seen = set()

    def emit(poly, family):
        reduced = space.mod(poly)
        key = reduced.qq_coeffs()
        if reduced.is_zero or key in seen:
            return None
        seen.add(key)
        return reduced, family

    idems = crt_idempotents(space)
    for mask in range(1, 1 << len(idems)):
        total = poly_zero()
        for i, e in enumerate(idems):
            if mask >> i & 1:
                total = total + e
        item = emit(total, "crt_idempotent")
        if item:
            yield item
    basis = [residue_lift(space, idems, vec) for vec in basis_fractions(space)]
    produced = 0
    for coords in itertools.product(range(-height, height + 1), repeat=len(basis)):
        if produced >= max_combinations:
            break
        if not any(coords):
            continue
        total = poly_zero()
        for c, b in zip(coords, basis):
            if c:
                total = total + b.scale(Fraction(c))
        produced += 1
        item = emit(total, "basis_combination")
        if item:
            yield item


def reference_mathieu_check(space):
    """The earlier candidate search with its default budget: (status, witness,
    h, r, candidates tried); the first candidate in rad(V) but not in (r) refutes."""
    h = largest_ideal(space)
    r = squarefree_part(h) if h.degree >= 1 else poly_one()
    if space.is_ideal():
        return MATHIEU_EXACT, None, h, r, 0
    tried = 0
    for cand, _ in search_candidates(space):
        tried += 1
        if not radical_member_cofinite(space, cand) or poly_divides(r, cand):
            continue
        for j in range(space.dim):
            if not window_holds(space, cand, t_monomial(QQ, j)):
                return NOT_MATHIEU, (cand, t_monomial(QQ, j)), h, r, tried
        raise AssertionError("refuter absorbs every monomial")
    return CONSISTENT_UP_TO_BUDGET, None, h, r, tried


def split_codim2_spaces(seed, count):
    """Split moduli with n = 3..6 points, V cut out by two random functionals
    whose small integer columns often have zero-sum subsets."""
    rng = random.Random(seed)
    spaces = []
    for _ in range(count):
        points = rng.sample(range(-5, 6), rng.randint(3, 6))
        rows = [[Fraction(rng.randint(-1, 1)) for _ in points] for _ in range(2)]
        factors = [(qq_poly([-p, 1]), 1) for p in points]
        spaces.append(CofiniteSubspace(factors, nullspace(rows)))
    return spaces


def test_mathieu_matches_candidate_search_reference():
    spaces = random_spaces(5, 120) + split_codim2_spaces(6, 40)
    refuted = 0
    for space in spaces:
        status, witness, h, r, tried = reference_mathieu_check(space)
        verdict = mathieu_check(space)
        assert verdict.i_v_generator == h and verdict.radical_iv_generator == r
        if status == NOT_MATHIEU:
            refuted += 1
            assert verdict.status == NOT_MATHIEU
            assert verdict.witness == witness
            assert verdict.budget_used["candidates_tried"] == tried
        else:
            assert verdict.status == MATHIEU_EXACT, space.to_dict()
    assert 30 <= refuted <= len(spaces) - 30  # both verdicts well represented


def test_mathieu_zero_sum_walk_is_fast():
    start = time.perf_counter()
    verdict = mathieu_check(atomic_space(range(10), [1] * 9 + [-1]))
    assert time.perf_counter() - start < 0.5
    assert verdict.status == NOT_MATHIEU
    assert verdict.budget_used["candidates_tried"] == 513  # mask {0, 9}
    # weights +-2^e * odd with distinct e: the least e in a subset fixes the
    # 2-adic valuation of its sum, so no subset sums to zero
    exps = [3, 0, 7, 12, 5, 1, 9, 13, 2, 10, 6, 4, 11, 8]
    weights = [(-1) ** i * 2 ** e * (1, 3, 5)[i % 3] for i, e in enumerate(exps)]
    start = time.perf_counter()
    verdict = mathieu_check(atomic_space(range(-6, 8), weights))
    assert time.perf_counter() - start < 2.0
    assert verdict.status == MATHIEU_EXACT
    assert verdict.budget_used["candidates_tried"] == 2 ** 14 - 1


def test_mathieu_zero_sum_search_at_32_factors_is_fast():
    # the modulus limit admits 32 split factors; a walk over all 2^32 masks
    # took about 40 minutes, meet in the middle forms 2 * 2^16 sums
    weights = [(-1) ** i * 2 ** e * (1, 3, 5)[i % 3] for i, e in enumerate(
        random.Random(3232).sample(range(32), 32))]
    space = atomic_space(range(-16, 16), weights)
    start = time.perf_counter()
    verdict = mathieu_check(space)
    assert time.perf_counter() - start < 5.0
    assert verdict.status == MATHIEU_EXACT
    assert verdict.budget_used["candidates_tried"] == 2 ** 32 - 1
    # a one-vector basis leaves 31 annihilator rows; its entries are distinct
    # and nonzero, so no indicator of a factor set is in V.  Each sum packs
    # into one integer key: 2^16 tuples of 31 entries took about 50 MB
    space = CofiniteSubspace.from_dict({
        "modulus": [[f"t + {-k}" if k < 0 else f"t - {k}", 1] for k in range(-16, 16)],
        "vbar_basis": [list(range(1, 33))]})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = mathieu_check(space)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0 and peak < 20 * 2 ** 20, (elapsed, peak)
    assert verdict.status == MATHIEU_EXACT
    assert verdict.budget_used["candidates_tried"] == 2 ** 32 - 1


def test_first_zero_sum_matches_the_walk_over_all_masks():
    """Meet in the middle against the walk over all masks on seeded vectors
    with small entries, so that zero sums are common, and seeded live masks."""
    rng = random.Random(3131)
    seen = set()
    for _ in range(3000):
        n, dim = rng.randint(1, 11), rng.randint(1, 3)
        vectors = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(n)]
        live = rng.choice((0, (1 << n) - 1, rng.getrandbits(n), 1 << rng.randrange(n)))
        got = radlab._first_zero_sum(vectors, live)
        assert got == first_zero_sum_walk(vectors, live), (vectors, live)
        h = (n + 1) // 2
        if got is None:
            seen.add("none")
        elif got < 1 << h:
            seen.add("low half")
        else:
            seen.add("high part live" if got >> h << h & live else "low part live")
    assert seen == {"none", "low half", "high part live", "low part live"}


def test_crt_idempotents():
    for space in (VALUE_SUM, atomic_space([0, 1, 2], [1, 1, 1])):
        idems = crt_idempotents(space)
        total = poly_zero()
        for e in idems:
            assert space.mod(e * e) == e
            total = total + e
        assert space.mod(total) == poly_one()


def test_set_idempotent_is_the_sum_of_single_block_idempotents():
    spaces = random_spaces(43, 40) + split_codim2_spaces(44, 20)
    for space in spaces:
        idems = crt_idempotents(space)
        for mask in range(1, 1 << len(idems)):
            total = poly_zero()
            for i, e in enumerate(idems):
                if mask >> i & 1:
                    total = total + e
            assert _set_idempotent(space, mask) == space.mod(total), (space.to_dict(), mask)
        assert _set_idempotent(space, (1 << len(idems)) - 1) == poly_one()


# -- the coefficient-coordinate reference ---------------------------------------

class CoefficientReference:
    """The earlier representation of V/(g), kept as the reference.

    Each residue basis vector is converted to coefficient coordinates by a
    dense solve against the D x D CRT matrix; the annihilator, membership,
    the radical window and the (c D) x D largest-ideal system all work on
    coefficient vectors mod g.
    """

    def __init__(self, factors, residue_basis):
        self.factors = factors
        self.blocks = [p ** m for p, m in factors]
        self.modulus = poly_one()
        for block in self.blocks:
            self.modulus = self.modulus * block
        self.dim = self.modulus.degree
        columns = [self.residue_vec(t_monomial(QQ, j)) for j in range(self.dim)]
        self.crt = [[col[i] for col in columns] for i in range(self.dim)]
        basis = [solve_linear(self.crt, vec) for vec in residue_basis]
        self.ann = nullspace(basis or [[Fraction(0)] * self.dim])

    def residue_vec(self, f):
        out = []
        for block in self.blocks:
            coeffs = list(euclid_divmod(f, block)[1].qq_coeffs())
            out += coeffs + [Fraction(0)] * (block.degree - len(coeffs))
        return out

    def lift(self, residues):
        return qq_poly(solve_linear(self.crt, residues))

    def mod(self, f):
        return euclid_divmod(f, self.modulus)[1]

    def contains(self, f):
        coeffs = self.mod(f).qq_coeffs()
        return all(sum(l * c for l, c in zip(lam, coeffs)) == 0 for lam in self.ann)

    def radical_member(self, f):
        base, power = self.mod(f), poly_one()
        for m in range(1, 2 * self.dim + 1):
            power = self.mod(power * base)
            if m >= self.dim and not self.contains(power):
                return False
        return True

    def largest_ideal(self):
        if not self.ann:
            return poly_one()
        g = self.modulus.qq_coeffs()
        rows = []
        for lam in self.ann:
            for _ in range(self.dim):
                rows.append(lam)
                lam = lam[1:] + [-sum(gk * lk for gk, lk in zip(g, lam))]
        out = self.modulus
        for vec in nullspace(rows):
            out = poly_gcd(out, qq_poly(vec))
        return out

    def mathieu(self):
        """(status, witness, h, r, budget_used): the zero-sum test over the
        idempotents with masks tried one by one and each sum formed afresh."""
        h = self.largest_ideal()
        r = squarefree_part(h) if h.degree >= 1 else poly_one()
        budget = {"window": [self.dim, 2 * self.dim]}
        if h.degree == len(self.ann):
            budget["structural_case"] = "ideal"
            return MATHIEU_EXACT, None, h, r, budget
        idems, start = [], 0
        for block in self.blocks:
            idems.append(self.lift([int(k == start) for k in range(self.dim)]))
            start += block.degree
        u = [[sum(l * c for l, c in zip(lam, e.qq_coeffs())) for lam in self.ann]
             for e in idems]
        live = [poly_gcd(p, r).degree >= 1 for p, _ in self.factors]
        n = len(idems)
        for mask in range(1, 1 << n):
            chosen = [i for i in range(n) if mask >> i & 1]
            if not any(live[i] for i in chosen):
                continue
            if any(sum(u[i][k] for i in chosen) for k in range(len(self.ann))):
                continue
            a = poly_zero()
            for i in chosen:
                a = a + idems[i]
            budget["candidates_tried"] = mask
            budget["witness_family"] = "crt_idempotent"
            for j in range(self.dim):
                if not self.contains(a * t_monomial(QQ, j)):
                    return NOT_MATHIEU, (a, t_monomial(QQ, j)), h, r, budget
            raise AssertionError("refuter absorbs every monomial")
        budget["candidates_tried"] = (1 << n) - 1
        trusted = any(p.degree >= 4 for p, _ in self.factors)
        return (CONSISTENT_UP_TO_BUDGET if trusted else MATHIEU_EXACT), None, h, r, budget


def test_residue_coordinates_match_coefficient_reference():
    t4 = parse_poly("t^4 - 1")
    spaces = random_spaces(7, 200) + split_codim2_spaces(8, 100) + [
        CofiniteSubspace([(t4, 1)], [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]),
        coefficient_space([(t4, 1)], nullspace([[0, 2, 0, 2], [1, 0, -1, 0]])),
    ]
    rng = random.Random(9)
    statuses, answers = set(), set()
    for space in spaces:
        ref = CoefficientReference(space.factors, basis_fractions(space))
        status, witness, h, r, budget = ref.mathieu()
        verdict = mathieu_check(space)
        assert verdict.status == status, space.to_dict()
        assert verdict.witness == witness, space.to_dict()
        assert (verdict.i_v_generator, verdict.radical_iv_generator) == (h, r)
        assert verdict.budget_used == budget, space.to_dict()
        statuses.add(status)
        for gen in (poly_one(), poly_one(), h, r):
            f = gen * qq_poly([rng.randint(-3, 3) for _ in range(rng.randint(1, space.dim + 2))])
            member, in_radical = space.contains(f), radical_member_cofinite(space, f)
            assert member == ref.contains(f), (space.to_dict(), f)
            assert in_radical == ref.radical_member(f), (space.to_dict(), f)
            answers.add((member, in_radical))
    assert statuses == {NOT_MATHIEU, MATHIEU_EXACT, CONSISTENT_UP_TO_BUDGET}
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


# -- the integer residue-vector loops against the earlier Poly loops --------------

def poly_window_radical_member(space, f):
    """The earlier window: powers of f mod each block by Poly products and
    divisions, tested against the Fraction annihilator of the basis."""
    d, blocks = space.dim, space._blocks
    ann = nullspace(basis_fractions(space) or [[Fraction(0)] * d])
    bases = [euclid_divmod(f, b)[1] for b in blocks]
    powers = [euclid_divmod(r ** d, b)[1] for r, b in zip(bases, blocks)]
    for _ in range(d, 2 * d + 1):
        vec = []
        for p, b in zip(powers, blocks):
            vec += list(p.qq_coeffs()) + [Fraction(0)] * (b.degree - p.degree - 1)
        if any(sum(l * v for l, v in zip(lam, vec)) for lam in ann):
            return False
        powers = [euclid_divmod(p * r, b)[1] for p, r, b in zip(powers, bases, blocks)]
    return True


def rational_block_spaces(seed, count):
    """Seeded (space, member) pairs whose monic factors have non-integer
    coefficients with different denominators; member lies in rad(V).

    Even entries are split: points a_i of multiplicity 1 or 2 and
    V = {f : sum_i w_i f(a_i) = 0} with a planted zero-sum set S of weights;
    the member takes one value c on S and 0 on the other points, and its
    residues mod (t - a_i)^2 carry derivative terms with assorted
    denominators.  Odd entries mix linear, quadratic and cubic blocks, some
    with multiplicity, and V is cut out by a random functional that kills
    e_S t^j for j < J (J = 1..3) for a random set S of blocks, so e_S lies
    in V (the member is c e_S), and a witness (e_S, t^j) has j >= J.
    """
    rng = random.Random(seed)
    pool = ["t - 1/3", "t - 1/7", "t + 5/2", "t^2 - 2/3", "t^2 + 1/2*t + 3/4",
            "t^3 - 1/5*t + 7/2"]
    points = sorted({Fraction(n, d) for n in range(-4, 5) for d in (2, 3, 7)})
    out = []
    while len(out) < count:
        c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        if len(out) % 2 == 0:
            pts = rng.sample(points, rng.randint(3, 6))
            mults = [rng.randint(1, 2) for _ in pts]
            planted = rng.sample(range(len(pts)), rng.randint(2, len(pts)))
            weights = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in pts]
            weights[planted[0]] -= sum(weights[i] for i in planted)
            if weights[planted[0]] == 0:
                continue
            # residue c0 + c1 t mod (t - a)^2 has the value c0 + a c1 at a
            row = [x for a, m, w in zip(pts, mults, weights) for x in (w, w * a)[:m]]
            factors = [(qq_poly([-a, 1]), m) for a, m in zip(pts, mults)]
            member = lagrange(pts, [c if i in planted else 0 for i in range(len(pts))])
            out.append((CofiniteSubspace(factors, nullspace([row])), member))
            continue
        factors = [(parse_poly(p), rng.randint(1, 3 if p == "t^2 - 2/3" else 2))
                   for p in rng.sample(pool, rng.randint(1, 3))]
        if sum(p.degree * m for p, m in factors) > 10:
            continue
        coords = CofiniteSubspace(factors, [])
        e = _set_idempotent(coords, rng.randint(1, (1 << len(factors)) - 1))
        absorbed = [coords.residue_vec(e * t_monomial(QQ, j)) for j in range(rng.randint(1, 3))]
        kernel = nullspace(absorbed)
        coeffs = [rng.randint(-2, 2) for _ in kernel]
        lam = [sum(k * x for k, x in zip(coeffs, col)) for col in zip(*kernel)]
        if not any(lam):
            continue
        out.append((CofiniteSubspace(factors, nullspace([lam])), e.scale(c)))
    return out


def lagrange(points, values):
    """The polynomial of degree < len(points) with the given values."""
    out = poly_zero()
    for i, (a, v) in enumerate(zip(points, values)):
        basis = poly_one().scale(v)
        for j, b in enumerate(points):
            if j != i:
                basis = basis * qq_poly([-b, 1]).scale(1 / (a - b))
        out = out + basis
    return out


def test_radical_window_matches_poly_window():
    rng = random.Random(1103)
    cases = [(space, None) for space in random_spaces(1100, 60) + split_codim2_spaces(1101, 30)]
    rational = rational_block_spaces(1102, 60)
    answers = {}
    for k, (space, member) in enumerate(cases + rational):
        nilpotent = squarefree_part(space.modulus) * qq_poly([rng.randint(-3, 3) for _ in range(3)])
        candidates = [nilpotent, qq_poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                          for _ in range(rng.randint(1, space.dim + 2))])]
        if member is not None:
            candidates.append(member)
        for f in candidates:
            expected = poly_window_radical_member(space, f)
            assert radical_member_cofinite(space, f) == expected, (space.to_dict(), f)
            answers.setdefault(k >= len(cases), set()).add(expected)
        if member is not None:
            assert expected, (space.to_dict(), member)
    # both answers occur on the integer spaces and on the rational-block spaces
    assert answers == {False: {False, True}, True: {False, True}}


def window_residue_spaces(seed, count):
    """Seeded (space, member) pairs: 1 to 4 monic factors of multiplicity 1
    or 2 (or (t + 12345/67891)^3), many of whose blocks have non-unit
    numerators, and V/(g) from random rational entries, 7-digit in part.

    Even entries take random basis vectors and no member.  Odd entries cut
    V out by a random functional that kills e_S for a random set S of
    blocks, so the member c e_S lies in rad(V) without being nilpotent.
    """
    rng = random.Random(seed)
    fixed = ["t + 12345/67891", "t^2 - 3/7", "t^2 + 1", "t^3 - 2", "t - 1"]
    out = []
    while len(out) < count:
        factors = [(parse_poly(p), 3 if p == fixed[0] and rng.random() < 0.5 else rng.randint(1, 2))
                   for p in rng.sample(fixed, rng.randint(0, 2))]
        for _ in range(rng.randint(0 if factors else 1, 4 - len(factors))):
            a = (Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, 10 ** 7))
                 if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            factors.append((qq_poly([-a, 1]), rng.randint(1, 2)))
        dim = sum(p.degree * m for p, m in factors)
        if dim > 10:
            continue

        def entry():
            if rng.random() < 0.3:
                return 0
            if rng.random() < 0.3:
                return Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, 10 ** 7))
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        try:
            if len(out) % 2 == 0:
                basis = [[entry() for _ in range(dim)] for _ in range(rng.randint(0, dim - 1))]
                out.append((CofiniteSubspace(factors, basis), None))
                continue
            coords = CofiniteSubspace(factors, [])
            e = _set_idempotent(coords, rng.randint(1, (1 << len(factors)) - 1))
            ev = coords.residue_vec(e)
            lam = [entry() for _ in range(dim)]
            k = next(i for i, v in enumerate(ev) if v)
            lam[k] = 0
            lam[k] = -sum(l * v for l, v in zip(lam, ev)) / ev[k]
            if any(lam):
                member = e.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                out.append((CofiniteSubspace(factors, nullspace([lam])), member))
        except BadInput:  # a repeated point or a dependent basis
            continue
    return out


def test_radical_window_matches_divmod_residues():
    rng = random.Random(2707)
    seen = set()
    pairs = 0
    for space, member in window_residue_spaces(2706, 240):
        top = max(b.degree for b in space._blocks)
        candidates = [
            poly_zero(),
            qq_poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))]),
            qq_poly([Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, 10 ** 7))
                     for _ in range(rng.randint(2, space.dim + 3))]),
            squarefree_part(space.modulus) * qq_poly([rng.randint(-3, 3) for _ in range(2)]),
        ]
        if top >= 2:
            candidates.append(qq_poly([rng.randint(-5, 5) for _ in range(rng.randint(1, top - 1))]
                                      + [Fraction(rng.randint(1, 9), rng.randint(1, 9))]))
        if member is not None:
            candidates.append(member)
        for f in candidates:
            # residue_vec reads each block residue as the window does
            residues = space.residue_vec(f)
            assert residues == divmod_residue_vec(space, f), (space.to_dict(), f)
            assert all(type(x) is Fraction for x in residues)
            got = radical_member_cofinite(space, f)
            assert got == divmod_radical_member_cofinite(space, f), (space.to_dict(), f)
            pairs += 1
            seen.add(got)
            if f.is_zero:
                seen.add("f = 0")
            elif f.degree == 0:
                seen.add("constant f")
            elif f.degree < top:
                seen.add("deg f < deg b")
            if max(map(abs, (*f.num, f.den)), default=0) >= 10 ** 6:
                seen.add("7-digit f")
        if member is not None:  # the last candidate
            assert got, (space.to_dict(), member)
            # the pseudo-division's scale s is not 1 on these blocks
            if any(b.den != 1 and member.degree >= b.degree for b in space._blocks):
                seen.add("member divided by a non-unit block")
        for (p, m), block in zip(space.factors, space._blocks):
            if block.den != 1:
                seen.add("non-unit block numerator")
            if str(p) in ("t + 12345/67891", "t^2 - 3/7"):
                seen.add(f"({p})^{m}")
    assert pairs >= 1000
    assert {True, False, "f = 0", "constant f", "deg f < deg b", "7-digit f",
            "member divided by a non-unit block", "non-unit block numerator",
            "(t + 12345/67891)^3", "(t^2 - 3/7)^1"} <= seen
    with pytest.raises(RingMismatch):
        space.residue_vec(parse_poly("x*t", QQ_POLY))


def test_witness_loop_matches_coefficient_reference_on_rational_blocks():
    statuses = set()
    deep = 0
    for space, _ in rational_block_spaces(1104, 60):
        ref = CoefficientReference(space.factors, basis_fractions(space))
        status, witness, h, r, budget = ref.mathieu()
        verdict = mathieu_check(space)
        assert (verdict.status, verdict.witness, verdict.budget_used) == (status, witness, budget)
        assert (verdict.i_v_generator, verdict.radical_iv_generator) == (h, r)
        statuses.add(status)
        deep += status == NOT_MATHIEU and witness[1].degree >= 2
    assert statuses == {NOT_MATHIEU, MATHIEU_EXACT}
    assert deep >= 5  # witnesses past t^1 step the shift through a fold


# -- block-by-block radical, live mask and idempotent against the earlier Poly forms --

def trusted_quartic_spaces(seed, count):
    """Seeded spaces with one trusted quartic that splits over QQ:
    t^4 - 1, t^4 + t^2 - 6 = (t^2 + 3)(t^2 - 2) or (t^2 - 2)^2, with
    multiplicity 1 or 2, beside up to two coprime verified factors.  V holds
    an ideal (d) with d a product of the quartic's own factors, so the
    interior ideal often meets the quartic in a proper or repeated divisor."""
    rng = random.Random(seed)
    quartics = {"t^4 - 1": ["t - 1", "t + 1", "t^2 + 1"],
                "t^4 + t^2 - 6": ["t^2 + 3", "t^2 - 2"],
                "t^4 - 4*t^2 + 4": ["t^2 - 2", "t^2 - 2"]}
    spaces = []
    while len(spaces) < count:
        quartic = rng.choice(sorted(quartics))
        mult = rng.randint(1, 2)
        factors = [(parse_poly(quartic), mult)]
        factors += [(parse_poly(p), 1) for p in rng.sample(["t - 5", "t^2 + 5"], rng.randint(0, 2))]
        dim = sum(p.degree * m for p, m in factors)
        d = poly_one()
        for part in quartics[quartic] * mult:
            d = d * parse_poly(part) ** rng.randint(0, 1)
        for p, m in factors[1:]:
            d = d * p ** rng.randint(0, m)
        basis = [list((d * t_monomial(QQ, j)).qq_coeffs()) + [0] * (dim - d.degree - j - 1)
                 for j in range(dim - d.degree)]
        basis += [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, 1))]
        try:
            spaces.append(coefficient_space(factors, basis))
        except BadInput:
            continue  # dependent basis
    return spaces


def test_interior_ideal_matches_squarefree_part_of_largest_ideal():
    spaces = (random_spaces(1200, 60) + split_codim2_spaces(1201, 30)
              + [space for space, _ in rational_block_spaces(1202, 40)]
              + trusted_quartic_spaces(1203, 60))
    seen = set()
    for space in spaces:
        h, r, live = radlab._interior_ideal(space)
        assert h == largest_ideal(space)
        # the earlier forms: r from h, live from a gcd of each factor with r
        expected_r = squarefree_part(h) if h.degree >= 1 else poly_one()
        expected_live = sum(1 << i for i, (p, _) in enumerate(space.factors)
                            if poly_gcd(p, expected_r).degree >= 1)
        assert (r, live) == (expected_r, expected_live), space.to_dict()
        for i, (p, _) in enumerate(space.factors):
            seen.add("live" if live >> i & 1 else "dead")
            # a trusted live factor that r does not contain whole
            if live >> i & 1 and p in space.unverified_factors and not poly_divides(p, r):
                seen.add("trusted split")
    assert seen == {"live", "dead", "trusted split"}


def block_generator_spaces(seed, count):
    """Seeded spaces for the block generators: repeated linear, quadratic and
    cubic blocks (some over 7-digit denominators), one to three annihilator
    rows drawn at random or vanishing on a whole block, and trusted quartics
    that split over QQ."""
    rng = random.Random(seed)
    pool = ["t - 1234567/7654321", "t + 3", "t^2 + 1", "t^2 - 2/3", "t^2 + 1/2*t + 3/4",
            "t^3 - 2", "t^3 - 1/5*t + 7/2", "t^3 + 1000003/9999991", "t^4 - 1", "t^4 + t^2 - 6"]
    spaces = []
    while len(spaces) < count:
        factors = [(parse_poly(p), rng.randint(1, 3)) for p in rng.sample(pool, rng.randint(1, 3))]
        dim = sum(p.degree * m for p, m in factors)
        if dim > 12 or any(poly_gcd(p, q).degree >= 1 for (p, _), (q, _) in
                           itertools.combinations(factors, 2)):
            continue
        rows = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 1000003])) for _ in range(dim)]
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:  # rows that vanish on the block of one factor
            i = rng.randrange(len(factors))
            start = sum(p.degree * m for p, m in factors[:i])
            width = factors[i][0].degree * factors[i][1]
            for row in rows:
                row[start:start + width] = [Fraction(0)] * width
        try:
            spaces.append(CofiniteSubspace(factors, nullspace(rows)))
        except BadInput:
            continue  # the rows are zero or dependent
    return spaces


def test_interior_ideal_matches_krylov_nullspace_generator():
    spaces = (random_spaces(2510, 60) + split_codim2_spaces(2511, 30)
              + [space for space, _ in rational_block_spaces(2512, 30)]
              + trusted_quartic_spaces(2513, 40) + block_generator_spaces(2514, 120)
              + [VALUE_SUM, VALUE_EQUAL, atomic_space([0, 1, 2], [1, 1, 1])])
    seen = set()
    for space in spaces:
        h, r, live = radlab._interior_ideal(space)
        assert (h, r, live) == krylov_interior_ideal(space), space.to_dict()
        for (p, m), block, start in zip(space.factors, space._blocks, space._starts):
            part = poly_gcd(h, block)
            seen.add(f"deg {min(p.degree, 4)}" + (" repeated" if m > 1 else ""))
            if not any(any(lam[start:start + block.degree]) for lam in space._ann):
                seen.add("rows vanish on a block")
            seen.add("whole block" if part == block else "no block" if part.degree < 1
                     else "part of a block")
        seen.add("several rows" if len(space._ann) > 1 else "one row")
    assert {"deg 1 repeated", "deg 2 repeated", "deg 3 repeated", "deg 4", "rows vanish on a block",
            "whole block", "no block", "part of a block", "several rows", "one row"} <= seen


def test_atomic_space_basis_matches_the_nullspace_of_the_weights():
    rng = random.Random(2515)
    for _ in range(40):
        n = rng.randint(1, 8)
        points = rng.sample(range(-20, 20), n)
        weights = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 7), rng.randint(1, 9))
                   for _ in range(n)]
        space = atomic_space(points, weights)
        factors = [(qq_poly([-p, 1]), 1) for p in points]
        assert space.to_dict() == CofiniteSubspace(factors, nullspace([weights])).to_dict()


def full_xgcd_set_idempotent(space, mask):
    """The earlier e_S: xgcd on the full products, then one reduction mod g."""
    chosen, rest = poly_one(), poly_one()
    for i, block in enumerate(space._blocks):
        if mask >> i & 1:
            chosen = chosen * block
        else:
            rest = rest * block
    _, u, _ = poly_xgcd(rest, chosen)
    return space.mod(u * rest)


def test_set_idempotent_matches_full_xgcd():
    rng = random.Random(1205)
    points = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 5)})
    spaces = [space for space, _ in rational_block_spaces(1206, 30)]
    for n in range(2, 17):
        pts = rng.sample(points, n)
        spaces.append(atomic_space(pts, [rng.choice((-2, -1, 1, 3)) for _ in pts]))
    for space in spaces:
        n = len(space._blocks)
        for mask in {rng.randint(1, (1 << n) - 1) for _ in range(6)} | {1, (1 << n) - 1}:
            assert _set_idempotent(space, mask) == full_xgcd_set_idempotent(space, mask), \
                (space.to_dict(), mask)


def idempotent_spaces(seed):
    """Seeded factor sets for e_S, at most six factors each: split points
    with rational roots of multiplicity 1 or 2, quadratics t^2 + b, the
    non-reduced t^2 (t^2 + b)^2, the trusted quartic t^4 + t + 7 and
    t^2 - P with a 13-digit P that is not a square, each beside others."""
    rng = random.Random(seed)
    points = sorted({Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3, 7, 10)})
    big = next(p for p in range(10 ** 12 + 7, 10 ** 13) if math.isqrt(p) ** 2 != p)
    spaces = []
    for k, kind in enumerate(("split", "quadratic", "non-reduced", "quartic", "wide") * 12):
        pts = rng.sample(points, 6)
        factors = [(qq_poly([-a, 1]), rng.randint(1, 2) if kind == "split" else 1)
                   for a in pts[:1 + k // 5 % 6 if kind == "split" else rng.randint(1, 3)]]
        if kind == "quadratic":
            factors += [(qq_poly([b, 0, 1]), rng.randint(1, 2))
                        for b in rng.sample([Fraction(1), Fraction(2), Fraction(5, 3)],
                                            rng.randint(1, 2))]
        elif kind == "non-reduced":
            b = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            factors = [(parse_poly("t"), 2), (qq_poly([b, 0, 1]), 2)] + [
                (f, m) for f, m in factors if f.num[0]]
        elif kind == "quartic":
            factors.append((parse_poly("t^4 + t + 7"), rng.randint(1, 2)))
        elif kind == "wide":
            factors.append((qq_poly([-(big + rng.randrange(10 ** 9)), 0, 1]), 1))
        try:
            spaces.append(CofiniteSubspace(factors[:6], []))
        except BadInput:
            continue  # a square P or a modulus past the degree limit
    return spaces


def test_set_idempotent_matches_poly_cofactor_loop():
    seen = collections.Counter()
    for space in idempotent_spaces(3601):
        n = len(space._blocks)
        for mask in range(1 << n):
            e = _set_idempotent(space, mask)
            assert e == poly_set_idempotent(space, mask), (space.to_dict(), mask)
        seen[n] += 1
        seen["trusted"] += bool(space.unverified_factors)
        seen["repeated"] += any(m > 1 for _, m in space.factors)
        seen["non-integer"] += any(p.den > 1 for p, _ in space.factors)
        seen["13 digits"] += any(len(str(abs(p.num[0]))) == 13 for p, _ in space.factors)
    assert all(seen[k] >= 2 for k in (1, 2, 3, 4, 5, 6, "trusted", "repeated", "non-integer",
                                      "13 digits")), seen


def basis_json_cases(seed, count):
    """Seeded (factors, rows) pairs: rows of ints, integer, p/q and decimal
    strings with signs, spaces and leading zeros, Fractions and big
    numerators, and about one in four with a fault: a bool, a float, None,
    a list, a bad literal, a wrong length or a dependent row."""
    rng = random.Random(seed)
    pool = ["t", "t - 1", "t + 2", "t^2 + 1", "t - 1/3"]

    def entry():
        n, d = rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 12))
        return rng.choice((
            n, str(n), f"{n}/{d}", f" {n}/{d} ", f"00{abs(n)}/0{d}", f"{n}.{rng.randint(0, 99)}",
            f"-.{rng.randint(0, 9)}5", f"+{abs(n)}", Fraction(n, d), 10 ** 30 + n,
            f"{n}/{3 * 10 ** 20}"))

    faults = (True, False, 0.5, None, [1], "1e3", "1/0", "abc", "1_0", "\u0663", "1 / 2", "")
    cases = []
    while len(cases) < count:
        factors = [(parse_poly(p), rng.randint(1, 2)) for p in rng.sample(pool, rng.randint(1, 3))]
        dim = sum(p.degree * m for p, m in factors)
        rows = [[entry() for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        if rows and rng.random() < 0.25:
            fault = rng.randrange(3)
            row = rng.choice(rows)
            if fault == 0:
                row[rng.randrange(dim)] = rng.choice(faults)
            elif fault == 1:
                row.append(entry()) if rng.random() < 0.5 else row.pop()
            else:
                rows.append(list(row))
        cases.append((factors, rows))
    return cases


def test_basis_rows_match_the_fraction_path():
    refusals = {"entry": "basis entries must be integers or rational strings",
                "float": "not floats", "literal": "bad rational literal",
                "length": "must have length", "dependent": "linearly dependent"}
    seen = collections.Counter()
    for factors, rows in basis_json_cases(3602, 800):
        dim = sum(p.degree * m for p, m in factors)
        try:
            want = fraction_basis(dim, rows)
        except BadInput as exc:
            want = str(exc)
        try:
            space = CofiniteSubspace(factors, rows)
        except BadInput as exc:
            assert str(exc) == want, (factors, rows)
            seen[next(kind for kind, text in refusals.items() if text in want)] += 1
            continue
        basis, ann = want
        assert basis_fractions(space) == basis and space._ann == ann, (factors, rows)
        data = space.to_dict()
        assert data["vbar_basis"] == [[str(v) for v in row] for row in basis]
        again = CofiniteSubspace.from_dict(json.loads(json.dumps(data)))
        assert (again._basis, again._ann, again.to_dict()) == (space._basis, space._ann, data)
        seen["accepted"] += 1
    assert seen["accepted"] >= 300 and min(seen[kind] for kind in refusals) >= 3, seen


# -- the Krylov test on the unit blocks against the [D, 2D] window ---------------

def trusted_square_spaces(seed, count):
    """Seeded spaces with one trusted factor that is not squarefree:
    (t^2 - 2)^2, (t^2 + 1)^2 or (t^2 + 1)^2 (t - 3), with multiplicity 1 or
    2, beside up to two coprime verified factors.  V holds an ideal (d), d a
    product of the trusted factor's own parts, and at most one more vector,
    so f = t^2 - 2, t^2 + 1 and their products are nilpotent on part of the
    trusted block, with an index up to twice its multiplicity, and a unit
    on the rest."""
    rng = random.Random(seed)
    squares = {"t^4 - 4*t^2 + 4": ["t^2 - 2"] * 2,
               "t^4 + 2*t^2 + 1": ["t^2 + 1"] * 2,
               "t^5 - 3*t^4 + 2*t^3 - 6*t^2 + t - 3": ["t^2 + 1", "t^2 + 1", "t - 3"]}
    spaces = []
    while len(spaces) < count:
        square = rng.choice(sorted(squares))
        mult = rng.randint(1, 2)
        factors = [(parse_poly(square), mult)]
        factors += [(parse_poly(p), rng.randint(1, 2))
                    for p in rng.sample(["t - 5", "t^2 + 5", "t"], rng.randint(0, 2))]
        dim = sum(p.degree * m for p, m in factors)
        if dim > 12:
            continue
        d = poly_one()
        for part in squares[square] * mult:
            d = d * parse_poly(part) ** rng.randint(0, 1)
        for p, m in factors[1:]:
            d = d * p ** rng.randint(0, m)
        basis = [list((d * t_monomial(QQ, j)).qq_coeffs()) + [0] * (dim - d.degree - j - 1)
                 for j in range(dim - d.degree)]
        basis += [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, 1))]
        try:
            spaces.append(coefficient_space(factors, basis))
        except BadInput:
            continue  # dependent basis
    return spaces


def unit_blocks(space, f):
    """(mask S of the blocks where f is not nilpotent, L, whether a verified
    block with m > 1 has p | r != 0), read with euclid_divmod."""
    mask, first, repeated = 0, 0, False
    for i, ((p, m), block) in enumerate(zip(space.factors, space._blocks)):
        r = euclid_divmod(f, block)[1]
        if poly_divides(p, r):
            repeated |= m > 1 and not r.is_zero and p not in space.unverified_factors
            continue
        mask |= 1 << i
        if p in space.unverified_factors:
            first = max(first, block.degree)
    return mask, first, repeated


def test_radical_decision_matches_both_windows():
    rng = random.Random(3001)
    t2m2, t2p1 = parse_poly("t^2 - 2"), parse_poly("t^2 + 1")
    squares = [t2m2, t2p1, t2m2 * t2p1, t2p1 * parse_poly("t - 3")]
    cases = ([(space, None, "random") for space in random_spaces(3002, 80)]
             + [(space, None, "split") for space in split_codim2_spaces(3003, 40)]
             + [(space, m, "rational") for space, m in rational_block_spaces(3004, 40)]
             + [(space, m, "residue") for space, m in window_residue_spaces(3005, 60)]
             + [(space, None, "quartic") for space in trusted_quartic_spaces(3006, 50)]
             + [(space, None, "square") for space in trusted_square_spaces(3007, 120)])
    seen = set()
    pairs = 0
    for space, member, family in cases:
        parts = [p for p, _ in space.factors if rng.random() < 0.5] or [space.factors[0][0]]
        candidates = [
            poly_zero(),
            qq_poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))]),
            qq_poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(1, space.dim + 2))]),
            squarefree_part(space.modulus) * qq_poly([rng.randint(-3, 3) for _ in range(2)]),
            # nilpotent on the blocks of `parts`, a unit on most others
            prod(parts, start=poly_one()) * qq_poly([rng.randint(1, 3), rng.randint(-2, 2)]),
        ]
        if family == "square":
            candidates += [g.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5))) for g in squares]
            candidates.append(rng.choice(squares) + qq_poly([rng.randint(-2, 2)]))
        for f in candidates:
            got = radical_member_cofinite(space, f)
            assert got == window_radical_member_cofinite(space, f), (space.to_dict(), str(f))
            assert got == divmod_radical_member_cofinite(space, f), (space.to_dict(), str(f))
            pairs += 1
            mask, first, repeated = unit_blocks(space, f)
            seen.add((family, got))
            if not mask:
                seen.add("S empty")
            if first:
                seen.add(("L > 0", got))
            if repeated:
                seen.add("verified m > 1, p | r != 0")
            if not got and not first and not space.contains(_set_idempotent(space, mask)):
                seen.add("fails at j = 0")
        if member is not None:
            assert radical_member_cofinite(space, member), (space.to_dict(), str(member))
            assert window_radical_member_cofinite(space, member)
    assert pairs >= 2000
    families = {"random", "split", "rational", "residue", "quartic", "square"}
    assert {(family, got) for family in families for got in (True, False)} <= seen
    assert {"S empty", ("L > 0", True), ("L > 0", False), "verified m > 1, p | r != 0",
            "fails at j = 0"} <= seen


def test_radical_decision_at_the_modulus_degree_limit():
    # 32 points +-k with weights w_k at k and -w_k at -k: an even f is in
    # rad(V), nonzero at every point, so all 32 tests run from j = 0
    points = [k for k in range(1, 17)] + [-k for k in range(1, 17)]
    weights = [k * k + 1 for k in range(1, 17)] + [-(k * k + 1) for k in range(1, 17)]
    split = atomic_space(points, weights)
    even = parse_poly("3/7*t^2 + 5/11")
    ring = CofiniteSubspace([(parse_poly("t^2 + 1"), 16)], [])
    whole = CofiniteSubspace([(parse_poly("t^2 + 1"), 16)],
                             [[int(i == j) for i in range(32)] for j in range(32)])
    odd = parse_poly("123/457*t + 511/997")
    for space, f, expected in ((split, even, True), (split, odd, False),
                               (ring, odd, False), (whole, odd, True)):
        assert space.dim == radlab.MAX_MODULUS_DEGREE
        start = time.perf_counter()
        got = radical_member_cofinite(space, f)
        assert time.perf_counter() - start < 0.25
        assert got == expected == window_radical_member_cofinite(space, f), (space.to_dict(), str(f))


def poly_walk_outcome(space, f, window):
    """(verdict or BadInput message, oracle calls) of the Poly walk through
    space.contains."""
    asked = []

    def oracle(power):
        asked.append(power)
        return space.contains(power)

    try:
        return radical_probe(oracle, f, window), len(asked)
    except BadInput as exc:
        return str(exc), len(asked)


def space_probe_outcome(space, f, window):
    try:
        return radical_probe_space(space, f, window)
    except BadInput as exc:
        return str(exc)


def test_space_probe_matches_the_poly_walk():
    """radical_probe_space against the Poly walk through space.contains, on
    seeded spaces with split, non-split, rational, multiplicity and trusted
    quartic blocks.  f is 0, a constant, nilpotent on some blocks, dense or
    a planted member of rad(V).  Windows start at 0, have gaps, or reach
    past MAX_POWER_DEGREE, where both must return False at the same earlier
    exponent or give the same refusal; malformed windows get the same
    refusal too."""
    rng = random.Random(3501)
    limit = radlab.MAX_POWER_DEGREE
    cases = ([(space, None) for space in random_spaces(3502, 24) + split_codim2_spaces(3503, 8)]
             + rational_block_spaces(3504, 12) + window_residue_spaces(3505, 8)
             + [(space, None) for space in trusted_quartic_spaces(3506, 6)
                + trusted_square_spaces(3507, 4)])
    seen = set()
    for k, (space, member) in enumerate(cases):
        parts = [p for p, _ in space.factors if rng.random() < 0.5] or [space.factors[0][0]]
        candidates = [
            poly_zero(),
            qq_poly([Fraction(rng.choice((-9, -2, -1, 1, 3, 7)), rng.randint(1, 9))]),
            prod(parts, start=poly_one()) * qq_poly([rng.randint(1, 3), rng.randint(-2, 2)]),
            qq_poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(2, space.dim + 2))]),
        ]
        if member is not None:
            candidates.append(member)
        for f in candidates:
            top = limit // max(f.degree, 1)  # the last exponent below the limit
            windows = [range(rng.randint(1, 2 * space.dim + 2)),
                       sorted(rng.sample(range(3 * space.dim + 3), rng.randint(1, space.dim + 1)))]
            if k % 3 == 0 or f.degree < 1:  # the Poly walk to the limit is slow
                windows.append(sorted(rng.sample(range(1, 2 * space.dim + 2), 3))
                               + [top - rng.randint(0, 2), top + 1])
            for window in windows:
                expected, asked = poly_walk_outcome(space, f, window)
                assert space_probe_outcome(space, f, window) == expected, (
                    space.to_dict(), str(f), window)
                if expected is False:  # the space walk fails at the same exponent
                    assert radical_probe_space(space, f, window[:asked]) is False
                    assert asked == 1 or radical_probe_space(space, f, window[:asked - 1])
                    seen.add(("False", window[-1] > top))
                else:
                    seen.add(expected if expected is True else expected.split(" ")[1])
        for window in ([], [-1, 2], [2, 2], [3, 1], [1, 5, 4]):
            expected, asked = poly_walk_outcome(space, candidates[-1], window)
            assert asked == 0 and space_probe_outcome(space, candidates[-1], window) == expected
            seen.add(expected)
    assert {True, ("False", False), ("False", True), "would", "of", "empty probe window",
            "window exponents must be non-negative", "window exponents must increase"} <= seen, seen


def test_space_probe_to_the_limit_is_fast():
    space = CofiniteSubspace.from_dict({"modulus": [["t", 1], ["t - 1", 1]],
                                        "vbar_basis": [[1, 0], [0, 1]]})
    f = parse_poly("123/457*t + 511/997")
    start = time.perf_counter()
    assert radical_probe_space(space, f, range(1, 501))
    assert time.perf_counter() - start < 0.5
    with pytest.raises(BadInput, match=re.escape("f^501 would have degree 501")):
        radical_probe_space(space, f, range(1, 502))
    assert time.perf_counter() - start < 1.0


class CallCounter:
    """Call counts of wrapped functions."""

    def __init__(self):
        self.counts = {}

    def count(self, name, fn):
        def wrapper(*args):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args)
        return wrapper


def test_radlab_loops_make_no_poly_arithmetic(monkeypatch):
    # twelve points whose weights have one zero-sum pair {0, 11}
    space = atomic_space([Fraction(k, 3) for k in range(12)], [1] * 11 + [-1])
    f = qq_poly([Fraction(k - 5, k + 1) for k in range(15)])
    counter = CallCounter()
    monkeypatch.setattr(radlab, "euclid_divmod", counter.count("divmod", euclid_divmod))
    monkeypatch.setattr(radlab, "_zdivmod", counter.count("_zdivmod", radlab._zdivmod))
    monkeypatch.setattr(radlab, "_times_t", counter.count("_times_t", radlab._times_t))
    monkeypatch.setattr(Poly, "__mul__", counter.count("mul", Poly.__mul__))
    monkeypatch.setattr(CofiniteSubspace, "mod", counter.count("mod", CofiniteSubspace.mod))
    # (t^2 + 1)^3 (t - 2)^2: f is nilpotent on both blocks, so no block is
    # stepped; the repeated blocks take a second pseudo-division each
    repeated = CofiniteSubspace([(parse_poly("t^2 + 1"), 3), (parse_poly("t - 2"), 2)],
                                [[1, 2, 0, -1, 3, 0, 1, 1]])
    nilpotent = parse_poly("t^3 - 2*t^2 + t - 2")  # (t^2 + 1)(t - 2)
    for s, g in [(space, g) for g in (f, poly_one(), f * f)] + [(repeated, nilpotent)]:
        counter.counts.clear()
        radical_member_cofinite(s, g)
        assert counter.counts.get("_zdivmod", 0) <= 2 * len(s._blocks)
        assert counter.counts.get("divmod", 0) == 0
        assert counter.counts.get("mul", 0) == 0
        assert counter.counts.get("mod", 0) == 0
    assert "_times_t" not in counter.counts
    assert counter.counts["_zdivmod"] == 4
    # the window probe and the absorption test step residues too, with no
    # Poly power, product, division or reduction mod g, on a space that
    # holds every power and on ones that do not
    whole = CofiniteSubspace(space.factors, [[int(i == j) for i in range(12)] for j in range(12)])
    cases = [(s, g) for s in (space, whole) for g in (f, poly_one(), f * f)]
    for s, g in cases + [(repeated, nilpotent)]:
        counter.counts.clear()
        assert radical_probe_space(s, g, [0, 3, 4, 9, 17]) == (s is whole)
        definition_witness(s, g, f)
        definition_witness(s, f, g)
        assert not {"divmod", "mul", "mod"} & set(counter.counts), counter.counts
    # the verdict runs on integer lists from the annihilator to the returned
    # Polys: no Poly product or division, e_S is formed once by one integer
    # xgcd, and the only Polys built are h, r, e_S and t^j
    monkeypatch.setattr(radlab, "_set_idempotent",
                        counter.count("_set_idempotent", _set_idempotent))
    monkeypatch.setattr(radlab, "_zxgcd", counter.count("_zxgcd", radlab._zxgcd))
    monkeypatch.setattr(Poly, "from_ints", staticmethod(counter.count("from_ints", Poly.from_ints)))
    # a trusted quartic beside (t - 1)^2, where r = (t^4 + t + 7)(t - 1) is not h
    trusted = CofiniteSubspace([(parse_poly("t^4 + t + 7"), 1), (parse_poly("t - 1"), 2)],
                               nullspace([[1, 0, 0, 0, 0, -1]]))
    for s, status, built in ((space, NOT_MATHIEU, 2), (trusted, NOT_MATHIEU, 3),
                             (VALUE_SUM, MATHIEU_EXACT, 1)):
        counter.counts.clear()
        verdict = mathieu_check(s)
        assert verdict.status == status, s.to_dict()
        assert counter.counts.get("_set_idempotent", 0) == (status == NOT_MATHIEU)
        assert counter.counts.get("_zxgcd", 0) == (status == NOT_MATHIEU)
        assert counter.counts.get("from_ints", 0) == built, counter.counts
        assert not {"divmod", "mul", "mod"} & set(counter.counts), counter.counts
        if s is space:
            assert verdict.witness[1] == parse_poly("t")


def test_space_build_is_fast():
    weights = [(-1) ** i * (i + 1) for i in range(20)]
    start = time.perf_counter()
    space = atomic_space(range(-10, 10), weights)
    assert time.perf_counter() - start < 0.3
    assert space.dim == 20 and len(space._ann) == 1


def test_modulus_is_the_product_of_the_blocks():
    spaces = (random_spaces(5151, 40) + split_codim2_spaces(5152, 20)
              + [space for space, _ in rational_block_spaces(5153, 20)]
              + trusted_quartic_spaces(5154, 20))
    for space in spaces:
        assert "modulus" not in vars(space)  # built on first use, by mod() only
        g = poly_one()
        for p, m in space.factors:
            g = g * p ** m
        assert space.modulus == g and space.dim == g.degree
        starts = [sum(p.degree * m for p, m in space.factors[:i]) for i in range(len(space.factors))]
        assert list(space._starts) == starts
        f = parse_poly("t^9 - 3*t^4 + 2/5")
        assert space.mod(f) == euclid_divmod(f, g)[1]


def test_bench_tracer_wraps_and_restores_the_space_methods():
    # the benchmark's tracer wraps CofiniteSubspace methods by name
    import mathieulab
    import mathieulab.cli  # noqa: F401  (the tracer wraps every layer module)
    from bench.trace import Tracer

    original = CofiniteSubspace.contains
    tracer = Tracer(mathieulab, lambda: 0)
    tracer.install()
    try:
        assert CofiniteSubspace.contains is not original
        assert VALUE_EQUAL.contains(poly_one())
        assert tracer.calls[tracer.names.index(("radlab", "CofiniteSubspace.contains"))] == 1
    finally:
        tracer.uninstall()
    assert CofiniteSubspace.contains is original
