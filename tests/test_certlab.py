"""Certificate machinery: bracket factorials, valuations, prime search,
and full non-membership certificates with independent re-verification."""

import json
import math
import random
import re
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from mathieulab import certlab
from mathieulab.certlab import (
    INFINITE,
    _strong_lucas,
    _valuation,
    b_products,
    bracket_factorial,
    certificate_from_dict,
    certificate_nonmembership,
    certificate_to_dict,
    is_prime,
    phi_expansion,
    verify_certificate,
)
from mathieulab.cli import main
from mathieulab.corealg import QQ, parse_poly, qq_poly, t_monomial
from mathieulab.errors import (
    BadInput,
    BudgetExhausted,
    NotNormalized,
    ZeroInput,
)
from mathieulab.opimage import MonomialOperator, lzero, member

import certlab_oracle


def double_factorial_odd(q):
    out = Fraction(1)
    for j in range(1, q + 1):
        out *= 2 * j - 1
    return out


def test_bracket_factorial_examples():
    assert bracket_factorial(2, 2, Fraction(0)) == 3 == double_factorial_odd(2)
    assert bracket_factorial(0, 5, Fraction(7, 3)) == 1
    # Laguerre-moment oracle: prod_{j=1..3}(1+j) = 24
    assert bracket_factorial(3, 1, Fraction(1)) == 24


def test_lzero_monomial_examples():
    assert certlab_oracle.lzero_monomial(2, 0, 1, Fraction(0)) == 3
    assert certlab_oracle.lzero_monomial(5, 1, 1, Fraction(0)) == 0
    assert certlab_oracle.lzero_monomial(3, 0, 0, Fraction(1)) == 24
    assert certlab_oracle.lzero_monomial(2, 0, 1, Fraction(0)) == lzero(
        MonomialOperator(1, 0, 1, 1), t_monomial(QQ, 4)
    )


def test_lzero_monomial_cross_validation():
    rng = random.Random(59)
    for alpha in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(5, 2)):
        for _ in range(25):
            d = rng.randint(0, 3)
            q = rng.randint(0, 10)
            i = rng.randint(0, d)
            op = MonomialOperator(1, alpha, 1, d)
            expected = certlab_oracle.lzero_monomial(q, i, d, alpha)
            assert expected == lzero(op, t_monomial(QQ, q * (d + 1) + i))


def test_phi_expansion_examples():
    assert phi_expansion(parse_poly("t + t^2"), 1, 1) == {3: Fraction(2), 4: Fraction(1)}
    assert phi_expansion(parse_poly("t"), 3, 2) == {}
    assert phi_expansion(parse_poly("t + t^3"), 1, 1) == {4: Fraction(2), 6: Fraction(1)}


def test_phi_expansion_requires_normalization():
    with pytest.raises(NotNormalized):
        phi_expansion(parse_poly("1 + t"), 1, 1)
    with pytest.raises(NotNormalized):
        phi_expansion(parse_poly("2*t"), 1, 1)


def test_b_products_examples():
    assert b_products(1, 1, 1, Fraction(0), 1) == [Fraction(3)]
    assert b_products(1, 1, 0, Fraction(1), 2) == [Fraction(3), Fraction(12)]


def test_vp_examples():
    assert _valuation(Fraction(18, 5), 3) == 2
    assert _valuation(Fraction(5, 18), 3) == -2
    for p in (2, 3, 7, 101):
        assert _valuation(-1, p) == 0
    assert _valuation(0, 7) == INFINITE


def test_vp_valuation_laws():
    rng = random.Random(61)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        y = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        if x == 0 or y == 0:
            continue
        assert _valuation(x * y, p) == _valuation(x, p) + _valuation(y, p)
        if x + y != 0:
            assert _valuation(x + y, p) >= min(_valuation(x, p), _valuation(y, p))


def test_prime_tester_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % k for k in range(2, int(math.isqrt(n)) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n)
    assert is_prime(2 ** 61 - 1)  # Mersenne prime
    assert not is_prime(2 ** 61 + 1)


def test_prime_tester_beyond_the_fixed_base_range():
    # psi_12, the least strong pseudoprime to every prime base up to 37
    # (Sorenson and Webster 2015): fixed-base Miller-Rabin accepts it
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    assert is_prime(2 ** 89 - 1) and is_prime(2 ** 127 - 1)  # Mersenne primes
    assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))
    assert not is_prime((2 ** 89 - 1) ** 2)


def test_strong_lucas_pseudoprimes():
    # the composites below 30000 that pass the strong Lucas test with
    # Selfridge's parameters are exactly these (OEIS A217255); every prime passes
    small = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    passing = []
    for n in range(39, 30000, 2):
        if math.gcd(n, small) != 1:
            continue
        prime = all(n % k for k in range(2, math.isqrt(n) + 1))
        if _strong_lucas(n):
            if not prime:
                passing.append(n)
        else:
            assert not prime, n
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]


def test_certificate_example_alpha_nonzero():
    cert = certificate_nonmembership(parse_poly("t"), 0, Fraction(1), budget=100)
    assert (cert.m, cert.prime) == (1, 3)
    assert (cert.q, cert.r, cert.s0, cert.s_star, cert.h) == (1, 1, 1, 1, 2)
    assert cert.bi_valuations == () and cert.phi_valuations == ()
    assert cert.conclusion_exponent == 1
    # identity: the normal-form constant of t is [1,1]_1! = 2
    assert lzero(MonomialOperator(1, 1, 1, 0), parse_poly("t")) == 2
    assert verify_certificate(cert)


def test_certificate_example_alpha_zero():
    f = parse_poly("t + t^2")
    cert = certificate_nonmembership(f, 1, Fraction(0), budget=100)
    assert verify_certificate(cert)
    # the identity at m = 1 reads L0(f^2) = [2,2]_0! * (1 + b_1 * phi_4) = 4
    assert lzero(MonomialOperator(1, 0, 1, 1), f ** 2) == 4
    assert not member(MonomialOperator(1, 0, 1, 1), f ** cert.conclusion_exponent)[0]


def test_certificates_stop_at_the_degree_limit(capsys):
    limit = certlab.MAX_CERT_DEGREE
    f = parse_poly("t + t^2")
    # p = 2m + 1 for d = 1, alpha = 0; m = 249 needs f^498 of degree 996
    valuations = certlab._derive_valuations(f, 1, 1, Fraction(0), 249, 499)
    assert verify_certificate(certlab.Certificate(f, 249, 499, 1, 2, 1, 1, 0, *valuations, 498))
    data = {"f": "t^2 + t", "m": 16001, "prime": 32003, "s0": 1, "s_star": 2, "h": 1, "q": 1,
            "r": 0, "bi_valuations": [], "phi_valuations": [], "conclusion_exponent": 32002}
    start = time.perf_counter()
    with pytest.raises(BadInput, match="MAX_CERT_DEGREE"):
        verify_certificate(certificate_from_dict(data))
    assert main(["verify-cert", "--cert", json.dumps(data)]) == 2
    assert json.loads(capsys.readouterr().err)["code"] == "BAD_INPUT"
    # the first candidate for d = 500 is m = 10, a power of degree 10020
    message = f"degree 10020, above the limit MAX_CERT_DEGREE = {limit}$"
    with pytest.raises(BudgetExhausted, match=message):
        certificate_nonmembership(f, 500, Fraction(0))
    assert time.perf_counter() - start < 1.0


def test_certificate_rejects_degenerate_alpha():
    with pytest.raises(BadInput):
        certificate_nonmembership(parse_poly("t^2"), 1, Fraction(-1), budget=10)
    with pytest.raises(BadInput):
        certificate_nonmembership(parse_poly("t"), 0, Fraction(0), budget=10)
    with pytest.raises(ZeroInput):
        certificate_nonmembership(qq_poly([]), 1, Fraction(0), budget=10)
    with pytest.raises(NotNormalized):
        certificate_nonmembership(parse_poly("1 + t"), 1, Fraction(0), budget=10)


def test_certificate_identity_property_random():
    rng = random.Random(67)
    cases = [(1, Fraction(0)), (0, Fraction(1)), (2, Fraction(1, 3)), (1, Fraction(1, 2))]
    for _ in range(20):
        d, alpha = rng.choice(cases)
        s = rng.randint(1, 2)
        extra = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))]
        f = qq_poly([0] * s + [1] + extra)
        op = MonomialOperator(1, alpha, 1, d)
        deg = f.degree
        for m in range(1, 4):
            phi = phi_expansion(f, m, d)
            i_max = (deg - s) * m
            correction = Fraction(0)
            if i_max >= 1:
                for i, b in enumerate(b_products(s, m, d, alpha, i_max), start=1):
                    correction += b * phi.get((s * m + i) * (d + 1), Fraction(0))
            lhs = lzero(op, f ** (m * (d + 1)))
            rhs = bracket_factorial(s * m, d + 1, alpha) * (1 + correction)
            assert lhs == rhs


def test_certificate_soundness_random():
    rng = random.Random(71)
    cases = [(1, Fraction(0)), (0, Fraction(1))]
    for _ in range(12):
        d, alpha = rng.choice(cases)
        f = qq_poly([0, 1] + [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])
        cert = certificate_nonmembership(f, d, alpha, budget=500)
        assert verify_certificate(cert)
        op = MonomialOperator(1, alpha, 1, d)
        assert not member(op, f ** cert.conclusion_exponent)[0]
        assert all(v > 0 for _, v in cert.bi_valuations)
        assert all(v >= 0 for _, v in cert.phi_valuations)


def test_certificate_tampering_detected():
    cert = certificate_nonmembership(parse_poly("t + t^2"), 1, Fraction(0), budget=100)
    assert verify_certificate(cert)
    assert not verify_certificate(replace(cert, prime=cert.prime + 1))  # composite
    if cert.bi_valuations:
        broken = tuple((i, v + 1) for i, v in cert.bi_valuations)
        assert not verify_certificate(replace(cert, bi_valuations=broken))
    assert not verify_certificate(replace(cert, h=cert.h + 1))
    assert not verify_certificate(replace(cert, conclusion_exponent=cert.conclusion_exponent + 1))


def test_certificate_with_unnormalized_f_is_invalid():
    cert = certificate_nonmembership(parse_poly("t + t^2"), 1, Fraction(0), budget=100)
    for f in ("2*t + t^2", "1 + t + t^2", "0"):
        assert not verify_certificate(replace(cert, f=parse_poly(f)))


def test_certificate_checker_faults_propagate(monkeypatch):
    cert = certificate_nonmembership(parse_poly("t + t^2"), 1, Fraction(0), budget=100)

    def broken(*args):
        raise RuntimeError("checker fault")

    monkeypatch.setattr(certlab, "_derive_valuations", broken)
    with pytest.raises(RuntimeError, match="checker fault"):
        verify_certificate(cert)


def test_certificate_json_roundtrip():
    cert = certificate_nonmembership(parse_poly("t + 2*t^3"), 1, Fraction(1, 2), budget=500)
    data = certificate_to_dict(cert)
    again = certificate_from_dict(data)
    assert again == cert
    assert verify_certificate(again)


def test_bracket_factorial_nonvanishing():
    for d, alpha in ((1, Fraction(0)), (0, Fraction(1)), (2, Fraction(1, 3)),
                     (1, Fraction(-1, 2)), (0, Fraction(-3, 2))):
        assert Fraction(-1 - alpha, d + 1).denominator != 1 or Fraction(-1 - alpha, d + 1) < 0
        for q in range(51):
            assert bracket_factorial(q, d + 1, alpha) != 0


def test_certificate_json_takes_integers_only(capsys):
    # int() used to truncate every value, so this certificate was valid
    data = {"f": "t^2 + t", "m": 1.9, "prime": 3.2, "s0": True, "s_star": 2, "h": 1, "q": 1,
            "r": 0, "bi_valuations": [[1, 1.7]], "phi_valuations": [[1, 0]],
            "conclusion_exponent": 2.5}
    assert main(["verify-cert", "--cert", json.dumps(data)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["code"] == "BAD_INPUT" and error["message"].startswith("malformed certificate: ")
    good = certificate_to_dict(certificate_nonmembership(parse_poly("t + 2*t^3"), 1,
                                                         Fraction(1, 2), budget=500))
    assert good["bi_valuations"] and good["phi_valuations"]
    for name, value in good.items():
        if name == "f":
            continue
        for bad in (2.0, True, False, "3"):
            if isinstance(value, int):
                cases = [dict(good, **{name: bad})]
            else:
                (i, v), rest = value[0], value[1:]
                cases = [dict(good, **{name: [[bad, v]] + rest}),
                         dict(good, **{name: [[i, bad]] + rest})]
            for case in cases:
                with pytest.raises(BadInput, match=f"^malformed certificate: {name} must be an "
                                                   f"integer, not {type(bad).__name__}$"):
                    certificate_from_dict(case)
    assert verify_certificate(certificate_from_dict(good))


def _random_f(rng):
    """Mostly normalized f = t^s + ..., sometimes zero or with a lowest term
    that is not a monic t^s; denominators 3, 5 and 7 make the search skip
    primes that divide them."""
    kind = rng.random()
    if kind < 0.04:
        return qq_poly([])
    s = rng.randint(0 if kind < 0.1 else 1, 2)
    lead = rng.choice((2, Fraction(1, 2), -1)) if kind < 0.16 else 1
    extra = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5, 7)))
             for _ in range(rng.randint(0, 3))]
    return qq_poly([0] * s + [lead] + extra)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc).__name__, str(exc)


def _tamperings(cert, rng):
    """22 or 23 integer variants of a certificate: two shifts out of +-1 and
    +-2 for every integer field, a pair appended to and one pair bumped in
    each valuation list, f swapped twice, and a composite-prime forgery."""
    out = []
    for name in ("m", "prime", "s0", "s_star", "h", "q", "r", "conclusion_exponent"):
        for delta in rng.sample((-2, -1, 1, 2), 2):
            out.append(replace(cert, **{name: getattr(cert, name) + delta}))
    for name in ("bi_valuations", "phi_valuations"):
        pairs = getattr(cert, name)
        top = max((i for i, _ in pairs), default=0)
        out.append(replace(cert, **{name: pairs + ((top + 1, 1),)}))
        k = rng.randrange(len(pairs) + 1)
        i, v = pairs[k] if k < len(pairs) else (1, 0)
        bumped = rng.choice(((i, v + 1), (i, v - 1), (i + 1, v)))
        out.append(replace(cert, **{name: pairs[:k] + (bumped,) + pairs[k + 1:]}))
    t = parse_poly("t")
    swaps = (cert.f * t, cert.f + t ** (cert.f.degree + 1), cert.f.scale(Fraction(2)),
             cert.f - t ** cert.f.lowest_degree(), parse_poly("t + t^2"))
    out.extend(replace(cert, f=other) for other in rng.sample(swaps, 2))
    # a forgery consistent in every field, at the next m whose p is composite
    d, alpha = cert.conclusion_exponent // cert.m - 1, Fraction(cert.r, cert.q)
    m = cert.m + 1
    while (p := cert.s_star * cert.q * m + cert.h) < 2 or is_prime(p):
        m += 1
    derived = certlab._derive_valuations(cert.f, cert.f.lowest_degree(), d, alpha, m, p)
    if derived is not None and cert.f.degree * m * (d + 1) <= certlab.MAX_CERT_DEGREE:
        out.append(replace(cert, m=m, prime=p, bi_valuations=derived[0], phi_valuations=derived[1],
                           conclusion_exponent=m * (d + 1)))
    return out


def test_certificates_match_the_earlier_search_and_checker():
    rng = random.Random(2020)
    alphas = [Fraction(0), Fraction(-1), Fraction(-2), Fraction(-3), Fraction(1), Fraction(2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-3, 2), Fraction(5, 2),
              Fraction(2, 7), Fraction(-5, 3)]
    reached = set()
    certificates = tampered = 0
    start = time.perf_counter()
    for _ in range(320):
        f = _random_f(rng)
        d = rng.choice((-1, 0, 0, 1, 1, 2, 3, 600))
        alpha = rng.choice(alphas)
        budget = rng.choice((1, 2, 3, 40, 10 ** 6))
        new = _outcome(certificate_nonmembership, f, d, alpha, budget)
        old = _outcome(certlab_oracle.certificate_nonmembership, f, d, alpha, budget)
        if new[0] != "ok" or old[0] != "ok":
            assert new == old, (f, d, alpha, budget)
            reason = re.split(r"[;,]| among| needs", new[1])[0]
            reached.add("alpha = -1" if alpha == -1 and d >= 0 else reason)
            continue
        assert json.dumps(certificate_to_dict(new[1])) == json.dumps(
            certlab_oracle.certificate_to_dict(old[1]))
        certificates += 1
        assert verify_certificate(new[1]) and certlab_oracle.verify_certificate(new[1])
        for cert in _tamperings(new[1], rng):
            tampered += 1
            assert _outcome(verify_certificate, cert) == _outcome(
                certlab_oracle.verify_certificate, cert), cert
    assert time.perf_counter() - start < 3.0
    assert {"d must be non-negative", "the operator d/dt - 1 is surjective",
            "alpha lies in -(1 + (d+1)N)", "alpha = -1", "zero polynomial",
            "lowest term must be a monic t^s with s >= 1", "no admissible prime",
            "the next candidate m = 1"} <= reached, reached
    assert certificates >= 60 and tampered >= 20 * certificates


def test_certificate_search_tests_each_candidate_once(monkeypatch):
    # one walk over m: the certificate or refusal of the earlier search,
    # which restarted after every prime, with one primality test per
    # candidate p = (s_star*q)m + h >= 2 up to the m where the walk stopped
    tested = []
    monkeypatch.setattr(certlab, "is_prime", lambda n: tested.append(n) or is_prime(n))
    rng = random.Random(3737)
    polys = [parse_poly(text) for text in ("t", "t + t^2", "t + 1/3*t^2", "t^2 - 2/5*t^3",
                                           "t + 1/7*t^2 - 1/3*t^3", "t - 4*t^2 + t^4", "2*t")]
    alphas = [Fraction(0), Fraction(1), Fraction(1, 97), Fraction(2, 7), Fraction(5, 2),
              Fraction(-5, 3), Fraction(-7, 2), Fraction(-9, 4), Fraction(-3)]
    seen = set()
    for _ in range(160):
        f, alpha = rng.choice(polys), rng.choice(alphas)
        d = rng.choice((0, 1, 1, 2, 3, 250))
        budget = rng.choice((1, 2, 5, 40, 10 ** 6))
        tested.clear()
        new = _outcome(certificate_nonmembership, f, d, alpha, budget)
        assert new == _outcome(certlab_oracle.certificate_nonmembership, f, d, alpha, budget)
        if new[0] == "ok":
            last = new[1].m
            seen.add("certificate")
        elif new[0] == "BudgetExhausted" and "next candidate" in new[1]:
            last = int(re.search(r"m = (\d+)", new[1]).group(1))
            seen.add("degree limit")
        elif new[0] == "BudgetExhausted":
            last = budget
            seen.add("budget")
        else:
            assert tested == [], new
            seen.add("refused")
            continue
        _, _, s_star, h = certlab._progression(f, d, alpha)
        candidates = [s_star * alpha.denominator * m + h for m in range(1, last + 1)]
        assert tested == [p for p in candidates if p >= 2], (f, d, alpha, budget)
        if len(tested) < len(candidates):
            seen.add("p < 2")
        if any(f.den % p == 0 and is_prime(p) for p in tested):
            seen.add("p divides den f")
    assert seen == {"certificate", "degree limit", "budget", "refused", "p < 2",
                    "p divides den f"}, seen
