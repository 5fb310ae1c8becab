"""cli-mix: a seeded stream of small requests covering every CLI subcommand.

Each request calls ``cli.main(argv)`` in-process with stdout and stderr
captured.  Degrees stay <= 6 and spaces have <= 4 points, so requests are
cheap and fixed per-call costs (argparse, parsing, dataclass construction,
formatting, JSON) dominate.  This is the only workload that exercises
opimage, certlab, CLI parsing and printing, and the JSON path.

Reference: every reply is parsed as JSON and compared with the benchmark's
own computation (operator normal forms, moments, certificate re-derivation,
residual and witness identities in refalg).  The README's hand-written
examples run with their documented outputs.  A seeded share of requests is
malformed and must exit 2 with the documented error JSON on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

from . import refalg as ra
from . import wl_orthopoly, wl_radical, wl_surjective
from .common import Job

F0, F1 = ra.F0, ra.F1

# request kind -> requests per pass
MIX = {
    "reduce": 24, "member": 32, "lzero": 24, "escape": 16, "certify": 12, "verify-cert": 16,
    "moments": 20, "vb-member": 20, "orthopoly": 20, "equiv": 12, "mathieu": 24,
    "largest-ideal": 16, "radical-probe": 20, "ufd-member": 24, "ufd-radical": 20,
    "absorb-bound": 12, "gcd-lift": 16, "surjective": 8, "malformed": 48,
}
# (text, radical) of non-unit contexts a in QQ[x]; coefficients ascending in x
UFD_A = (("x^2", [F0, F1]), ("x^2 - x", [F0, -F1, F1]), ("2*x^3", [F0, F1]),
         ("x^3 + x^2", [F0, F1, F1]))


def _reply(rc, out, err):
    """Parsed JSON payload of a successful call, or a reason string."""
    if rc != 0:
        return None, f"exit code {rc}: {err.strip()[:120]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError:
        return None, f"stdout is not JSON: {out[:80]!r}"


def _argv(args):
    """Pass a value that starts with '-' as --flag=value; argparse would read it as a flag."""
    out = []
    for arg in args:
        if arg.startswith("-") and out and out[-1].startswith("--") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _call(ml, argv):
    """The job body: ``mathieulab argv`` in-process -> (exit code, stdout, stderr)."""
    argv = _argv(argv)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ml.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    return run


def _request(ml, kind, argv, verify):
    """A job running ``mathieulab argv``; verify(payload) -> reason or None."""

    def check(result):
        payload, reason = _reply(*result)
        return reason if reason is not None else verify(payload)

    return Job(kind, len(argv), _call(ml, argv), check)


def _exact(expected):
    return lambda payload: None if payload == expected else f"reply {payload}, expected {expected}"


def _malformed(ml, argv, code):
    """A request that must exit 2 with the error JSON carrying ``code``."""

    def check(result):
        rc, out, err = result
        if rc != 2 or out:
            return f"malformed request exited {rc} with stdout {out[:60]!r}"
        try:
            payload = json.loads(err)
        except json.JSONDecodeError:
            return f"stderr is not the error JSON: {err[:80]!r}"
        if (payload.get("status") != "error" or payload.get("code") != code
                or not payload.get("message")):
            return f"error reply {payload}, expected code {code}"
        return None

    return Job("malformed", 0, _call(ml, argv), check)


# -- operators ---------------------------------------------------------------

def _mono(rng, index):
    c = rng.choice((F1, Fraction(2), Fraction(1, 2)))
    alpha = rng.choice((F1, Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2),
                        Fraction(1, 3)))
    lam = rng.choice((F1, Fraction(2), -F1))
    d = index % 3
    return (c, alpha, lam, d), f"mono:c={c},alpha={alpha},lambda={lam},d={d}"


def _rand(rng, degree, low=0):
    return ra.strip([F0] * low + [Fraction(rng.randint(-4, 4)) for _ in range(low, degree)]
                    + [Fraction(rng.choice((-2, -1, 1, 2)))])


def _op_poly(rng, op, tail, index):
    """D(h) plus a seeded tail of degree <= d (tail 'none', 'const' or 'residue')."""
    c, alpha, lam, d = op
    h = _rand(rng, 1 + index // 3 % 3, low=1)
    f = ra.apply_mono(c, alpha, lam, d, h)
    if tail == "const":
        f = ra.padd(f, [Fraction(rng.choice((-3, -1, 1, 2)))])
    elif tail == "residue":
        f = ra.padd(f, _rand(rng, d))
    return f


def _witness_ok(op, f, text, nf=()):
    w = ra.parse_qq(text)
    try:
        return ra.padd(ra.apply_mono(*op, w), list(nf)) == f
    except ValueError:
        return False


def _reduce(rng, ml, index):
    op, op_text = _mono(rng, index)
    f = _op_poly(rng, op, "residue", index)

    def verify(p):
        nf = ra.parse_qq(p["normal_form"])
        if nf != ra.mono_reduce(*op, f) or p["admissible"] is not True:
            return f"normal form {p['normal_form']}"
        return None if _witness_ok(op, f, p["witness"], nf) else "f != nf + D(witness)"

    return _request(ml, "reduce", ["reduce", "--op", op_text, "--poly", ra.format_qq(f)], verify)


def _member(rng, ml, index):
    op, op_text = _mono(rng, index)
    f = _op_poly(rng, op, "none" if index // 9 % 2 == 0 else "const", index)

    def verify(p):
        if p["member"] != ra.mono_member(*op, f):
            return f"member {p['member']}"
        if p["member"] and not _witness_ok(op, f, p["witness"]):
            return "D(witness) != f"
        return None if p["member"] or p["witness"] is None else "witness on a non-member"

    return _request(ml, "member", ["member", "--op", op_text, "--poly", ra.format_qq(f)], verify)


def _lzero(rng, ml, index):
    op, op_text = _mono(rng, index)
    f = _op_poly(rng, op, "residue", index)
    nf = ra.mono_reduce(*op, f)
    expected = {"value": str(nf[0] if nf else F0)}
    return _request(ml, "lzero", ["lzero", "--op", op_text, "--poly", ra.format_qq(f)],
                    _exact(expected))


def _escape_exponent(op, f, budget=50):
    power = [F1]
    for m in range(1, budget + 1):
        power = ra.pmul(power, f)
        if not ra.mono_member(*op, power):
            return m
    return None


def _escape(rng, ml, index):
    op, op_text = _mono(rng, index)
    f = _op_poly(rng, op, "const", index)
    expected = {"escape_exponent": _escape_exponent(op, f)}
    return _request(ml, "escape", ["escape", "--op", op_text, "--poly", ra.format_qq(f)],
                    _exact(expected))


# -- certificates --------------------------------------------------------------

def cert_valid(cert):
    """Re-derive a certificate in the benchmark's own arithmetic."""
    try:
        f = ra.parse_qq(cert["f"])
        m, p, q, r = cert["m"], cert["prime"], cert["q"], cert["r"]
        exponent = cert["conclusion_exponent"]
        if m < 1 or exponent % m or q < 1 or math.gcd(r, q) != 1:
            return False
        d = exponent // m - 1
        alpha = Fraction(r, q)
        s = next(i for i, c in enumerate(f) if c)
        if d < 0 or s < 1 or f[s] != 1 or q + r == 0:
            return False
        s0 = math.gcd(s * (d + 1), q + r)
        s_star, h = s * (d + 1) // s0, (q + r) // s0
        if (cert["s0"], cert["s_star"], cert["h"]) != (s0, s_star, h):
            return False
        if p != s_star * q * m + h or not ra.is_prime(p):
            return False
        power = ra.ppow(f, exponent)
        i_max = (len(f) - 1 - s) * m
        bi, phi, b = [], [], F1
        for i in range(1, i_max + 1):
            b *= (s * m + i - 1) * (d + 1) + 1 + alpha
            v = ra.vp(b, p)
            if v <= 0:
                return False
            bi.append([i, v])
            k = (s * m + i) * (d + 1)
            coeff = power[k] if k < len(power) else F0
            if coeff:
                if ra.vp(coeff, p) < 0:
                    return False
                phi.append([i, ra.vp(coeff, p)])
        if cert["bi_valuations"] != bi or cert["phi_valuations"] != phi:
            return False
        return not ra.mono_member(F1, alpha, F1, d, power)
    except (KeyError, TypeError, ValueError, StopIteration):
        return False


def _cert_input(rng, index):
    """(f, d, alpha) with coprime progression parameters."""
    s, d, extra = 1 + index % 2, index // 2 % 2, 1 + index // 4 % 2
    while True:
        f = [F0] * s + [F1] + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(extra)]
        alpha = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), F1, Fraction(2)))
        q, r = alpha.denominator, alpha.numerator
        s0 = math.gcd(s * (d + 1), q + r)
        if math.gcd(s * (d + 1) // s0 * q, (q + r) // s0) == 1:
            return f, d, alpha


def _certify(rng, ml, index):
    f, d, alpha = _cert_input(rng, index)

    def verify(p):
        if ra.parse_qq(p["f"]) != f or Fraction(p["r"], p["q"]) != alpha:
            return "certificate for another input"
        return None if cert_valid(p) else "certificate does not re-derive"

    return _request(ml, "certify", ["certify", "--poly", ra.format_qq(f), "--d", str(d),
                                     "--alpha", str(alpha)], verify)


# certificates for (t + t^2, d=1, alpha=0), (t + 3t^2, d=0, alpha=1/2), (t^2 - 2t^3, d=1, alpha=1/3)
VALID_CERTS = (
    {"f": "t^2 + t", "m": 1, "prime": 3, "s0": 1, "s_star": 2, "h": 1, "q": 1, "r": 0,
     "bi_valuations": [[1, 1]], "phi_valuations": [[1, 0]], "conclusion_exponent": 2},
    {"f": "3*t^2 + t", "m": 1, "prime": 5, "s0": 1, "s_star": 1, "h": 3, "q": 2, "r": 1,
     "bi_valuations": [[1, 1]], "phi_valuations": [[1, 0]], "conclusion_exponent": 1},
    {"f": "-2*t^3 + t^2", "m": 2, "prime": 7, "s0": 4, "s_star": 1, "h": 1, "q": 3, "r": 1,
     "bi_valuations": [[1, 1], [2, 1]], "phi_valuations": [[1, 0], [2, 0]],
     "conclusion_exponent": 4},
)


def _verify_cert(rng, ml, index):
    cert = json.loads(json.dumps(rng.choice(VALID_CERTS)))
    if index % 2:
        field = ("prime", "m", "bi")[index // 2 % 3]
        if field == "bi":
            cert["bi_valuations"][0][1] += 1
        else:
            cert[field] += 2
    expected = {"valid": cert_valid(cert)}
    return _request(ml, "verify-cert", ["verify-cert", "--cert", json.dumps(cert)],
                    _exact(expected))


# -- weights --------------------------------------------------------------------

def _small_weight(rng, index):
    return wl_orthopoly._weight(rng, ("jacobi", "laguerre", "hermite", "atomic")[index % 4])


def _moments(rng, ml, index):
    text, kind, params, _ = _small_weight(rng, index)
    expected = {"moments": [str(v) for v in ra.moments(kind, params, 6)]}
    return _request(ml, "moments", ["moments", "--weight", text, "--upto", "6"], _exact(expected))


def _vb_member(rng, ml, index):
    text, kind, params, _ = _small_weight(rng, index)
    nu = ra.moments(kind, params, 6)
    g = _rand(rng, 5)
    f = ra.psub(g, [ra.integral(g, nu) - (0 if index // 4 % 2 == 0 else 1)])
    expected = {"member": ra.integral(f, nu) == 0}
    return _request(ml, "vb-member", ["vb-member", "--weight", text, "--poly", ra.format_qq(f)],
                    _exact(expected))


def _orthopoly(rng, ml, index):
    text, kind, params, _ = _small_weight(rng, index)
    n = 2 + index // 4 % 5
    nu = ra.moments(kind, params, 2 * n)

    def verify(p):
        poly = ra.parse_qq(p["poly"])
        if p["degree"] != n or len(poly) != n + 1 or poly[-1] != 1:
            return "not monic of the requested degree"
        for j in range(n + 1):
            pairing = sum((c * nu[k + j] for k, c in enumerate(poly)), F0)
            if (pairing != 0) != (j == n):
                return f"<p, t^{j}> = {pairing}"
        return None

    return _request(ml, "orthopoly", ["orthopoly", "--weight", text, "--n", str(n)], verify)


def _equiv(rng, ml, index):
    text, _, _, op_text = wl_orthopoly._weight(rng, ("jacobi", "laguerre", "hermite")[index % 3])
    expected = {"one_in_image": False, "degrees_checked": 7, "violations": [], "equivalent": True}
    return _request(ml, "equiv", ["equiv", "--weight", text, "--op", op_text, "--deg-bound", "6"],
                    _exact(expected))


# -- cofinite spaces ------------------------------------------------------------

def _small_space(rng, index):
    n = 2 + index % 3
    points = [Fraction(p) for p in rng.sample(range(-6, 7), n)]
    cls = index // 3 % 3
    if cls == 0:
        weights = [Fraction(rng.randint(1, 5)) for _ in range(n)]
        weights[-1] = -weights[0]
    elif cls == 1:
        weights = [Fraction(rng.randint(1, 5)) for _ in range(n)]
    else:
        weights = wl_radical._no_zero_sum_weights(rng, n)
    return points, wl_radical.Space([(wl_radical._linear(p), 1) for p in points], weights)


def _mathieu(rng, ml, index):
    _, space = _small_space(rng, index)

    def verify(p):
        statuses, _, _ = space.expected()
        if p["status"] not in statuses:
            return f"status {p['status']}, expected {sorted(statuses)}"
        if p["status"] == wl_radical.NOT_MATHIEU:
            a, b = ra.parse_qq(p["witness_a"]), ra.parse_qq(p["witness_b"])
            return None if space.refutes(a, b) else "witness does not refute"
        return None

    return _request(ml, "mathieu", ["mathieu", "--space", space.json], verify)


def _largest_ideal(rng, ml, index):
    _, space = _small_space(rng, index)
    expected = {"generator": ra.format_qq(space.radical)}
    return _request(ml, "largest-ideal", ["largest-ideal", "--space", space.json], _exact(expected))


def _radical_probe(rng, ml, index):
    lo, hi = 1, 2 + index // 2 % 5
    window = f"{lo}:{hi}"
    if index % 2 == 0:
        points, space = _small_space(rng, index // 2)
        f = ra.lagrange(points, [Fraction(rng.randint(-2, 2)) for _ in points])
        holds = all(ra.powers_in_hyperplane(space.blocks, space.lam, f, [F1], lo, hi))
        source = ["--space", space.json]
    else:
        text, kind, params, _ = _small_weight(rng, index // 2)
        nu = ra.moments(kind, params, 2 * hi)
        g = _rand(rng, 2)
        f = ra.psub(g, [ra.integral(g, nu)])
        holds = all(ra.integral(ra.ppow(f, m), nu) == 0 for m in range(lo, hi + 1))
        source = ["--weight", text]
    expected = {"holds": holds, "window": [lo, hi]}
    return _request(ml, "radical-probe", ["radical-probe", "--poly", ra.format_qq(f),
                                          "--window", window] + source, _exact(expected))


# -- coefficient rings -------------------------------------------------------------

def _ufd_a(index, non_reduced=False):
    choices = UFD_A[::2] if non_reduced else UFD_A
    text, rad = choices[index % len(choices)]
    return ra.parse_biv(text), text, rad


def _ufd_member(rng, ml, index):
    a, a_text, _ = _ufd_a(index)
    h = {(i, j): Fraction(rng.choice((-2, -1, 1, 2))) for i in range(1 + index // 4 % 3)
         for j in range(2)}
    f = ra.badd(ra.bderiv_t(h), ra.bscale(ra.bmul(a, h), -1))
    member = index // 12 % 2 == 0
    if not member:
        f = ra.badd(f, ra.bconst(rng.choice((-1, 1, 2))))

    def verify(p):
        if p["member"] is not member:
            return f"member {p['member']}, expected {member}"
        if not member:
            return None if p["witness"] is None else "witness on a non-member"
        w = ra.parse_biv(p["witness"])
        ok = ra.badd(ra.bderiv_t(w), ra.bscale(ra.bmul(a, w), -1)) == f
        return None if ok else "D(witness) != f"

    return _request(ml, "ufd-member", ["ufd-member", "--ctx", f"ufd:a={a_text}",
                                       "--poly", ra.format_biv(f)], verify)


def _divides(d, a):
    return not ra.pmod(a, d)


def _ufd_radical(rng, ml, index):
    _, a_text, rad = _ufd_a(index)
    p = {}
    for i in range(1 + index // 4 % 3):
        coeff = ra.pmul(rad, _rand(rng, 1))
        if index // 12 % 2 and i == 0:
            coeff = ra.padd(coeff, [F1])
        p = ra.badd(p, {(i, j): v for j, v in enumerate(coeff) if v})
    expected = {"in_radical": all(_divides(rad, ra.x_part(p, i)) for i in {t for t, _ in p})}
    return _request(ml, "ufd-radical", ["ufd-radical", "--ctx", f"ufd:a={a_text}",
                                        "--p", ra.format_biv(p)], _exact(expected))


def _absorb_bound(rng, ml, index):
    a, a_text, rad = _ufd_a(index)
    p = ra.bmul({(1, j): v for j, v in enumerate(rad) if v},
                {(0, 0): Fraction(rng.choice((1, 2))), (1, 0): Fraction(index // 4 % 2)})
    a_x = ra.x_part(a, 0)
    n, power = 1, p
    while not all(_divides(a_x, ra.x_part(power, i)) for i in {t for t, _ in power}):
        n, power = n + 1, ra.bmul(power, p)
    g = ("t", "t + 1", "x*t + 1")[index % 3]
    expected = {"bound": n * 2}  # N * (deg_t g + 1), and every g has t-degree 1
    return _request(ml, "absorb-bound", ["absorb-bound", "--ctx", f"ufd:a={a_text}",
                                         "--p", ra.format_biv(p), "--g", g], _exact(expected))


def _gcd_lift(rng, ml, index):
    _, a_text, rad = _ufd_a(index, non_reduced=True)
    a_x = ra.x_part(ra.parse_biv(a_text), 0)
    elements = [ra.pmul(rad, [Fraction(rng.choice((1, 2, 3)))]),
                ra.pmul(a_x, _rand(rng, 1))]

    def verify(p):
        u = ra.x_part(ra.parse_biv(p["u"]), 0)
        lifted = [ra.x_part(ra.parse_biv(t), 0) for t in p["d_tilde"]]
        if len(lifted) != len(elements):
            return "wrong number of lifts"
        if any(ra.pmul(u, d) != ra.pmul(dt, a_x) for d, dt in zip(elements, lifted)):
            return "u * d_i != d~_i * a"
        return None if any(not _divides(rad, dt) for dt in lifted) else "every lift in the radical"

    text = ",".join(ra.xpoly_text(e) for e in elements)
    return _request(ml, "gcd-lift", ["gcd-lift", "--a", a_text, "--elements", text], verify)


def _surjective(rng, ml, index):
    family = wl_surjective.FAMILIES[index % 3]
    c, a = wl_surjective._context(rng, family, 2)
    return _surjective_request(ml, 2, c, a, family, 3)


def _surjective_request(ml, k, c, a, family, bound):
    cb = {(0, j): v for j, v in enumerate(c) if v}
    ctx = f"trunc:k={k},c={ra.xpoly_text(c)},a={ra.format_biv(a)}"

    def verify(p):
        if family == "structural":
            ok = p["status"] == "UNDECIDED_ONE" and p["one_witness"] is None and p["note"]
            return None if ok else f"status {p['status']}"
        if p["status"] != "ONE_IN_IMAGE" or p["unresolved"] or p["monomials_checked"] != bound + 1:
            return f"status {p['status']}, unresolved {p['unresolved']}"
        h = ra.parse_biv(p["one_witness"])
        image = ra.badd(ra.bmul(cb, ra.bderiv_t(h), k), ra.bscale(ra.bmul(a, h, k), -1))
        return None if image == {(0, 0): F1} else "c*h' - a*h != 1"

    return _request(ml, "surjective", ["surjective", "--ctx", ctx, "--deg-bound", str(bound)],
                    verify)


# -- malformed requests ----------------------------------------------------------

def _bad(rng, ml, index):
    a, b = rng.randint(2, 9), rng.randint(2, 5)
    op = "mono:c=1,alpha=1,lambda=1,d=0"
    cases = (
        (["member", "--op", op, "--poly", f"{a}*t^^{b}"], "PARSE_ERROR"),
        (["lzero", "--op", op, "--poly", f"{a}/0*t"], "PARSE_ERROR"),
        (["reduce", "--op", op, "--poly", f"{a}*t + x"], "PARSE_ERROR"),
        (["member", "--op", f"poly:c={a}", "--poly", "t"], "BAD_INPUT"),
        (["mathieu", "--space",
          '{"modulus":[["t",1],["t - %d",1]],"vbar_basis":[[%d.5,1]]}' % (a, b)],
         "BAD_INPUT"),
        (["largest-ideal", "--space", '{"modulus":[["t^2 - %d",1]]}' % (a * a)], "BAD_INPUT"),
        (["mathieu", "--space", '{"modulus": [["t", %d]' % a], "BAD_INPUT"),
        (["orthopoly", "--weight", f"atomic:points=0,1;weights={a},{b}", "--n", "3"], "DEGENERATE"),
        (["moments", "--weight", f"jacobi:alpha=-{a},beta=1/2"], "BAD_WEIGHT"),
        (["ufd-member", "--ctx", f"ufd:a={a}", "--poly", "t"], "BAD_INPUT"),
        (["surjective", "--ctx", f"trunc:k={b},c=1", "--deg-bound", "2"], "BAD_INPUT"),
        (["certify", "--poly", f"{a}*t", "--d", "1", "--alpha", "1"], "NOT_NORMALIZED"),
    )
    argv, code = cases[index % len(cases)]
    return _malformed(ml, argv, code)


# -- the README examples -------------------------------------------------------

def _readme(ml):
    jobs = []

    def add(argv, verify):
        jobs.append(_request(ml, "readme", argv, verify))

    add(["member", "--op", "mono:c=1,alpha=1,lambda=1,d=0", "--poly", "t-2"],
        _exact({"member": True, "witness": "-t"}))
    add(["mathieu", "--space", '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,1]]}'],
        _exact({"status": "NOT_MATHIEU", "witness_a": "1", "witness_b": "t"}))
    add(["lzero", "--op", "mono:c=1,alpha=0,lambda=1,d=1", "--poly", "t^4"], _exact({"value": "3"}))
    add(["certify", "--poly", "t+t^2", "--d", "1", "--alpha", "0"],
        lambda p: None if cert_valid(p) else "certificate does not re-derive")
    add(["verify-cert", "--cert", json.dumps(VALID_CERTS[0])], _exact({"valid": True}))
    add(["moments", "--weight", "laguerre:alpha=1/2", "--upto", "6"],
        _exact({"moments": [str(v) for v in ra.moments("laguerre", (Fraction(1, 2),), 6)]}))
    add(["orthopoly", "--weight", "jacobi:alpha=0,beta=0", "--n", "4"],
        _exact({"degree": 4, "poly": "t^4 - 6/7*t^2 + 3/35"}))
    add(["equiv", "--weight", "hermite", "--op", "mono:c=1,alpha=0,lambda=2,d=1",
         "--deg-bound", "12"],
        _exact({"one_in_image": False, "degrees_checked": 13, "violations": [],
                "equivalent": True}))
    add(["escape", "--op", "mono:c=1,alpha=1,lambda=1,d=0", "--poly", "t-2"],
        _exact({"escape_exponent": 2}))
    holds = all(ra.mono_member(F1, -F1, F1, 1, ra.ppow([F0, F0, F1], m)) for m in range(1, 16))
    add(["radical-probe", "--op", "mono:c=1,alpha=-1,lambda=1,d=1", "--poly", "t^2",
         "--window", "1:15"], _exact({"holds": holds, "window": [1, 15]}))
    add(["largest-ideal", "--space", '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,-1]]}'],
        _exact({"generator": "t^2 - t"}))
    add(["ufd-member", "--ctx", "ufd:a=x^2", "--poly", "x^2*t - 1"],
        _exact({"member": True, "witness": "-t"}))
    add(["ufd-radical", "--ctx", "ufd:a=x^2", "--p", "x*t"], _exact({"in_radical": True}))
    add(["absorb-bound", "--ctx", "ufd:a=x^2", "--p", "x*t", "--g", "t"], _exact({"bound": 4}))
    add(["gcd-lift", "--a", "x^2", "--elements", "x,x^3"],
        _exact({"u": "x", "d_tilde": ["1", "x^2"]}))
    jobs.append(_surjective_request(ml, 2, [F1], {(0, 1): F1}, "unit-c", 10))
    return jobs


# request kind -> builder(rng, ml, index); the index fixes the request's shape
# (degrees, window, weight family, context), the rng only its values
BUILDERS = {
    "reduce": _reduce, "member": _member, "lzero": _lzero, "escape": _escape,
    "certify": _certify, "verify-cert": _verify_cert, "moments": _moments,
    "vb-member": _vb_member, "orthopoly": _orthopoly, "equiv": _equiv, "mathieu": _mathieu,
    "largest-ideal": _largest_ideal, "radical-probe": _radical_probe,
    "ufd-member": _ufd_member, "ufd-radical": _ufd_radical, "absorb-bound": _absorb_bound,
    "gcd-lift": _gcd_lift, "surjective": _surjective, "malformed": _bad,
}


def build(rng, ml):
    jobs = _readme(ml)
    for kind, count in MIX.items():
        jobs.extend(BUILDERS[kind](rng, ml, i) for i in range(count))
    rng.shuffle(jobs)
    return jobs
