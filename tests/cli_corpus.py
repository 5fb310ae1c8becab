"""A seeded corpus of in-process CLI requests, hashed per subcommand.

Run it against the package on the path, at two commits, and compare:

    PYTHONPATH=src python tests/cli_corpus.py

It prints one line per subcommand: the name, the number of requests and one
SHA-256 over the (exit code, stdout, stderr) of its requests in order.  Equal
digests mean byte-identical replies.  The requests are built from the seed
alone, with the standard library, so both commits answer the same requests:
seeded valid and malformed requests of every subcommand, the README
examples, the operators whose image needs the non-leading element
(Jacobi parameters with a vanishing lead, lam = 0, c = 0), and 1, t and t^2
under operators with witness factor w = 1, where D(1) is an image element,
and `radical-probe --space` windows of 250 and 500 powers, one past the
power limit and one with both the space and the window malformed, and
`certify` requests whose primes take `is_prime` past its trial division,
one of them past psi_12 into the strong Lucas test.  `verify-cert` reads the certificates that this run's `certify` requests
printed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

SEED = 3333
SUBCOMMANDS = (
    "reduce", "member", "lzero", "escape", "certify", "verify-cert", "moments", "vb-member",
    "orthopoly", "equiv", "mathieu", "largest-ideal", "radical-probe", "ufd-member",
    "ufd-radical", "absorb-bound", "gcd-lift", "surjective",
)
README = (
    ("member", "--op", "mono:c=1,alpha=1,lambda=1,d=0", "--poly", "t-2"),
    ("mathieu", "--space", '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,1]]}'),
    ("lzero", "--op", "mono:c=1,alpha=0,lambda=1,d=1", "--poly", "t^4"),
    ("certify", "--poly", "t+t^2", "--d", "1", "--alpha", "0"),
    ("moments", "--weight", "laguerre:alpha=1/2", "--upto", "6"),
    ("orthopoly", "--weight", "jacobi:alpha=0,beta=0", "--n", "4"),
    ("equiv", "--weight", "hermite", "--op", "mono:c=1,alpha=0,lambda=2,d=1",
     "--deg-bound", "12"),
    ("escape", "--op", "mono:c=1,alpha=1,lambda=1,d=0", "--poly", "t-2"),
    ("radical-probe", "--op", "mono:c=1,alpha=-1,lambda=1,d=1", "--poly", "t^2",
     "--window", "1:15"),
    ("largest-ideal", "--space", '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,-1]]}'),
    ("ufd-member", "--ctx", "ufd:a=x^2", "--poly", "x^2*t - 1"),
    ("ufd-radical", "--ctx", "ufd:a=x^2", "--p", "x*t"),
    ("absorb-bound", "--ctx", "ufd:a=x^2", "--p", "x*t", "--g", "t"),
    ("gcd-lift", "--a", "x^2", "--elements", "x,x^3"),
    ("surjective", "--ctx", "trunc:k=2,c=1,a=x", "--deg-bound", "10"),
    ("member", "--op", "jacobi:alpha=-4,beta=1", "--poly", "1"),
    ("member", "--op", "jacobi:alpha=-2,beta=0", "--poly", "t"),
    ("reduce", "--op", "mono:c=1,alpha=1,lambda=0,d=0", "--poly", "t"),
)
# w = 1: D(1) = -lam t^d leads at degree d, or is 0 when lam = 0
UNIT_FACTOR_OPS = ("mono:c=1,alpha=0,lambda=2,d=1", "mono:c=2,alpha=0,lambda=-1,d=0",
                   "mono:c=1,alpha=0,lambda=0,d=2", "jacobi:alpha=0,beta=0")
UNIT_FACTOR = tuple(
    (name, "--op", op, "--poly", poly, *extra)
    for name, extra in (("member", ()), ("reduce", ()), ("lzero", ()),
                        ("escape", ("--budget", "3")), ("radical-probe", ("--window", "1:4")))
    for op in UNIT_FACTOR_OPS for poly in ("1", "t", "t^2"))
# radical-probe --space over long windows: 16 split points +-1..+-8 with
# paired weights +-(k^2 + 1), where every even f lies in rad(V), and the
# space of all residues mod t (t - 1), walked to the power limit and past it
_POINTS = [*range(1, 9), *range(-1, -9, -1)]
_WEIGHTS = [k * k + 1 for k in range(1, 9)] + [-(k * k + 1) for k in range(1, 9)]
PAIRED = json.dumps({
    "modulus": [[f"t - {p}" if p > 0 else f"t + {-p}", 1] for p in _POINTS],
    "vbar_basis": [[str(Fraction(-w, _WEIGHTS[0]))] + [int(i == j) for i in range(1, 16)]
                   for j, w in enumerate(_WEIGHTS[1:], 1)]})
WHOLE = '{"modulus":[["t",1],["t - 1",1]],"vbar_basis":[[1,0],[0,1]]}'
SPACE_PROBES = tuple(
    ("radical-probe", "--space", space, "--poly", poly, "--window", window)
    for space, poly, window in (
        (PAIRED, "t^2 + 1", "0:250"), (PAIRED, "123/457*t^2 + 511/997", "0:250"),
        (WHOLE, "123/457*t + 511/997", "1:500"), (WHOLE, "123/457*t + 511/997", "1:501"),
        (WHOLE, "3/7", "1:501"),
        ('{"modulus":[["t",1]],"vbar_basis":5}', "t", "a:b")))  # the space error wins
# t + t^2, d = 1: p = 631, 6,500,023 and about 4.35e25 (past psi_12), and h < 0
CERTIFY_PRIMES = tuple(
    ("certify", "--poly", "t+t^2", "--d", "1", "--alpha", alpha)
    for alpha in ("1/97", "7/1000003", "1/318665857834031151167461", "-5/3"))
PER_COMMAND = 60


def _rational(rng, low=-4, high=4, dens=(1, 1, 2, 3)):
    num, den = rng.randint(low, high), rng.choice(dens)
    return str(num) if den == 1 else f"{num}/{den}"


def _poly(rng, var="t", degree=4, low=0):
    terms = [f"+{_rational(rng, -5, 5)}*{var}^{i}" for i in range(low, rng.randint(low, degree) + 1)
             if rng.random() < 0.7]
    return "".join(terms).replace("+-", "-").lstrip("+") or "0"


def _operator(rng):
    """Any operator, weighted towards those whose image needs the
    non-leading element: two-factor Jacobi with alpha + beta in -2..-9,
    one-factor Jacobi with a parameter in -1..-7, lam = 0 and c = 0."""
    kind = rng.randrange(6)
    if kind == 0:
        total = -rng.randint(2, 9)
        alpha = rng.randint(2 * total - 4, 4) / rng.choice((1, 2))
        alpha = alpha if alpha not in (0, total) else total / 2
        return f"jacobi:alpha={alpha:g},beta={total - alpha:g}"
    if kind == 1:
        which = rng.choice(("alpha", "beta"))
        return f"jacobi:{which}={-rng.randint(1, 7)}"
    if kind == 2:
        return f"jacobi:alpha={_rational(rng)},beta={_rational(rng)}"
    d = rng.randint(0, 3)
    if kind == 3:
        return f"mono:c={_rational(rng)},alpha={_rational(rng)},lambda={_rational(rng)},d={d}"
    if kind == 4:  # lam = 0, and the lead c (n + 1) + alpha vanishes at n = k - 1
        c, k = rng.randint(1, 3), rng.randint(1, 4)
        return f"mono:c={c},alpha={-c * k},lambda=0,d={d}"
    return f"mono:c=0,alpha={_rational(rng)},lambda={_rational(rng)},d={d}"


def _space(rng):
    points = rng.sample(range(-5, 6), rng.randint(1, 5))
    modulus = [[f"t + {-p}" if p < 0 else f"t - {p}", 1] for p in points]
    dim = len(points)
    if rng.random() < 0.3:
        modulus.append(["t^2 + 1", rng.randint(1, 2)])
        dim += 2 * modulus[-1][1]
    basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
    return json.dumps({"modulus": modulus, "vbar_basis": basis})


def _weight(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return "hermite"
    if kind == 1:
        return f"laguerre:alpha={_rational(rng, 0, 3)}"
    if kind == 2:
        return f"jacobi:alpha={_rational(rng, 0, 3)},beta={_rational(rng, 0, 3)}"
    points = rng.sample(range(-4, 5), rng.randint(1, 4))
    weights = [str(rng.randint(1, 3)) for _ in points]
    return f"atomic:points={','.join(map(str, points))};weights={','.join(weights)}"


def _ufd(rng, bad=False):
    a = rng.choice(("3", "0", "x^0")) if bad else rng.choice(("x^2", "2*x^3", "x^3 + x^2"))
    return f"ufd:a={a}"


def _request(rng, name):
    """One seeded request of subcommand name; about one in eight is malformed
    or refused."""
    bad = rng.random() < 0.125
    if name in ("reduce", "member", "lzero", "escape"):
        op = "mono:c=1,alpha" if bad and rng.random() < 0.5 else _operator(rng)
        poly = "t ++ 1" if bad and op != "mono:c=1,alpha" else _poly(rng)
        budget = ["--budget", str(0 if bad else rng.randint(1, 5))] if name == "escape" else []
        return [name, "--op", op, "--poly", poly, *budget]
    if name == "radical-probe":
        source = rng.choice((["--op", _operator(rng)], ["--space", _space(rng)],
                             ["--weight", _weight(rng)]))
        lo = rng.randint(0, 4)
        window = "-1:3" if bad else f"{lo}:{lo + rng.randint(0, 5)}"
        return [name, "--poly", _poly(rng, degree=2), "--window", window, *source]
    if name == "certify":
        poly = "t ++" if bad else rng.choice(("t+t^2", "t + 3*t^2", "t^2 - 2*t^3", "t"))
        return [name, "--poly", poly, "--d", str(rng.randint(0, 2)),
                "--alpha", _rational(rng, -1, 1), "--budget", str(rng.choice((1, 50, 10 ** 4)))]
    if name == "moments":
        return [name, "--weight", "jacobi:alpha" if bad else _weight(rng),
                "--upto", str(rng.randint(-1, 8))]
    if name == "vb-member":
        return [name, "--weight", _weight(rng), "--poly", "t +" if bad else _poly(rng)]
    if name == "orthopoly":
        return [name, "--weight", _weight(rng), "--n", str(rng.randint(-1, 6))]
    if name == "equiv":
        weight = _weight(rng)
        head, _, params = weight.partition(":")
        op = {"hermite": "mono:c=1,alpha=0,lambda=2,d=1",
              "laguerre": f"mono:c=1,{params},lambda=1,d=0", "jacobi": weight}.get(head)
        return [name, "--weight", weight, "--op", op or _operator(rng),
                "--deg-bound", str(0 if bad else rng.randint(1, 8))]
    if name in ("mathieu", "largest-ideal"):
        space = '{"modulus":[["t",1]],"vbar_basis":5}' if bad else _space(rng)
        full = ["--full"] if name == "mathieu" and rng.random() < 0.5 else []
        return [name, "--space", space, *full]
    if name == "ufd-member":
        return [name, "--ctx", _ufd(rng, bad), "--poly", _poly(rng, "x", 2) + "+x*t"]
    if name == "ufd-radical":
        return [name, "--ctx", _ufd(rng, bad), "--p", f"{_poly(rng, 'x', 2)}*t"]
    if name == "absorb-bound":
        p = "t" if bad else rng.choice(("x*t", "x*t + x", "x^2*t + x", "2*x*t"))
        return [name, "--ctx", _ufd(rng), "--p", p, "--g", rng.choice(("t", "t + 1", "x*t + 1"))]
    if name == "gcd-lift":
        elements = [_poly(rng, "x", 3, low=1) for _ in range(rng.randint(1, 3))]
        return [name, "--a", "x^3 - x" if bad else rng.choice(("x^2", "x^3", "2*x^2")),
                "--elements", ",".join(elements)]
    if name == "surjective":
        k, c = rng.randint(1, 4), rng.choice(("1", "x", "1 + x", "0"))
        a = rng.choice(("x", "1", "x*t", "x + t", "x*t^2 + 1", "0"))
        return [name, "--ctx", f"trunc:k={k},c={c},a={a}", "--deg-bound", str(rng.randint(0, 5))]
    raise ValueError(f"no generator for {name}")


def requests(seed: int = SEED) -> dict:
    """Subcommand -> list of argv; verify-cert is filled in by `run`."""
    rng = random.Random(seed)
    out = {name: [list(argv) for argv in README + UNIT_FACTOR + SPACE_PROBES + CERTIFY_PRIMES
                                  if argv[0] == name]
           for name in SUBCOMMANDS}
    for name in SUBCOMMANDS:
        if name != "verify-cert":
            out[name] += [_request(rng, name) for _ in range(PER_COMMAND)]
    out["verify-cert"] = [["verify-cert"], ["verify-cert", "--cert", "{"],
                          ["verify-cert", "--cert-file", "no/such/certificate.json"]]
    return out


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(seed: int = SEED) -> dict:
    """Subcommand -> (request count, SHA-256 hex digest of its replies)."""
    from mathieulab.cli import main

    digests = {}
    corpus = requests(seed)
    for name in SUBCOMMANDS:
        argvs = corpus[name]
        if name == "verify-cert":
            certs = [_call(main, argv) for argv in corpus["certify"]]
            for code, out, _ in certs:
                if code == 0:
                    argvs.append(["verify-cert", "--cert", out])
                    argvs.append(["verify-cert", "--cert", out.replace('"prime": ', '"prime": 1')])
        h = hashlib.sha256()
        for argv in argvs:
            h.update(repr(_call(main, argv)).encode())
        digests[name] = len(argvs), h.hexdigest()
    return digests


if __name__ == "__main__":
    for name, (count, digest) in run().items():
        print(f"{name:14s} {count:4d} {digest}")
