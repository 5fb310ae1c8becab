"""Reference arithmetic for checking mathieulab's outputs.

Nothing here imports mathieulab: every expected value the benchmark compares
against is computed with this module's own Fraction arithmetic, its own
parser for the canonical polynomial text format, and closed forms or
recurrences derived independently of the library's algorithms.

Univariate polynomials are lists of Fractions in ascending order without
trailing zeros ([] is zero).  Bivariate polynomials (t over Q[x]) are dicts
{(t_exp, x_exp): Fraction} without zero values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

F0 = Fraction(0)
F1 = Fraction(1)


# -- univariate over QQ -----------------------------------------------------

def strip(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return strip(out)


def pscale(a, c):
    return strip([v * c for v in a])


def psub(a, b):
    return padd(a, pscale(b, -1))


def pmul(a, b):
    if not a or not b:
        return []
    out = [F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return strip(out)


def pmod(a, m):
    """Remainder of a modulo a nonzero m."""
    a = list(a)
    dm = len(m) - 1
    lead = m[-1]
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            c /= lead
            for j in range(dm + 1):
                a[k - dm + j] -= c * m[j]
    return strip(a[:dm])


def pderiv(a):
    return strip([a[i] * i for i in range(1, len(a))])


def ppow(a, e):
    out = [F1]
    for _ in range(e):
        out = pmul(out, a)
    return out


def product(polys):
    out = [F1]
    for p in polys:
        out = pmul(out, p)
    return out


def lagrange(points, values):
    """The polynomial of degree < len(points) through (points[i], values[i])."""
    out = []
    for i, (xi, yi) in enumerate(zip(points, values)):
        if not yi:
            continue
        basis = [F1]
        denom = F1
        for j, xj in enumerate(points):
            if j != i:
                basis = pmul(basis, [-xj, F1])
                denom *= xi - xj
        out = padd(out, pscale(basis, yi / denom))
    return out


# -- bivariate: t over Q[x], optionally truncated modulo x^k ------------------

def badd(a, b):
    out = dict(a)
    for key, v in b.items():
        s = out.get(key, F0) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def bscale(a, c):
    return {k: v * c for k, v in a.items()} if c else {}


def bmul(a, b, trunc=None):
    out = {}
    for (ta, xa), va in a.items():
        for (tb, xb), vb in b.items():
            if trunc is not None and xa + xb >= trunc:
                continue
            key = (ta + tb, xa + xb)
            out[key] = out.get(key, F0) + va * vb
    return {k: v for k, v in out.items() if v}


def bderiv_t(a):
    return {(t - 1, x): v * t for (t, x), v in a.items() if t}


def bconst(c):
    return {(0, 0): Fraction(c)} if c else {}


def btrunc(a, trunc):
    return {k: v for k, v in a.items() if k[1] < trunc}


def x_part(a, t_exp):
    """Coefficient of t^t_exp as an ascending x-polynomial."""
    top = max((x for (t, x) in a if t == t_exp), default=-1)
    out = [F0] * (top + 1)
    for (t, x), v in a.items():
        if t == t_exp:
            out[x] = v
    return out


# -- text: canonical polynomial format --------------------------------------

_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)(?:/(\d+))?)?\s*\*?\s*"
                   r"(?:(x)(?:\^(\d+))?)?\s*\*?\s*(?:(t)(?:\^(\d+))?)?\s*")


def parse_biv(text):
    """Parse the package's canonical polynomial text into a bivariate dict."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        sign, num, den, xv, xe, tv, te = m.groups()
        if num is None and xv is None and tv is None:
            raise ValueError(f"empty term in {text!r}")
        c = Fraction(int(num) if num else 1, int(den) if den else 1)
        if sign == "-":
            c = -c
        key = (int(te or 1) if tv else 0, int(xe or 1) if xv else 0)
        out = badd(out, {key: c})
        pos = m.end()
    return out


def parse_qq(text):
    biv = parse_biv(text)
    if any(x for (_, x) in biv):
        raise ValueError(f"unexpected x in {text!r}")
    top = max((t for (t, _) in biv), default=-1)
    out = [F0] * (top + 1)
    for (t, _), v in biv.items():
        out[t] = v
    return out


def _term(c, xe, te):
    parts = []
    if xe:
        parts.append("x" if xe == 1 else f"x^{xe}")
    if te:
        parts.append("t" if te == 1 else f"t^{te}")
    if not parts or abs(c) != 1:
        parts.insert(0, str(abs(c)))
    return "*".join(parts)


def format_biv(a):
    if not a:
        return "0"
    pieces = []
    for (te, xe) in sorted(a, reverse=True):
        c = a[(te, xe)]
        body = _term(c, xe, te)
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


def to_biv(p):
    return {(i, 0): v for i, v in enumerate(p) if v}


def format_qq(p):
    return format_biv(to_biv(p))


def xpoly_text(a):
    """Text of an ascending x-polynomial (a coefficient-ring element)."""
    return format_biv({(0, i): v for i, v in enumerate(a) if v})


# -- cofinite spaces cut out by one functional --------------------------------

def block_functional(factor, mult, weight):
    """Coordinates, on the residue block of factor^mult, of weight * ell(f).

    ell(f) is f(r) for a linear factor t - r, and the constant coefficient of
    f mod (t^2 - c) for a quadratic factor t^2 - c.  Both vanish on the
    maximal ideal (factor), so the hyperplane they cut out contains
    (product of the distinct factors).
    """
    if len(factor) == 2:
        r = -factor[0]
        return [weight * r ** k for k in range(mult)]
    c = -factor[0]
    out = []
    for k in range(2 * mult):
        out.append(weight * c ** (k // 2) if k % 2 == 0 else F0)
    return out


def residues(f, blocks):
    out = []
    for block in blocks:
        r = pmod(f, block)
        out.append(r + [F0] * (len(block) - 1 - len(r)))
    return out


def apply_functional(lam_blocks, res):
    return sum((a * b for la, ra in zip(lam_blocks, res) for a, b in zip(la, ra)), F0)


def powers_in_hyperplane(blocks, lam_blocks, a, b, lo, hi):
    """[lambda(a^m * b) == 0 for m in lo..hi], with arithmetic mod each block."""
    out = []
    ares = [pmod(a, blk) for blk in blocks]
    cur = [pmod(b, blk) for blk in blocks]
    for _ in range(lo):
        cur = [pmod(pmul(c, ar), blk) for c, ar, blk in zip(cur, ares, blocks)]
    for m in range(lo, hi + 1):
        res = [c + [F0] * (len(blk) - 1 - len(c)) for c, blk in zip(cur, blocks)]
        out.append(apply_functional(lam_blocks, res) == 0)
        cur = [pmod(pmul(c, ar), blk) for c, ar, blk in zip(cur, ares, blocks)]
    return out


def nullspace_row(row):
    """Basis of {v : row . v = 0} for one nonzero row."""
    k = next(i for i, v in enumerate(row) if v)
    basis = []
    for j in range(len(row)):
        if j == k:
            continue
        vec = [F0] * len(row)
        vec[j] = F1
        vec[k] = -row[j] / row[k]
        basis.append(vec)
    return basis


def has_zero_subset_sum(weights):
    for size in range(1, len(weights) + 1):
        for combo in combinations(weights, size):
            if sum(combo) == 0:
                return True
    return False


# -- moments of the classical weights (integration-by-parts recurrences) -----

def moments(kind, params, upto):
    """Normalized moments nu_0..nu_upto.

    Hermite: nu_(n+1) = n/2 nu_(n-1).  Laguerre(a): nu_n = (n+a) nu_(n-1).
    Jacobi(a, b): (n+a+b+2) nu_(n+1) = n nu_(n-1) + (b-a) nu_n, from
    integrating d/dt[(1-t)^(a+1) (1+t)^(b+1) t^n] over [-1, 1].
    Atomic: weighted power sums over the total mass.
    """
    if kind == "atomic":
        pts, wts = params
        mass = sum(wts, F0)
        return [sum((w * p ** n for p, w in zip(pts, wts)), F0) / mass for n in range(upto + 1)]
    nu = [F1]
    for n in range(upto):
        if kind == "hermite":
            nxt = Fraction(n, 2) * nu[n - 1] if n else F0
        elif kind == "laguerre":
            nxt = (n + 1 + params[0]) * nu[n]
        else:
            a, b = params
            prev = nu[n - 1] if n else F0
            nxt = (n * prev + (b - a) * nu[n]) / (n + a + b + 2)
        nu.append(nxt)
    return nu


def integral(p, nu):
    return sum((c * nu[i] for i, c in enumerate(p)), F0)


# -- monomial-family operators c d/dt + alpha/t - lam t^d ---------------------

def apply_mono(c, alpha, lam, d, h):
    """D(h) for an admissible h (t | h when alpha != 0)."""
    if alpha and h and h[0]:
        raise ValueError("witness not divisible by t")
    out = pscale(pderiv(h), c)
    if alpha:
        out = padd(out, pscale(h[1:], alpha))
    return psub(out, pscale([F0] * d + list(h), lam))


# -- integers ----------------------------------------------------------------

def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % p for p in range(3, math.isqrt(n) + 1, 2))


def mono_reduce(c, alpha, lam, d, f):
    """Residue of f in degrees <= d modulo the images D(t^n), n >= 1.

    D(t^n) = (c*n + alpha) t^(n-1) - lam t^(n+d), so t^(n+d) may be traded
    for (c*n + alpha)/lam * t^(n-1) from the top degree down.
    """
    work = list(f)
    for k in range(len(work) - 1, d, -1):
        a = work[k]
        if a:
            n = k - d
            work[n - 1] += a * (c * n + alpha) / lam
            work[k] = F0
    return strip(work[:d + 1])


def mono_member(c, alpha, lam, d, f):
    """f in the polynomial image of c d/dt + alpha/t - lam t^d (lam != 0).

    The images D(t^n) (n >= 1, and n = 0 when alpha = 0, where D(1) =
    -lam t^d) have distinct leading degrees, so no nonzero combination has
    degree below d, or below d+1 when alpha != 0.
    """
    residue = mono_reduce(c, alpha, lam, d, f)
    if alpha == 0:
        residue = strip(residue[:d])
    return not residue


def vp(x, p):
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v
