"""orthopoly-ladder: orthogonal polynomials, vanishing integrals, equivalence.

Jobs call ``orthopoly`` for n = 5..25 on seeded Jacobi(alpha, beta),
Laguerre(alpha), Hermite and atomic weights, plus ``vb_member`` and
``equivalence_check``, each from the weight's text form.  At the seed state
moment recomputation in momlab dominates (every inner product builds a new
moment functional), corealg is a small share and linalg and radlab are not
used, so this workload shows momlab changes and bounds what a corealg kernel
change can claim outside radlab.

Reference: moments come from the integration-by-parts recurrences in
refalg, not from the library's closed forms.  An orthopoly output must be
monic of degree n, orthogonal to t^0..t^(n-1) and not to t^n.  For a
classical weight with nonzero parameters the matched operator's image is
exactly the vanishing-integral hyperplane and misses 1 (integration by
parts, with boundary terms vanishing because alpha, beta > -1 are nonzero),
so equivalence_check must report no violations.
"""

from __future__ import annotations

from fractions import Fraction

from . import refalg as ra
from .common import Job

F0, F1 = ra.F0, ra.F1

# family -> {degree n: jobs per pass}
ORTHO_RUNGS = {
    "jacobi": {5: 6, 10: 3, 15: 2, 20: 1, 25: 1},
    "laguerre": {5: 12, 10: 3, 15: 2, 20: 1, 25: 1},
    "hermite": {5: 6, 10: 3, 15: 2, 20: 1, 25: 1},
    "atomic": {4: 6, 7: 3, 10: 2},
}
# 24 cheap vb_member jobs and 12 Laguerre n=5 jobs put the median job in the
# middle of the Laguerre n=5 block rather than on a boundary between sizes
VB_JOBS = 24
EQUIV_JOBS = 8
EQUIV_DEG = 12
VB_DEG = 8
ATOMIC_POINTS = 12


def _weight(rng, family):
    """(text, refalg moment kind, parameters, matched operator text)."""
    if family == "jacobi":
        a = Fraction(2 * rng.randint(0, 2) + 1, 2)
        b = Fraction(3 * rng.randint(0, 2) + 1, 3)
        return f"jacobi:alpha={a},beta={b}", "jacobi", (a, b), f"jacobi:alpha={a},beta={b}"
    if family == "laguerre":
        a = Fraction(2 * rng.randint(0, 2) + 1, 2)
        return f"laguerre:alpha={a}", "laguerre", (a,), f"mono:c=1,alpha={a},lambda=1,d=0"
    if family == "hermite":
        return "hermite", "hermite", (), "mono:c=1,alpha=0,lambda=2,d=1"
    pts = [Fraction(p) for p in rng.sample(range(-9, 10), ATOMIC_POINTS)]
    wts = [Fraction(rng.randint(1, 9)) for _ in pts]
    text = "atomic:points=" + ",".join(map(str, pts)) + ";weights=" + ",".join(map(str, wts))
    return text, "atomic", (pts, wts), None


class Moments:
    """Reference moments per weight text, extended on demand."""

    def __init__(self):
        self.cache = {}

    def get(self, text, kind, params, upto):
        nu = self.cache.get(text)
        if nu is None or len(nu) <= upto:
            nu = ra.moments(kind, params, max(upto, 2 * len(nu or ())))
            self.cache[text] = nu
        return nu


def _ortho_job(ml, moments, weight, n):
    text, kind, params, _ = weight

    def run():
        return ml.orthopoly(ml.parse_weight(text), n)

    def check(out):
        p = list(out.qq_coeffs())
        if len(p) != n + 1 or p[-1] != 1:
            return f"not monic of degree {n}"
        nu = moments.get(text, kind, params, 2 * n)
        for j in range(n + 1):
            pairing = sum((c * nu[k + j] for k, c in enumerate(p)), F0)
            if (pairing != 0) != (j == n):
                return f"<p, t^{j}> = {pairing}"
        return None

    return Job(f"orthopoly-{kind}", n, run, check)


def _vb_job(rng, ml, moments, weight, member):
    text, kind, params, _ = weight
    nu = moments.get(text, kind, params, VB_DEG)
    g = [Fraction(rng.randint(-9, 9)) for _ in range(VB_DEG)] + [Fraction(rng.randint(1, 9))]
    f = ra.psub(g, [ra.integral(g, nu) - (0 if member else 1)])
    f_text = ra.format_qq(f)

    def run():
        return ml.vb_member(ml.parse_weight(text), ml.parse_poly(f_text))

    def check(out):
        expected = ra.integral(f, moments.get(text, kind, params, VB_DEG)) == 0
        return None if out == expected else f"vb_member {out}, expected {expected}"

    return Job("vb-member", VB_DEG, run, check)


def _equiv_job(ml, weight):
    text, _, _, op_text = weight

    def run():
        return ml.equivalence_check(ml.parse_weight(text), ml.parse_operator(op_text), EQUIV_DEG)

    def check(out):
        expected = (False, EQUIV_DEG + 1, (), True)
        got = (out.one_in_image, out.degrees_checked, tuple(out.violations), out.equivalent)
        return None if got == expected else f"report {got}, expected {expected}"

    return Job("equivalence", EQUIV_DEG, run, check)


def build(rng, ml):
    moments = Moments()
    jobs = []
    for family, rungs in ORTHO_RUNGS.items():
        for n, count in rungs.items():
            for _ in range(count):
                jobs.append(_ortho_job(ml, moments, _weight(rng, family), n))
    classical = ("jacobi", "laguerre", "hermite")
    for i in range(VB_JOBS):
        family = (classical + ("atomic",))[i % 4]
        jobs.append(_vb_job(rng, ml, moments, _weight(rng, family), member=(i // 4) % 2 == 0))
    for i in range(EQUIV_JOBS):
        jobs.append(_equiv_job(ml, _weight(rng, classical[i % 3])))
    return jobs
