"""surjective-ladder: surjectivity of c*d/dt - a(t) over QQ[x]/(x^k).

Each job parses a ``trunc:`` context and runs ``surjectivity_check`` with a
fixed degree bound, for k = 2..4.  At the seed state dense elimination in
linalg (rref / solve_linear) and truncated-ring RingElement arithmetic take
nearly all the time; radlab and momlab are not used.

Context families, with the hand argument that fixes the expected verdict:

* unit-c: c a unit, every coefficient of a in (x).  Then d/dt is onto and
  (d/dt)^-1 composed with multiplication by a is nilpotent, so the operator
  is onto; a preimage of t^n has degree <= n + 1 + (k-1)(deg_t a + 1),
  inside the library's witness-degree budget.
* nilpotent-c: c in (x), a = a0 + a1 t with a0 a nonzero rational and a1 in
  (x), so a is a unit of R[t] and a^-1 c d/dt is nilpotent: onto again.
* structural: c and every coefficient of a in (x), so every image value lies
  in the proper ideal (x) and 1 is unreachable (UNDECIDED_ONE with a note).

Reference: every returned witness h is re-applied in the benchmark's own
truncated arithmetic, c*h' - a*h must equal the target monomial exactly.
"""

from __future__ import annotations

from fractions import Fraction

from . import refalg as ra
from .common import Job

F0, F1 = ra.F0, ra.F1

DEG_BOUND = 4
FAMILIES = ("unit-c", "nilpotent-c", "structural")
# family -> {k: jobs per pass}; the 40 cheap structural k=2 jobs hold the
# median job and the 4 nilpotent-c k=3 jobs the p90 job, so neither sits on a
# boundary between job sizes
RUNGS = {"unit-c": {2: 7, 3: 2, 4: 1}, "nilpotent-c": {2: 12, 3: 4, 4: 1},
         "structural": {2: 40, 3: 2, 4: 1}}


def _nz(rng):
    """A seeded sign; larger values would make the elimination cost depend on the seed."""
    return Fraction(rng.choice((-1, 1)))


def _context(rng, family, k):
    """(c as an x-polynomial, a as a bivariate dict)."""
    if family == "unit-c":
        c = [_nz(rng), _nz(rng)]
        a = {(0, 1): _nz(rng), (1, 1): _nz(rng)}
    elif family == "nilpotent-c":
        c = [F0, _nz(rng)]
        a = {(0, 0): _nz(rng), (1, 1): _nz(rng)}
    else:
        c = [F0, _nz(rng)]
        a = {(0, 1): _nz(rng), (1, 1): _nz(rng)}
    return c, ra.btrunc(a, k)


def _witness(poly):
    """Bivariate dict of a Poly over the truncated ring."""
    return {(i, j): v for i, coeff in enumerate(poly.coeffs)
            for j, v in enumerate(coeff.data) if v}


def _job(ml, family, k, c, a):
    ctx = f"trunc:k={k},c={ra.xpoly_text(c)},a={ra.format_biv(a)}"
    cb = {(0, j): v for j, v in enumerate(c) if v}

    def residual_ok(h, n):
        image = ra.badd(ra.bmul(cb, ra.bderiv_t(h), k), ra.bscale(ra.bmul(a, h, k), -1))
        return image == {(n, 0): F1}

    def run():
        ring, c_elem, a_poly = ml.ufdlab.parse_trunc_context(ctx)
        return ml.surjectivity_check(ring, c_elem, a_poly, DEG_BOUND)

    def check(out):
        if family == "structural":
            ok = (out.status == "UNDECIDED_ONE" and out.one_witness is None
                  and out.note is not None and out.monomials == ()
                  and out.unresolved == tuple(range(DEG_BOUND + 1)))
            return None if ok else f"structural context reported {out.status}"
        if out.status != "ONE_IN_IMAGE" or out.unresolved:
            return f"status {out.status}, unresolved {out.unresolved}"
        if not residual_ok(_witness(out.one_witness), 0):
            return "c*h' - a*h != 1"
        if [n for n, _ in out.monomials] != list(range(DEG_BOUND + 1)):
            return "monomial list incomplete"
        for n, h in out.monomials:
            if not residual_ok(_witness(h), n):
                return f"c*h' - a*h != t^{n}"
        return None

    return Job(family, k, run, check)


def build(rng, ml):
    jobs = []
    for family, rungs in RUNGS.items():
        for k, count in rungs.items():
            for _ in range(count):
                jobs.append(_job(ml, family, k, *_context(rng, family, k)))
    return jobs
