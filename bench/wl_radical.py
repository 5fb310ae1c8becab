"""radical-ladder: Mathieu verdicts and radical membership for cofinite spaces.

Each job parses a space from its JSON description as the CLI does, runs
``mathieu_check`` and runs ``radical_member_cofinite`` on one seeded element.

Every space except the ideal class is the kernel V of one functional
lambda = sum_i w_i ell_i, one weight per modulus factor p_i, where ell_i(f)
is f(r) for p_i = t - r and the constant coefficient of f mod p_i for
p_i = t^2 - c.  Each ell_i vanishes on (p_i), so modulo the radical of the
modulus lambda only sees the residue fields.  Hand analysis of these spaces
(the expected table below):

* the largest ideal inside V is generated by r = product of the distinct
  factors (every ideal in V must vanish at each factor, since the
  idempotent e_i has lambda(e_i) = w_i != 0, and (r) lies in V);
* lambda(f^m) is a sum of exponential sequences in m, one per residue value
  of f, so f is in rad(V) iff every class of factors on which f has the same
  nonzero residue has weight sum zero; hence V is NOT_MATHIEU exactly when
  some nonempty set of weights sums to zero (its idempotent is a witness),
  and otherwise rad(V) = (r) and V is Mathieu;
* membership of f^m b in V for all large m is decided by the window
  m in [D, 2D], D = deg g, because lambda(a^m b) satisfies a linear
  recurrence of order at most D; the reference checks witnesses and the
  seeded elements with that window in its own arithmetic.

Verdict classes and why they are in the ladder: split zero-sum spaces are
refuted after 2^(n-1)+1 idempotent candidates (the planted zero-sum pair is
{first point, last point}); same-sign split spaces take the structural
MATHIEU_EXACT path and skip the search; mixed-sign split spaces without a
zero-sum subset exhaust the whole budget (CONSISTENT_UP_TO_BUDGET, or
MATHIEU_EXACT once an exact decision exists); non-split and non-reduced
moduli exercise quotient arithmetic beyond point evaluation, and wide
quadratic factors t^2 - P exercise factor validation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import refalg as ra
from .common import Job

F0, F1 = ra.F0, ra.F1

NOT_MATHIEU = "NOT_MATHIEU"
MATHIEU_EXACT = "MATHIEU_EXACT"
CONSISTENT = "CONSISTENT_UP_TO_BUDGET"

# split spaces: points -> jobs per pass; the fourteen n=4 zero-sum jobs put
# the median job inside one block of equal-size jobs
ZERO_SUM_RUNGS = {4: 14, 5: 2, 6: 1, 7: 1, 8: 1}
SAME_SIGN_RUNGS = {4: 5, 5: 2, 6: 1, 7: 1, 8: 1, 9: 1}
NO_ZERO_SUM_RUNGS = {4: 1, 5: 1, 6: 1}
# non-split templates: (family, jobs per pass)
NONSPLIT = (("ideal", 2), ("nonsplit-zero-sum", 2), ("nonsplit-no-zero-sum", 1))
# t^2 - P factors: digits of P -> jobs per pass
WIDE_QUADRATIC_RUNGS = {13: 1, 14: 1}


class Space:
    def __init__(self, factors, weights=None, ideal_exps=None):
        self.factors = factors  # [(monic ascending coeffs, multiplicity)]
        self.weights = weights
        self.ideal_exps = ideal_exps
        self.blocks = [ra.ppow(p, m) for p, m in factors]
        self.dim = sum(len(b) - 1 for b in self.blocks)
        self.radical = ra.product(p for p, _ in factors)
        if weights is not None:
            self.lam = [ra.block_functional(p, m, w) for (p, m), w in zip(factors, weights)]
            basis = ra.nullspace_row([v for block in self.lam for v in block])
        else:
            self.ideal = ra.product(ra.ppow(p, e) for (p, _), e in zip(factors, ideal_exps))
            basis = []
            for j in range(self.dim - (len(self.ideal) - 1)):
                shifted = [F0] * j + self.ideal
                basis.append([v for r in ra.residues(shifted, self.blocks) for v in r])
        self.json = json.dumps({
            "modulus": [[ra.format_qq(p), m] for p, m in factors],
            "vbar_basis": [[str(v) for v in vec] for vec in basis],
        })

    def in_radical(self, f):
        if self.weights is None:
            return all(not ra.pmod(f, p) for (p, _), e in zip(self.factors, self.ideal_exps) if e)
        return all(ra.powers_in_hyperplane(self.blocks, self.lam, f, [F1], self.dim, 2 * self.dim))

    def refutes(self, a, b):
        """a in rad(V) while a^m b leaves V for infinitely many m."""
        lo, hi = self.dim, 2 * self.dim
        return (all(ra.powers_in_hyperplane(self.blocks, self.lam, a, [F1], lo, hi))
                and not all(ra.powers_in_hyperplane(self.blocks, self.lam, a, b, lo, hi)))

    def expected(self):
        """(accepted statuses, largest ideal generator, its radical)."""
        if self.weights is None:
            rad = ra.product(p for (p, _), e in zip(self.factors, self.ideal_exps) if e)
            return {MATHIEU_EXACT}, self.ideal, rad
        split = all(len(p) == 2 and m == 1 for p, m in self.factors)
        if ra.has_zero_subset_sum(self.weights):
            statuses = {NOT_MATHIEU}
        elif split and len({w > 0 for w in self.weights}) == 1:
            statuses = {MATHIEU_EXACT}
        else:
            statuses = {MATHIEU_EXACT, CONSISTENT}
        return statuses, self.radical, self.radical


def _linear(r):
    return [Fraction(-r), F1]


def _no_zero_sum_weights(rng, n):
    """Mixed signs; w_i = +-2^e_i * odd with distinct e_i, so no subset sums to 0."""
    exps = rng.sample(range(n), n)
    return [Fraction((-1) ** i * 2 ** e * rng.choice((1, 3, 5))) for i, e in enumerate(exps)]


def _split_job(rng, ml, family, n, index):
    points = [Fraction(p) for p in rng.sample(range(-12, 13), n)]
    if family == "split-zero-sum":
        weights = [Fraction(rng.randint(3, 9)) for _ in range(n)]
        weights[-1] = -weights[0]
        member = index % 2 == 0
    elif family == "split-same-sign":
        weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        member = index % 2 == 1
    else:
        weights = _no_zero_sum_weights(rng, n)
        member = index % 2 == 1
    space = Space([(_linear(p), 1) for p in points], weights)
    if member and family == "split-zero-sum":
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        elem = ra.lagrange(points, [c if i in (0, n - 1) else F0 for i in range(n)])
    elif member:
        elem = ra.pmul(space.radical, [Fraction(rng.randint(1, 9)), F1])
    else:
        values = rng.sample([v for v in range(-9, 10) if v], n)
        elem = ra.lagrange(points, [Fraction(v) for v in values])
    return _job(ml, family, n, space, elem)


def _nonsplit_job(rng, ml, family, index, digits=None):
    a = Fraction(rng.randint(2, 9))
    b = Fraction(rng.randint(1, 9))
    t, t_a, quad = [F0, F1], _linear(a), [b, F0, F1]
    w = Fraction(rng.randint(2, 9))
    w3 = Fraction(rng.choice([v for v in range(2, 10) if v != w]))
    if family == "ideal":
        space = Space([(t, 2), (t_a, 1), (quad, 2)], ideal_exps=[1, 0, 1])
    elif family == "nonsplit-zero-sum":
        space = Space([(t, 2), (t_a, 1), (quad, 2)], weights=[w, -w, w3])
    elif family == "nonsplit-no-zero-sum":
        space = Space([(t, 2), (quad, 1)], weights=_no_zero_sum_weights(rng, 2))
    else:
        lo = 10 ** (digits - 1)
        while True:
            big = rng.randrange(lo, lo + lo // 100)
            if math.isqrt(big) ** 2 != big:
                break
        space = Space([(t, 1), (t_a, 1), ([Fraction(-big), F0, F1], 1)], weights=[w, -w, w3])
    q = [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5))]
    gen = space.radical if space.weights is not None else ra.product(
        p for (p, _), e in zip(space.factors, space.ideal_exps) if e)
    elem = ra.pmul(gen, q)
    if index % 2 == 1:
        elem = ra.padd(elem, [Fraction(rng.choice((-2, -1, 1, 2)))])
    return _job(ml, family, digits or space.dim, space, elem)


def _job(ml, family, size, space, elem):
    elem_text = ra.format_qq(elem)

    def run():
        subspace = ml.CofiniteSubspace.from_dict(json.loads(space.json))
        verdict = ml.mathieu_check(subspace)
        return verdict, ml.radical_member_cofinite(subspace, ml.parse_poly(elem_text))

    def check(out):
        verdict, member = out
        statuses, gen, rad = space.expected()
        if verdict.status not in statuses:
            return f"status {verdict.status}, expected {sorted(statuses)}"
        if list(verdict.i_v_generator.qq_coeffs()) != gen:
            return "largest ideal generator differs"
        if list(verdict.radical_iv_generator.qq_coeffs()) != rad:
            return "radical of the largest ideal differs"
        if verdict.status == NOT_MATHIEU:
            a, b = (list(p.qq_coeffs()) for p in verdict.witness)
            if not space.refutes(a, b):
                return "NOT_MATHIEU witness does not refute"
        elif verdict.witness is not None:
            return "witness on a non-refuted space"
        if member != space.in_radical(elem):
            return f"radical membership {member} is wrong"
        return None

    return Job(family, size, run, check)


def build(rng, ml):
    jobs = []
    for family, rungs in (("split-zero-sum", ZERO_SUM_RUNGS),
                          ("split-same-sign", SAME_SIGN_RUNGS),
                          ("split-no-zero-sum", NO_ZERO_SUM_RUNGS)):
        for n, count in rungs.items():
            for i in range(count):
                jobs.append(_split_job(rng, ml, family, n, i))
    for family, count in NONSPLIT:
        for i in range(count):
            jobs.append(_nonsplit_job(rng, ml, family, i))
    for digits, count in WIDE_QUADRATIC_RUNGS.items():
        for i in range(count):
            jobs.append(_nonsplit_job(rng, ml, "wide-quadratic", i, digits))
    return jobs
