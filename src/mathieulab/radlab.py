"""Radical probing and the Mathieu verdict engine for cofinite subspaces.

A subspace V of QQ[t] containing a nonzero ideal (g) is described by the
factored modulus g = prod p_i^(m_i) and a basis of its image in QQ[t]/(g),
given in residue coordinates (see below).  By the Chinese remainder theorem
QQ[t]/(g) is the product of the blocks QQ[t]/(p_i^(m_i)), and V/(g) is held
in those same coordinates as the kernel of its annihilator: rows lam with
V/(g) = {v : lam . v = 0}.  Every decision below works block by block and
never converts to coefficient coordinates.  For such spaces the key
questions — does every large power of f land in V, what is the largest
ideal inside V, is V a Mathieu subspace — reduce to finite exact linear
algebra:

* membership of f^m in V for every m in the window [D, 2D] (D = deg g)
  already decides membership for *all* large m.  The powers of f in the
  D-dimensional algebra QQ[t]/(g) satisfy the linear recurrence given by
  the minimal polynomial of f (Cayley-Hamilton: degree <= D), so once D+1
  consecutive powers with exponent >= D lie in the subspace the recurrence
  propagates membership upward; conversely multiplication is invertible on
  the stable range im(T^D) of the multiplication operator T, so eventual
  membership propagates downward to exponent D.  The same two-sided
  recurrence argument applies to the sequence a^m * b, which makes the
  absorption condition behind the Mathieu property exactly decidable per
  pair (a, b).
* the largest ideal inside V is the product of one ideal per block: in
  block i its image is the common kernel of lam_i M_i^j (j < deg p_i^(m_i)),
  lam_i the annihilator restricted to the block and M_i the multiplication
  by t, and its generator is the gcd of p_i^(m_i) with lifts of a kernel
  basis; this needs no irreducibility of the p_i and no enumeration of
  divisors.  The same per-block generators h_i give the radical r block
  by block: r_i = p_i where h_i is nontrivial and p_i is verified
  irreducible (then h_i is a power of p_i), and the squarefree part of h_i
  where p_i is trusted and might split; the blocks with deg h_i >= 1 are the
  live ones below.
* a cofinite V is a Mathieu subspace exactly when the radical of V equals
  the radical (r) of its largest interior ideal.  For irreducible factors
  this is decided by the Chinese-remainder idempotents e_i alone: V is not
  Mathieu exactly when the annihilator vectors lam . e_i of some set of
  factors, one of them dividing r, sum to zero, and then the idempotent of
  that set is a refuting element.  Over the algebraic closure every f in
  rad(V) is c_a (1 + n_a) at each root a, and the independence of the
  sequences m -> c^m m^k makes lam vanish on the sum of the local
  idempotents over each class of roots where f takes one nonzero value;
  Galois-stable unions of such classes are sets of whole factors (see
  `mathieu_check`).  Walking the 2^n - 1
  idempotent sums therefore gives an exact verdict whenever every factor
  is verified irreducible.

Residue coordinates: the coordinates of f are the coefficients of
f mod p_i^(m_i), blocks concatenated in modulus order.  For split moduli
these are plain point evaluations.  They are coordinates of QQ[t]/(g) only
when the factors are pairwise coprime, which the constructor checks.

Integer residue vectors: each annihilator row is stored times the lcm of
its denominators, and the two inner loops (the radical window and the
witness search) step integer vectors that are a known positive multiple of
the residue vector they stand for: one common factor per step, shared by
every block.  Every membership test is lam . v = 0, and a positive factor on
lam or on v does not change whether that holds, so the loops decide exactly
what they would decide on rationals.  They call corealg once per block to
set up (one division, or none), not once per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import linalg
from .corealg import (
    Poly,
    QQ,
    clear_denominators,
    euclid_divmod,
    format_poly,
    parse_poly,
    parse_rational,
    poly_gcd,
    poly_one,
    poly_xgcd,
    qq_poly,
    squarefree_part,
    t_monomial,
)
from .errors import BadInput, ZeroInput
from .opimage import OperatorSpec, member

_F0 = Fraction(0)

# largest t-degree of a power f^m that the power walks of radical_probe,
# escape_exponent and definition_witness build, a constant f counting as
# degree 1; the cost of a walk grows about fivefold per doubling of that
# degree.  At the limit, walking f = 123/457*t + 511/997 through every power
# on a space that contains them all takes 5.0 s, and t^2 against
# mono:c=1,alpha=-1,lambda=1,d=1 0.5 s, on a 2-vCPU Xeon; larger
# coefficients cost more
MAX_POWER_DEGREE = 500

# largest degree D = sum of deg(p) * m over the modulus factors (p, m) of a
# cofinite subspace; the exact nullspaces behind its verdicts grow with
# codim x D.  At the limit, `mathieu` on the ideal of (t + 1)^32 takes about
# 1 s and on (t + 123/457)^32 6.4 s, on a 2-vCPU Xeon; at D = 64, (t + 1)^64
# took 14 s.  Larger coefficients cost more
MAX_MODULUS_DEGREE = 32

NOT_MATHIEU = "NOT_MATHIEU"
MATHIEU_EXACT = "MATHIEU_EXACT"
CONSISTENT_UP_TO_BUDGET = "CONSISTENT_UP_TO_BUDGET"


def _has_rational_root(f: Poly) -> bool:
    """Rational-root test for a factor of degree 2 or 3, polynomial in its size.

    With f's integer numerators a_0..a_n, s = a_n t turns
    a_n^(n-1) f into the monic integer polynomial h(s) = sum a_i a_n^(n-1-i) s^i,
    whose rational roots are integers bounded by the Cauchy bound.  Between
    consecutive critical points h is monotone on the integers, so each piece
    is searched by bisection.
    """
    a = f.num
    n = len(a) - 1
    h = [a[i] * a[n] ** (n - 1 - i) for i in range(n)] + [1]

    def value(s: int) -> int:
        acc = 0
        for c in reversed(h):
            acc = acc * s + c
        return acc

    bound = 1 + max(abs(c) for c in h[:-1])
    # integer floors of the critical points, i.e. of the real roots of h'
    if n == 2:
        splits = [-h[1] // 2]
    elif (disc := h[2] ** 2 - 3 * h[1]) > 0:
        root = math.isqrt(disc)
        splits = [(-h[2] - root - (root * root != disc)) // 3, (-h[2] + root) // 3]
    else:
        splits = []
    edges = [-bound - 1] + [min(max(k, -bound - 1), bound) for k in splits] + [bound]
    for lo, hi in zip(edges, edges[1:]):
        lo += 1  # the piece is the integers in (edge, next edge]
        if lo > hi:
            continue
        rising = value(hi) >= value(lo)
        while lo < hi:  # first s in the piece whose value reaches 0
            mid = (lo + hi) // 2
            v = value(mid)
            if v >= 0 if rising else v <= 0:
                hi = mid
            else:
                lo = mid + 1
        if value(lo) == 0:
            return True
    return False


def _times_t(vec: Sequence, low: Sequence, scale=1) -> list:
    """scale * (t v mod b) for the coefficients vec of a residue mod a monic
    block b, given low = scale times the coefficients of b below its top.

    This is the companion shift: the coefficients move up one place and the
    top one folds back in through t^(deg b) = -sum_k b_k t^k.  With an
    integer scale and integer low it maps integer vectors to integer vectors.
    """
    top = vec[-1]
    return [scale * x - top * c for x, c in zip([0, *vec[:-1]], low)]


class CofiniteSubspace:
    """V ⊆ QQ[t] with (g) ⊆ V, encoded by g's factorization and V/(g)."""

    def __init__(self, factors: Sequence[tuple[Poly, int]], vbar_basis: Sequence[Sequence] = ()):
        if not factors:
            raise BadInput("the modulus needs at least one factor")
        normalized = []
        unverified = []
        seen = set()
        for poly, mult in factors:
            if poly.ring != QQ:
                raise BadInput("modulus factors must have rational coefficients")
            if poly.is_zero or poly.degree < 1:
                raise BadInput("modulus factors must be non-constant")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise BadInput("factor multiplicities must be positive integers")
            poly = poly.monic()
            if poly in seen:
                raise BadInput("duplicate modulus factor; merge multiplicities")
            seen.add(poly)
            if poly.degree <= 3:
                if poly.degree >= 2 and _has_rational_root(poly):
                    raise BadInput(f"factor {format_poly(poly)} is reducible")
            else:
                unverified.append(poly)  # trusted, flagged
            normalized.append((poly, mult))
        degree = sum(poly.degree * mult for poly, mult in normalized)
        if degree > MAX_MODULUS_DEGREE:
            raise BadInput(f"modulus degree {degree} is above the limit of {MAX_MODULUS_DEGREE}")
        # distinct verified factors are distinct irreducibles, hence coprime;
        # residue coordinates cover QQ[t]/(g) only when all blocks are coprime
        for p in unverified:
            if any(q is not p and poly_gcd(p, q).degree >= 1 for q, _ in normalized):
                raise BadInput("modulus factors are not pairwise coprime")
        self.factors: tuple = tuple(normalized)
        self.unverified_factors: tuple = tuple(unverified)

        self._blocks = tuple(poly ** mult for poly, mult in self.factors)
        degrees = [block.degree for block in self._blocks]
        # first residue coordinate of each block
        self._starts = tuple(accumulate(degrees[:-1], initial=0))
        self.dim: int = sum(degrees)

        basis = []
        for vec in vbar_basis:
            if any(isinstance(v, bool) for v in vec):
                raise BadInput("basis entries must be integers or rational strings")
            if any(isinstance(v, float) for v in vec):
                raise BadInput("basis vectors must be exact rationals, not floats")
            # strings go through parse_rational, which refuses exponent notation
            try:
                entries = [v if type(v) is Fraction
                           else parse_rational(v) if isinstance(v, str) else Fraction(v)
                           for v in vec]
            except TypeError:
                raise BadInput("basis entries must be integers or rational strings") from None
            if len(entries) != self.dim:
                raise BadInput(f"basis vectors must have length {self.dim}")
            basis.append(tuple(entries))
        self._basis = tuple(basis)
        # annihilator rows: V/(g) = {v : lam . v = 0 for every row lam}, each
        # row scaled by the lcm of its denominators to integers; a positive
        # scale changes neither a row's zero test nor the rows' span
        ann = linalg.nullspace(self._basis or [[_F0] * self.dim])
        if len(ann) + len(self._basis) != self.dim:
            raise BadInput("basis vectors are linearly dependent")
        self._ann = [clear_denominators(lam)[1] for lam in ann]

    # -- coordinate maps -------------------------------------------------

    def residue_vec(self, f: Poly) -> list[Fraction]:
        out: list[Fraction] = []
        for block in self._blocks:
            coeffs = euclid_divmod(f, block)[1].qq_coeffs()
            out.extend(coeffs)
            out.extend([_F0] * (block.degree - len(coeffs)))
        return out

    def reduce_vec(self, f: Poly) -> list[Fraction]:
        """Coefficient vector of f mod g (kept for tests and benchmark tracing)."""
        coeffs = list(self.mod(f).qq_coeffs())
        return coeffs + [_F0] * (self.dim - len(coeffs))

    @functools.cached_property
    def modulus(self) -> Poly:
        """g, the product of the blocks; only `mod` needs it."""
        g = poly_one(QQ)
        for block in self._blocks:
            g = g * block
        return g

    def mod(self, f: Poly) -> Poly:
        return euclid_divmod(f, self.modulus)[1]

    # -- membership --------------------------------------------------------

    def contains_vec(self, residue_vec: Sequence[Fraction]) -> bool:
        return all(sum(l * v for l, v in zip(lam, residue_vec)) == 0 for lam in self._ann)

    def contains(self, f: Poly) -> bool:
        return self.contains_vec(self.residue_vec(f))

    def is_ideal(self) -> bool:
        """V is an ideal iff its largest interior ideal has the same codimension."""
        return largest_ideal(self).degree == len(self._ann)

    def pow_mod(self, f: Poly, e: int) -> Poly:
        """f^e mod g by repeated squaring."""
        base = self.mod(f)
        out = self.mod(poly_one(QQ))
        while e:
            if e & 1:
                out = self.mod(out * base)
            base = self.mod(base * base)
            e >>= 1
        return out

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "CofiniteSubspace":
        try:
            factors = []
            for text, mult in data["modulus"]:
                poly = parse_poly(text, QQ)
                if isinstance(mult, (bool, float)):
                    raise BadInput("factor multiplicities must be positive integers")
                factors.append((poly, int(mult)))
            vectors = [list(vec) for vec in data.get("vbar_basis", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadInput(f"malformed subspace description: {exc}") from exc
        return cls(factors, vectors)

    def to_dict(self) -> dict:
        return {
            "modulus": [[format_poly(p), m] for p, m in self.factors],
            "vbar_basis": [[str(v) for v in vec] for vec in self._basis],
        }


def atomic_space(points: Sequence, weights: Sequence) -> CofiniteSubspace:
    """The space of polynomials whose weighted value sum vanishes.

    Weights may be any nonzero rationals; positive weights give the
    vanishing-integral space of an atomic measure.
    """
    pts = [Fraction(p) for p in points]
    wts = [Fraction(w) for w in weights]
    if len(pts) != len(wts) or not pts:
        raise BadInput("points and weights must be nonempty and aligned")
    if len(set(pts)) != len(pts):
        raise BadInput("points must be distinct")
    if any(w == 0 for w in wts):
        raise BadInput("weights must be nonzero")
    factors = [(qq_poly([-p, 1]), 1) for p in pts]
    # in residue coordinates the condition is sum_i w_i x_i = 0
    basis = linalg.nullspace([wts])
    return CofiniteSubspace(factors, basis)


# --------------------------------------------------------------------------
# radical probes and exact cofinite decisions
# --------------------------------------------------------------------------

def _check_power_degree(f: Poly, m: int) -> None:
    if m * max(f.degree, 1) > MAX_POWER_DEGREE:
        if f.degree < 1:
            raise BadInput(f"f^{m} of a constant f is above the limit of "
                           f"MAX_POWER_DEGREE = {MAX_POWER_DEGREE} powers")
        raise BadInput(f"f^{m} would have degree {m * f.degree}, above the limit "
                       f"MAX_POWER_DEGREE = {MAX_POWER_DEGREE}")


def _power_walk(f: Poly, exponents: Iterable[int]) -> Iterator[tuple[int, Poly]]:
    """(m, f^m) for the exponents in the order given, each power stepped from
    the one before.  BadInput for an empty walk, for an exponent that is
    negative or not above the one before, and before building f^m once
    m * max(deg f, 1) > MAX_POWER_DEGREE (powers of a constant still grow)."""
    power, prev = poly_one(QQ), None
    for m in exponents:
        if m < 0:
            raise BadInput("window exponents must be non-negative")
        if prev is not None and m <= prev:
            raise BadInput("window exponents must increase")
        _check_power_degree(f, m)
        power = power * f ** (m - (prev or 0))
        prev = m
        yield m, power
    if prev is None:
        raise BadInput("empty probe window")


def radical_probe(membership_oracle: Callable[[Poly], bool], f: Poly, window: Iterable[int]) -> bool:
    """Do all powers f^m for m in the window satisfy the oracle?

    This is a finite probe, not a proof of radical membership; callers
    interpret it under their chosen window rule.  The window is read in order
    and must increase; a power past the MAX_POWER_DEGREE limit is BadInput.
    """
    return all(membership_oracle(power) for _, power in _power_walk(f, window))


def radical_member_cofinite(space: CofiniteSubspace, f: Poly) -> bool:
    """Exact decision of 'all large powers of f lie in V'.

    Checks f^m in V for m in [D, 2D], D = deg g; by the two-sided
    Cayley-Hamilton recurrence described in the module docstring this window
    is equivalent to eventual membership.  The powers are taken block by
    block on integer residue vectors.  With r_i = f mod p_i^(m_i), taken once
    per block, the columns t^j r_i mod p_i^(m_i) form the matrix of
    multiplication by f on block i.  They are stepped on integer numerators
    by the companion shift, each over its own denominator, and den, the lcm
    of those denominators, makes den times each matrix an integer matrix
    N_i.  From the residue of 1, w_m = N_i w_(m-1) is den^m times the
    residue vector of f^m, and since every membership test is lam . w = 0
    the positive factor den^m leaves each verdict of the window unchanged.
    For split moduli the residues r_i are the values f(a_i).
    """
    d = space.dim
    blocks = []
    for block in space._blocks:
        # the monic block is num / den, so num[:-1] is den times its low part
        n, low, scale = block.degree, block.num[:-1], block.den
        r = euclid_divmod(f, block)[1]
        col, col_den = list(r.num) + [0] * (n - len(r.num)), r.den
        cols = []  # column j is t^j r mod the block, as (numerators, denominator)
        for j in range(n):
            if j:
                col, col_den = _times_t(col, low, scale), col_den * scale
            g = math.gcd(col_den, *col)
            cols.append(([x // g for x in col], col_den // g))
        blocks.append(cols)
    den = math.lcm(*(c for cols in blocks for _, c in cols))
    # N_i row by row: row k holds den times coefficient k of each column
    mats = [[list(row) for row in zip(*([x * (den // c) for x in col] for col, c in cols))]
            for cols in blocks]
    powers = [[1] + [0] * (len(mat) - 1) for mat in mats]
    for m in range(1, 2 * d + 1):
        powers = [[sum(a * x for a, x in zip(row, w)) for row in mat]
                  for mat, w in zip(mats, powers)]
        if m >= d and not space.contains_vec([x for w in powers for x in w]):
            return False
    return True


def escape_exponent(op: OperatorSpec, f: Poly, budget: int) -> Optional[int]:
    """Smallest m <= budget with f^m outside the operator image, else None;
    BadInput once f^m passes the MAX_POWER_DEGREE limit."""
    if f.is_zero:
        raise ZeroInput("escape exponent of the zero polynomial")
    if budget < 1:
        raise BadInput("budget must be at least 1")
    return next((m for m, power in _power_walk(f, range(1, budget + 1))
                 if not member(op, power)[0]), None)


def largest_ideal(space: CofiniteSubspace) -> Poly:
    """Monic generator of the largest ideal contained in V, by linear algebra.

    Ideals of QQ[t]/(g) split along the blocks b_i = p_i^(m_i), so the
    largest ideal inside V is (h) with h = prod h_i, where (h_i)/(b_i) is the
    largest ideal of block i inside V.  With lam_i the annihilator rows
    restricted to block i and M_i the multiplication by t mod b_i, a residue
    v of block i lies in that ideal iff t^j v lies in V for every
    j < deg b_i, i.e. iff (lam_i M_i^j) . v = 0 (Cayley-Hamilton bounds j);
    h_i is the gcd of b_i and the lifts of a basis of that common kernel.
    Nothing here assumes the factors of g are irreducible.
    """
    return _interior_ideal(space)[0]


def _interior_ideal(space: CofiniteSubspace) -> tuple[Poly, Poly, int]:
    """(h, r, live): the largest interior ideal (h), its radical r and the
    mask of live blocks, all from the per-block generators h_i.

    Block i is live when deg h_i >= 1; the blocks are pairwise coprime and
    h_i | p_i^(m_i), so that is the same as p_i sharing a factor with r.  r
    is the product of one r_i per live block: a verified p_i is irreducible
    (the constructor ruled out its rational roots, and it has degree <= 3),
    so h_i = p_i^e and r_i = p_i; a trusted factor might split, so there r_i
    is the squarefree part of h_i.  The squarefree part of a product of
    coprime factors is the product of theirs, so r is the squarefree part
    of h, found without any gcd of degree up to D.  When every live r_i is
    h_i itself (a split space with simple points, say), r is h.
    """
    h = poly_one(QQ)
    live = 0
    if not space._ann:
        return h, h, live
    radical_parts = []  # (h_i, r_i) of the live blocks
    for i, ((p, _), block, start) in enumerate(zip(space.factors, space._blocks, space._starts)):
        b, scale = block.num, block.den
        rows = []
        for lam in space._ann:
            lam = lam[start:start + block.degree]
            for _ in range(block.degree):
                rows.append(lam)
                # scale times lam M: shift down, the top slot picks up
                # t^deg b = -sum b_k t^k; a positive factor on a row leaves
                # the common kernel unchanged
                top = -sum(bk * lk for bk, lk in zip(b, lam))
                lam = [scale * x for x in lam[1:]] + [top]
        h_i = block
        for vec in linalg.nullspace(rows):
            h_i = poly_gcd(h_i, qq_poly(vec))
        h = h * h_i
        if h_i.degree >= 1:
            live |= 1 << i
            radical_parts.append((h_i, squarefree_part(h_i) if p in space.unverified_factors else p))
    if all(h_i == r_i for h_i, r_i in radical_parts):
        return h, h, live
    return h, math.prod((r_i for _, r_i in radical_parts), start=poly_one(QQ)), live


def definition_witness(membership_oracle: Callable[[Poly], bool], a: Poly, b: Poly,
                       budget: int) -> Optional[int]:
    """Smallest N <= budget with a^m * b inside V for every m in [N, budget].
    The walk always runs to a^budget, so a budget past the MAX_POWER_DEGREE
    limit is refused with BadInput before the first power."""
    if budget < 1:
        raise BadInput("budget must be at least 1")
    _check_power_degree(a, budget)
    last_out = 0
    for m, power in _power_walk(a, range(1, budget + 1)):
        if not membership_oracle(power * b):
            last_out = m
    return None if last_out == budget else last_out + 1


# --------------------------------------------------------------------------
# the Mathieu verdict engine
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MathieuVerdict:
    status: str
    witness: Optional[tuple[Poly, Poly]]
    i_v_generator: Poly
    radical_iv_generator: Poly
    budget_used: dict = field(default_factory=dict)


def _set_idempotent(space: CofiniteSubspace, mask: int) -> Poly:
    """e_S = 1 mod the blocks in S (the set bits of mask) and 0 mod the rest.

    With B_S and B_rest the products of the blocks in and outside S, one
    xgcd on (B_rest mod B_S, B_S) gives u B_rest + v B_S = 1 (the blocks are
    coprime) with deg u < deg B_S, so u B_rest has degree < deg g and needs
    no reduction mod g.  It is e_S: the unique residue with those values, so
    it equals the sum of the single-block idempotents e_i over S.
    """
    chosen, rest = poly_one(QQ), poly_one(QQ)
    for i, block in enumerate(space._blocks):
        if mask >> i & 1:
            chosen = chosen * block
        else:
            rest = rest * block
    _, u, _ = poly_xgcd(euclid_divmod(rest, chosen)[1], chosen)
    return u * rest


def _first_zero_sum(vectors: Sequence[Sequence[int]], live: int) -> Optional[int]:
    """Least mask S meeting `live` with sum_{i in S} vectors[i] = 0, else None.

    Masks are walked in increasing order with one running sum.  Going from
    mask - 1 to mask, whose lowest set bit is i, removes vectors 0..i-1 and
    adds vector i, so each step is one precomputed vector addition.
    """
    steps, below = [], [0] * len(vectors[0])
    for u in vectors:
        steps.append([a - b for a, b in zip(u, below)])
        below = [a + b for a, b in zip(below, u)]
    total = [0] * len(below)
    for mask in range(1, 1 << len(vectors)):
        total = [a + b for a, b in zip(total, steps[(mask & -mask).bit_length() - 1])]
        if mask & live and not any(total):
            return mask
    return None


def mathieu_check(space: CofiniteSubspace) -> MathieuVerdict:
    """Mathieu verdict for a cofinite subspace, exact for verified factors.

    V is Mathieu exactly when rad(V) equals the radical (r) of its largest
    interior ideal (h).  With CRT idempotents e_i, annihilator rows lam and
    u_i = lam . e_i, call factor p_i live when it shares a factor with r.
    h, r and the live factors come from the per-block generators h_i of
    `largest_ideal` (`_interior_ideal`): p_i is live exactly when
    deg h_i >= 1, and r is the product over live blocks of p_i, or of the
    squarefree part of h_i when p_i is trusted, so no gcd or squarefree part
    of degree up to D = deg g is formed.
    For irreducible factors, V is NOT_MATHIEU exactly when some set S of
    factors containing a live one has sum_{i in S} u_i = 0:

    * if so, e_S = sum_{i in S} e_i is idempotent and lies in V, hence in
      rad(V), and r does not divide it, being 1 modulo a live factor;
    * conversely, write f in rad(V) over the algebraic closure as
      c_a (1 + n_a) at each root a of g, n_a nilpotent.  lam . f^m is a sum
      of the sequences m -> c^m binom(m, k), which are independent, so for
      each nonzero value c the local idempotents eps_a with c_a = c satisfy
      sum lam . eps_a = 0.  Galois conjugates of such a class are classes
      too, and the union of a class with its conjugates is the root set of
      a union S of whole factors, so e_S lies in V.  Unless r | f, some
      class contains a root of r, and then S contains a live factor.

    Ideals (deg h = codim V) are MATHIEU_EXACT outright.  Otherwise the
    masks S are walked in increasing order and the first zero-sum mask with
    a live factor gives the witness (e_S, t^j), t^j the first monomial with
    e_S t^j outside V (e_S^m = e_S, so absorption fails for every m).  That
    j is found on integer residue vectors: e_S t^j is t^j mod the blocks in
    S and 0 mod the rest, stepped by the companion shift.  e_S itself comes
    from one CRT step that splits g into the blocks in and outside S
    (`_set_idempotent`), taken once j is known; the single e_i are never
    formed.  With no such mask
    the verdict is MATHIEU_EXACT, or CONSISTENT_UP_TO_BUDGET when a factor
    of degree >= 4 is trusted unverified and might split.
    """
    h, r, live = _interior_ideal(space)
    budget_used = {"window": [space.dim, 2 * space.dim]}
    # sanity: the radical of (h) is always inside the radical of V
    if not radical_member_cofinite(space, r):
        raise BadInput("internal inconsistency: interior ideal radical escapes V")
    if h.degree == len(space._ann):  # (h)/(g) fills V/(g)
        budget_used["structural_case"] = "ideal"
        return MathieuVerdict(MATHIEU_EXACT, None, h, r, budget_used)

    # e_i has residue vector (0..0, 1, 0..0), so lam . e_i is column start_i of lam
    u = [[lam[start] for lam in space._ann] for start in space._starts]
    mask = _first_zero_sum(u, live)
    if mask is None:
        budget_used["candidates_tried"] = (1 << len(u)) - 1
        status = CONSISTENT_UP_TO_BUDGET if space.unverified_factors else MATHIEU_EXACT
        return MathieuVerdict(status, None, h, r, budget_used)

    budget_used["candidates_tried"] = mask
    budget_used["witness_family"] = "crt_idempotent"
    # e_S t^j has residue t^j mod the blocks in S and 0 on the rest; w is
    # scale^j times that vector, stepped by the integer companion shift
    scale = math.lcm(*(b.den for b in space._blocks))
    lows = [[x * (scale // b.den) for x in b.num[:-1]] for b in space._blocks]
    w = [[mask >> i & 1] + [0] * (b.degree - 1) for i, b in enumerate(space._blocks)]
    for j in range(space.dim):
        if not space.contains_vec([x for v in w for x in v]):
            a = _set_idempotent(space, mask)
            return MathieuVerdict(NOT_MATHIEU, (a, t_monomial(QQ, j)), h, r, budget_used)
        w = [_times_t(v, low, scale) for v, low in zip(w, lows)]
    # absorption of every monomial would put (e_S) + (g) inside V, so r | e_S
    raise BadInput("internal inconsistency: refuter absorbs every monomial")
