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

* eventual membership of the powers f^m in V is one Krylov test on the
  blocks where f is not nilpotent (see `radical_member_cofinite`).  Drop
  the blocks b_i = p_i^(m_i) with p_i | f, where f is nilpotent, and call
  the rest S; f is a unit on each verified block of S, and f^L with
  L = max deg b_i over the trusted blocks of S kills its nilpotent part on
  the others.  So f acts invertibly on W = f^L e_S QQ[f], which by
  Cayley-Hamilton is spanned by e_S f^j for the dim_S = sum_S deg b_i
  exponents j = L .. L + dim_S - 1 and holds e_S f^m for every m >= L;
  f lies in rad(V) exactly when the annihilator kills those dim_S
  vectors.  It is equivalent to the classical window: f^m in V for every
  m in [D, 2D] (D = deg g), which `mathieu --full` still reports as
  `budget_used.window`.  The same argument applies to the sequence
  a^m * b, which makes the absorption condition behind the Mathieu
  property exactly decidable per pair (a, b) (`definition_witness`).
* the largest ideal inside V is the product of one ideal per block
  b_i = p_i^(m_i), generated by b_i / gcd(b_i, N_1, ..., N_r): N_r / b_i is
  the generating function of the sequence j -> lam_r(t^j mod b_i), whose
  minimal polynomial is its reduced denominator (see `largest_ideal`).
  This is one gcd per block, with no linear algebra, no irreducibility of
  the p_i and no enumeration of divisors.  The same per-block generators
  h_i give the radical r block by block: r_i = p_i where h_i is nontrivial
  and p_i is verified irreducible (then h_i is a power of p_i), and the
  squarefree part of h_i where p_i is trusted and might split; the blocks
  with deg h_i >= 1 are the live ones below.
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
its denominators, and the inner loops step integer vectors that are a known
positive multiple of the residue vector they stand for: one common factor
per step, shared by every block.  One walk, `_krylov`, steps s f^m for
m = 0, 1, ... from integer matrices of multiplication by f on the blocks.
Three callers share it: the radical Krylov test `radical_member_cofinite`
(s = e_S), the absorption test `definition_witness` (s = b, f = a) and the
window probe `radical_probe_space` (s = 1).  The witness search of
`mathieu_check` steps e_S t^j by the companion shift alone.  Every
membership test is lam . v = 0, and a positive factor on lam or on v does
not change whether that holds, so the loops decide exactly what they would
decide on rationals.  They call corealg at most twice per block to set up
(integer pseudo-divisions), not once per step, and no cofinite question
about powers builds a Poly power.

The Mathieu verdict runs on integers from the JSON to the returned Polys.
The constructor reads each basis row as integers over the lcm of its
denominators, `_interior_ideal` keeps each block's gcd and quotient as
integer lists, and `_set_idempotent` multiplies the block numerators and
calls corealg's integer xgcd kernel `_zxgcd` once.  The only Polys built
are the returned h, r, e_S and t^j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import linalg
from .corealg import (
    Poly,
    QQ,
    _prim,
    _ratio_text,
    _read_rational,
    _zdivmod,
    _zgcd,
    _zmul,
    _zsquarefree,
    _zstrip,
    _zxgcd,
    euclid_divmod,
    format_poly,
    parse_poly,
    poly_one,
    qq_poly,
    t_monomial,
)
from .errors import BadInput, RingMismatch, ZeroInput
from .opimage import OperatorSpec, member

_F0 = Fraction(0)
_F1 = Fraction(1)

# largest t-degree of a power f^m that the power walks of radical_probe,
# radical_probe_space and escape_exponent reach, a constant f counting as
# degree 1.  radical_probe and escape_exponent build f^m, and their cost
# grows about fivefold per doubling of that degree: at the limit, walking
# f = 123/457*t + 511/997 through every power takes 5.2 s under
# mono:c=1,alpha=0,lambda=0,d=0, whose image holds them all, and t^2 under
# mono:c=1,alpha=-1,lambda=1,d=1 0.07 s.  radical_probe_space steps residues
# and builds no power; it walks the first f on a space holding every power
# in 0.004 s, on a 2-vCPU Xeon.  Larger coefficients cost more
MAX_POWER_DEGREE = 500

# largest degree D = sum of deg(p) * m over the modulus factors (p, m) of a
# cofinite subspace; the nullspace behind its annihilator grows with
# codim x D and with the size of the basis entries.  At the limit, `mathieu`
# on the ideal of (t + 1)^32 takes about 0.01 s and on (t + 12345/67891)^32
# 0.035 s, and building a space on 32 split points from 24 dense basis rows
# of 7-digit rationals 1.3 s, on a 2-vCPU Xeon
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


def _block_residue(f: Poly, block: Poly) -> tuple[list[int], int]:
    """f mod a monic block b as deg b integer numerators over one denominator.

    The integer pseudo-division s f.num = q b.num + R by the numerators of
    the block gives f mod b = R / (s f.den), where s > 0 is a power of b's
    leading numerator; the quotient is dropped and nothing is brought to
    lowest terms.
    """
    if f.ring != QQ:
        raise RingMismatch("operands in different rings")
    _, rem, s = _zdivmod(f.num, block.num)
    return rem + [0] * (block.degree - len(rem)), s * f.den


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
            if any(q is not p and len(_zgcd(list(p.num), list(q.num))) > 1
                   for q, _ in normalized):
                raise BadInput("modulus factors are not pairwise coprime")
        self.factors: tuple = tuple(normalized)
        self.unverified_factors: tuple = tuple(unverified)

        self._blocks = tuple(poly ** mult for poly, mult in self.factors)
        degrees = [block.degree for block in self._blocks]
        # first residue coordinate of each block
        self._starts = tuple(accumulate(degrees[:-1], initial=0))
        self.dim: int = sum(degrees)

        # each basis row as integers over the lcm of its entries' denominators
        basis = []
        for vec in vbar_basis:
            if any(isinstance(v, bool) for v in vec):
                raise BadInput("basis entries must be integers or rational strings")
            if any(isinstance(v, float) for v in vec):
                raise BadInput("basis vectors must be exact rationals, not floats")
            # strings go through _read_rational, which refuses exponent notation
            try:
                pairs = [v.as_integer_ratio() if type(v) is int or type(v) is Fraction
                         else _read_rational(v) if isinstance(v, str)
                         else Fraction(v).as_integer_ratio() for v in vec]
            except TypeError:
                raise BadInput("basis entries must be integers or rational strings") from None
            if len(pairs) != self.dim:
                raise BadInput(f"basis vectors must have length {self.dim}")
            den = math.lcm(*(q for _, q in pairs))
            basis.append(([p * (den // q) for p, q in pairs], den))
        self._basis = tuple(basis)
        # annihilator rows: V/(g) = {v : lam . v = 0 for every row lam}, as
        # primitive integer rows; the integer basis rows have the nullspace
        # of the rational ones
        self._ann = linalg.nullspace([row for row, _ in self._basis] or [[0] * self.dim])
        if len(self._ann) + len(self._basis) != self.dim:
            raise BadInput("basis vectors are linearly dependent")

    # -- coordinate maps -------------------------------------------------

    def residue_vec(self, f: Poly) -> list[Fraction]:
        out: list[Fraction] = []
        for block in self._blocks:
            rem, den = _block_residue(f, block)
            out.extend(Fraction(x, den) for x in rem)
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
        if not isinstance(data, dict):
            raise BadInput("malformed subspace description: expected a JSON object")
        for key in data:
            if key not in ("modulus", "vbar_basis"):
                raise BadInput(f"malformed subspace description: unknown key {key!r}")
        try:
            factors = []
            for text, mult in data["modulus"]:
                poly = parse_poly(text, QQ)
                if type(mult) is not int:  # a JSON integer; bool is a subclass of int
                    raise BadInput("factor multiplicities must be positive integers")
                factors.append((poly, mult))
            vectors = [list(vec) for vec in data.get("vbar_basis", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadInput(f"malformed subspace description: {exc}") from exc
        return cls(factors, vectors)

    def to_dict(self) -> dict:
        return {
            "modulus": [[format_poly(p), m] for p, m in self.factors],
            "vbar_basis": [[_ratio_text(x, den) for x in row] for row, den in self._basis],
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
    # sum_i w_i x_i = 0 in residue coordinates: basis e_j - (w_j / w_0) e_0, j >= 1
    basis = [[-w / wts[0]] + [_F1 if i == j else _F0 for i in range(1, len(wts))]
             for j, w in enumerate(wts[1:], 1)]
    return CofiniteSubspace(factors, basis)


# --------------------------------------------------------------------------
# radical probes and exact cofinite decisions
# --------------------------------------------------------------------------

def _exponents(f: Poly, window: Iterable[int]) -> Iterator[int]:
    """The window's exponents in the order given, for a walk over the powers
    of f.  BadInput before the first exponent for an empty window and an
    exponent that is negative or not above the one before, read over the
    first MAX_POWER_DEGREE + 2 exponents (an increasing window passes the
    limit by then); and BadInput before yielding m once
    m * max(deg f, 1) > MAX_POWER_DEGREE (powers of a constant still grow).
    A range is checked on its first two exponents alone: its steps are all
    equal, so an exponent that fails the order check is one of them."""
    if isinstance(window, range):
        checked = list(window[:2])
    else:
        window = checked = list(islice(window, MAX_POWER_DEGREE + 2))
    if not checked:
        raise BadInput("empty probe window")
    for prev, m in zip([-1, *checked], checked):
        if m < 0:
            raise BadInput("window exponents must be non-negative")
        if m <= prev:
            raise BadInput("window exponents must increase")
    for m in window:
        if m * max(f.degree, 1) > MAX_POWER_DEGREE:
            if f.degree < 1:
                raise BadInput(f"f^{m} of a constant f is above the limit of "
                               f"MAX_POWER_DEGREE = {MAX_POWER_DEGREE} powers")
            raise BadInput(f"f^{m} would have degree {m * f.degree}, above the limit "
                           f"MAX_POWER_DEGREE = {MAX_POWER_DEGREE}")
        yield m


def _power_walk(f: Poly, exponents: Iterable[int]) -> Iterator[tuple[int, Poly]]:
    """(m, f^m) for the exponents checked by `_exponents`, each power stepped
    from the one before."""
    power, prev = poly_one(QQ), 0
    for m in _exponents(f, exponents):
        power = power * f ** (m - prev)
        prev = m
        yield m, power


def _krylov(space: CofiniteSubspace, residues: Iterable[tuple[list[int], int]],
            start: Sequence[Optional[list[int]]]) -> Iterator[list[int]]:
    """Integer vectors w_0, w_1, ..., each w_m a positive multiple of the
    residue vector of s f^m.

    residues holds r_i = f mod b_i per block, as `_block_residue` reads it,
    and start the residues of s per block, all over one common denominator,
    or None where s is 0 (r_i is not used there).  The columns t^j r_i mod
    b_i form the matrix of multiplication by f on block i.  They are stepped
    on integer numerators by the companion shift, each over its own
    denominator brought to lowest terms, and den, the lcm of those
    denominators, makes den times each matrix an integer matrix N_i.  So
    w_m = N_i w_(m-1) on each block is den^m times the residue of s f^m over
    the start's denominator: one positive factor per step, shared by every
    block, which leaves each test lam . w = 0 unchanged.
    """
    blocks, vecs = [], []
    for (col, col_den), block, s in zip(residues, space._blocks, start):
        vecs.append(s or [0] * len(col))
        cols = []  # column j is t^j r mod the block, as (numerators, denominator)
        for j in range(len(col) if s else 0):
            if j:  # the monic block is num / den, so num[:-1] is den times its low part
                col, col_den = _times_t(col, block.num[:-1], block.den), col_den * block.den
            g = math.gcd(col_den, *col)
            cols.append(([x // g for x in col], col_den // g))
        blocks.append(cols)
    den = math.lcm(*(c for cols in blocks for _, c in cols))
    # N_i row by row: row k holds den times coefficient k of each column
    mats = [[list(row) for row in zip(*([x * (den // c) for x in col] for col, c in cols))]
            for cols in blocks]
    while True:
        yield [x for v in vecs for x in v]
        vecs = [[sum(a * x for a, x in zip(row, v)) for row in mat] if mat else v
                for mat, v in zip(mats, vecs)]


def radical_probe(membership_oracle: Callable[[Poly], bool], f: Poly, window: Iterable[int]) -> bool:
    """Do all powers f^m for m in the window satisfy the oracle?

    This is a finite probe, not a proof of radical membership; callers
    interpret it under their chosen window rule.  The window must increase
    (checked before the first oracle call), and a power past the
    MAX_POWER_DEGREE limit is BadInput.
    """
    return all(membership_oracle(power) for _, power in _power_walk(f, window))


def radical_probe_space(space: CofiniteSubspace, f: Poly, window: Iterable[int]) -> bool:
    """radical_probe(space.contains, f, window), decided on residue vectors.

    The residues of f^m are stepped from those of 1 by `_krylov` and no
    power is built; the window is checked by the same `_exponents`, so the
    refusals come at the same exponent with the same message.
    """
    ones = [[1] + [0] * (block.degree - 1) for block in space._blocks]
    walk = enumerate(_krylov(space, (_block_residue(f, b) for b in space._blocks), ones))
    return all(space.contains_vec(next(v for j, v in walk if j == m))
               for m in _exponents(f, window))


def radical_member_cofinite(space: CofiniteSubspace, f: Poly) -> bool:
    """Exact decision of 'all large powers of f lie in V'.

    With r_i = f mod b_i, b_i = p_i^(m_i), the blocks where p_i | r_i are
    the ones where f is nilpotent (r_i^(m_i) = 0 there), and they are
    dropped.  Call the rest S, dim_S their total degree, and L the largest
    deg b_i over the trusted (unverified) blocks in S, 0 when there are
    none.  Then f lies in rad(V) exactly when Lambda kills e_S f^j for
    j = L .. L + dim_S - 1:

    * on a verified block p_i is irreducible, so p_i not dividing r_i
      makes f a unit there;
    * on a trusted block f^L kills f's nilpotent part, because no element
      of QQ[t]/(b_i) has nilpotency index above deg b_i (an index bounded
      by m_i would be wrong: p_i = (t^2 - 2)^2 trusted, f = t^2 - 2);
    * so W = f^L e_S QQ[f] is f-stable, f acts on it invertibly, and
      dim W <= dim_S.  By Cayley-Hamilton W is spanned by the dim_S tested
      vectors, and it equals span{e_S f^m : m >= M} for every M >= L;
    * f^m e_S is f^m less its nilpotent blocks, which vanish for m >= D,
      hence f^m lies in V for all large m exactly when Lambda kills W.

    This decides what the window m in [D, 2D] of the module docstring
    decides, in at most L + dim_S - 1 <= 2D steps and dim_S <= D tests.

    Each r_i is read once on integers by `_block_residue`, as `residue_vec`
    reads it, with no Poly built: p_i | r_i is R = 0 when m_i = 1 and one
    `_zdivmod` by p_i otherwise.  The vectors e_S f^j are stepped from e_S
    by `_krylov`.  For split moduli the residues r_i are the values f(a_i).
    """
    residues = [_block_residue(f, block) for block in space._blocks]
    start, first, dim_s = [], 0, 0  # e_S on the blocks of S; L; dim_S
    for (p, m), block, (col, _) in zip(space.factors, space._blocks, residues):
        if not any(col if m == 1 else _zdivmod(col, p.num)[1]):
            start.append(None)  # p_i | r_i: f is nilpotent on this block
            continue
        if p in space.unverified_factors:
            first = max(first, block.degree)
        start.append([1] + [0] * (len(col) - 1))
        dim_s += len(col)
    return all(map(space.contains_vec,
                   islice(_krylov(space, residues, start), first, first + dim_s)))


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
    """Monic generator of the largest ideal contained in V, one gcd per block.

    Ideals of QQ[t]/(g) split along the blocks b_i = p_i^(m_i), so the
    largest ideal inside V is (h) with h = prod h_i, where (h_i)/(b_i) is the
    largest ideal of block i inside V.  For an annihilator row lam, the
    sequence s_j = lam(t^j mod b_i) is linearly recurrent with generating
    function sum_j s_j z^(-j-1) = N / b_i, deg N < deg b_i, so its minimal
    polynomial is the reduced denominator b_i / gcd(b_i, N), and (u)/(b_i)
    lies in ker lam exactly when that minimal polynomial divides u.  The
    kernel of V is the intersection over the rows, so h_i is
    b_i / gcd(b_i, N_1, ..., N_r).  Nothing here assumes the factors of g
    are irreducible.
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

    Every gcd, quotient and product runs on primitive integer lists with a
    positive leading entry (the numerators of a monic Poly are one), and
    such a list over its leading entry is the monic polynomial it stands
    for, so h and r are built as Polys once, at the end.
    """
    live, h_parts, r_parts = 0, [], []  # h_i and r_i of the live blocks
    for i, ((p, _), block, start) in enumerate(zip(space.factors, space._blocks, space._starts)):
        b, n = list(block.num), block.degree
        g = b  # gcd(b, N_1, ..., N_r), stopping once it is 1
        for lam in space._ann:
            lam = lam[start:start + n]
            # N = lam((b(z) - b(t)) / (z - t)) = sum_(m+j<n) b_(m+j+1) z^m lam_j
            numer = [sum(bk * lk for bk, lk in zip(b[m + 1:], lam)) for m in range(n)]
            if any(numer[1:]):
                g = _zgcd(g, _zstrip(numer))
            elif numer[0]:
                g = [1]
            if len(g) == 1:
                break
        if len(g) == len(b):
            continue  # every row vanishes on the block (or there is none): h_i = 1
        h_i = _prim(_zdivmod(b, g)[0]) if len(g) > 1 else b
        live |= 1 << i
        h_parts.append(h_i)
        r_parts.append(_zsquarefree(h_i) if p in space.unverified_factors else list(p.num))
    h = functools.reduce(_zmul, h_parts, [1])
    h = Poly.from_ints(h, h[-1])
    if r_parts == h_parts:
        return h, h, live
    r = functools.reduce(_zmul, r_parts, [1])
    return h, Poly.from_ints(r, r[-1]), live


def definition_witness(space: CofiniteSubspace, a: Poly, b: Poly) -> Optional[int]:
    """Smallest N >= 1 with a^m * b in V for every m >= N, None if there is
    none; exact.  The a^m * b with m >= D = deg g lie where a acts invertibly,
    on at most D dimensions, so each annihilator row reads them as a
    recurrence of order at most D that also runs backwards: the steps
    m in [D, 2D) decide whether any m >= D leaves V (module docstring).

    The residues of a^m * b are stepped from b's by `_krylov`; b's block
    residues are brought to one common denominator first, so that the
    start is one positive multiple of b's residue vector on every block.
    """
    residues = [_block_residue(b, block) for block in space._blocks]
    den = math.lcm(*(d for _, d in residues))
    start = [[x * (den // d) for x in rem] if any(rem) else None for rem, d in residues]
    walk = _krylov(space, [_block_residue(a, block) for block in space._blocks], start)
    last_out = 0
    for m, vec in enumerate(islice(walk, 1, 2 * space.dim), 1):
        if not space.contains_vec(vec):
            if m >= space.dim:
                return None
            last_out = m
    return last_out + 1


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

    B_S and B_rest, the products of the block numerators in and outside S,
    are multiplied as integer lists.  The blocks are coprime, so the integer
    cofactor loop `_zxgcd` on (B_rest, B_S) gives u B_rest = k mod B_S with
    an integer k != 0 and deg u < deg B_S.  Then u B_rest / k has degree
    < deg g and needs no reduction mod g.  It is e_S: the unique residue
    with those values, so it equals the sum of the single-block idempotents
    e_i over S.  The one Poly built is e_S itself, and no cofactor of B_S is
    formed.
    """
    chosen, rest = [1], [1]
    for i, block in enumerate(space._blocks):
        if mask >> i & 1:
            chosen = _zmul(chosen, block.num)
        else:
            rest = _zmul(rest, block.num)
    _, u, k = _zxgcd(rest, chosen)
    return Poly.from_ints(_zmul(u, rest), k)


def _subset_sums(values: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(mask, sum_{i in mask} values[i]) for every mask in increasing order.

    One running sum: going from mask - 1 to mask, whose lowest set bit is
    i, removes values 0..i-1 and adds value i, so each step is one addition
    of a precomputed integer.
    """
    steps, below = [], 0
    for u in values:
        steps.append(u - below)
        below += u
    total = 0
    yield 0, total
    for mask in range(1, 1 << len(values)):
        total += steps[(mask & -mask).bit_length() - 1]
        yield mask, total


def _first_zero_sum(vectors: Sequence[Sequence[int]], live: int) -> Optional[int]:
    """Least mask S meeting `live` with sum_{i in S} vectors[i] = 0, else None.

    Each vector x is packed into one integer sum_r x_r B^r, B = 2 M + 1 with
    M the sum of |x_r| over all vectors.  A subset sum, and the difference or
    sum of two, has entries of size at most 2 M < B, so a sum is zero, or
    equals or cancels another, exactly when its packed integer does.

    Meet in the middle (Horowitz and Sahni 1974).  The masks below 2^h, the
    subsets of the low half 0..h-1 with h = ceil(n/2), are walked in
    increasing order, so a hit among them returns at the step a walk over
    all 2^n masks would.  The walk records, for each sum, its least low
    mask and its least low mask that meets `live`.  Then the high masks H
    are taken in increasing order: the least hit of the form H 2^h + L is
    the least recorded L whose sum cancels H's, one meeting `live` unless
    H does, so the first H with a hit gives the least mask overall.  That
    is 2^h + 2^(n-h) sums in place of up to 2^n - 1; n <= 32 bounds the
    table at 2^16 integer keys.
    """
    base = 2 * sum(abs(x) for u in vectors for x in u) + 1
    packed = [sum(x * base ** r for r, x in enumerate(u)) for u in vectors]
    h = (len(packed) + 1) // 2
    least, least_live = {}, {}
    for mask, total in _subset_sums(packed[:h]):
        if mask & live and not total:
            return mask
        least.setdefault(total, mask)
        if mask & live:
            least_live.setdefault(total, mask)
    for high, total in _subset_sums(packed[h:]):
        low = least.get(-total) if high << h & live else least_live.get(-total)
        if low is not None:
            return high << h | low
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
    least zero-sum mask S with a live factor (`_first_zero_sum`) gives the
    witness (e_S, t^j), t^j the first monomial with e_S t^j outside V
    (e_S^m = e_S, so absorption fails for every m).  That j is found on
    integer residue vectors: e_S t^j is t^j mod the blocks in S and 0 mod
    the rest, stepped by the companion shift.  e_S itself comes from one
    CRT step that splits g into the blocks in and outside S
    (`_set_idempotent`, one integer xgcd on the block numerators), taken
    once j is known; the single e_i are never formed, and h, r, e_S and t^j
    are the only Polys built.  With no such mask the verdict is
    MATHIEU_EXACT, or CONSISTENT_UP_TO_BUDGET when a factor of degree >= 4
    is trusted unverified and might split.  budget_used's candidates_tried
    is a rank, not a count of work done: the mask S itself, which is the
    number of masks up to and including S in increasing order, or 2^n - 1
    when there is no refuting mask.
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
