"""Radical probing and the Mathieu verdict engine for cofinite subspaces.

A subspace V of QQ[t] containing a nonzero ideal (g) is described by the
factored modulus g and a basis of its image in QQ[t]/(g).  Internally V/(g)
is held as the kernel of its annihilator: rows lam in coefficient
coordinates with V/(g) = {v : lam . v = 0}.  For such spaces the key
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
* the largest ideal inside V has as image in QQ[t]/(g) the common kernel
  of lam M^j (j < D), M the multiplication by t, and its generator is the
  gcd of g with lifts of a kernel basis; this needs no factorization of g
  and no enumeration of its divisors.
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

External vectors use per-factor residue coordinates: the coordinates of
f are the coefficients of f mod p_i^(m_i), blocks concatenated in modulus
order.  For split moduli these are plain point evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import linalg
from .corealg import (
    Poly,
    QQ,
    euclid_divmod,
    format_poly,
    parse_poly,
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

NOT_MATHIEU = "NOT_MATHIEU"
MATHIEU_EXACT = "MATHIEU_EXACT"
CONSISTENT_UP_TO_BUDGET = "CONSISTENT_UP_TO_BUDGET"


def _has_rational_root(f: Poly) -> bool:
    """Rational-root test for a factor of degree 2 or 3, polynomial in its size.

    With f cleared to integer coefficients a_0..a_n, s = a_n t turns
    a_n^(n-1) f into the monic integer polynomial h(s) = sum a_i a_n^(n-1-i) s^i,
    whose rational roots are integers bounded by the Cauchy bound.  Between
    consecutive critical points h is monotone on the integers, so each piece
    is searched by bisection.
    """
    coeffs = f.qq_coeffs()
    scale = math.lcm(*(c.denominator for c in coeffs))
    a = [int(c * scale) for c in coeffs]
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


class CofiniteSubspace:
    """V ⊆ QQ[t] with (g) ⊆ V, encoded by g's factorization and V/(g)."""

    def __init__(self, factors: Sequence[tuple[Poly, int]], vbar_basis: Sequence[Sequence] = (),
                 basis_coords: str = "residue"):
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
            if not isinstance(mult, int) or mult < 1:
                raise BadInput("factor multiplicities must be positive integers")
            poly = poly.monic()
            key = poly.qq_coeffs()
            if key in seen:
                raise BadInput("duplicate modulus factor; merge multiplicities")
            seen.add(key)
            if poly.degree <= 3:
                if poly.degree >= 2 and _has_rational_root(poly):
                    raise BadInput(f"factor {format_poly(poly)} is reducible")
            else:
                unverified.append(poly)  # trusted, flagged
            normalized.append((poly, mult))
        self.factors: tuple = tuple(normalized)
        self.unverified_factors: tuple = tuple(unverified)

        g = poly_one(QQ)
        blocks = []
        for poly, mult in self.factors:
            block = poly ** mult
            blocks.append(block)
            g = g * block
        self._blocks = tuple(blocks)
        self.modulus: Poly = g
        self.dim: int = g.degree

        # residue coordinates <-> coefficient coordinates
        crt_columns = [self.residue_vec(t_monomial(QQ, j)) for j in range(self.dim)]
        self._crt_matrix = [[crt_columns[j][i] for j in range(self.dim)] for i in range(self.dim)]

        converted = []
        for vec in vbar_basis:
            entries = [Fraction(v) if not isinstance(v, float) else None for v in vec]
            if None in entries:
                raise BadInput("basis vectors must be exact rationals, not floats")
            if len(entries) != self.dim:
                raise BadInput(f"basis vectors must have length {self.dim}")
            if basis_coords == "residue":
                coeff_vec = linalg.solve_linear(self._crt_matrix, entries)
                if coeff_vec is None:
                    raise BadInput("residue vector outside the quotient algebra")
                converted.append(coeff_vec)
            elif basis_coords == "coefficient":
                converted.append(entries)
            else:
                raise BadInput(f"unknown basis coordinate system {basis_coords!r}")
        self._basis = tuple(tuple(v) for v in converted)
        # annihilator rows: V/(g) = {v : lam . v = 0 for every row lam}
        self._ann = linalg.nullspace(self._basis or [[_F0] * self.dim])
        if len(self._ann) + len(self._basis) != self.dim:
            raise BadInput("basis vectors are linearly dependent")

    # -- coordinate maps -------------------------------------------------

    def residue_vec(self, f: Poly) -> list[Fraction]:
        out: list[Fraction] = []
        for block in self._blocks:
            r = euclid_divmod(f, block)[1]
            coeffs = list(r.qq_coeffs())
            coeffs += [_F0] * (block.degree - len(coeffs))
            out.extend(coeffs)
        return out

    def reduce_vec(self, f: Poly) -> list[Fraction]:
        r = euclid_divmod(f, self.modulus)[1]
        coeffs = list(r.qq_coeffs())
        return coeffs + [_F0] * (self.dim - len(coeffs))

    def mod(self, f: Poly) -> Poly:
        return euclid_divmod(f, self.modulus)[1]

    def lift(self, coeff_vec: Sequence[Fraction]) -> Poly:
        return qq_poly(coeff_vec)

    def basis_polys(self) -> list[Poly]:
        return [self.lift(v) for v in self._basis]

    # -- membership --------------------------------------------------------

    def contains_vec(self, coeff_vec: Sequence[Fraction]) -> bool:
        return all(sum(l * v for l, v in zip(lam, coeff_vec)) == 0 for lam in self._ann)

    def contains(self, f: Poly) -> bool:
        return self.contains_vec(self.reduce_vec(f))

    def is_ideal(self) -> bool:
        """V is an ideal iff its image mod g is closed under multiplication by t."""
        t = t_monomial(QQ, 1)
        return all(self.contains(t * p) for p in self.basis_polys())

    def pow_mod(self, f: Poly, e: int) -> Poly:
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
            factors = [(parse_poly(text, QQ), int(mult)) for text, mult in data["modulus"]]
            raw = data.get("vbar_basis", [])
        except (KeyError, TypeError, ValueError) as exc:
            raise BadInput(f"malformed subspace description: {exc}") from exc
        vectors = []
        for vec in raw:
            entries = []
            for v in vec:
                if isinstance(v, bool) or isinstance(v, float):
                    raise BadInput("basis entries must be integers or rational strings")
                entries.append(Fraction(v) if isinstance(v, int) else Fraction(str(v)))
            vectors.append(entries)
        return cls(factors, vectors)

    def to_dict(self) -> dict:
        return {
            "modulus": [[format_poly(p), m] for p, m in self.factors],
            "vbar_basis": [
                [str(v) for v in self.residue_vec(self.lift(vec))] for vec in self._basis
            ],
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

def radical_probe(membership_oracle: Callable[[Poly], bool], f: Poly, window: Iterable[int]) -> bool:
    """Do all powers f^m for m in the window satisfy the oracle?

    This is a finite probe, not a proof of radical membership; callers
    interpret it under their chosen window rule.
    """
    exponents = sorted(set(window))
    if not exponents:
        raise BadInput("empty probe window")
    if any(m < 0 for m in exponents):
        raise BadInput("window exponents must be non-negative")
    power = poly_one(QQ)
    prev = 0
    for m in exponents:
        power = power * f ** (m - prev)
        prev = m
        if not membership_oracle(power):
            return False
    return True


def radical_member_cofinite(space: CofiniteSubspace, f: Poly) -> bool:
    """Exact decision of 'all large powers of f lie in V'.

    Checks f^m in V for m in [D, 2D], D = deg g; by the two-sided
    Cayley-Hamilton recurrence described in the module docstring this window
    is equivalent to eventual membership.
    """
    d = space.dim
    fbar = space.mod(f)
    current = space.pow_mod(fbar, d)
    for _ in range(d, 2 * d + 1):
        if not space.contains(current):
            return False
        current = space.mod(current * fbar)
    return True


def escape_exponent(op: OperatorSpec, f: Poly, budget: int) -> Optional[int]:
    """Smallest m <= budget with f^m outside the operator image, else None."""
    if f.is_zero:
        raise ZeroInput("escape exponent of the zero polynomial")
    if budget < 1:
        raise BadInput("budget must be at least 1")
    power = poly_one(QQ)
    for m in range(1, budget + 1):
        power = power * f
        if not member(op, power)[0]:
            return m
    return None


def largest_ideal(space: CofiniteSubspace) -> Poly:
    """Monic generator of the largest ideal contained in V, by linear algebra.

    With M the multiplication by t on QQ[t]/(g), v lies in the image of the
    largest ideal iff t^j v lies in V/(g) for every j < deg g, i.e. iff
    (lam M^j) . v = 0 for every annihilator row lam (Cayley-Hamilton bounds
    j).  That image is an ideal (h)/(g) with h | g, and h is the gcd of g
    and the lifts of any basis of it.  Nothing here assumes the factors of g
    are irreducible.
    """
    if not space._ann:
        return poly_one(QQ)
    g = space.modulus.qq_coeffs()
    rows = []
    for lam in space._ann:
        for _ in range(space.dim):
            rows.append(lam)
            # lam M: shift down, the top slot picks up t^D = -sum g_k t^k
            lam = lam[1:] + [-sum(gk * lk for gk, lk in zip(g, lam))]
    out = space.modulus
    for vec in linalg.nullspace(rows):
        out = poly_gcd(out, qq_poly(vec))
    return out


def definition_witness(membership_oracle: Callable[[Poly], bool], a: Poly, b: Poly,
                       budget: int) -> Optional[int]:
    """Smallest N <= budget with a^m * b inside V for every m in [N, budget]."""
    if budget < 1:
        raise BadInput("budget must be at least 1")
    last_out = 0
    power = poly_one(QQ)
    for m in range(1, budget + 1):
        power = power * a
        if not membership_oracle(power * b):
            last_out = m
    if last_out == budget:
        return None
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


def crt_idempotents(space: CofiniteSubspace) -> list[Poly]:
    """e_i = 1 mod p_i^(m_i) and 0 mod the other factor powers."""
    out = []
    for i, block in enumerate(space._blocks):
        rest = poly_one(QQ)
        for j, other in enumerate(space._blocks):
            if j != i:
                rest = rest * other
        d, u, _ = poly_xgcd(rest, block)
        if not (d.degree == 0 and d.coeff(0).data == 1):
            raise BadInput("modulus factors are not pairwise coprime")
        out.append(space.mod(u * rest))
    return out


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
    e_S t^j outside V (e_S^m = e_S, so absorption fails for every m).  With
    no such mask the verdict is MATHIEU_EXACT, or CONSISTENT_UP_TO_BUDGET
    when a factor of degree >= 4 is trusted unverified and might split.
    """
    h = largest_ideal(space)
    r = squarefree_part(h) if h.degree >= 1 else poly_one(QQ)
    budget_used = {"window": [space.dim, 2 * space.dim]}
    # sanity: the radical of (h) is always inside the radical of V
    if not radical_member_cofinite(space, r):
        raise BadInput("internal inconsistency: interior ideal radical escapes V")
    if h.degree == len(space._ann):  # (h)/(g) fills V/(g)
        budget_used["structural_case"] = "ideal"
        return MathieuVerdict(MATHIEU_EXACT, None, h, r, budget_used)

    idems = crt_idempotents(space)
    u = [[sum(l * c for l, c in zip(lam, e.qq_coeffs())) for lam in space._ann] for e in idems]
    scale = math.lcm(*(x.denominator for ui in u for x in ui))
    live = sum(1 << i for i, (p, _) in enumerate(space.factors) if poly_gcd(p, r).degree >= 1)
    mask = _first_zero_sum([[int(x * scale) for x in ui] for ui in u], live)
    if mask is None:
        budget_used["candidates_tried"] = (1 << len(idems)) - 1
        status = CONSISTENT_UP_TO_BUDGET if space.unverified_factors else MATHIEU_EXACT
        return MathieuVerdict(status, None, h, r, budget_used)

    chosen = [e for i, e in enumerate(idems) if mask >> i & 1]
    a = sum(chosen[1:], chosen[0])
    budget_used["candidates_tried"] = mask
    budget_used["witness_family"] = "crt_idempotent"
    shifted = a
    for j in range(space.dim):
        if not space.contains(shifted):
            return MathieuVerdict(NOT_MATHIEU, (a, t_monomial(QQ, j)), h, r, budget_used)
        shifted = space.mod(shifted * t_monomial(QQ, 1))
    # absorption of every monomial would put (a) + (g) inside V, so r | a
    raise BadInput("internal inconsistency: refuter absorbs every monomial")
