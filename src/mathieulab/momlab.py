"""Exact normalized moments for classical weights and atomic measures.

Moments are normalized by the total mass, so everything stays rational:
the Gaussian weight exp(-t^2) on R, the Laguerre weight t^a exp(-t) on
(0, inf), the Jacobi weight (1-t)^a (1+t)^b on (-1, 1) and atomic measures
with rational points and positive rational weights.  The vanishing-integral
subspace, the induced inner product, monic orthogonal polynomials and the
image/integral agreement check all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .corealg import Poly, QQ, parse_key_values, parse_rational, t_monomial
from .errors import BadInput, BadPair, BadWeight, Degenerate
from .opimage import (
    JacobiOperator,
    OperatorSpec,
    hermite_operator,
    im_structure,
    laguerre_operator,
    member,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True, slots=True)
class HermiteWeight:
    def __str__(self):
        return "hermite"


@dataclass(frozen=True, slots=True)
class LaguerreWeight:
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= -1:
            raise BadWeight("Laguerre parameter must exceed -1")

    def __str__(self):
        return f"laguerre:alpha={self.alpha}"


@dataclass(frozen=True, slots=True)
class JacobiWeight:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha <= -1 or self.beta <= -1:
            raise BadWeight("Jacobi parameters must exceed -1")

    def __str__(self):
        return f"jacobi:alpha={self.alpha},beta={self.beta}"


@dataclass(frozen=True, slots=True)
class AtomicWeight:
    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = tuple(Fraction(p) for p in self.points)
        wts = tuple(Fraction(w) for w in self.weights)
        if not pts or len(pts) != len(wts):
            raise BadWeight("points and weights must be nonempty and aligned")
        if len(set(pts)) != len(pts):
            raise BadWeight("atomic points must be distinct")
        if any(w <= 0 for w in wts):
            raise BadWeight("atomic weights must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __str__(self):
        pts = ",".join(str(p) for p in self.points)
        wts = ",".join(str(w) for w in self.weights)
        return f"atomic:points={pts};weights={wts}"


WeightSpec = Union[HermiteWeight, LaguerreWeight, JacobiWeight, AtomicWeight]


def parse_weight(text: str) -> WeightSpec:
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "hermite":
        if rest.strip():
            raise BadInput("hermite takes no parameters")
        return HermiteWeight()
    args = parse_key_values(rest, "weight", ";" if head == "atomic" else ",")
    try:
        if head == "laguerre":
            return LaguerreWeight(parse_rational(args["alpha"]))
        if head == "jacobi":
            return JacobiWeight(parse_rational(args["alpha"]), parse_rational(args["beta"]))
        if head == "atomic":
            points = [parse_rational(v) for v in args["points"].split(",")]
            weights = [parse_rational(v) for v in args["weights"].split(",")]
            return AtomicWeight(tuple(points), tuple(weights))
    except KeyError as exc:
        raise BadInput(f"{head} weight needs {exc.args[0]}=") from exc
    raise BadInput(f"unknown weight {head!r}")


class MomentFunctional:
    """Cache of normalized moments nu_n (nu_0 = 1) for one weight.

    The cache grows monotonically and recomputation is always exact, so the
    observable behaviour is pure and deterministic; share per task or create
    fresh instances freely.
    """

    def __init__(self, weight: WeightSpec):
        self.weight = weight
        self._cache: list[Fraction] = [_F1]
        if isinstance(weight, JacobiWeight):
            self._ratios: list[Fraction] = [_F1]  # prod_{j<=k} (a+j)/(a+b+1+j)

    def moment(self, n: int) -> Fraction:
        if n < 0:
            raise BadInput("moment index must be non-negative")
        while len(self._cache) <= n:
            self._cache.append(self._next(len(self._cache)))
        return self._cache[n]

    def _next(self, n: int) -> Fraction:
        w = self.weight
        if isinstance(w, HermiteWeight):
            if n % 2 == 1:
                return _F0
            return Fraction(n - 1, 2) * self._cache[n - 2]
        if isinstance(w, LaguerreWeight):
            return (n + w.alpha) * self._cache[n - 1]
        if isinstance(w, JacobiWeight):
            # substitute t = 1 - 2u and expand in Beta-function ratios
            while len(self._ratios) <= n:
                k = len(self._ratios)
                self._ratios.append(
                    self._ratios[-1] * (w.alpha + k) / (w.alpha + w.beta + 1 + k)
                )
            total = _F0
            sign = 1
            for k in range(n + 1):
                total += sign * math.comb(n, k) * (2 ** k) * self._ratios[k]
                sign = -sign
            return total
        total_mass = sum(w.weights, _F0)
        return sum((wt * (pt ** n) for pt, wt in zip(w.points, w.weights)), _F0) / total_mass


def normalized_moment(w: WeightSpec, n: int) -> Fraction:
    return MomentFunctional(w).moment(n)


def vb_member(w: WeightSpec, f: Poly) -> bool:
    """Is the normalized integral of f against the weight exactly zero?"""
    if f.ring != QQ:
        raise BadInput("vanishing-integral test requires rational coefficients")
    mf = MomentFunctional(w)
    total = _F0
    for n, c in enumerate(f.qq_coeffs()):
        if c:
            total += c * mf.moment(n)
    return total == 0


def inner_product(w: WeightSpec, f: Poly, g: Poly) -> Fraction:
    """Moment-weighted pairing; conjugation is trivial over QQ."""
    if f.ring != QQ or g.ring != QQ:
        raise BadInput("inner product requires rational coefficients")
    mf = MomentFunctional(w)
    total = _F0
    for n, c in enumerate((f * g).qq_coeffs()):
        if c:
            total += c * mf.moment(n)
    return total


def orthopoly(w: WeightSpec, n: int) -> Poly:
    """Monic degree-n orthogonal polynomial by Gram-Schmidt on 1, t, t^2, ..."""
    if n < 0:
        raise BadInput("degree must be non-negative")
    if isinstance(w, AtomicWeight) and n >= len(w.points):
        raise Degenerate("no orthogonal polynomial beyond the atomic point count")
    basis: list[Poly] = []
    norms: list[Fraction] = []
    for k in range(n + 1):
        p = t_monomial(QQ, k)
        for q, nq in zip(basis, norms):
            coeff = inner_product(w, p, q) / nq
            if coeff:
                p = p - q.scale(coeff)
        if k < n:
            nq = inner_product(w, p, p)
            if nq == 0:
                raise Degenerate("Gram matrix is singular at this degree")
            basis.append(p)
            norms.append(nq)
    return p


def matched_operator(w: WeightSpec) -> Optional[OperatorSpec]:
    """The differential operator w^{-1} d/dt w attached to a classical weight."""
    if isinstance(w, HermiteWeight):
        return hermite_operator()
    if isinstance(w, LaguerreWeight):
        return laguerre_operator(w.alpha)
    if isinstance(w, JacobiWeight):
        return JacobiOperator(w.alpha, w.beta)
    return None


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    one_in_image: bool
    degrees_checked: int
    violations: tuple
    equivalent: Optional[bool]  # None when the image is all of QQ[t]


def equivalence_check(w: WeightSpec, op: OperatorSpec, deg_bound: int) -> EquivalenceReport:
    """Compare image membership with integral vanishing on 1, t, ..., t^deg_bound.

    When 1 lies in the operator image the image is the whole polynomial ring
    and no agreement with the vanishing-integral hyperplane is claimed.
    """
    if deg_bound < 1:
        raise BadInput("degree bound must be at least 1")
    expected = matched_operator(w)
    if expected is None or expected != op:
        raise BadPair(f"weight {w} is not matched with operator {op}")
    struct = im_structure(op)
    if struct.one_in_image:
        return EquivalenceReport(True, 0, (), None)
    violations = []
    for j in range(deg_bound + 1):
        mono = t_monomial(QQ, j)
        if member(op, mono)[0] != vb_member(w, mono):
            violations.append(j)
    return EquivalenceReport(False, deg_bound + 1, tuple(violations), not violations)
