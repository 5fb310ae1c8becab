"""Exact normalized moments for classical weights and atomic measures.

Moments are normalized by the total mass, so everything stays rational:
the Gaussian weight exp(-t^2) on R, the Laguerre weight t^a exp(-t) on
(0, inf), the Jacobi weight (1-t)^a (1+t)^b on (-1, 1) and atomic measures
with rational points and positive rational weights.  The vanishing-integral
subspace, the induced inner product, monic orthogonal polynomials and the
image/integral agreement check all live here.

Monic orthogonal polynomials come straight from the moments by the
Chebyshev algorithm (Gautschi, *Orthogonal Polynomials: Computation and
Approximation*, 2004, section 2.1.7): the mixed moments <p_k, t^l> yield the
three-term recurrence coefficients, so degree n costs O(n^2) exact
operations on the moments nu_0 .. nu_(2n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .corealg import Poly, QQ, parse_key_values, parse_rational, qq_poly, t_monomial
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


_WEIGHT_KEYS = {"laguerre": {"alpha"}, "jacobi": {"alpha", "beta"}, "atomic": {"points", "weights"}}


def parse_weight(text: str) -> WeightSpec:
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "hermite":
        if rest.strip():
            raise BadInput("hermite takes no parameters")
        return HermiteWeight()
    args = parse_key_values(rest, "weight", ";" if head == "atomic" else ",")
    unknown = set(args) - _WEIGHT_KEYS.get(head, set(args))
    if unknown:
        raise BadInput(f"unknown weight arguments {sorted(unknown)}")
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
            # integrating d/dt[t^(n-1) (1-t)^(a+1) (1+t)^(b+1)] by parts gives
            # (n+a+b+1) nu_n = (n-1) nu_(n-2) + (b-a) nu_(n-1); the factor on
            # the left is positive because a, b > -1
            prev = self._cache[n - 2] if n >= 2 else _F0
            return ((n - 1) * prev + (w.beta - w.alpha) * self._cache[n - 1]) / (
                n + w.alpha + w.beta + 1
            )
        total_mass = sum(w.weights, _F0)
        return sum((wt * (pt ** n) for pt, wt in zip(w.points, w.weights)), _F0) / total_mass


def normalized_moment(w: WeightSpec, n: int) -> Fraction:
    return MomentFunctional(w).moment(n)


def _integral(mf: MomentFunctional, coeffs) -> Fraction:
    """Normalized integral of the polynomial with ascending coefficients."""
    total = _F0
    for n, c in enumerate(coeffs):
        if c:
            total += c * mf.moment(n)
    return total


def vb_member(w: WeightSpec, f: Poly) -> bool:
    """Is the normalized integral of f against the weight exactly zero?"""
    if f.ring != QQ:
        raise BadInput("vanishing-integral test requires rational coefficients")
    return _integral(MomentFunctional(w), f.qq_coeffs()) == 0


def inner_product(w: WeightSpec, f: Poly, g: Poly) -> Fraction:
    """Moment-weighted pairing; conjugation is trivial over QQ."""
    if f.ring != QQ or g.ring != QQ:
        raise BadInput("inner product requires rational coefficients")
    return _integral(MomentFunctional(w), (f * g).qq_coeffs())


def orthopoly(w: WeightSpec, n: int) -> Poly:
    """Monic degree-n orthogonal polynomial by the Chebyshev algorithm.

    With sigma_k(l) = <p_k, t^l>, sigma_(-1) = 0 and sigma_0(l) = nu_l, the
    monic family obeys p_(k+1) = (t - a_k) p_k - b_k p_(k-1) where
    a_k = sigma_k(k+1)/sigma_k(k) - sigma_(k-1)(k)/sigma_(k-1)(k-1),
    b_k = sigma_k(k)/sigma_(k-1)(k-1) and
    sigma_(k+1)(l) = sigma_k(l+1) - a_k sigma_k(l) - b_k sigma_(k-1)(l).
    sigma_k(k) is the squared norm of p_k, so a zero one for k < n is the
    singular Gram matrix that rules out a unique answer.
    """
    if n < 0:
        raise BadInput("degree must be non-negative")
    if isinstance(w, AtomicWeight) and n >= len(w.points):
        raise Degenerate("no orthogonal polynomial beyond the atomic point count")
    mf = MomentFunctional(w)
    # row k holds sigma_k(l) for l < 2n - k; entries l < k are zero by
    # orthogonality and are never read
    sigma_prev = [_F0] * (2 * n)
    sigma = [mf.moment(l) for l in range(2 * n)]
    p_prev: list[Fraction] = []
    p = [_F1]
    # sigma_(k-1)(k) / sigma_(k-1)(k-1) and sigma_(k-1)(k-1); at k = 0 they
    # only scale the zero row sigma_(-1) and the zero polynomial p_(-1)
    prev_ratio, prev_norm = _F0, _F1
    for k in range(n):
        norm = sigma[k]
        if norm == 0:
            raise Degenerate("Gram matrix is singular at this degree")
        ratio = sigma[k + 1] / norm
        a, b = ratio - prev_ratio, norm / prev_norm
        p_next = [_F0] + p
        for i, c in enumerate(p):
            p_next[i] -= a * c
        for i, c in enumerate(p_prev):
            p_next[i] -= b * c
        p_prev, p = p, p_next
        if k + 1 < n:
            sigma_prev, sigma = sigma, [
                sigma[l + 1] - a * sigma[l] - b * sigma_prev[l] if l > k else _F0
                for l in range(2 * n - k - 1)
            ]
        prev_ratio, prev_norm = ratio, norm
    return qq_poly(p)


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
    mf = MomentFunctional(w)
    violations = []
    for j in range(deg_bound + 1):
        if member(op, t_monomial(QQ, j))[0] != (mf.moment(j) == 0):
            violations.append(j)
    return EquivalenceReport(False, deg_bound + 1, tuple(violations), not violations)
