"""The Fraction moment functional, Fraction Chebyshev algorithm, moment sum
and per-degree equivalence comparison of the earlier momlab module, kept
verbatim as independent oracles: ``MomentFunctional._next`` runs one
Fraction recurrence per classical family and sums a Fraction power for every
atomic point over the total mass, ``orthopoly`` carries the monic recurrence
coefficients and mixed moments as Fractions, ``integral`` sums the
coefficients of a polynomial times the moments of a functional, and
``equivalence_check`` compares, degree by degree, whether t^j lies in the
operator image with whether nu_j = 0.  ``moment_row`` and ``ode_row`` are
the hand-written per-family rows of the moment recurrence and of the
classical differential equation that ``momlab._weight_pair`` now derives
from one Pearson pair.  ``parse_weight`` is the weight reader that read
each atomic list piece by piece into Fractions, the slow path of the
reader's cross-oracle."""

from fractions import Fraction

from mathieulab.corealg import (
    QQ,
    Poly,
    clear_denominators,
    parse_key_values,
    parse_rational,
    qq_poly,
    t_monomial,
)
from mathieulab.errors import BadInput, BadPair, Degenerate
from mathieulab.momlab import (
    AtomicWeight,
    EquivalenceReport,
    HermiteWeight,
    JacobiWeight,
    LaguerreWeight,
    WeightSpec,
    matched_operator,
)
from mathieulab.opimage import OperatorSpec, im_structure, member

_F0 = Fraction(0)
_F1 = Fraction(1)


class MomentFunctional:
    """Cache of normalized moments nu_n (nu_0 = 1) for one weight."""

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


def integral(mf, coeffs) -> Fraction:
    """Normalized integral of the polynomial with ascending coefficients:
    the sum of each coefficient times the moment mf.moment(n), from the top."""
    total = _F0
    for n in range(len(coeffs) - 1, -1, -1):
        if coeffs[n]:
            total += coeffs[n] * mf.moment(n)
    return total


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


def equivalence_check(w: WeightSpec, op: OperatorSpec, deg_bound: int) -> EquivalenceReport:
    """Compare image membership with integral vanishing on 1, t, ..., t^deg_bound."""
    if deg_bound < 1:
        raise BadInput("degree bound must be at least 1")
    expected = matched_operator(w)
    if expected is None or expected != op:
        raise BadPair(f"weight {w} is not matched with operator {op}")
    if im_structure(op).one_in_image:
        return EquivalenceReport(True, 0, (), None)
    mf = MomentFunctional(w)
    violations = []
    for j in range(deg_bound + 1):
        if member(op, t_monomial(QQ, j))[0] != (mf.moment(j) == 0):
            violations.append(j)
    return EquivalenceReport(False, deg_bound + 1, tuple(violations), not violations)


def moment_row(w: WeightSpec):
    """The moment recurrence of a classical weight as one row of integer terms.

    A term (shift, a, b) stands for (a + b*n) nu_(n+shift), the terms sum to
    zero, and the top term comes last, in the shape of `opimage_oracle.image_row`.
    With the parameters alpha = A/q and beta = B/q over one common
    denominator q > 0, the rows are

        Hermite   n nu_(n-1) - 2 nu_(n+1)                                  n >= 0
        Laguerre  (A + q n) nu_(n-1) - q nu_n                              n >= 1
        Jacobi    q n nu_(n-1) + (B - A) nu_n - (q n + 2q + A + B) nu_(n+1)  n >= 0

    and the Jacobi row drops its nu_n term when A = B.  Each is the integral
    of a derivative over the support, which is zero: of t^n exp(-t^2), of
    t^(n+alpha) exp(-t) and of t^n (1-t)^(alpha+1) (1+t)^(beta+1), which is
    t^n times the weight times (1-t)(1+t).  The boundary terms vanish
    because alpha, beta > -1 (for Laguerre, t^(n+alpha) at 0 needs n >= 1).
    Divided by the weight and times q, the derivatives are the rows above;
    for Jacobi, n t^(n-1) (1-t^2) - (alpha+1) t^n (1+t) + (beta+1) t^n (1-t).
    The top factor never vanishes: it is -2, -q, or
    -q(n + 2 + alpha + beta) < 0.
    """
    if isinstance(w, HermiteWeight):
        return (-1, 0, 1), (1, -2, 0)
    if isinstance(w, LaguerreWeight):
        q, a = w.alpha.denominator, w.alpha.numerator
        return (-1, a, q), (0, -q, 0)
    q, (a, b) = clear_denominators((w.alpha, w.beta))
    top = (1, -(2 * q + a + b), -q)
    return ((-1, 0, q), (0, b - a, 0), top) if b != a else ((-1, 0, q), top)


def ode_row(w: WeightSpec, n: int):
    """The coefficient recurrence of the classical p_n as one row of integer factors.

    Returns (lead, rest) for the scaled coefficients e_k = c_k / C(n, k):
    lead = (a, b) and each term (j, a, b) of rest stand for the integers
    a + b*k, and the row reads

        (a_lead + b_lead k) e_k = -sum over (j, a, b) of (a + b k) e_(k+j).

    Comparing coefficients in each family's differential equation (Szego,
    *Orthogonal Polynomials*, ch. 4-5) gives

        Hermite   y'' - 2t y' + 2n y = 0
                  c_k = -(k+2)(k+1) c_(k+2) / (2(n-k))
        Laguerre  t y'' + (a+1-t) y' + n y = 0
                  c_k = -(k+1)(k+a+1) c_(k+1) / (n-k)
        Jacobi    (1-t^2) y'' + (b-a-(a+b+2)t) y' + n(n+a+b+1) y = 0
                  c_k = -[(k+2)(k+1) c_(k+2) + (b-a)(k+1) c_(k+1)]
                        / ((n-k)(n+k+a+b+1))

    and dividing by C(n, k), with
    C(n, k+j) (k+1)...(k+j) = C(n, k) (n-k)...(n-k-j+1), cancels the factor
    n - k.  With the parameters a = A/q and b = B/q over one common
    denominator q > 0, the three rows are

        Hermite   2 e_k = -(n-1-k) e_(k+2)
        Laguerre  q e_k = -(q + A + q k) e_(k+1)
        Jacobi    (q(n+1) + A + B + q k) e_k = -(B - A) e_(k+1) - q(n-1-k) e_(k+2)

    The lead is positive for 0 <= k < n: q > 0, and in the Jacobi row
    q(n+k+1+a+b) > 0 because n+k+1 >= 2 and a, b > -1.  So every step
    divides by a nonzero integer, and the factor n - k cancelled above is
    at least 1.  rest holds no zero term: the Jacobi row drops its e_(k+1)
    term when A = B, and its odd coefficients are then zero.
    """
    if isinstance(w, HermiteWeight):
        return (2, 0), ((2, n - 1, -1),)
    if isinstance(w, LaguerreWeight):
        q, a = w.alpha.denominator, w.alpha.numerator
        return (q, 0), ((1, q + a, q),)
    q, (a, b) = clear_denominators((w.alpha, w.beta))
    down = (2, q * (n - 1), -q)
    return (q * (n + 1) + a + b, q), ((1, b - a, 0), down) if b != a else (down,)


# The weight reader that momlab's parse_weight replaced, kept verbatim: one
# parse_rational, so one match and one Fraction, per atomic list piece.

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
