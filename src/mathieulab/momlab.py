"""Exact normalized moments for classical weights and atomic measures.

Moments are normalized by the total mass, so everything stays rational:
the Gaussian weight exp(-t^2) on R, the Laguerre weight t^a exp(-t) on
(0, inf), the Jacobi weight (1-t)^a (1+t)^b on (-1, 1) and atomic measures
with rational points and positive rational weights.  The vanishing-integral
subspace, the induced inner product, monic orthogonal polynomials and the
image/integral agreement check all live here.

Each classical weight rho is one Pearson pair (`_weight_pair`), integer
polynomials phi and psi with (phi rho)' = psi rho, and each classical
algorithm here is one row derived from that pair:

    weight    rho                  phi        psi
    Hermite   exp(-t^2)            1          -2t
    Laguerre  t^a exp(-t)          t          (a+1) - t
    Jacobi    (1-t)^a (1+t)^b      1 - t^2    (b-a) - (a+b+2)t

The monic orthogonal p_n solves Bochner's equation (Bochner 1929)
phi y'' + psi y' + lam_n y = 0, which gives each coefficient of p_n from
the ones above it: one row of integer factors (`_bochner_row`), which
`_classical_orthopoly` solves with `linalg.solve_band`, the fraction-free
banded solver of opimage's elimination, with no moments.

For atomic weights the monic orthogonal polynomials come from the moments
by the Chebyshev algorithm (Gautschi, *Orthogonal Polynomials: Computation
and Approximation*, 2004, section 2.1.7), run fraction-free in the manner of
Bareiss's elimination (1968).  Scaling the moments nu_0 .. nu_(2n-1) by a
common multiple of their denominators gives an integer-valued functional L
with the same monic orthogonal family.  Integer polynomials P_k
proportional to p_k and their rows S_k(l) = L(P_k t^l) obey one three-term
recurrence with integer factors, so degree n costs O(n^2) integer
operations, and the monic answer is the Poly with numerators P_n over the
denominator lc(P_n).  An atomic weight's moments are integers from the
start (`_atomic_moments`): with points a_i / d and weights W_i over common
denominators, m_l = sum_i W_i a_i^l d^(2n-1-l) costs one integer product
per point and moment, so the atomic path builds no Fraction at all.  The
same algorithm runs on the moments of any weight, which makes it the
cross-check of the classical recurrences.

Integrating (phi rho t^n)' over the support gives the moments one
identity in n, the row `opimage.pearson_row` of the pair read on moments,
which `MomentFunctional` solves for its top term.  This is the paper's
second result: read on polynomials, the same row spans the image of the
matched operator D = rho^(-1) d/dt rho, so L kills Im(D), and because its
polynomials lead at every degree k >= 1, Im(D) is all of ker L
(`equivalence_check`).

The same row is the algorithm for L itself: eliminating f top-down by its
polynomials, with opimage's integer elimination (`opimage._solve_row`),
leaves a constant, and that constant is L(f).  `vb_member` and
`inner_product` read L this way (`_functional`), and an atomic weight by
integer Horner at its points, so neither builds a moment.
`MomentFunctional` builds the moments for the `moments` printout and the
atomic Chebyshev algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Optional, Union

from .corealg import (
    Poly,
    QQ,
    _fraction,
    _read_rationals,
    clear_denominators,
    parse_key_values,
    parse_rational,
)
from .errors import BadInput, BadPair, BadWeight, Degenerate
from .linalg import solve_band
from .opimage import (
    JacobiOperator,
    OperatorSpec,
    _solve_row,
    hermite_operator,
    im_structure,
    laguerre_operator,
    pearson_row,
)

_F0 = Fraction(0)
_F1 = Fraction(1)

# largest estimated coefficient size, in bits, of a classical orthopoly
# (`_output_bits`): Jacobi(123/457, 511/997) reaches n = 1000, Hermite 2307
MAX_ORTHOPOLY_BITS = 30_000
# largest moment index, and largest degree that `vb_member` and
# `inner_product` integrate; the cost of all moments up to n grows about
# sixfold per doubling of n and with the size of the weight.  At the limit,
# `moments --upto 2000` takes 0.5 s for jacobi:alpha=1/2,beta=1/3 and 6.2 s
# for jacobi:alpha=123/457,beta=511/997, and `vb_member` of a dense f of
# degree 2000 about 0.6 s for the latter, on a 2-vCPU Xeon
MAX_MOMENT_INDEX = 2000


@dataclass(frozen=True, slots=True)
class HermiteWeight:
    def __str__(self):
        return "hermite"


@dataclass(frozen=True, slots=True)
class LaguerreWeight:
    alpha: Fraction

    def __post_init__(self):
        alpha = _fraction(self.alpha)
        if alpha <= -1:
            raise BadWeight("Laguerre parameter must exceed -1")
        object.__setattr__(self, "alpha", alpha)

    def __str__(self):
        return f"laguerre:alpha={self.alpha}"


@dataclass(frozen=True, slots=True)
class JacobiWeight:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        alpha, beta = _fraction(self.alpha), _fraction(self.beta)
        if alpha <= -1 or beta <= -1:
            raise BadWeight("Jacobi parameters must exceed -1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __str__(self):
        return f"jacobi:alpha={self.alpha},beta={self.beta}"


@dataclass(frozen=True, slots=True)
class AtomicWeight:
    """Distinct rational points and positive rational weights.  Each value
    is held as an int or a Fraction, as given, and anything else as a
    Fraction, so that `parse_weight` builds no Fraction for an integer."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = tuple(p if type(p) is int or type(p) is Fraction else Fraction(p)
                    for p in self.points)
        wts = tuple(w if type(w) is int or type(w) is Fraction else Fraction(w)
                    for w in self.weights)
        if not pts or len(pts) != len(wts):
            raise BadWeight("points and weights must be nonempty and aligned")
        if len({p.as_integer_ratio() for p in pts}) != len(pts):
            raise BadWeight("atomic points must be distinct")
        if any(w.numerator <= 0 for w in wts):
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
            points = _read_rationals(args["points"])
            return AtomicWeight(points, _read_rationals(args["weights"]))
    except KeyError as exc:
        raise BadInput(f"{head} weight needs {exc.args[0]}=") from exc
    raise BadInput(f"unknown weight {head!r}")


class MomentFunctional:
    """Cache of normalized moments nu_n (nu_0 = 1) for one weight.

    The cache grows monotonically and recomputation is always exact, so the
    observable behaviour is pure and deterministic; share per task or create
    fresh instances freely.

    A classical weight solves its moment row for the top term, one step per
    moment.  An atomic weight reads the integer sums s_n of `_atomic_moments`,
    the routine the atomic Chebyshev algorithm reads too, and
    nu_n = s_n / (W d^n) is the only Fraction built.
    """

    def __init__(self, weight: WeightSpec):
        self.weight = weight
        self._cache: list[Fraction] = [_F1]
        self._row = (None if isinstance(weight, AtomicWeight)
                     else pearson_row(*_weight_pair(weight)[2:]))
        if self._row is None:
            self._point_den, self._den, self._sums = _atomic_moments(weight)
            next(self._sums)  # nu_0 = 1 is cached

    def moment(self, n: int) -> Fraction:
        if n < 0:
            raise BadInput("moment index must be non-negative")
        _check_index(n)
        while len(self._cache) <= n:
            self._cache.append(self._next(len(self._cache)))
        return self._cache[n]

    def _next(self, m: int) -> Fraction:
        if self._row is None:
            self._den *= self._point_den
            return Fraction(next(self._sums), self._den)
        *lower, (shift, a, b) = self._row
        n = m - shift
        # a Fraction start, so that Hermite's nu_1, with no lower term, is one
        total = sum(((c + d * n) * self._cache[n + e] for e, c, d in lower if n + e >= 0), _F0)
        return -total / (a + b * n)


def _atomic_moments(w: AtomicWeight):
    """The moments of an atomic weight on integers: (d, W, sums), where the
    n-th item s_n of the iterator sums gives nu_n = s_n / (W d^n).

    With points x_i and weights w_i, a_i = x_i d and W_i = w_i e are
    integers for the lcm d of the point denominators and e of the weight
    denominators, s_n = sum_i W_i a_i^n and W = sum_i W_i.  The running
    products W_i a_i^n advance by one integer product per point and moment.
    """
    d, points = clear_denominators(w.points)
    weights = clear_denominators(w.weights)[1]

    def sums():
        terms = weights
        while True:
            yield sum(terms)
            terms = [c * a for c, a in zip(terms, points)]

    return d, sum(weights), sums()


def _weight_pair(w: WeightSpec):
    """The Pearson pair (w, q, phi, psi) of a classical weight rho, in the
    shape of `opimage.pearson_pair`: (phi rho)' = psi rho, and w = phi / q.
    With a = A/q and b = B/q over one common denominator q > 0:

        Hermite   exp(-t^2)            phi = 1            psi = -2t
        Laguerre  t^a exp(-t)          phi = q t          psi = (A + q) - q t
        Jacobi    (1-t)^a (1+t)^b      phi = q (1 - t^2)  psi = (B - A) - (A + B + 2q) t

    Its moment row is `opimage.pearson_row` read on moments: the terms
    (a + b n) nu_(n+s) sum to zero for every n >= 0, because
    (phi rho t^n)' = (n phi t^(n-1) + psi t^n) rho and phi rho t^n vanishes
    at the ends of the support for a, b > -1.  The top factor is -2, -q,
    or -q(n + 2 + a + b) < 0, never zero.
    """
    if isinstance(w, HermiteWeight):
        return (1,), 1, (1,), (0, -2)
    if isinstance(w, LaguerreWeight):
        q, a = w.alpha.denominator, w.alpha.numerator
        return (0, 1), q, (0, q), (a + q, -q)
    q, (a, b) = clear_denominators((w.alpha, w.beta))
    return (1, 0, -1), q, (q, 0, -q), (b - a, -(a + b + 2 * q))


def _check_index(n: int) -> None:
    if n > MAX_MOMENT_INDEX:
        raise BadInput(f"moment index {n} is above the limit of {MAX_MOMENT_INDEX}")


def _functional(w: WeightSpec, f: Poly) -> tuple[int, int]:
    """The normalized integral L(f) of f against the weight as (num, den),
    integers with den != 0, built from no moment.

    Classical weights.  Each n >= 0 of the moment row gives a polynomial
    P_n = sum over its terms (s, a, b) of (a + b n) t^(n+s) with L(P_n) = 0,
    which leads at degree n + 1 (the top's s is 1) with a top factor that
    never vanishes.  Eliminating f's numerators top-down by these P_n
    (`opimage._solve_row`, the image elimination) leaves f = sum of
    multiples of the P_n + r_0 with a constant r_0, returned times the
    solve's scale, and L(1) = nu_0 = 1 gives L(f) = r_0.

    Atomic weights.  With points a_i / d and weights W_i / e over the lcms
    d and e of their denominators, L(f) = sum W_i f(a_i / d) / sum W_i, and
    d^deg f(a_i / d) den(f) = sum_k num_k d^(deg-k) a_i^k is integer Horner.
    """
    num = f.num
    if not num:
        return 0, 1
    if isinstance(w, AtomicWeight):
        d, points = clear_denominators(w.points)
        weights = clear_denominators(w.weights)[1]
        top_down, power = [], 1
        for c in reversed(num):
            top_down.append(c * power)
            power *= d
        total = 0
        for a, c in zip(points, weights):
            h = 0
            for x in top_down:
                h = h * a + x
            total += c * h
        return total, sum(weights) * d ** (len(num) - 1) * f.den
    _, r, scale = _solve_row(pearson_row(*_weight_pair(w)[2:]), num)
    return r[0], scale * f.den


def vb_member(w: WeightSpec, f: Poly) -> bool:
    """Is the normalized integral of f against the weight exactly zero?

    Reads L(f) by one elimination (`_functional`), with no moment built;
    a degree above MAX_MOMENT_INDEX is refused before any work.
    """
    if f.ring != QQ:
        raise BadInput("vanishing-integral test requires rational coefficients")
    _check_index(f.degree)
    return _functional(w, f)[0] == 0


def inner_product(w: WeightSpec, f: Poly, g: Poly) -> Fraction:
    """Moment-weighted pairing L(f g); conjugation is trivial over QQ.

    deg f + deg g above MAX_MOMENT_INDEX is refused before the product.
    """
    if f.ring != QQ or g.ring != QQ:
        raise BadInput("inner product requires rational coefficients")
    if f.is_zero or g.is_zero:
        return _F0
    _check_index(f.degree + g.degree)
    return Fraction(*_functional(w, f * g))


def orthopoly(w: WeightSpec, n: int) -> Poly:
    """Monic degree-n orthogonal polynomial of the weight w.

    Hermite, Laguerre and Jacobi weights run the recurrence of their
    differential equation (`_classical_orthopoly`), atomic weights the
    fraction-free Chebyshev algorithm on their moments
    (`_chebyshev_orthopoly`).  A classical degree whose output size estimate
    (`_output_bits`) passes MAX_ORTHOPOLY_BITS is refused with BadInput
    before any work.
    """
    if n < 0:
        raise BadInput("degree must be non-negative")
    if isinstance(w, AtomicWeight):
        return _chebyshev_orthopoly(w, n)
    row = _bochner_row(*_weight_pair(w)[2:], n)
    bits = _output_bits(n, row)
    if bits > MAX_ORTHOPOLY_BITS:
        raise BadInput(f"degree {n} for weight {w} would build coefficients of about {bits} "
                       f"bits, above the limit of {MAX_ORTHOPOLY_BITS}")
    return _classical_orthopoly(n, row)


def _bochner_row(phi, psi, n: int):
    """The coefficient recurrence of the classical p_n as one row of integer factors.

    p_n solves Bochner's equation phi y'' + psi y' + lam_n y = 0 with
    lam_n = -n((n-1) phi_2 + psi_1), deg phi <= 2 and deg psi <= 1, so its
    coefficients obey (n-k)(phi_2 (n+k-1) + psi_1) c_k =
    (k+1)(psi_0 + phi_1 k) c_(k+1) + phi_0 (k+2)(k+1) c_(k+2).  For
    e_k = c_k / C(n, k) the factor n - k cancels, because
    C(n, k+j) (k+1)...(k+j) = C(n, k) (n-k)...(n-k-j+1).  Returns
    (lead, rest): (a, b) and the terms (j, a, b) stand for a + b k in

        (a_lead + b_lead k) e_k = -sum over (j, a, b) of (a + b k) e_(k+j),

    lead (-(phi_2 (n-1) + psi_1), -phi_2), rest (1, psi_0, phi_1) and
    (2, phi_0 (n-1), -phi_0), zero terms dropped.  The classical leads 2, q
    and q(n+k+1) + A + B are positive for 0 <= k < n (n+k+1 >= 2 and
    a, b > -1), so every step divides by a nonzero integer.
    """
    p0, p1, p2 = phi + (0,) * (3 - len(phi))
    s0, s1 = psi + (0,) * (2 - len(psi))
    rest = ((1, s0, p1), (2, p0 * (n - 1), -p0))
    return (-(p2 * (n - 1) + s1), -p2), tuple([t for t in rest if t[1] or t[2]])


def _output_bits(n: int, row) -> int:
    """Estimated bit size of the largest integer `_classical_orthopoly`
    builds: n times the bit length of the largest factor in the row."""
    (a, b), rest = row
    largest = abs(a) + abs(b) * n
    for _, x, y in rest:
        largest = max(largest, abs(x) + abs(y) * n)
    return n * largest.bit_length()


def _classical_orthopoly(n: int, row) -> Poly:
    """Solve the row of `_bochner_row` with `linalg.solve_band` for the right-hand
    side lead(n) at n and 0 below, so e_n = 1, and read c_i = C(n, i) e_i.
    p_0 = 1 needs no solve (the Jacobi lead can vanish at k = n = 0)."""
    if not n:
        return Poly.from_ints([1])
    lead, rest = row
    e, _, scale = solve_band(lead, [0] * n + [lead[0] + lead[1] * n], rest)
    binom = 1
    for i in range(n):
        binom = binom * (n - i) // (i + 1)
        e[i + 1] *= binom
    return Poly.from_ints(e, scale)


def _chebyshev_orthopoly(w: WeightSpec, n: int) -> Poly:
    """Monic degree-n orthogonal polynomial of any weight by the fraction-free
    Chebyshev algorithm on its moments.

    L is the moment functional scaled to integer moments m_l, which leaves
    the monic orthogonal family unchanged.  An atomic weight reads them off
    the integer sums s_l of `_atomic_moments` as m_l = s_l d^(2n-1-l), that
    is W d^(2n-1) nu_l, with no Fraction; a classical weight clears the
    denominators of its `MomentFunctional` moments.  P_k is an integer
    polynomial proportional to p_k and S_k(l) = L(P_k t^l), with P_(-1) = 0,
    S_(-1) = 0, P_0 = 1 and S_0(l) = m_l.  For A = S_k(k), B = S_k(k+1),
    C = S_(k-1)(k-1) and E = S_(k-1)(k) (C = 1 and E = 0 at k = 0), the
    monic recurrence p_(k+1) = (t - a_k) p_k - b_k p_(k-1) multiplied by A C
    reads P_(k+1) = A C t P_k - (B C - A E) P_k - A^2 P_(k-1), and the row
    S_(k+1) follows the same recurrence.  Both are then divided by the
    content of P_(k+1); the division of the row is exact because L maps the
    integer polynomial P_(k+1) t^l / content to an integer.  p_n is
    P_n / lc(P_n).  A is the squared norm of p_k up to a nonzero factor, so
    a zero one for k < n is the singular Gram matrix that rules out a unique
    answer; without the check the step would return a polynomial of lower
    degree.
    """
    if isinstance(w, AtomicWeight):
        if n >= len(w.points):
            raise Degenerate("no orthogonal polynomial beyond the atomic point count")
        d, _, sums = _atomic_moments(w)
        row = list(islice(sums, 2 * n))
        if d != 1:
            power = 1
            for l in range(2 * n - 1, -1, -1):
                row[l] *= power
                power *= d
    else:
        mf = MomentFunctional(w)
        row = clear_denominators([mf.moment(l) for l in range(2 * n)])[1]
    # row k holds S_k(l) for l < 2n - k; entries l < k are zero by
    # orthogonality and are never read
    row_prev = [0] * (2 * n)
    p_prev: list[int] = []
    p = [1]
    c, e = 1, 0
    for k in range(n):
        a = row[k]
        if a == 0:
            raise Degenerate("Gram matrix is singular at this degree")
        b = row[k + 1]
        lead, shift, back = a * c, b * c - a * e, a * a
        p_next = [0] + [lead * x for x in p]
        for i, x in enumerate(p):
            p_next[i] -= shift * x
        for i, x in enumerate(p_prev):
            p_next[i] -= back * x
        content = gcd(*p_next)
        p_prev, p = p, [x // content for x in p_next]
        if k + 1 < n:
            row_prev, row = row, [
                (lead * row[l + 1] - shift * row[l] - back * row_prev[l]) // content
                if l > k else 0
                for l in range(2 * n - k - 1)
            ]
        c, e = a, b
    return Poly.from_ints(p, p[-1])


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
    """Decide Im(D) = ker L in every degree for a matched weight and operator.

    When 1 lies in the image, Im(D) is the whole ring and no agreement with
    the hyperplane ker L is claimed.  Otherwise D has the weight's Pearson
    pair (of the matched pairs only Laguerre alpha = 0 and Jacobi with a
    zero parameter differ, and 1 lies in their images), so Im(D) is spanned
    by the elements of the row `opimage.pearson_row`, which is also the
    weight's moment recurrence: L kills Im(D).  The row's top shift is 1 and
    no lead vanishes, so every f is D(h) + c for a constant c, and
    L(f) = L(c) = c.  Hence f lies in Im(D) exactly when L(f) = 0, in every
    degree, with no moment read; degrees_checked is deg_bound + 1 and there
    are no violations.
    """
    if deg_bound < 1:
        raise BadInput("degree bound must be at least 1")
    expected = matched_operator(w)
    if expected is None or expected != op:
        raise BadPair(f"weight {w} is not matched with operator {op}")
    if im_structure(op).one_in_image:
        return EquivalenceReport(True, 0, (), None)
    return EquivalenceReport(False, deg_bound + 1, (), True)
