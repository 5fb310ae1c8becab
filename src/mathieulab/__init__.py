"""Exact computer algebra around Mathieu subspaces of QQ[t].

Subpackages: corealg (rationals, rings, polynomials), opimage (operator
image membership), radlab (radicals and the Mathieu verdict engine),
certlab (non-membership certificates), momlab (moment functionals and
orthogonal polynomials), ufdlab (coefficient-ring operators), cli.
"""

from .corealg import (
    Poly,
    QQ,
    QQ_POLY,
    Ring,
    RingElement,
    euclid_divmod,
    exact_divide,
    format_poly,
    parse_poly,
    qq_poly,
    qq_poly_trunc,
    squarefree_part,
)
from .opimage import (
    ImStructure,
    JacobiOperator,
    MonomialOperator,
    OperatorSpec,
    ReductionResult,
    apply_operator,
    hermite_operator,
    im_structure,
    laguerre_operator,
    lzero,
    member,
    parse_operator,
    reduce,
)
from .radlab import (
    CofiniteSubspace,
    MathieuVerdict,
    atomic_space,
    definition_witness,
    escape_exponent,
    largest_ideal,
    mathieu_check,
    radical_member_cofinite,
    radical_probe,
)
from .certlab import (
    Certificate,
    b_products,
    bracket_factorial,
    certificate_nonmembership,
    is_prime,
    phi_expansion,
    verify_certificate,
)
from .momlab import (
    AtomicWeight,
    HermiteWeight,
    JacobiWeight,
    LaguerreWeight,
    MomentFunctional,
    WeightSpec,
    equivalence_check,
    inner_product,
    orthopoly,
    parse_weight,
    vb_member,
)
from .ufdlab import (
    UfdContext,
    absorption_bound,
    factorial_map,
    gcd_lift,
    member_ufd,
    member_via_factorial,
    radical_via_coefficients,
    surjectivity_check,
)

__version__ = "0.1.0"
