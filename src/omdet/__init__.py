"""Exact toolkit for oriented-matroid covector sets and their determinants.

The package validates covector sets against the four oriented-matroid
axioms, builds topal fibers, computes the tope distance matrix and its
exact determinant (fraction-free elimination over integer polynomials),
compares it with the closed factored product over the fiber's faces, and
generates covector sets from rational hyperplane arrangements or from
pseudoline wiring diagrams.
"""

from .polyring import (
    ExactDivisionError,
    ExponentOverflowError,
    FactoredPoly,
    IntPolynomial,
    Specialization,
    factored_str,
    poly_str,
    var_index,
    var_label,
)
from .signvec import (
    AxiomReport,
    CovectorSet,
    FiberError,
    FiberView,
    SignVector,
    check_covector_axioms,
    compose,
    fiber_of,
    format_cov,
    leq,
    loops,
    multiplicity,
    negate,
    parse_cov,
    separation,
    topal_fiber,
    topes,
    validate_fiber,
    weight_exponents,
)
from .varchenko import (
    SizeGuardError,
    VarchenkoMatrix,
    VerificationReport,
    build_matrix,
    determinant,
    face_multiplicities,
    product_formula,
    verify,
    weight_monomial,
)
from .realizable import (
    RationalArrangement,
    arrangement_fiber,
    enumerate_covectors,
    homogenize,
    sign_feasible,
)
from .wiring import FaceCensus, WiringDiagram, face_census, faces, non_pappus, validate

__version__ = "0.1.0"
