"""Boundary-supported measures on poly-discs and the variance structure of
complex functions with a first-order pole at the origin.

The package pairs an exact symbolic oracle (Laurent polynomials over rational
complex coefficients) with a numerical torus-quadrature engine, and checks
each against the other: measure algebra on disc slices, residue/derivative
extraction, the two-term variance decomposition with its uncertainty floor,
the optimal observation scale, and the tensor transformation laws under
holomorphic coordinate changes.
"""

from .analysis import (
    Degenerate,
    DetectabilityReport,
    LensSweep,
    detectability_check,
    empirical_optimal_scale,
    geometric_grid,
    optimal_scale,
    variance_sweep,
)
from .errors import (
    AdmissibilityViolation,
    AliasingRisk,
    DimensionMismatch,
    DivisionNearZero,
    ExpansionTooLarge,
    GridTooLarge,
    InconsistentScales,
    LensError,
    MixedPoleTerm,
    NonConvergent,
    NotDiagonalDominant,
    NotFixingOrigin,
    NotLaurent,
    NotPolynomial,
    ParseError,
    PoleOnTorus,
    ScaleMismatch,
    SingularJacobian,
    UnknownVariable,
    VanishesOnTorus,
)
from .expr import MeroExpr, parse, to_laurent, to_text
from .laurent import (
    ComplexRational,
    Decomposition,
    LaurentPoly,
    component_norm_sq,
    decompose,
    exterior_integral,
    inner_product_exact,
    matrix_to_complex,
    trace_norm_sq_exact,
    variance_exact,
    variance_model,
    variance_model_exact,
)
from .morphs import (
    Morph,
    TransformReport,
    compose,
    morph_validate,
    pole_feedthrough,
    pullback,
    verify_transform,
)
from .quadrature import (
    GridFunction,
    SpectralSummary,
    TorusGrid,
    expectation_numeric,
    first_order_summary,
    inner_product_numeric,
    laurent_coefficient,
    sample_torus,
    spectral_summary,
)
from .slices import (
    AngularInterval,
    FULL_CIRCLE,
    Slice,
    SliceSet,
    arc_integral_check,
    parse_interval,
    product_measure,
    slice_intersect,
    slice_measure,
    slice_subtract,
)

__version__ = "0.1.0"
