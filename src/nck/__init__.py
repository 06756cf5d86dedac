"""Numerical toolkit for noncommutative Khintchine-type inequalities.

Desk-scale, exact where possible: matrix-tuple norms and their infimal
convolution duals with duality-gap certificates, finite probability spaces
whose moments are exact, an explicit fermionic algebra with its weighted
reference state, the constructive lifting iteration achieving the sqrt(2)
and sqrt(3) norm bounds, and witnesses for the sharp constants.
"""

from .car import (
    CarElement,
    CarSystem,
    SubspaceModel,
    anticommutation_check,
    car_system,
    coefficient_functional,
    embed_tuple,
    extract_coefficients,
    fourth_moment_check,
    orthogonality_check,
    second_moment_check,
    state_eval,
    state_weight_check,
    subspace_to_weights,
)
from .constants import (
    CarC1Witness,
    ConstantReport,
    c2_witness_gaussian,
    car_c1_witness,
    car_c2_sequence,
    gaussian_c1_bound_sequence,
    random_search_ratio,
)
from .exceptions import (
    DegenerateWeight,
    DimensionMismatch,
    DTooLarge,
    IdentityViolation,
    InvalidParameter,
    NckError,
    NonFinite,
    NonHermitian,
    NonPositiveC,
    NonSquare,
    NormOverflow,
    NotOrthonormal,
    ParseError,
    SizeMismatch,
    SpaceTooLarge,
    StalledIteration,
    ZeroWitness,
)
from .lifting import (
    LiftReport,
    corrector_car,
    corrector_commutative,
    lift,
)
from .linalg import (
    psd_ge,
    trace_norm,
    truncate_offdiag,
)
from .norms import (
    DualNormResult,
    as_matrix_tuple,
    as_weights,
    dual_norm,
    pairing_certificate,
    triple_norm,
    weighted_triple_norm,
)
from .spaces import (
    DiscreteProbabilitySpace,
    RandomElement,
    conditional_expectation,
    element_from_tuple,
    gamma_ratio,
    gaussian_space,
    l1_s1_norm,
    lacunary_space,
    moment_identity_check,
    rademacher_space,
    steinhauss_space,
    sup_norm,
)
from .tupleio import load_tuple_file, save_tuple_file

__version__ = "0.1.0"
