"""clifflab: exact-arithmetic even Clifford structures, curvature models,
and classification tables."""

__version__ = "0.1.0"

from .blades import (
    AlgebraSignature,
    CliffordElement,
    SignedBlade,
    blade_product,
    geometric_product,
    hodge_dual_vector,
    lambda2_embed,
    volume_element,
    volume_square_sign,
)
from .curvature import (
    CurvatureOperator,
    ModelSpace,
    build_model,
    centralizer_dim,
    isotropy_projection_op,
    lambda2_spectrum,
    verify_cc_normalization,
    verify_parallel_identities,
    verify_spectrum,
)
from .reps import (
    JFamily,
    MatrixRep,
    build_clifford_rep,
    build_even_rep,
    evaluate,
    j_family,
    n0,
    n_irr,
    triality_map,
)
from .structure import (
    EvenCliffordStructure,
    ExtensionRejected,
    VerificationReport,
    extend_hodge,
    split_rank4,
    universal_extension,
    verify_hodge,
    verify_orthogonality,
    verify_relations,
    verify_universality,
    volume_endomorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
