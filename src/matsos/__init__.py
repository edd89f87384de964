"""matsos: sums of squares of vector fields for symmetric matrix functions.

A constructive toolkit for decomposing nonnegative symmetric matrix-valued
functions into finite sums of squares of vector fields plus a residual
block with comparable eigenvalues, for verifying by sampling every
hypothesis the decomposition needs, and for reproducing the closed-form
certificates of the counterexamples that make those hypotheses sharp.
"""

__version__ = "0.1.0"

from .expr import (  # noqa: F401
    ONE,
    ScalarExpr,
    ZERO,
    add,
    bump,
    const,
    exp,
    flat,
    flatabs,
    from_dict,
    from_json,
    intpow,
    mul,
    recip,
    sqrt,
    to_dict,
    to_json,
    var,
)
from .jets import (  # noqa: F401
    Jet4,
    JetBatch,
    SingularDomainError,
    eval_jet,
    eval_jet_batch,
    eval_log_values,
    eval_values,
)
from .grids import Exclusion, GridSpec  # noqa: F401
from .monotone import (  # noqa: F401
    MonotoneSpec,
    holder_seminorm,
    omega_monotone_check,
    omega_value,
)
from .reporting import CheckReport, FAIL, INCONCLUSIVE, PASS  # noqa: F401
from .matfun import StructureTags, SymMatFun, blockdiag  # noqa: F401
from .decompose import (  # noqa: F401
    PivotError,
    ScalarSosBackend,
    SosResult,
    SquareDecomposition,
    assemble_vector_fields,
    default_delta_prime,
    iterated_sd,
    one_sd,
    residual_dyads,
    scalar_sos,
)
from .verify import (  # noqa: F401
    HypothesisRefusal,
    PipelineResult,
    decomposition_pipeline,
    diag_elliptic_check,
    quasiconformal_check,
    scalar_sos_hypothesis_check,
    strong_check,
    subordinate_check,
)
from .gallery import (  # noqa: F401
    FPhiPsiParams,
    GALLERY,
    NonSosCertificate,
    build_blocks,
    build_f_phi_psi,
    build_grushin_2x2,
    build_nondiag_noncomparable_2x2,
    build_q_lambda,
    build_q_lambda_dehomogenized,
    failure_condition_check,
    list_gallery,
    q_lambda_non_sos_certificate,
    q_lambda_positivity_certificate,
)
