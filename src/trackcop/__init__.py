"""trackcop: copulas with a prescribed diagonal or track section.

Construct every undominated copula matching a given track section, compute
the extremal mass-function bounds, verify copula and quasi-copula axioms on
grids, compare constructions pointwise, extract dominating envelopes, and
splice constructions into quasi-copulas.
"""

from .errors import (
    BadMesh,
    BadTolerance,
    DiagonalConditionViolated,
    EndpointViolation,
    IneligibleExtractedPsi,
    IneligiblePsi,
    MalformedKnots,
    MeshMismatch,
    NoCopulaExists,
    NotACopula,
    NotStrictlyIncreasing,
    OutOfDomain,
    PsiNotAnchored,
    SpecMismatch,
    TrackcopError,
    TrackSectionMismatch,
)
from .funcspace import (
    PLFunction,
    eval_pl,
    make_pl,
    merge_knots,
)
from .trackmodel import (
    DiagonalSpec,
    ExistenceResult,
    Track,
    diagonal_conditions,
    existence_check,
    identity_track,
    make_diagonal,
    make_track,
)
from .canonical import (
    PsiBounds,
    PsiCandidate,
    blend,
    eligibility_by_variation,
    psi_bounds,
    quadruplet,
)
from .construction import (
    CopulaCpsi,
    GridCopula,
    c_psi_value,
    materialize_grid,
    region_functions,
    s_t_split,
)
from .verification import (
    ComparisonResult,
    VerificationReport,
    check_grid,
    compare,
    dominating_envelope,
    extract_psi,
    pointwise_upper_bound,
)
from .splice import SplicedFunction, make_splice, splice_grid

__version__ = "0.1.0"
