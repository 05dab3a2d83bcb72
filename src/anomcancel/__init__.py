"""anomcancel: exact verification of anomaly cancellation identities.

A computer-algebra engine for the characteristic-form q-series of twisted
elliptic-genus bundles.  All cancellation identities are verified as literal
zeros in a truncated graded ring with exact rational arithmetic; the theta
and Eisenstein transformation laws are additionally checked numerically.
"""

from .algebra import (
    GradedPoly,
    QSeries,
    RingSpec,
    apply_series,
    ideal_reduce,
    one_root_ring,
    pontryagin_all,
    power_sums,
    symmetrise,
)
from .bundles import (
    Family,
    GeometrySpec,
    QFormId,
    Route,
    ch_spinor_pow,
    ch_theta_bundle,
    genus_form,
    p1_combo,
    q_form,
)
from .decomp import (
    BrBetarKind,
    Group,
    basis_combination,
    basis_series,
    closed_form_checks,
    decompose,
    extract_br_betar,
)
from .errors import DomainError, InvertError, SymmetryError, UsageError
from .theta import (
    ModularFormId,
    ThetaKind,
    jacobi_identity_check,
    modular_form,
    theta_eval,
    theta_ratio,
    transformation_residuals,
)
from .verifier import CaseId, CaseRequest, Report, default_grid, run_suite, verify_case

__version__ = "0.1.0"

__all__ = [
    "BrBetarKind", "CaseId", "CaseRequest", "DomainError",
    "Family", "GeometrySpec", "GradedPoly", "Group",
    "InvertError", "ModularFormId", "QFormId", "QSeries", "Report",
    "RingSpec", "Route", "SymmetryError", "ThetaKind",
    "UsageError", "apply_series", "basis_combination", "basis_series",
    "ch_spinor_pow", "ch_theta_bundle", "closed_form_checks", "decompose",
    "default_grid", "extract_br_betar", "genus_form", "ideal_reduce",
    "jacobi_identity_check", "modular_form", "one_root_ring", "p1_combo",
    "pontryagin_all", "power_sums", "q_form", "run_suite", "symmetrise",
    "theta_eval", "theta_ratio", "transformation_residuals", "verify_case",
]
