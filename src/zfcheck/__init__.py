"""Machine checks for exchange algebras with a reflecting boundary.

The package realizes creation and annihilation operators whose exchange is
weighted by a concrete solution of the Yang-Baxter equation, builds the
vertex operator that intertwines them, dresses a reflection matrix into an
operator on the truncated Fock space, folds bulk into boundary generators,
and assembles the tower of conserved charges.  Every defining identity of
those objects is measured numerically; the test suites and the ``zfcheck``
command report the residuals.
"""

from .boundary import (
    BoundaryContext,
    boundary_relation_evaluators,
    rho_B_evaluators,
    rho_evaluator,
)
from .errors import (
    CapacityError,
    ConfigError,
    GridDomainError,
    GridValidationError,
    NotWhitelistedError,
    ReflectionTableError,
    ZfcheckError,
)
from .fock import (
    FockSpace,
    FockState,
    SpectralGrid,
    states_equal,
    zf_relation_evaluators,
)
from .harness import (
    CheckRecord,
    Report,
    RunConfig,
    __version__,
    emit_report,
    load_config,
    run_suites,
)
from .hierarchy import (
    apply_H,
    check_symmetry_breaking,
    eigenrelation_evaluator,
    flow_commute_evaluator,
    integral_of_motion_evaluator,
    odd_vanishing_evaluator,
)
from .rmatrix import (
    ReflectionMatrixSpec,
    Residual,
    RMatrixSpec,
    WhitelistReport,
    check_b_unitarity,
    check_reflection_equation,
    check_unitarity,
    check_yang_baxter,
    constant_diagonal_b,
    identity_b,
    load_table_b,
    phase_diagonal_b,
    rational_r,
    table_b,
    whitelist_reflection,
    worst_over,
)
from .vertex import (
    VertexContext,
    b_exchange_evaluators,
    b_involution_evaluator,
    rtt_evaluator,
    t_inverse_evaluator,
    t_relation_evaluators,
    t_vacuum_evaluator,
)

__all__ = [
    "BoundaryContext",
    "CapacityError",
    "CheckRecord",
    "ConfigError",
    "FockSpace",
    "FockState",
    "GridDomainError",
    "GridValidationError",
    "NotWhitelistedError",
    "ReflectionMatrixSpec",
    "ReflectionTableError",
    "Report",
    "Residual",
    "RMatrixSpec",
    "RunConfig",
    "SpectralGrid",
    "VertexContext",
    "WhitelistReport",
    "ZfcheckError",
    "apply_H",
    "b_exchange_evaluators",
    "b_involution_evaluator",
    "boundary_relation_evaluators",
    "check_b_unitarity",
    "check_reflection_equation",
    "check_symmetry_breaking",
    "check_unitarity",
    "check_yang_baxter",
    "constant_diagonal_b",
    "eigenrelation_evaluator",
    "emit_report",
    "flow_commute_evaluator",
    "identity_b",
    "integral_of_motion_evaluator",
    "load_config",
    "load_table_b",
    "odd_vanishing_evaluator",
    "phase_diagonal_b",
    "rational_r",
    "rho_B_evaluators",
    "rho_evaluator",
    "rtt_evaluator",
    "run_suites",
    "states_equal",
    "t_inverse_evaluator",
    "t_relation_evaluators",
    "t_vacuum_evaluator",
    "table_b",
    "whitelist_reflection",
    "worst_over",
    "zf_relation_evaluators",
]
