"""Machine checks for exchange algebras with a reflecting boundary.

The package realizes creation and annihilation operators whose exchange is
weighted by a concrete solution of the Yang-Baxter equation, builds the
vertex operator that intertwines them, dresses a reflection matrix into an
operator on the truncated Fock space, folds bulk into boundary generators,
and assembles the tower of conserved charges.  Every defining identity of
those objects is measured numerically; the test suites and the ``zfcheck``
command report the residuals.
"""

from .boundary import BoundaryContext
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
from .hierarchy import apply_H, check_symmetry_breaking
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
from .vertex import VertexContext

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
    "check_b_unitarity",
    "check_reflection_equation",
    "check_symmetry_breaking",
    "check_unitarity",
    "check_yang_baxter",
    "constant_diagonal_b",
    "emit_report",
    "identity_b",
    "load_config",
    "load_table_b",
    "phase_diagonal_b",
    "rational_r",
    "run_suites",
    "states_equal",
    "table_b",
    "whitelist_reflection",
    "worst_over",
    "zf_relation_evaluators",
]
