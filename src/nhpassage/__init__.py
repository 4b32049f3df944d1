"""nhpassage: universal nonadiabatic passages for non-Hermitian generators.

A small numpy library that (i) propagates the paired ket/bra Schrodinger
equations of finite-dimensional systems under time-dependent non-Hermitian
generators, (ii) synthesizes drive envelopes that triangularize the
generator in a moving orthonormal frame, which turns one frame vector into
an exact passage in each of the ket and bra spaces, and (iii) reproduces
the built-in two-level perfect transfers and three-level cyclic transfers,
with residual certificates, CSV/SVG export, and a CLI.
"""

from .dynamics import (
    StateTrajectory,
    TimeDependentOperator,
    TimeGrid,
    biorthogonality_defect,
    constant_operator,
    dyson_truncation,
    evolve_bra,
    evolve_ket,
    propagator_ket,
)
from .exceptions import (
    ConfigError,
    DimensionMismatchError,
    GridError,
    InvalidArgumentError,
    NonFiniteSampleError,
    NonHermitianError,
    PassageError,
    PhaseConsistencyError,
    SingularDenominatorError,
    StepSizeError,
)
from .exports import export_csv, export_svg
from .frames import (
    AncillaryFrame,
    ThreeLevelFrameParams,
    TwoLevelFrameParams,
    three_level_frame,
    triangularization_residual,
    two_level_frame,
    von_neumann_residual,
)
from .scenarios import (
    CheckResult,
    RunReport,
    ScenarioConfig,
    run_cyclic,
    run_scenario,
    run_two_level,
    verify,
)
from .synthesis import (
    PhaseFunctional,
    ThreeLevelControls,
    TwoLevelControls,
    bra_phase_relation_check,
    phase_three_level,
    phase_two_level,
    synthesize_three_level,
    synthesize_two_level,
    three_level_consistency_residual,
    three_level_hamiltonian,
    two_level_consistency_residual,
    two_level_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [
    "AncillaryFrame",
    "CheckResult",
    "ConfigError",
    "DimensionMismatchError",
    "GridError",
    "InvalidArgumentError",
    "NonFiniteSampleError",
    "NonHermitianError",
    "PassageError",
    "PhaseConsistencyError",
    "PhaseFunctional",
    "RunReport",
    "ScenarioConfig",
    "SingularDenominatorError",
    "StateTrajectory",
    "StepSizeError",
    "ThreeLevelControls",
    "ThreeLevelFrameParams",
    "TimeDependentOperator",
    "TimeGrid",
    "TwoLevelControls",
    "TwoLevelFrameParams",
    "biorthogonality_defect",
    "bra_phase_relation_check",
    "constant_operator",
    "dyson_truncation",
    "evolve_bra",
    "evolve_ket",
    "export_csv",
    "export_svg",
    "phase_three_level",
    "phase_two_level",
    "propagator_ket",
    "run_cyclic",
    "run_scenario",
    "run_two_level",
    "synthesize_three_level",
    "synthesize_two_level",
    "three_level_consistency_residual",
    "three_level_frame",
    "three_level_hamiltonian",
    "triangularization_residual",
    "two_level_consistency_residual",
    "two_level_frame",
    "two_level_hamiltonian",
    "verify",
    "von_neumann_residual",
]
