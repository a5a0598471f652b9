"""Bulk-surface Cahn-Hilliard-Oono dynamics with adjoint-based control."""

from .adjoint import (
    AdjointTrajectory,
    adjoint_solve,
    reduced_gradient,
)
from .control import (
    BoxBounds,
    ControlPair,
    ControlProblem,
    CostSpec,
    OptimizerOptions,
    cost,
    project_box,
    projected_gradient,
    validate_Uad,
    vi_residual,
)
from .errors import (
    ChoError,
    ConfigError,
    PotentialDomainError,
    SolverError,
    ValidationError,
)
from .forward import (
    Physics,
    Problem,
    SolverOptions,
    StateTrajectory,
    TimeGrid,
    energy,
    exact_mean,
    mean_ode_residual,
    solve,
)
from .mesh import BulkSurfaceMesh, build_interval, build_rectangle, trace
from .potentials import (
    PotentialPair,
    PotentialSpec,
    custom_potential,
    logarithmic_potential,
    regular_potential,
    separation_r0,
)
from .sensitivity import LinearizedTrajectory, linearized_solve
from .spaces import CoupledOperators, PairField, assemble

__version__ = "0.1.0"
