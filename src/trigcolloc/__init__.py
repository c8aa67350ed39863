"""Trigonometric collocation integrators for q'' + M q = f(t, q).

The package builds collocation methods on a Lagrange basis whose
coefficients are trigonometric integrals of the basis polynomials.
For linear problems (f = 0) the integrators are exact; for oscillatory
nonlinear problems they keep the linear part exact and iterate only on
the slow force.

The names below are the user API.  Kernels and building blocks (weight
kernels, phi-function pairs, basis evaluation, the single-step map)
stay importable from their modules.
"""

from .coeffs import CoefficientTable, build_table
from .errors import (
    AsymmetricMatrixError,
    IndefiniteMatrixError,
    InvalidNodesError,
    OracleUnreliableError,
    OutsidePeriodicityError,
    SeriesConvergenceError,
    SingularStageSystemError,
    StageIterationError,
    TrigCollocError,
)
from .integrator import (
    OscillatoryIVP,
    SolverConfig,
    Trajectory,
    reference_solve,
    solve,
)
from .lagrange import NodeSet, build_node_set, gauss2, gauss_nodes
from .problems import PROBLEMS, ProblemSpec, build_problem
from .stability import (
    StabilityMatrix,
    dispersion_dissipation,
    scan_region,
    stability_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricMatrixError",
    "CoefficientTable",
    "IndefiniteMatrixError",
    "InvalidNodesError",
    "NodeSet",
    "OracleUnreliableError",
    "OscillatoryIVP",
    "OutsidePeriodicityError",
    "PROBLEMS",
    "ProblemSpec",
    "SeriesConvergenceError",
    "SingularStageSystemError",
    "SolverConfig",
    "StabilityMatrix",
    "StageIterationError",
    "Trajectory",
    "TrigCollocError",
    "build_node_set",
    "build_problem",
    "build_table",
    "dispersion_dissipation",
    "gauss2",
    "gauss_nodes",
    "reference_solve",
    "scan_region",
    "solve",
    "stability_matrix",
]
