"""Evolution of closed plane curves by curve-shortening and conserved curvature flow.

The curve is tracked as a closed polygon of moving nodes (a flowing
finite-volume discretization); time stepping is semi-implicit backward
Euler with one cyclic tridiagonal solve per step.  Diagnostics verify that
the conserved flow preserves the enclosed area while the curve approaches
a circle.
"""

from .errors import ConfigError, CurveFlowError, DegenerateSegmentError, LinearSolverError
from .flows import FlowLaw, FlowModel, forcing_value, nonlocal_force
from .geometry import (
    CurveState,
    build_circle,
    build_radial_curve,
    discrete_curvature,
    read_polyline,
    segment_lengths,
    write_polyline,
)
from .analysis import CircleOracle, circle_radius, convergence_study, run_reference_studies
from .stepping import (
    DiagnosticsRow,
    SolverConfig,
    Trajectory,
    TrajectoryStatus,
    evolve,
    solve_cyclic_tridiagonal,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "CircleOracle",
    "ConfigError",
    "CurveFlowError",
    "CurveState",
    "DegenerateSegmentError",
    "DiagnosticsRow",
    "FlowLaw",
    "FlowModel",
    "LinearSolverError",
    "SolverConfig",
    "Trajectory",
    "TrajectoryStatus",
    "build_circle",
    "build_radial_curve",
    "circle_radius",
    "convergence_study",
    "discrete_curvature",
    "evolve",
    "forcing_value",
    "nonlocal_force",
    "read_polyline",
    "run_reference_studies",
    "segment_lengths",
    "solve_cyclic_tridiagonal",
    "step",
    "write_polyline",
]
