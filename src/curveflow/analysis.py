"""Analytic reference solutions and study harnesses.

The circle is the workhorse benchmark: under curve shortening its radius
follows r(t) = sqrt(r0^2 - 2t) (extinction at r0^2/2), under the
area-preserving law it is stationary.  The study harnesses run the bundled
reference evolutions and the refinement sweeps used to measure the
solver's spatial and temporal convergence orders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy.integrate import solve_ivp

from .flows import FlowLaw, FlowModel
from .geometry import (
    CurveState,
    build_circle,
    build_radial_curve,
    discrete_curvature,
    read_polyline,
)
from .stepping import SolverConfig, Trajectory, evolve

#: Radius below which the constant-force ODE integration counts as extinct
#: (remaining lifetime from here is ~ r^2/2, far below any tolerance used).
_RADIUS_FLOOR = 1e-6


@dataclass(frozen=True)
class CircleOracle:
    """Closed-form evolution of a circle of radius ``initial_radius``."""

    initial_radius: float
    model: FlowModel

    def __post_init__(self):
        if not (np.isfinite(self.initial_radius) and self.initial_radius > 0):
            raise ValueError("initial_radius must be positive")

    def extinction_time(self) -> float | None:
        """Time at which the circle vanishes, or None if it never does."""
        r0 = self.initial_radius
        law = self.model.law
        if law is FlowLaw.AREA_PRESERVING:
            return None
        f0 = self.model.force
        if f0 == 0.0:
            return 0.5 * r0 * r0
        if f0 * r0 >= 1.0:
            return None  # stationary at r0 = 1/f0, growing beyond
        # closed form of int_0^{r0} r/(1 - f0*r) dr
        return -(np.log1p(-f0 * r0) + f0 * r0) / (f0 * f0)


def circle_radius(oracle: CircleOracle, t: float) -> float | None:
    """Radius of the oracle circle at time t, or None once extinct.

    Curve shortening uses the closed form sqrt(r0^2 - 2t); the
    area-preserving circle is stationary; a nonzero constant force
    integrates dr/dt = F0 - 1/r with a high-accuracy ODE solver.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be >= 0")
    r0 = oracle.initial_radius
    law = oracle.model.law
    if law is FlowLaw.AREA_PRESERVING:
        return r0
    f0 = oracle.model.force
    if f0 == 0.0:
        r_squared = r0 * r0 - 2.0 * t
        return float(np.sqrt(r_squared)) if r_squared > 0.0 else None
    if t == 0.0:
        return r0

    # integrate u = r^2: du/dt = 2*(F*sqrt(u) - 1) stays finite through
    # extinction, where dr/dt = F - 1/r blows up
    def rate(_t, u):
        return 2.0 * (f0 * np.sqrt(max(u[0], 0.0)) - 1.0)

    def vanished(_t, u):
        return u[0] - _RADIUS_FLOOR**2

    vanished.terminal = True
    result = solve_ivp(
        rate, (0.0, t), [r0 * r0], method="DOP853", rtol=1e-12, atol=1e-14,
        events=vanished,
    )
    if result.t_events[0].size > 0:
        return None
    if not result.success:
        raise RuntimeError(f"circle oracle integration failed: {result.message}")
    return float(np.sqrt(max(result.y[0, -1], 0.0)))


@dataclass
class StudyRecord:
    """Outcome of one evolution run, with the scalars the studies report on."""

    name: str
    node_count: int
    tau: float
    t_final: float
    status: str
    initial_area: float
    final_area: float
    area_drift: float
    final_isoperimetric_ratio: float
    extinction_time: float | None
    max_uniformity_ratio: float
    elapsed_seconds: float
    trajectory: Trajectory = field(repr=False)


@dataclass
class StudyReport:
    records: list[StudyRecord]
    fitted_orders: dict[str, float] = field(default_factory=dict)
    error_tables: dict[str, list[tuple[float, float]]] = field(default_factory=dict)


def nonconvex_fixture() -> CurveState:
    """The bundled 200-point nonconvex star-shaped test polyline."""
    source = resources.files("curveflow") / "data" / "nonconvex_blob.txt"
    with resources.as_file(source) as path:
        return read_polyline(path)


def _run_study(name: str, curve: CurveState, config: SolverConfig) -> StudyRecord:
    started = time.perf_counter()
    trajectory = evolve(curve, config)
    elapsed = time.perf_counter() - started
    rows = trajectory.diagnostics
    return StudyRecord(
        name=name,
        node_count=curve.node_count,
        tau=config.tau,
        t_final=config.t_final,
        status=trajectory.status.value,
        initial_area=rows[0].area,
        final_area=rows[-1].area,
        area_drift=abs(rows[-1].area - rows[0].area) / abs(rows[0].area),
        final_isoperimetric_ratio=rows[-1].isoperimetric_ratio,
        extinction_time=trajectory.extinction_time,
        max_uniformity_ratio=max(row.uniformity_ratio for row in rows),
        elapsed_seconds=elapsed,
        trajectory=trajectory,
    )


def run_reference_studies(node_count: int = 200, tau: float = 1e-4) -> StudyReport:
    """Run the four bundled studies and report their conservation scalars.

    Three radial initial curves (a shrinking 4-fold star under curve
    shortening, run until its extinction; 5-fold and 10-fold stars under
    the conserved flow over [0, 0.5]) plus the nonconvex polyline fixture
    under the conserved flow over [0, 1.25].  A failed run is recorded,
    with its error in ``trajectory.error``, instead of aborting the report.
    """
    csf = FlowModel.curve_shortening()
    conserved = FlowModel.area_preserving()
    studies = [
        ("shrinking-4fold", build_radial_curve(4, 0.4, node_count),
         SolverConfig(csf, t_final=0.6, tau=tau)),
        ("conserved-5fold", build_radial_curve(5, 0.65, node_count),
         SolverConfig(conserved, t_final=0.5, tau=tau)),
        ("conserved-10fold", build_radial_curve(10, 0.45, node_count),
         SolverConfig(conserved, t_final=0.5, tau=tau)),
        ("conserved-polyline", nonconvex_fixture(),
         SolverConfig(conserved, t_final=1.25, tau=tau)),
    ]
    return StudyReport(records=[_run_study(*study) for study in studies])


def _fit_order(x: list[float], err: list[float]) -> float:
    """Least-squares slope of log(err) against log(x)."""
    slope = np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(err)), 1)[0]
    return float(slope)


def convergence_study(
    base_node_count: int = 50, base_tau: float = 4e-5, levels: int = 3
) -> StudyReport:
    """Refinement sweeps on the unit circle.

    Spatial: discrete curvature error max|kappa - 1| over node counts
    base_node_count * 2^k.  Temporal: extinction-time error |t* - 0.5| of
    the shrinking 200-gon over time steps base_tau / 2^k.  Fitted log-log
    orders land in ``fitted_orders``; raw errors in ``error_tables``.
    """
    if levels < 3:
        raise ValueError("levels >= 3")
    if base_tau >= 0.5:
        raise ValueError("coarsest run is already at extinction (base_tau >= 0.5)")

    node_counts = [base_node_count * 2**k for k in range(levels)]
    curvature_errors = []
    for m in node_counts:
        kappa = discrete_curvature(build_circle(1.0, m))
        curvature_errors.append((float(m), float(np.max(np.abs(kappa - 1.0)))))

    csf = FlowModel.curve_shortening()
    records = []
    extinction_errors = []
    for k in range(levels):
        tau = base_tau / 2**k
        config = SolverConfig(csf, t_final=1.0, tau=tau, snapshot_every=2000)
        record = _run_study(f"circle-extinction-tau-{tau:g}", build_circle(1.0, 200), config)
        records.append(record)
        if record.extinction_time is not None:
            extinction_errors.append((tau, abs(record.extinction_time - 0.5)))

    fitted = {
        "curvature_vs_node_count": -_fit_order(*zip(*curvature_errors)),
    }
    if len(extinction_errors) >= 2:
        fitted["extinction_time_vs_tau"] = _fit_order(*zip(*extinction_errors))
    return StudyReport(
        records=records,
        fitted_orders=fitted,
        error_tables={
            "curvature_error_vs_nodes": curvature_errors,
            "extinction_time_error_vs_tau": extinction_errors,
        },
    )
