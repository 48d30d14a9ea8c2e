"""Analytic reference solutions and study harnesses.

The circle is the workhorse benchmark: under curve shortening its radius
follows r(t) = sqrt(r0^2 - 2t) (extinction at r0^2/2), under the
area-preserving law it is stationary.  The study harnesses run the bundled
reference evolutions and the temporal refinement study that measures the
solver's order in tau.  Both share one end rule: a study of a shrinking
law must go extinct, and one that completes raises CurveFlowError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import CurveFlowError
from .flows import FlowLaw, FlowModel
from .geometry import (
    CurveState,
    _count,
    _real,
    build_circle,
    build_radial_curve,
    read_polyline,
)
from .stepping import SolverConfig, Trajectory, TrajectoryStatus, evolve


def _scaled_g(x: float) -> float:
    """G(x) / x^2 for G(x) = -(log|1-x| + x) = sum_{k>=2} x^k/k, by series at |x| < 1/2."""
    if abs(x) >= 0.5:
        return -((np.log1p(-x) if x < 1.0 else np.log(x - 1.0)) + x) / (x * x)
    total, power, k = 0.5, 1.0, 2
    while abs(power) > 1e-17:
        power *= x
        k += 1
        total += power / k
    return total


@dataclass(frozen=True)
class CircleOracle:
    """Closed-form evolution of a circle of radius ``initial_radius``."""

    initial_radius: float
    model: FlowModel

    def __post_init__(self):
        radius = _real(self.initial_radius, "initial_radius must be positive", lambda r: r > 0)
        object.__setattr__(self, "initial_radius", radius)

    def extinction_time(self) -> float | None:
        """Time at which the circle vanishes, or None if it never does."""
        r0 = self.initial_radius
        law = self.model.law
        if law is FlowLaw.AREA_PRESERVING:
            return None
        f0 = self.model.force
        if f0 * r0 >= 1.0:
            return None  # stationary at r0 = 1/f0, growing beyond
        # closed form of int_0^{r0} r/(1 - f0*r) dr
        return r0 * r0 * _scaled_g(f0 * r0)


def circle_radius(oracle: CircleOracle, t: float) -> float | None:
    """Radius of the oracle circle at time t, or None once extinct.

    Curve shortening uses the closed form sqrt(r0^2 - 2t); the
    area-preserving circle is stationary; a nonzero constant force F
    inverts the exact elapsed time of dr/dt = F - 1/r by bisection.
    """
    t = _real(t, "t must be >= 0", lambda t: t >= 0)
    r0 = oracle.initial_radius
    law = oracle.model.law
    if law is FlowLaw.AREA_PRESERVING:
        return r0
    f0 = oracle.model.force
    if f0 == 0.0:
        r_squared = r0 * r0 - 2.0 * t
        return float(np.sqrt(r_squared)) if r_squared > 0.0 else None
    if (t_extinct := oracle.extinction_time()) is not None and t >= t_extinct:
        return None
    if t == 0.0 or f0 * r0 == 1.0:
        return r0
    # t(r) = r0^2 g(F r0) - r^2 g(F r) is monotone on r0's side of 1/F;
    # t(near) <= t < t(far), and dr/dt < F bounds a growing circle
    scaled_r0 = r0 * r0 * _scaled_g(f0 * r0)
    near, far = r0, (0.0 if f0 * r0 < 1.0 else r0 + f0 * t)
    while (mid := 0.5 * (near + far)) not in (near, far):
        if scaled_r0 - mid * mid * _scaled_g(f0 * mid) <= t:
            near = mid
        else:
            far = mid
    return float(near)


@dataclass
class StudyRecord:
    """Outcome of one evolution run, with the scalars the studies report on."""

    name: str
    config: SolverConfig
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
    """Run one study and record it, aborted or not.  Every bundled study of a
    shrinking law is run past its extinction, so one that completes raises."""
    started = time.perf_counter()
    trajectory = evolve(curve, config)
    elapsed = time.perf_counter() - started
    if (config.model.law is not FlowLaw.AREA_PRESERVING
            and trajectory.status is TrajectoryStatus.COMPLETED):
        raise CurveFlowError(f"{name} ended completed, not extinct, at t={trajectory.final_time:g}")
    rows = trajectory.diagnostics
    return StudyRecord(
        name=name,
        config=config,
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
    under the conserved flow over [0, 1.25].  An aborted run is recorded,
    with its error in ``trajectory.error``; a shrinking study that ends
    completed, not extinct, raises CurveFlowError (``_run_study``).
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


def convergence_study(base_tau: float = 4e-5, levels: int = 3) -> StudyReport:
    """Temporal refinement study: the regular unit 200-gon under curve
    shortening at tau = base_tau / 2^k, k < levels, each level's error its
    extinction time against ``CircleOracle``'s 1/2.  An aborted level is
    recorded and left out of the fit; one that ends completed raises
    CurveFlowError (``_run_study``).  The fitted log-log order lands in
    ``fitted_orders``, the raw errors in ``error_tables``.
    """
    base_tau = _real(base_tau, "base_tau in (0, 0.5); at 0.5 the coarsest run is already at"
                     " extinction", lambda tau: 0 < tau < 0.5)
    levels = _count(levels, 3, "levels >= 3")

    csf = FlowModel.curve_shortening()
    exact = CircleOracle(1.0, csf).extinction_time()
    records = []
    extinction_errors = []
    for k in range(levels):
        tau = base_tau / 2**k
        config = SolverConfig(csf, t_final=1.0, tau=tau, snapshot_every=2000)
        record = _run_study(f"circle-extinction-tau-{tau:g}", build_circle(1.0, 200), config)
        records.append(record)
        if record.extinction_time is not None:
            extinction_errors.append((tau, abs(record.extinction_time - exact)))

    fitted = {}
    if len(extinction_errors) >= 2:
        fitted["extinction_time_vs_tau"] = _fit_order(*zip(*extinction_errors))
    return StudyReport(
        records=records,
        fitted_orders=fitted,
        error_tables={"extinction_time_error_vs_tau": extinction_errors},
    )
