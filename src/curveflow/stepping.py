"""Semi-implicit time stepping of the flowing-finite-volume curve system.

One step solves, for every node i with periodic wraparound,

    (X_i^{n+1} - X_i^n)/tau
        = 2/(d_i+d_{i+1}) * ( (X_{i+1}^{n+1}-X_i^{n+1})/d_{i+1}
                             - (X_i^{n+1}-X_{i-1}^{n+1})/d_i )
          + F^n * (X^perp_{i+1} - X^perp_{i-1})^n / (d_i+d_{i+1})
          + alpha_i^n * (X_{i+1}^{n+1} - X_{i-1}^{n+1}) / (d_i+d_{i+1}),

with the segment lengths d_i, the forcing F, the normal term and the
tangential speed alpha all lagged at time n.  A step runs ``_velocity`` (F and
alpha), ``_bands`` (the M x M cyclic tridiagonal matrix of both coordinates),
``solve_cyclic_tridiagonal`` (one banded solve) and ``CurveState``, in order.

The tangential term alpha_i*T_i, T_i = (X_{i+1} - X_{i-1})/(d_i+d_{i+1}),
redistributes the nodes along the curve without changing its shape or its
area rate (T_i is orthogonal to the area gradient).  alpha is chosen, as in
the flowing finite volumes of Mikula & Sevcovic (SIAM J. Appl. Math. 61,
2001), so that the rate of every d_i/L from the normal motion is cancelled
and the spacing relaxes toward uniform:

    alpha_i - alpha_{i-1} = d_i*sum_j r_j/L - r_i + omega*(L/M - d_i),

where r_i = (V_i - V_{i-1}) . (X_i - X_{i-1})/d_i is the rate of d_i under
the normal velocity V_i = k_i + F*N_i, omega = sum_j kappa_j^2 (d_j+d_{j+1})/2
/ L is the scale-free relaxation rate, and alpha has zero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_banded

from .errors import DegenerateSegmentError, LinearSolverError
from .flows import FlowModel, forcing_value
from .geometry import EPSILON_GEOM, CurveState, _NodeGeometry, _is_count, _is_real, _state_geometry
from .geometry import discrete_curvature, segment_lengths  # noqa: F401 (benchmarks/tracer.py)

FloatArray = NDArray[np.float64]

#: A run is flagged extinct when the total length falls below this, 100
#: times the degeneracy threshold, or when every segment falls below that.
EXTINCTION_LENGTH = 100.0 * EPSILON_GEOM


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepper parameters; ``model`` picks the normal-velocity law.

    A ValueError names the violated field first, e.g. ``tau > 0``.
    """

    model: FlowModel
    t_final: float
    tau: float = 1e-4
    snapshot_every: int = 100

    def __post_init__(self):
        if not (_is_real(self.tau) and self.tau > 0):
            raise ValueError("tau > 0")
        if not (_is_real(self.t_final) and self.t_final >= 0):
            raise ValueError("t_final >= 0")
        if not math.isfinite(self.t_final / self.tau):
            raise ValueError("tau too small: t_final / tau overflows")
        if not _is_count(self.snapshot_every, 1):
            raise ValueError("snapshot_every >= 1")


class DiagnosticsRow(NamedTuple):
    t: float
    length: float
    area: float
    forcing: float
    isoperimetric_ratio: float
    uniformity_ratio: float
    min_segment: float


class TrajectoryStatus(Enum):
    COMPLETED = "completed"
    EXTINCT = "extinct"
    ABORTED = "aborted"


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-recorded-step scalar diagnostics; a
    run that streamed them through ``evolve``'s ``on_record`` keeps its last."""

    snapshots: list[tuple[float, CurveState]]
    diagnostics: list[DiagnosticsRow]
    status: TrajectoryStatus = TrajectoryStatus.COMPLETED
    extinction_time: float | None = None
    error: str | None = None

    @property
    def final_time(self) -> float:
        return self.snapshots[-1][0]

    @property
    def final_state(self) -> CurveState:
        return self.snapshots[-1][1]

    @property
    def times(self) -> list[float]:
        return [t for t, _ in self.snapshots]


_DOMINANCE_TOL = 8.0 * np.finfo(np.float64).eps  # relative to the row sums


def solve_cyclic_tridiagonal(lower, diag, upper, rhs) -> FloatArray:
    """Solve a strictly diagonally dominant cyclic tridiagonal system.

    Row i couples x_{i-1} by ``lower[i]``, x_i by ``diag[i]`` and x_{i+1} by
    ``upper[i]``, indices wrapping, so ``lower[0]`` and ``upper[-1]`` are the
    corners; the three bands have length M >= 4.  ``rhs`` may be a vector of
    length M or a (k, M) stack of right-hand sides as rows, all solved with
    one factorization; the solution has ``rhs``'s layout.

    With A = T + u v^T, u = gamma*e_0 + upper[-1]*e_{M-1} and
    v = e_0 + (lower[0]/gamma)*e_{M-1}, one banded solve of T gives T^{-1} b
    and T^{-1} u together.  Raises LinearSolverError on a dominance
    violation, a singular rank-one correction or non-finite values.
    """
    lower, diag, upper = (np.asarray(a, dtype=np.float64) for a in (lower, diag, upper))
    if diag.ndim != 1 or diag.shape[0] < 4:
        raise ValueError("diag must be a vector of M >= 4 entries")
    m = diag.shape[0]
    if lower.shape != (m,) or upper.shape != (m,):
        raise ValueError("lower and upper must have length M")
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != m:
        raise ValueError("rhs must be a vector of length M or a (k, M) matrix")

    # Strict dominance up to roundoff of the row sums: rows like 1 + |a| + |c|
    # with |a| ~ 1e16 compute a margin of exactly 0 even though the exact
    # matrix is strictly dominant.
    abs_diag, off_sum = np.abs(diag), np.abs(lower) + np.abs(upper)
    if not (abs_diag - off_sum > -_DOMINANCE_TOL * (abs_diag + off_sum)).all():
        raise LinearSolverError("matrix is not strictly diagonally dominant")
    bands = np.empty((3, m))  # solve_banded layout
    bands[0, 1:] = upper[:-1]
    bands[1] = diag
    bands[2, :-1] = lower[1:]
    gamma = -diag[0]
    bands[1, 0] -= gamma
    bands[1, -1] -= lower[0] * upper[-1] / gamma
    # the k right-hand sides as rows, then u in the spare last row
    work = np.zeros((rhs.size // m + 1, m))
    work[:-1] = rhs
    work[-1, 0], work[-1, -1] = gamma, upper[-1]
    y = solve_banded((1, 1), bands, work.T, overwrite_ab=True, overwrite_b=True,
                     check_finite=False).T
    x, z = y[:-1], y[-1]
    ratio = float(lower[0] / gamma)
    denom = 1.0 + float(z[0]) + ratio * float(z[-1])
    if not math.isfinite(denom) or abs(denom) < 1e-300:
        raise LinearSolverError("rank-one correction is singular")
    for row in x:  # Sherman-Morrison in place: x = y - (v.y / (1 + v.z)) z
        row -= (float(row[0]) + ratio * float(row[-1])) / denom * z
    if not np.isfinite(x).all():
        raise LinearSolverError("solver produced non-finite values")
    return x[0] if rhs.ndim == 1 else x


def _velocity(geo: _NodeGeometry, length: float, model: FlowModel) -> tuple[float, FloatArray]:
    """The law's forcing F and the tangential speed alpha, which cancels the
    normal motion's rate of each d_i/L and relaxes the spacing toward L/M at <kappa^2>."""
    # _diagnostics_row reads the same geometry, so it records the applied F bitwise
    force = forcing_value(model, geo.kappa, geo.span, geo.normal)
    velocity = geo.curvature_vec + force * geo.normal
    jump = velocity - np.concatenate((velocity[:, -1:], velocity[:, :-1]), axis=1)
    jump *= geo.tangent
    rate = jump[0] + jump[1]
    relax = float(np.dot(geo.kappa * geo.kappa, geo.span)) / (2.0 * length)
    drift = float(rate.sum()) / length - relax
    alpha = np.cumsum(geo.d * drift + relax * length / rate.size - rate)
    alpha -= float(alpha.sum()) / rate.size
    return force, alpha


def _bands(geo: _NodeGeometry, alpha: FloatArray, tau: float) -> tuple[FloatArray, ...]:
    """The implicit matrix's row i couples X_{i-1} by lower_i, X_i by 1 + w_prev_i +
    w_next_i and X_{i+1} by upper_i; the centred tangential term leaves the diagonal."""
    weight = (2.0 * tau) / geo.span
    w_prev = weight / geo.d
    w_next = weight / geo.d_next
    advect = (tau * alpha) / geo.span
    return advect - w_prev, 1.0 + w_prev + w_next, -w_next - advect


def step(curve: CurveState, config: SolverConfig) -> CurveState:
    """Advance the curve by one semi-implicit backward-Euler step.

    Takes the per-node geometry the input's validation computed, or
    recomputes it if a step has taken it; raises DegenerateSegmentError
    when a segment is below EPSILON_GEOM (1e-12) and LinearSolverError when
    the implicit solve fails.  A step that raises leaves its input as it was.
    """
    geo = _state_geometry(curve)
    if (shortest := geo.d.min()) < EPSILON_GEOM:
        raise DegenerateSegmentError(
            f"segment length {shortest:.3e} below threshold {EPSILON_GEOM:.3e}"
        )
    force, alpha = _velocity(geo, curve.length, config.model)
    rhs = geo.normal * (config.tau * force) + curve.nodes.T
    solution = solve_cyclic_tridiagonal(*_bands(geo, alpha, config.tau), rhs)
    try:
        advanced = CurveState(solution.T)
    except ValueError as exc:
        raise DegenerateSegmentError(f"step produced an invalid curve: {exc}") from exc
    # the pass serves one step only, so recorded states keep no per-node arrays
    object.__setattr__(curve, "_pass", None)
    return advanced


def _diagnostics_row(t: float, curve: CurveState, model: FlowModel) -> DiagnosticsRow:
    # Tolerant recording path: must not raise even for near-extinct or
    # clockwise states, hence the |area| in the isoperimetric ratio.
    geo = _state_geometry(curve)
    d, length, area = geo.d, curve.length, curve.area
    return DiagnosticsRow(
        t=t,
        length=length,
        area=area,
        forcing=forcing_value(model, geo.kappa, geo.span, geo.normal),
        isoperimetric_ratio=length * length / (4.0 * np.pi * abs(area)),
        uniformity_ratio=float(d.max() / d.min()),
        min_segment=float(d.min()),
    )


def _extinct(state: CurveState) -> bool:
    """Shorter than EXTINCTION_LENGTH, or with every segment below EPSILON_GEOM;
    the length is tested first, so an ordinary state's geometry is not read."""
    return state.length < EXTINCTION_LENGTH or (
        state.length < state.node_count * EPSILON_GEOM
        and _state_geometry(state).d.max() < EPSILON_GEOM
    )


def evolve(
    initial: CurveState,
    config: SolverConfig,
    on_record: Callable[[float, CurveState, DiagnosticsRow], None] | None = None,
) -> Trajectory:
    """Run the time loop from t=0 until t >= t_final (overshooting if needed).

    It steps while the state is not extinct, and stops early only when a
    step fails.  A state is extinct when its total length is below
    EXTINCTION_LENGTH (100*EPSILON_GEOM), or when every one of its segments
    is below EPSILON_GEOM (1e-12), the threshold ``step`` rejects, so a
    collapse of more than 100 nodes does not abort.  Snapshots and
    diagnostics are recorded at t=0, every ``config.snapshot_every`` steps,
    and for the last state however the run ended.  An extinct last state
    makes the run ``EXTINCT`` at its time (0.0 for an initial curve already
    extinct); a degenerate-segment or linear-solver failure makes it
    ``ABORTED`` at the state the failed step started from, naming that step
    and its time in ``Trajectory.error``.

    ``on_record(t, state, row)``, if given, is called as each record is
    made, in order, and the caller takes the records: the returned
    trajectory keeps only the last one, so memory stays flat as records
    grow; its final state, time and row, status and error are as without it.
    """
    snapshots: list[tuple[float, CurveState]] = []
    diagnostics: list[DiagnosticsRow] = []
    trajectory = Trajectory(snapshots, diagnostics)

    def record(t: float, state: CurveState) -> None:
        row = _diagnostics_row(t, state, config.model)
        if on_record is not None:  # the caller has every earlier record
            del snapshots[:], diagnostics[:]
            on_record(t, state, row)
        snapshots.append((t, state))
        diagnostics.append(row)

    record(0.0, initial)
    n_steps = math.ceil(config.t_final / config.tau - 1e-9)
    state, k = initial, 0
    while not _extinct(state) and k < n_steps:
        try:
            state = step(state, config)
        except (DegenerateSegmentError, LinearSolverError) as exc:
            trajectory.status = TrajectoryStatus.ABORTED
            trajectory.error = f"step {k + 1} (t={(k + 1) * config.tau!r}): {exc}"
            break
        k += 1
        if k % config.snapshot_every == 0:
            record(k * config.tau, state)
    if trajectory.final_state is not state:  # the last state is always on record
        record(k * config.tau, state)
    if _extinct(state):
        trajectory.status = TrajectoryStatus.EXTINCT
        trajectory.extinction_time = trajectory.final_time
    return trajectory
