"""Semi-implicit time stepping of the flowing-finite-volume curve system.

One step solves, for every node i with periodic wraparound,

    (X_i^{n+1} - X_i^n)/tau
        = 2/(d_i+d_{i+1}) * ( (X_{i+1}^{n+1}-X_i^{n+1})/d_{i+1}
                             - (X_i^{n+1}-X_{i-1}^{n+1})/d_i )
          + F^n * (X^perp_{i+1} - X^perp_{i-1})^n / (d_i+d_{i+1})
          + alpha_i^n * (X_{i+1}^{n+1} - X_{i-1}^{n+1}) / (d_i+d_{i+1}),

with the segment lengths d_i, the forcing F, the normal term and the
tangential speed alpha all lagged at time n.  The implicit part makes each
planar coordinate an M x M cyclic tridiagonal system; both coordinates and
the Sherman-Morrison column of the corners are solved by one banded solve.

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
from .geometry import EPSILON_GEOM, CurveState, _node_geometry
from .geometry import discrete_curvature, segment_lengths  # noqa: F401 (benchmarks/tracer.py)

FloatArray = NDArray[np.float64]

#: A run is flagged extinct when the total length falls below this multiple
#: of the degeneracy threshold.
EXTINCTION_LENGTH_FACTOR = 100.0


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepper parameters; ``model`` picks the normal-velocity law.

    A ValueError names the violated field first, e.g. ``tau > 0``.
    """

    model: FlowModel
    t_final: float
    tau: float = 1e-4
    snapshot_every: int = 100
    epsilon_geom: float = EPSILON_GEOM

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau > 0")
        if not (np.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError("t_final >= 0")
        if not (isinstance(self.snapshot_every, int) and self.snapshot_every >= 1):
            raise ValueError("snapshot_every >= 1")
        if not (np.isfinite(self.epsilon_geom) and self.epsilon_geom > 0):
            raise ValueError("epsilon_geom > 0")


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
    """Time-ordered snapshots plus per-recorded-step scalar diagnostics."""

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


def _check_dominance(abs_diag: FloatArray, off_sum: FloatArray) -> None:
    # Strict dominance up to roundoff of the row sums: rows like 1 + |a| + |c|
    # with |a| ~ 1e16 compute a margin of exactly 0 even though the exact
    # matrix is strictly dominant.
    if not (abs_diag - off_sum > -_DOMINANCE_TOL * (abs_diag + off_sum)).all():
        raise LinearSolverError("matrix is not strictly diagonally dominant")


def _solve_cyclic(bands: FloatArray, work: FloatArray, top_right, bottom_left) -> FloatArray:
    """Solve a dominant cyclic tridiagonal system in place; returns the (k, M) solution.

    ``bands`` (3, M) is in solve_banded layout with the whole diagonal in
    ``bands[1]``; ``work`` (k+1, M) holds k right-hand sides and a spare row.
    With A = T + u v^T, u = gamma*e_0 + bottom_left*e_{M-1} and
    v = e_0 + (top_right/gamma)*e_{M-1}, one banded solve of T gives T^{-1} b
    and T^{-1} u (in the spare row) together.
    """
    gamma = -bands[1, 0]
    bands[1, 0] -= gamma
    bands[1, -1] -= top_right * bottom_left / gamma
    work[-1] = 0.0
    work[-1, 0], work[-1, -1] = gamma, bottom_left
    y = solve_banded((1, 1), bands, work.T, overwrite_ab=True, overwrite_b=True,
                     check_finite=False).T
    z = y[-1]
    ratio = top_right / gamma
    denom = 1.0 + z[0] + ratio * z[-1]
    if not np.isfinite(denom) or abs(denom) < 1e-300:
        raise LinearSolverError("rank-one correction is singular")
    factor = (y[:-1, 0] + ratio * y[:-1, -1]) / denom
    x = y[:-1] - factor[:, None] * z
    if not np.isfinite(x).all():
        raise LinearSolverError("solver produced non-finite values")
    return x


def solve_cyclic_tridiagonal(sub, diag, sup, corner_pair, rhs) -> FloatArray:
    """Solve a strictly diagonally dominant cyclic tridiagonal system.

    The matrix has bands ``sub`` (M-1 entries, below the diagonal), ``diag``
    (M entries) and ``sup`` (M-1 entries, above), plus the periodic corner
    entries ``corner_pair = (top_right, bottom_left)``.  ``rhs`` may be a
    vector of length M or an (M, k) stack of right-hand sides, all solved
    with one factorization.

    Uses a rank-one (Sherman-Morrison) correction of a plain tridiagonal
    solve.  Raises LinearSolverError on a dominance violation or when the
    arithmetic produces non-finite values.
    """
    sub, diag, sup = (np.asarray(a, dtype=np.float64) for a in (sub, diag, sup))
    m = diag.shape[0]
    if m < 4:
        raise ValueError("system size must be >= 4")
    if sub.shape != (m - 1,) or sup.shape != (m - 1,):
        raise ValueError("sub and sup must have length M-1")
    alpha, beta = (float(c) for c in corner_pair)

    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim not in (1, 2):
        raise ValueError("rhs must be a vector or a matrix of columns")
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    if b.shape[0] != m:
        raise ValueError("rhs size does not match the system")

    # row i couples its left neighbour by sub[i-1] (the corner at i = 0)
    # and its right neighbour by sup[i] (the corner at i = M-1)
    off_sum = np.abs(np.concatenate(([alpha], sub))) + np.abs(np.concatenate((sup, [beta])))
    _check_dominance(np.abs(diag), off_sum)
    bands = np.array([np.concatenate(([0.0], sup)), diag, np.concatenate((sub, [0.0]))])
    work = np.vstack((b.T, np.empty(m)))
    x = _solve_cyclic(bands, work, alpha, beta).T
    return x[:, 0] if single else x


def step(curve: CurveState, config: SolverConfig) -> CurveState:
    """Advance the curve by one semi-implicit backward-Euler step.

    Geometry is recomputed from the input curve; raises
    DegenerateSegmentError when a segment is below config.epsilon_geom and
    LinearSolverError when the implicit solve fails.
    """
    nodes = curve.nodes
    m = nodes.shape[0]
    geo = _node_geometry(nodes, config.epsilon_geom)
    d, span, normal, kappa = geo.d, geo.span, geo.normal, geo.kappa
    # _diagnostics_row passes the same arrays, so it records the applied F bitwise
    force = forcing_value(config.model, kappa, span, normal.T)

    # tangential speed: cancel the normal motion's rate of each d_i/L and
    # relax the spacing toward L/M at the rate <kappa^2>
    velocity = geo.curvature_vec + force * normal
    jump = velocity - np.concatenate((velocity[:, -1:], velocity[:, :-1]), axis=1)
    rate = jump[0] * geo.tangent[0] + jump[1] * geo.tangent[1]
    length = curve.length
    relax = float(np.dot(kappa * kappa, span)) / (2.0 * length)
    drift = float(rate.sum()) / length - relax
    alpha = np.cumsum(d * drift + relax * length / m - rate)
    alpha -= float(alpha.sum()) / m

    # row i couples X_{i-1} by lower_i, X_i by 1 + w_prev_i + w_next_i and
    # X_{i+1} by upper_i; the centred tangential term leaves the diagonal
    tau = config.tau
    weight = (2.0 * tau) / span
    w_prev = weight / d
    w_next = weight / geo.d_next
    advect = (tau * alpha) / span
    lower = advect - w_prev
    upper = -w_next - advect
    bands = np.empty((3, m))
    bands[1] = 1.0 + w_prev + w_next
    _check_dominance(bands[1], np.abs(lower) + np.abs(upper))
    bands[0, 1:] = upper[:-1]
    bands[2, :-1] = lower[1:]

    work = np.empty((3, m))
    np.multiply(normal, tau * force, out=work[:2])
    work[:2] += nodes.T
    solution = _solve_cyclic(bands, work, lower[0], upper[-1])
    try:
        return CurveState(solution.T)
    except ValueError as exc:
        raise DegenerateSegmentError(f"step produced an invalid curve: {exc}") from exc


def _diagnostics_row(t: float, curve: CurveState, model: FlowModel) -> DiagnosticsRow:
    # Tolerant recording path: must not raise even for near-extinct or
    # clockwise states, hence the |area| in the isoperimetric ratio.
    geo = _node_geometry(curve.nodes)
    d, length, area = geo.d, curve.length, curve.area
    return DiagnosticsRow(
        t=t,
        length=length,
        area=area,
        forcing=forcing_value(model, geo.kappa, geo.span, geo.normal.T),
        isoperimetric_ratio=length * length / (4.0 * np.pi * abs(area)),
        uniformity_ratio=float(d.max() / d.min()),
        min_segment=float(d.min()),
    )


def evolve(
    initial: CurveState,
    config: SolverConfig,
    on_record: Callable[[float, CurveState, DiagnosticsRow], None] | None = None,
) -> Trajectory:
    """Run the time loop from t=0 until t >= t_final (overshooting if needed).

    Snapshots and diagnostics are recorded at t=0, every
    ``config.snapshot_every`` steps, and at the final time.  A run whose
    total length falls below 100*epsilon_geom terminates cleanly as
    ``EXTINCT`` with the extinction time; degenerate-segment and
    linear-solver failures abort the run, keeping the last valid state as
    the final snapshot and naming the failed step and its time in
    ``Trajectory.error``.

    ``on_record(t, state, row)``, if given, is called as each record is
    made, in order, with the objects the returned trajectory holds, so a
    caller can stream the records out while the run goes on.
    """
    snapshots: list[tuple[float, CurveState]] = []
    diagnostics: list[DiagnosticsRow] = []
    trajectory = Trajectory(snapshots, diagnostics)

    def record(t: float, state: CurveState) -> None:
        row = _diagnostics_row(t, state, config.model)
        snapshots.append((t, state))
        diagnostics.append(row)
        if on_record is not None:
            on_record(t, state, row)

    record(0.0, initial)
    extinction_length = EXTINCTION_LENGTH_FACTOR * config.epsilon_geom
    if initial.length < extinction_length:
        trajectory.status = TrajectoryStatus.EXTINCT
        trajectory.extinction_time = 0.0
        return trajectory
    if config.t_final == 0.0:
        return trajectory

    n_steps = math.ceil(config.t_final / config.tau - 1e-9)
    state = initial
    recorded_step = 0
    for k in range(1, n_steps + 1):
        t = k * config.tau
        try:
            state = step(state, config)
        except (DegenerateSegmentError, LinearSolverError) as exc:
            trajectory.status = TrajectoryStatus.ABORTED
            trajectory.error = f"step {k} (t={t!r}): {exc}"
            if recorded_step != k - 1:  # keep the last valid state on record
                record((k - 1) * config.tau, state)
            return trajectory

        extinct = state.length < extinction_length
        if extinct or k % config.snapshot_every == 0 or k == n_steps:
            record(t, state)
            recorded_step = k
        if extinct:
            trajectory.status = TrajectoryStatus.EXTINCT
            trajectory.extinction_time = t
            return trajectory
    return trajectory
