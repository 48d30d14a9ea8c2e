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
``solve_cyclic_tridiagonal`` (one banded solve) and ``_on_rows`` (the new state), in order.

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
from scipy.linalg import solve_banded

from .errors import DegenerateSegmentError, LinearSolverError
from .flows import FlowLaw, FlowModel, forcing_value
from .geometry import CurveState, FloatArray, _NodeGeometry, _count, _on_rows, _real, _state_geometry
from .geometry import discrete_curvature, segment_lengths  # noqa: F401 (benchmarks/tracer.py)


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
        if not isinstance(self.model, FlowModel):
            raise ValueError("model must be a FlowModel")
        object.__setattr__(self, "tau", _real(self.tau, "tau > 0", lambda tau: tau > 0))
        object.__setattr__(self, "t_final", _real(self.t_final, "t_final >= 0", lambda t: t >= 0))
        if not math.isfinite(self.t_final / self.tau):
            raise ValueError("tau too small: t_final / tau overflows")
        every = _count(self.snapshot_every, 1, "snapshot_every >= 1")
        object.__setattr__(self, "snapshot_every", every)


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


_EPS = np.finfo(np.float64).eps


def solve_cyclic_tridiagonal(lower, diag, upper, rhs) -> FloatArray:
    """Solve a cyclic tridiagonal system, diagonally dominant up to roundoff.

    Row i couples x_{i-1} by ``lower[i]``, x_i by ``diag[i]`` and x_{i+1} by
    ``upper[i]``, indices wrapping, so ``lower[0]`` and ``upper[-1]`` are the
    corners; the three bands have length M >= 4.  ``rhs`` may be a vector of
    length M or a (k, M) stack of right-hand sides as rows, all solved with
    one factorization; the solution has ``rhs``'s layout.

    With A = T + u v^T, u = gamma*e_0 + upper[-1]*e_{M-1} and
    v = e_0 + (lower[0]/gamma)*e_{M-1}, one banded solve of T gives T^{-1} b
    and T^{-1} u together.  Raises LinearSolverError on a dominance
    violation, a singular T or rank-one correction, or non-finite values.
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
    if not (abs_diag - off_sum > -8.0 * _EPS * (abs_diag + off_sum)).all():
        raise LinearSolverError("matrix is not strictly diagonally dominant")
    del abs_diag, off_sum
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
    try:
        y = solve_banded((1, 1), bands, work.T, overwrite_ab=True, overwrite_b=True,
                         check_finite=False).T
    except np.linalg.LinAlgError as exc:  # gtsv met an exactly zero pivot
        raise LinearSolverError("tridiagonal part is singular") from exc
    del bands  # the solve's scratch, overwritten
    z = y[-1]
    ratio = float(lower[0] / gamma)
    head, tail = float(z[0]), ratio * float(z[-1])
    denom = 1.0 + head + tail
    if not abs(denom) > 8.0 * _EPS * (1.0 + abs(head) + abs(tail)):  # roundoff, or NaN
        raise LinearSolverError("rank-one correction is singular")
    x = np.empty((len(y) - 1, m))  # rows of their own, so no caller keeps u's row
    for row, out in zip(y, x):  # Sherman-Morrison: x = y - (v.y / (1 + v.z)) z
        np.subtract(row, (float(row[0]) + ratio * float(row[-1])) / denom * z, out=out)
    if not np.isfinite(x).all():
        raise LinearSolverError("solver produced non-finite values")
    return x[0] if rhs.ndim == 1 else x


def _velocity(geo: _NodeGeometry, length: float, model: FlowModel) -> tuple[float, FloatArray]:
    """The law's forcing F and the tangential speed alpha, which cancels the
    normal motion's rate of each d_i/L and relaxes the spacing toward L/M at <kappa^2>."""
    # _diagnostics_row reads the same geometry, so it records the applied F bitwise
    force = forcing_value(model, geo.kappa, geo.span, geo.normal)
    velocity = geo.curvature_vec + force * geo.normal
    jump = np.concatenate((velocity[:, -1:], velocity[:, :-1]), axis=1)
    np.subtract(velocity, jump, out=jump)  # V_i - V_{i-1}, in the shifted copy
    del velocity
    jump *= geo.tangent
    rate = np.add(jump[0], jump[1], out=jump[0])
    relax = float(np.dot(geo.kappa * geo.kappa, geo.span)) / (2.0 * length)
    drift = float(rate.sum()) / length - relax
    alpha = np.cumsum(geo.d * drift + relax * length / rate.size - rate)
    alpha -= float(alpha.sum()) / rate.size
    return force, alpha


def _bands(geo: _NodeGeometry, alpha: FloatArray, tau: float) -> tuple[FloatArray, ...]:
    """The implicit matrix's row i couples X_{i-1} by lower_i, X_i by 1 + w_prev_i +
    w_next_i and X_{i+1} by upper_i; the centred tangential term leaves the diagonal."""
    # in place, in the order of advect - w_prev, 1 + w_prev + w_next and -w_next - advect
    weight = (2.0 * tau) / geo.span
    w_prev = weight / geo.d
    w_next = np.divide(weight, geo.d_next, out=weight)
    advect = np.multiply(alpha, tau, out=alpha)
    advect /= geo.span
    diag = 1.0 + w_prev
    diag += w_next
    upper = np.negative(w_next, out=w_next)
    upper -= advect
    return np.subtract(advect, w_prev, out=w_prev), diag, upper


def step(curve: CurveState, config: SolverConfig) -> CurveState:
    """Advance the curve by one semi-implicit backward-Euler step.

    Consumes its input's per-node geometry, whatever the outcome: a later read
    computes it again, bitwise equal, and keeps it.  Raises DegenerateSegmentError,
    naming the node, when eps*w >= 1 for the scale-free w = w_prev + w_next of
    ``_bands``, as the step cannot resolve that state, and when the new polygon's
    area has the other sign, as a step may not reverse the orientation; raises
    LinearSolverError when the implicit solve fails.
    """
    geo = _state_geometry(curve)
    force, alpha = _velocity(geo, curve.length, config.model)
    lower, diag, upper = _bands(geo, alpha, config.tau)
    object.__setattr__(curve, "_pass", None)  # before its normal becomes the right-hand side
    rhs = np.multiply(geo.normal, config.tau * force, out=geo.normal)
    rhs += curve.nodes.T
    del geo, alpha  # recorded states keep no per-node arrays, and none is alive in the solve
    node = int(diag.argmax())
    if (unresolved := _EPS * (diag[node] - 1.0)) >= 1.0:
        raise DegenerateSegmentError(
            f"segments at node {node} too short to resolve: eps*w = {unresolved:.3e}")
    solution = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    del rhs, lower, diag, upper  # none is alive while the new state is validated
    try:
        advanced = _on_rows(solution)
    except ValueError as exc:
        raise DegenerateSegmentError(f"step produced an invalid curve: {exc}") from exc
    if (advanced.area > 0.0) != (curve.area > 0.0):  # a product of tiny areas underflows to 0
        raise DegenerateSegmentError("step reversed the curve's orientation")
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


def evolve(
    initial: CurveState,
    config: SolverConfig,
    on_record: Callable[[float, CurveState, DiagnosticsRow], None] | None = None,
) -> Trajectory:
    """Run ceil(t_final/tau) steps from t=0, so t ends >= t_final up to roundoff.

    It stops early only when a step raises.  A step that fails on a state
    whose area could vanish within one step at the continuum rate,
    |A| < tau*(2*pi - F*L), makes the run ``EXTINCT`` at that state's time
    (0.0 for an initial curve the first step refuses).  Under curve
    shortening that bound is 2*pi*tau.  The conserved law keeps the area, so
    its runs never end extinct.  Any other failure makes the run
    ``ABORTED`` at the state the failed step started from, naming that step
    and its time in ``Trajectory.error``.  Snapshots and diagnostics are
    recorded at t=0, every ``config.snapshot_every`` steps, and for the
    last state however the run ended.

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
    n_steps = math.ceil(config.t_final / config.tau * (1.0 - 4.0 * _EPS))
    state, k, failure = initial, 0, None
    while k < n_steps:
        try:
            state = step(state, config)
        except (DegenerateSegmentError, LinearSolverError) as exc:
            failure = exc
            break
        k += 1
        if k % config.snapshot_every == 0:
            record(k * config.tau, state)
    if k % config.snapshot_every:  # step 0 and each multiple are on record
        record(k * config.tau, state)
    last = diagnostics[-1]
    vanishing = (config.model.law is not FlowLaw.AREA_PRESERVING
                 and abs(last.area) < config.tau * (2.0 * math.pi - last.forcing * last.length))
    if failure is not None and vanishing:
        trajectory.status = TrajectoryStatus.EXTINCT
        trajectory.extinction_time = last.t
    elif failure is not None:
        trajectory.status = TrajectoryStatus.ABORTED
        trajectory.error = f"step {k + 1} (t={(k + 1) * config.tau!r}): {failure}"
    return trajectory
