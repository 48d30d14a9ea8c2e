"""The benchmark's workloads, their seeded inputs and their correctness gates.

Every workload evolves a radial star r(u) = 1 + amplitude*cos(2*folds*pi*u)
with tau = 1e-4.  The seed sets only a rotation angle and a sampling phase
of the initial nodes; it never changes the node count, the flow law, tau or
the step count, so every seed asks for the same amount of work.

The gates check physical invariants only (area drift, circularization,
monotone length, output shape), never trajectories, so a later change to
the scheme does not trip them unless it breaks the physics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

TAU = 1e-4

#: Criterion-1 bound on the relative area drift of the conserved flow.
MAX_AREA_DRIFT = 5e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    folds: int
    amplitude: float
    nodes: int
    law: str  # "csf" or "area_preserving", as spelled in a run config
    steps: int
    snapshot_every: int
    via_cli: bool

    @property
    def t_final(self) -> float:
        return self.steps * TAU

    @property
    def snapshots(self) -> int:
        """Records made by evolve: t=0, every snapshot_every steps, and the last step."""
        return 1 + math.ceil(self.steps / self.snapshot_every)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conserved-5fold-m200",
            why="paper's headline study at its own scale: call-overhead-bound steps"
            " with the nonlocal forcing on every step",
            folds=5, amplitude=0.65, nodes=200, law="area_preserving",
            steps=5000, snapshot_every=100, via_cli=False,
        ),
        Workload(
            name="csf-4fold-m5000",
            why="arithmetic over M dominates the step; bypasses the forcing and"
            " recording layers",
            folds=4, amplitude=0.4, nodes=5000, law="csf",
            steps=1000, snapshot_every=500, via_cli=False,
        ),
        Workload(
            name="cli-run-10fold-m1000",
            why="in-process curveflow run writing 201 snapshots: exercises the"
            " write path the other two skip",
            folds=10, amplitude=0.45, nodes=1000, law="area_preserving",
            steps=2000, snapshot_every=10, via_cli=True,
        ),
    )
}


def initial_nodes(workload: Workload, seed: int) -> np.ndarray:
    """Seeded star: rotation angle in [0, 2pi), sampling phase in [0, 1) node spacings."""
    rng = np.random.default_rng(seed)
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    phase = rng.uniform(0.0, 1.0)
    u = (np.arange(workload.nodes, dtype=np.float64) + phase) / workload.nodes
    r = 1.0 + workload.amplitude * np.cos(2.0 * workload.folds * np.pi * u)
    angle = 2.0 * np.pi * u + rotation
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)


def run_config(workload: Workload, polyline_path: str, out_dir: str) -> str:
    """The ``curveflow run`` config for a CLI workload."""
    return "\n".join(
        [
            "curve = polyline",
            f"polyline_path = {polyline_path}",
            f"model = {workload.law}",
            f"tau = {TAU!r}",
            f"t_final = {workload.t_final!r}",
            f"snapshot_every = {workload.snapshot_every}",
            f"out_dir = {out_dir}",
        ]
    ) + "\n"


def rows_digest(rows) -> str:
    """sha256 of diagnostics rows printed as summary.csv prints them."""
    text = "\n".join(",".join(f"{v:.17g}" for v in row[:6]) for row in rows) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def area_rel_error(workload: Workload, t: float, area0: float, area: float) -> float:
    """|A_final - A_exact| / A0, with A_exact = A0 (conserved) or A0 - 2*pi*t (CSF)."""
    exact = area0 if workload.law == "area_preserving" else area0 - 2.0 * np.pi * t
    return abs(area - exact) / area0


def gate(workload: Workload, status: str, rows, snapshot_count: int) -> list[str]:
    """Physical-invariant checks on one run; returns the failed checks.

    ``rows`` are (t, length, area, F, isoperimetric_ratio, ...) tuples, one
    per record.
    """
    failures = []
    if status != "completed":
        failures.append(f"status {status}, expected completed")
    if snapshot_count != workload.snapshots or len(rows) != workload.snapshots:
        failures.append(
            f"{snapshot_count} snapshots and {len(rows)} rows, expected {workload.snapshots}"
        )
    if not rows:
        return failures
    steps = round(rows[-1][0] / TAU)
    if steps != workload.steps:
        failures.append(f"{steps} steps, expected {workload.steps}")
    if workload.law == "area_preserving":
        drift = abs(rows[-1][2] - rows[0][2]) / rows[0][2]
        if not drift <= MAX_AREA_DRIFT:
            failures.append(f"area drift {drift:.3e} above {MAX_AREA_DRIFT}")
        if not rows[-1][4] < rows[0][4]:
            failures.append("isoperimetric ratio did not decrease")
    else:
        lengths = [row[1] for row in rows]
        if not all(b < a for a, b in zip(lengths, lengths[1:])):
            failures.append("length not strictly decreasing")
    return failures
