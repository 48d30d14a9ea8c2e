"""Shared fixtures: the expensive evolution runs are computed once per session."""

import numpy as np
import pytest
from hypothesis import settings

from curveflow import (
    FlowModel,
    SolverConfig,
    build_circle,
    convergence_study,
    evolve,
    run_reference_studies,
)

# every run draws the same examples and keeps no example database
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def reference_report():
    """The four bundled studies at their default parameters (M=200, tau=1e-4)."""
    return run_reference_studies()


@pytest.fixture(scope="session")
def convergence_report():
    """Temporal sweep of the unit 200-gon's extinction, tau in {4,2,1}e-5."""
    return convergence_study(base_tau=4e-5, levels=3)


@pytest.fixture(scope="session")
def stationary_circle_trajectory():
    """Regular 200-gon under the conserved flow over [0, 1] at tau=1e-4."""
    config = SolverConfig(
        model=FlowModel.area_preserving(), t_final=1.0, tau=1e-4, snapshot_every=1000
    )
    return evolve(build_circle(1.0, 200), config)


def random_star_curve(rng: np.random.Generator, node_count: int | None = None):
    """Well-conditioned random star-shaped test curve (bounded harmonics)."""
    from curveflow import CurveState

    m = int(node_count if node_count is not None else rng.integers(8, 80))
    u = np.arange(m) / m
    r = np.ones(m)
    for k in range(1, int(rng.integers(2, 5))):
        r = r + rng.uniform(0.02, 0.11) * np.cos(2 * np.pi * k * u + rng.uniform(0, 2 * np.pi))
    angle = 2 * np.pi * u
    return CurveState(np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1))
