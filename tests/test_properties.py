"""Property checks over random inputs (hypothesis, with the conftest profile)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveflow import CurveFlowError, CurveState, FlowModel, SolverConfig, TrajectoryStatus, evolve
from conftest import random_star_curve


@pytest.mark.parametrize(
    "model", [FlowModel.curve_shortening(), FlowModel.area_preserving()], ids=lambda m: m.law.value
)
@settings(max_examples=30)  # 60 runs in about a second
@given(
    seed=st.integers(0, 2**32 - 1),
    node_count=st.integers(8, 80),
    clockwise=st.booleans(),
    log_scale=st.floats(-6.0, 6.0),
    log_tau=st.floats(-6.0, -2.0),
)
def test_random_star_runs_keep_the_run_invariants(model, seed, node_count, clockwise,
                                                  log_scale, log_tau):
    # a bounded-harmonic star of either orientation at scales 1e-6 .. 1e6, with
    # tau / scale^2 in 1e-6 .. 1e-2, over 60 steps recorded one by one
    scale = 10.0**log_scale
    nodes = scale * random_star_curve(np.random.default_rng(seed), node_count).nodes
    curve = CurveState(nodes[::-1] if clockwise else nodes)
    tau = 10.0**log_tau * scale * scale
    config = SolverConfig(model, t_final=60 * tau, tau=tau, snapshot_every=1)
    try:
        trajectory = evolve(curve, config)
    except CurveFlowError:  # a typed failure is allowed; any other exception fails
        return
    assert isinstance(trajectory.status, TrajectoryStatus)
    CurveState(trajectory.final_state.nodes)  # the last snapshot is a valid curve
    lengths = [row.length for row in trajectory.diagnostics]
    assert len(lengths) >= 2
    assert all(later < earlier for earlier, later in zip(lengths, lengths[1:])), lengths
