"""Property checks over random inputs (hypothesis, with the conftest profile)."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curveflow
from curveflow import (
    ConfigError,
    CurveFlowError,
    CurveState,
    FlowModel,
    SolverConfig,
    TrajectoryStatus,
    evolve,
)
from curveflow.cli import _KEYS, parse_config, run_cli
from conftest import random_star_curve

MODELS = pytest.mark.parametrize(
    "model", [FlowModel.curve_shortening(), FlowModel.area_preserving()], ids=lambda m: m.law.value
)


@MODELS
@settings(max_examples=30)  # 60 runs in about a second
@given(
    seed=st.integers(0, 2**32 - 1),
    node_count=st.integers(8, 80),
    clockwise=st.booleans(),
    log_scale=st.floats(-18.0, 18.0),
    log_tau=st.floats(-6.0, -2.0),
)
def test_random_star_runs_keep_the_run_invariants(model, seed, node_count, clockwise,
                                                  log_scale, log_tau):
    # a bounded-harmonic star of either orientation at scales 1e-18 .. 1e18, with
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


@MODELS
@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    node_count=st.integers(8, 80),
    clockwise=st.booleans(),
    log_scale=st.floats(-6.0, 6.0),
    log_gap=st.floats(-13.0, -6.0),
    log_tau=st.floats(-6.0, -2.0),
)
def test_near_degenerate_polylines_end_in_a_typed_status(model, seed, node_count, clockwise,
                                                         log_scale, log_gap, log_tau):
    # a random star with one node moved to 1e-13 .. 1e-6 of its scale from
    # its predecessor, in a random direction, over 60 steps recorded one by one
    rng = np.random.default_rng(seed)
    nodes = random_star_curve(rng, node_count).nodes.copy()
    k, angle = int(rng.integers(node_count)), rng.uniform(0, 2 * np.pi)
    nodes[k] = nodes[k - 1] + 10.0**log_gap * np.array([np.cos(angle), np.sin(angle)])
    scale = 10.0**log_scale
    curve = CurveState(scale * (nodes[::-1] if clockwise else nodes))
    tau = 10.0**log_tau * scale * scale
    config = SolverConfig(model, t_final=60 * tau, tau=tau, snapshot_every=1)
    try:
        trajectory = evolve(curve, config)
    except CurveFlowError:  # a typed failure is allowed; any other exception fails
        return
    assert isinstance(trajectory.status, TrajectoryStatus)
    assert (trajectory.status is TrajectoryStatus.ABORTED) == (trajectory.error is not None)
    CurveState(trajectory.final_state.nodes)  # the last snapshot is a valid curve


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    node_count=st.integers(4, 12),
    force=st.one_of(st.none(), st.floats(-2.0, 0.5)),
)
@example(seed=169, node_count=4, force=-2.0)  # a run whose last step would reverse it
def test_small_star_runs_keep_their_orientation(seed, node_count, force):
    # a counterclockwise bounded-harmonic star of 4 .. 12 nodes under curve
    # shortening (None) or a constant force, recorded at every step until it
    # vanishes: no record is clockwise, and no step fails short of extinction
    model = FlowModel.curve_shortening() if force is None else FlowModel.constant_force(force)
    curve = random_star_curve(np.random.default_rng(seed), node_count)
    trajectory = evolve(curve, SolverConfig(model, t_final=3.0, tau=1e-3, snapshot_every=1))
    ended = (TrajectoryStatus.EXTINCT, TrajectoryStatus.COMPLETED)
    assert trajectory.status in ended, trajectory.error
    assert all(row.area > 0.0 for row in trajectory.diagnostics), trajectory.final_time


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    node_count=st.integers(8, 40),
    model=st.one_of(
        st.sampled_from([FlowModel.curve_shortening(), FlowModel.area_preserving()]),
        st.floats(-2.0, 2.0).map(FlowModel.constant_force),
    ),
    tau=st.floats(1e-5, 1e-3),
    steps=st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 60.0)),
    every=st.integers(1, 30),
)
def test_records_fall_on_the_step_schedule(seed, node_count, model, tau, steps, every):
    # t_final a whole or a fractional number of steps: the run takes the n
    # steps that first reach it, recording t = 0, every `every` steps and the end
    t_final = steps * tau
    config = SolverConfig(model, t_final=t_final, tau=tau, snapshot_every=every)
    trajectory = evolve(random_star_curve(np.random.default_rng(seed), node_count), config)
    n = math.ceil(t_final / tau * (1.0 - 4.0 * np.finfo(np.float64).eps))
    assert trajectory.status is TrajectoryStatus.COMPLETED
    times = trajectory.times
    assert len(times) == 1 + math.ceil(n / every)
    assert all(earlier < later for earlier, later in zip(times, times[1:]))
    assert times[-1] == n * tau
    assert (n - 1) * tau < t_final


#: per config key, valid values first, then out-of-range and malformed ones;
#: a valid run takes at most 20 steps (t_final <= 2e-3, tau >= 1e-4).  Paths
#: are relative to the fuzz directory, the working one and the config's.
_VALUES = {
    "curve": ["circle", "radial", "polyline", "hexagon", "Circle"],
    "model": ["csf", "area_preserving", "constant", "conserved", "CSF"],
    "force": ["2.5", "-1", "0", "nan", "inf", "1e400", "two"],
    "tau": ["1e-3", "1e-4", "0", "-1e-3", "nan", "1e-400", "fast"],
    "t_final": ["0", "1e-3", "2e-3", "-1", "inf", "1e400", "soon"],
    "snapshot_every": ["1", "5", "0", "-2", "2.5", "1e3", "x"],
    "out_dir": ["out", "deep/er", "a-file", "a-file/sub"],
    "nodes": ["8", "40", "4", "3", "0", "8.0", "1e9", "many"],
    "folds": ["1", "3", "0", "-2", "2.5", "x"],
    "amplitude": ["0.3", "-0.5", "0", "1", "-1", "nan", "1e400", "x"],
    "radius": ["1", "1e-3", "1e6", "0", "-1", "inf", "x"],
    "polyline_path": ["blob.txt", "junk.txt", "missing.txt", "."],
}
_JUNK = ["# a comment", "", "garbage", "= 3", "tau =", "speed = 3", "curve: circle",
         "[run]", "model = csf"]
#: the keys of a valid run of each curve besides curve, model and t_final
_CURVE_KEYS = {
    "circle": {"nodes": "16"},
    "radial": {"folds": "3", "amplitude": "0.3", "nodes": "16"},
    "polyline": {"polyline_path": "blob.txt"},
}


@st.composite
def run_configs(draw):
    """A valid run config with up to three edits, in any line order: a key set
    to any of its values, a key dropped, or a junk line added."""
    curve = draw(st.sampled_from(list(_CURVE_KEYS)))
    config = {"curve": curve, "model": "csf", "t_final": "2e-3", **_CURVE_KEYS[curve]}
    junk = []
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from([*_VALUES, None]))
        value = None if key is None else draw(st.sampled_from([None, *_VALUES[key]]))
        if key is None:
            junk.append(draw(st.sampled_from(_JUNK)))
        elif value is None:
            config.pop(key, None)
        else:
            config[key] = value
    lines = [f"{key} = {value}" for key, value in config.items()] + junk
    return "\n".join(draw(st.permutations(lines)))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    blob = Path(curveflow.__file__).parent / "data" / "nonconvex_blob.txt"
    (base / "blob.txt").write_text(blob.read_text())
    (base / "junk.txt").write_text("1 2 3\nnot numbers\n")
    (base / "a-file").write_text("")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(base)
        yield base


def test_fuzzed_values_cover_every_config_key():
    assert list(_VALUES) == list(_KEYS)


@settings(max_examples=200)
@given(text=run_configs())
def test_fuzzed_run_configs_exit_by_their_parse(fuzz_dir, text):
    # 1 exactly when parse_config rejects the config; otherwise the run ends
    # 0, or 2 for a solver abort or an unwritable output
    config = fuzz_dir / "run.conf"
    config.write_text(text)
    try:
        parse_config(text, fuzz_dir)
        expected = (0, 2)
    except ConfigError:
        expected = (1,)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run_cli(["run", str(config)])
    assert code in expected, (text, err.getvalue())
    assert "unexpected failure" not in err.getvalue()
