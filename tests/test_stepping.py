"""Time-stepper tests: closed forms on the regular polygon plus a dense
backward-Euler oracle assembled independently in the test."""

import itertools
import tracemalloc

import numpy as np
import pytest

from curveflow import (
    CurveState,
    DegenerateSegmentError,
    FlowLaw,
    FlowModel,
    LinearSolverError,
    SolverConfig,
    TrajectoryStatus,
    build_circle,
    build_radial_curve,
    discrete_curvature,
    evolve,
    forcing_value,
    geometry,
    segment_lengths,
    step,
    stepping,
)
from conftest import random_star_curve
from support import check_bitwise_equivalence, regular_polygon_radii


#: the unit square with a node 1e-20 from a corner: eps*w ~ 4.4 at node 0, so
#: the step cannot resolve it, and its area 1 is far from extinct
PINCHED = np.array([(0.0, 0.0), (1e-20, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


#: a 200-node ellipse of semi-axes 3.5e-11 and 2e-11, which no step at tau =
#: 1e-4 can resolve
TINY_ELLIPSE = np.stack([3.5e-11 * np.cos(2 * np.pi * np.arange(200) / 200),
                         2e-11 * np.sin(2 * np.pi * np.arange(200) / 200)], axis=1)


def no_solve(*args):
    raise AssertionError("the step reached its solve")


def unresolved(curve, tau):
    """eps times the largest off-identity diagonal w_i = 2 tau/s_i (1/d_i + 1/d_{i+1})."""
    d = segment_lengths(curve)
    d_next = np.roll(d, -1)
    return np.finfo(np.float64).eps * np.max(2.0 * tau / (d + d_next) * (1.0 / d + 1.0 / d_next))


def failing_at_step(k):
    """``step`` that raises DegenerateSegmentError on its k-th call."""
    calls = itertools.count(1)

    def failing(curve, config):
        if next(calls) == k:
            raise DegenerateSegmentError("injected")
        return step(curve, config)

    return failing


def oracle_force_and_tangential_speed(nodes, model):
    """The law's forcing F and the tangential speeds alpha_i, node by node.

    F makes the shoelace area rate sum_i c_i^perp . (k_i + F*N_i)/2 vanish;
    alpha solves alpha_i - alpha_{i-1} = d_i*sum(r)/L - r_i + omega*(L/M - d_i)
    with zero mean.
    """
    m = nodes.shape[0]
    x = [nodes[i] for i in range(m)]
    d = [float(np.hypot(*(x[i] - x[i - 1]))) for i in range(m)]
    s = [d[i] + d[(i + 1) % m] for i in range(m)]
    t = [(x[i] - x[i - 1]) / d[i] for i in range(m)]
    k = [2.0 * (t[(i + 1) % m] - t[i]) / s[i] for i in range(m)]
    c = [x[(i + 1) % m] - x[i - 1] for i in range(m)]
    n = [np.array([c[i][1], -c[i][0]]) / s[i] for i in range(m)]
    kappa = [-float(k[i] @ n[i]) for i in range(m)]
    if model.law.value == "area_preserving":
        force = sum(kappa[i] * s[i] for i in range(m)) / sum(
            float(c[i] @ c[i]) / s[i] for i in range(m)
        )
    else:
        force = model.force
    v = [k[i] + force * n[i] for i in range(m)]
    r = [float((v[i] - v[i - 1]) @ t[i]) for i in range(m)]
    length, total_rate = sum(d), sum(r)
    omega = sum(kappa[i] ** 2 * s[i] / 2.0 for i in range(m)) / length
    alpha = [0.0]
    for i in range(1, m):
        alpha.append(alpha[-1] + d[i] * total_rate / length - r[i] + omega * (length / m - d[i]))
    mean = sum(alpha) / m
    return force, np.array([a - mean for a in alpha])


def dense_backward_euler(nodes, tau, model):
    """Independent dense-matrix assembly of one semi-implicit step: the M x M
    matrix and the (M, 2) right-hand side."""
    m = nodes.shape[0]
    force, alpha = oracle_force_and_tangential_speed(nodes, model)
    matrix = np.zeros((m, m))
    rhs = np.zeros((m, 2))
    for i in range(m):
        prev, nxt = nodes[i - 1], nodes[(i + 1) % m]
        d = np.linalg.norm(nodes[i] - prev)
        dn = np.linalg.norm(nxt - nodes[i])
        span = d + dn
        matrix[i, (i - 1) % m] = -2.0 * tau / (span * d) + tau * alpha[i] / span
        matrix[i, (i + 1) % m] = -2.0 * tau / (span * dn) - tau * alpha[i] / span
        matrix[i, i] = 1.0 + 2.0 * tau / (span * d) + 2.0 * tau / (span * dn)
        chord = nxt - prev
        rhs[i] = nodes[i] + tau * force * np.array([chord[1], -chord[0]]) / span
    return matrix, rhs


class TestSolverConfig:
    def test_validation(self):
        model = FlowModel.curve_shortening()
        with pytest.raises(ValueError, match="tau"):
            SolverConfig(model=model, t_final=1.0, tau=0.0)
        with pytest.raises(ValueError, match="t_final"):
            SolverConfig(model=model, t_final=-1.0)
        with pytest.raises(ValueError, match="snapshot_every"):
            SolverConfig(model=model, t_final=1.0, snapshot_every=0)

    @pytest.mark.parametrize("model", ["csf", FlowLaw.CURVE_SHORTENING, None])
    def test_model_must_be_a_flow_model(self, model):
        with pytest.raises(ValueError, match="^model"):
            SolverConfig(model, t_final=0.01)

    def test_rejects_a_tau_too_small_for_the_step_count(self):
        # t_final / tau overflows to inf, so no step count exists
        with pytest.raises(ValueError, match="^tau"):
            SolverConfig(FlowModel.curve_shortening(), t_final=1.0, tau=1e-320)

    @pytest.mark.parametrize("snapshot_every", [True, 2.0, 2.5])
    def test_snapshot_every_must_be_an_integer(self, snapshot_every):
        with pytest.raises(ValueError, match="snapshot_every"):
            SolverConfig(FlowModel.curve_shortening(), t_final=1.0, snapshot_every=snapshot_every)

    def test_snapshot_every_accepts_a_numpy_integer(self):
        config = SolverConfig(FlowModel.curve_shortening(), t_final=1e-3, tau=1e-4,
                              snapshot_every=np.int64(5))
        assert type(config.snapshot_every) is int
        assert evolve(build_circle(1.0, 16), config).times == pytest.approx(
            [0.0, 5e-4, 1e-3]
        )


class TestStep:
    def test_shrinking_polygon_closed_form(self):
        # one implicit step maps the regular M-gon radius r to r/(1 + tau/r^2)
        m, tau = 200, 1e-4
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=tau, tau=tau)
        new = step(build_circle(1.0, m), config)
        radii = np.linalg.norm(new.nodes, axis=1)
        assert radii.max() - radii.min() < 1e-13
        assert np.allclose(radii, 1.0 / (1.0 + tau), rtol=1e-12)
        assert radii.max() < 1.0
        # one explicit-Euler step of dr/dt = -kappa_discrete agrees to O(tau^2)
        kappa_discrete = np.cos(np.pi / m)
        assert abs(radii.mean() - (1.0 - tau * kappa_discrete)) <= 5e-9

    def test_conserved_polygon_near_stationary(self):
        # the law's forcing F = 1/(R*cos(pi/M)) cancels the curvature vector
        # exactly (F*N_i = -k_i) and the tangential speed vanishes by
        # symmetry, so the regular polygon is a fixed point: displacement 0
        # (the paper's average-curvature F would leave tau*sin^2(pi/M)/(1+tau),
        # about 2.47e-8 here)
        m, tau = 200, 1e-4
        circle = build_circle(1.0, m)
        config = SolverConfig(model=FlowModel.area_preserving(), t_final=tau, tau=tau)
        new = step(circle, config)
        displacement = np.max(np.linalg.norm(new.nodes - circle.nodes, axis=1))
        predicted = 0.0
        assert abs(displacement - predicted) <= 1e-12

    @pytest.mark.parametrize(
        "model", [FlowModel.curve_shortening(), FlowModel.area_preserving(),
                  FlowModel.constant_force(0.7)]
    )
    def test_matches_dense_oracle(self, model):
        curve = build_radial_curve(5, 0.65, 200)
        config = SolverConfig(model=model, t_final=1e-4, tau=1e-4)
        mine = step(curve, config).nodes
        matrix, rhs = dense_backward_euler(curve.nodes, 1e-4, model)
        oracle = np.linalg.solve(matrix, rhs)
        assert np.max(np.abs(mine - oracle)) <= 1e-12 * np.max(np.abs(oracle))

        # each stage on its own: the velocity stage against the node-by-node
        # F and alpha, the bands (corners included) against the dense matrix
        geo = geometry._state_geometry(curve)
        force, alpha = stepping._velocity(geo, curve.length, model)
        oracle_force, oracle_alpha = oracle_force_and_tangential_speed(curve.nodes, model)
        assert force == pytest.approx(oracle_force, rel=1e-12, abs=1e-12)
        assert np.max(np.abs(alpha - oracle_alpha)) <= 1e-12 * np.max(np.abs(oracle_alpha))
        i = np.arange(200)
        dense_bands = (matrix[i, i - 1], matrix[i, i], matrix[i, (i + 1) % 200])
        for band, dense in zip(stepping._bands(geo, alpha, 1e-4), dense_bands, strict=True):
            assert np.allclose(band, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "model, force",
        [(FlowModel.curve_shortening(), 0.0), (FlowModel.constant_force(2.0), 2.0),
         (FlowModel.constant_force(-1.0), -1.0), (FlowModel.area_preserving(), None)],
        ids=["csf", "F=2", "F=-1", "area_preserving"],
    )
    @pytest.mark.parametrize("m", [7, 8, 200])
    def test_regular_polygon_follows_its_exact_discrete_solution(self, m, model, force):
        # the whole kernel (bands, corners, Sherman-Morrison) against the
        # closed-form recurrence the regular M-gon obeys step by step
        tau, steps = 1e-4, 500
        config = SolverConfig(model, t_final=steps * tau, tau=tau, snapshot_every=1)
        trajectory = evolve(build_circle(1.0, m), config)
        assert trajectory.status is TrajectoryStatus.COMPLETED
        assert len(trajectory.snapshots) == steps + 1
        expected = regular_polygon_radii(1.0, m, tau, steps, force)
        for k, (_, state) in enumerate(trajectory.snapshots):
            radii = np.linalg.norm(state.nodes, axis=1)
            assert np.max(np.abs(radii / expected[k] - 1.0)) <= 1e-12, f"step {k}"

    def test_consistency_with_explicit_rate(self):
        # (X^1 - X^0)/tau approaches the explicit right-hand side
        # k_i + F*N_i + alpha_i*T_i linearly in tau
        curve = build_radial_curve(5, 0.65, 100)
        nodes = curve.nodes
        d = segment_lengths(curve)
        dn = np.roll(d, -1)
        span = d + dn
        diffusion = (
            2.0
            * ((np.roll(nodes, -1, 0) - nodes) / dn[:, None] - (nodes - np.roll(nodes, 1, 0)) / d[:, None])
            / span[:, None]
        )
        force, alpha = oracle_force_and_tangential_speed(nodes, FlowModel.area_preserving())
        chord = np.roll(nodes, -1, 0) - np.roll(nodes, 1, 0)
        rate = (
            diffusion
            + force * np.stack([chord[:, 1], -chord[:, 0]], 1) / span[:, None]
            + alpha[:, None] * chord / span[:, None]
        )
        scale = np.max(np.abs(rate))
        errors = []
        for tau in (1e-7, 1e-8):
            config = SolverConfig(model=FlowModel.area_preserving(), t_final=tau, tau=tau)
            new = step(curve, config)
            errors.append(np.max(np.abs((new.nodes - nodes) / tau - rate)))
        assert errors[0] / scale <= 2e-4
        assert 5.0 <= errors[0] / errors[1] <= 20.0

    def test_dominance_guard_rejects_a_huge_tangential_speed(self, monkeypatch):
        # with F = 1e4 the tangential speed outweighs the diffusion in some
        # rows, so the step matrix is no longer strictly dominant
        monkeypatch.setattr(stepping, "forcing_value", lambda *args: 1e4)
        curve = build_radial_curve(5, 0.65, 200)
        config = SolverConfig(model=FlowModel.area_preserving(), t_final=1e-3, tau=1e-4)
        with pytest.raises(LinearSolverError, match="not strictly diagonally dominant"):
            step(curve, config)
        trajectory = evolve(curve, config)
        assert trajectory.status is TrajectoryStatus.ABORTED
        assert "not strictly diagonally dominant" in trajectory.error
        assert len(trajectory.snapshots) == 1
        assert trajectory.snapshots[0][1] is curve

    def test_degenerate_segment_aborts(self, monkeypatch):
        # the step refuses before its solve and names the node
        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal", no_solve)
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4)
        assert unresolved(CurveState(PINCHED), config.tau) == pytest.approx(4.441, rel=1e-3)
        with pytest.raises(DegenerateSegmentError, match=r"^segments at node 0 .* = 4\.441e\+00$"):
            step(CurveState(PINCHED), config)

    def test_a_pinch_just_inside_the_rule_meets_the_solver_backstop(self):
        # a 1e-19 gap has eps*w ~ 0.44: the step solves, and the rank-one
        # correction's relative test finds the denominator at roundoff
        nodes = PINCHED.copy()
        nodes[1, 0] = 1e-19
        square = CurveState(nodes)
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4)
        assert unresolved(square, config.tau) == pytest.approx(0.4441, rel=1e-3)
        with pytest.raises(LinearSolverError, match="rank-one correction is singular"):
            step(square, config)


    def test_invalid_solution_aborts_naming_the_step(self, monkeypatch):
        # a solve that returns two coincident nodes: CurveState rejects the
        # result, and step reports it as a degenerate segment
        def coincident(lower, diag, upper, rhs):
            nodes = np.array(rhs)
            nodes[:, 1] = nodes[:, 0]
            return nodes

        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal", coincident)
        curve = build_circle(1.0, 16)
        config = SolverConfig(FlowModel.curve_shortening(), t_final=1e-3, tau=1e-4)
        with pytest.raises(DegenerateSegmentError, match="step produced an invalid curve"):
            step(curve, config)
        trajectory = evolve(curve, config)
        assert trajectory.status is TrajectoryStatus.ABORTED
        assert trajectory.error.startswith("step 1 (t=0.0001): step produced an invalid curve")
        assert len(trajectory.snapshots) == 1

    def test_each_step_makes_one_cyclic_solve(self, monkeypatch):
        config = SolverConfig(FlowModel.area_preserving(), t_final=2e-3, tau=1e-4,
                              snapshot_every=5)
        plain = evolve(build_radial_curve(5, 0.65, 64), config)
        inner, calls = stepping.solve_cyclic_tridiagonal, []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal", counted)
        counted_run = evolve(build_radial_curve(5, 0.65, 64), config)
        assert len(calls) == 20
        assert counted_run.final_state.nodes.tobytes() == plain.final_state.nodes.tobytes()

    @pytest.mark.parametrize("m, bound", [(200, 160), (1000, 133), (5000, 127)],
                             ids=["M200", "M1000", "M5000"])
    def test_working_set_per_node(self, m, bound):
        # _velocity forms the jump in its shifted copy and the rate in the jump;
        # _bands forms advect in alpha and its bands in place; the step forms
        # the right-hand side in the consumed normal and frees the input's
        # geometry before the solve; the solver frees its dominance sums before
        # its bands and its bands after the solve, and returns rows of their
        # own; validation takes those rows uncopied, frees the shifted rows once
        # the area is taken, and divides the tangents into the edges
        config = SolverConfig(FlowModel.curve_shortening(), t_final=1.0, tau=1e-4)
        state = build_radial_curve(4, 0.4, m)
        for _ in range(3):
            state = step(state, config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                state = step(state, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / m <= bound


class TestGeometryHandOff:
    """``step`` consumes the per-node geometry its input's validation computed,
    whatever its outcome; no trajectory or geometry may depend on whether it had it."""

    CONFIG = SolverConfig(FlowModel.area_preserving(), t_final=0.01, tau=1e-4, snapshot_every=10)

    def test_stepping_a_state_twice_is_bitwise_equal(self):
        curve = build_radial_curve(5, 0.65, 200)
        assert curve._pass is not None
        first = step(curve, self.CONFIG)
        assert curve._pass is None
        second = step(curve, self.CONFIG)  # recomputes the pass
        assert first.nodes.tobytes() == second.nodes.tobytes()
        assert (first.length, first.area) == (second.length, second.area)

    def test_evolve_from_a_used_state_is_bitwise_equal(self):
        nodes = build_radial_curve(10, 0.45, 200).nodes
        fresh = evolve(CurveState(nodes), self.CONFIG)
        used = CurveState(nodes)
        step(used, self.CONFIG)
        assert used._pass is None
        again = evolve(used, self.CONFIG)
        assert fresh.final_state.nodes.tobytes() == again.final_state.nodes.tobytes()
        assert np.array(fresh.diagnostics).tobytes() == np.array(again.diagnostics).tobytes()

    def test_geometry_of_a_used_state_is_bitwise_equal(self):
        nodes = build_radial_curve(5, 0.65, 200).nodes
        used = CurveState(nodes)
        step(used, self.CONFIG)
        assert used._pass is None
        fresh = CurveState(nodes)
        assert discrete_curvature(used).tobytes() == discrete_curvature(fresh).tobytes()
        assert segment_lengths(used).tobytes() == segment_lengths(fresh).tobytes()

    def test_returned_geometry_belongs_to_the_caller(self):
        # writing into the returned arrays must not reach the next step
        nodes = build_radial_curve(5, 0.65, 200).nodes
        curve = CurveState(nodes)
        segment_lengths(curve)[:] = 1.0
        discrete_curvature(curve)[:] = 0.0
        stepped = step(curve, self.CONFIG)
        assert stepped.nodes.tobytes() == step(CurveState(nodes), self.CONFIG).nodes.tobytes()

    @pytest.mark.parametrize("failure", ["solver", "invalid_curve", "end_rule"])
    def test_a_failed_step_leaves_its_input_as_it_was(self, failure, monkeypatch):
        # the failed step consumed the geometry; the abort record's first read
        # computes it again, bitwise equal
        def failing(lower, diag, upper, rhs):
            if failure == "solver":
                raise LinearSolverError("injected")
            nodes = np.array(rhs)
            nodes[:, 1] = nodes[:, 0]
            return nodes

        refused = failure == "end_rule"  # eps*w >= 1: refused before the solve
        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal", no_solve if refused else failing)
        curve = CurveState(PINCHED) if refused else build_radial_curve(5, 0.65, 200)
        nodes, length, area = curve.nodes.tobytes(), curve.length, curve.area
        fields = [field.tobytes() for field in curve._pass]
        with pytest.raises((LinearSolverError, DegenerateSegmentError)):
            step(curve, self.CONFIG)
        assert curve._pass is None
        assert (curve.nodes.tobytes(), curve.length, curve.area) == (nodes, length, area)
        assert [field.tobytes() for field in geometry._state_geometry(curve)] == fields

    def test_the_new_state_is_validated_on_the_solvers_rows(self, monkeypatch):
        # the step builds its state on the rows the solver returns, uncopied:
        # bitwise the constructor's state on the same nodes, which copies them,
        # and holding the 2*M node floats alone, not the Sherman-Morrison row
        solve, solved = stepping.solve_cyclic_tridiagonal, []
        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal",
                            lambda *args: solved.append(solve(*args)) or solved[-1])
        m = 64
        stepped = step(random_star_curve(np.random.default_rng(3), m), self.CONFIG)
        copied = CurveState(solved[0].T)
        assert stepped.nodes.base is solved[0]
        assert not np.shares_memory(copied.nodes, solved[0])
        assert stepped.nodes.tobytes() == copied.nodes.tobytes()
        assert (stepped.length, stepped.area) == (copied.length, copied.area)
        assert [f.tobytes() for f in stepped._pass] == [f.tobytes() for f in copied._pass]
        assert not stepped.nodes.flags.writeable
        assert stepped.nodes.base.size == 2 * m

    def test_recorded_states_keep_no_pass(self):
        # retained records hold no per-node arrays beyond their nodes
        trajectory = evolve(build_radial_curve(5, 0.65, 200), self.CONFIG)
        states = [state for _, state in trajectory.snapshots]
        assert len(states) == 11
        assert all(state._pass is None for state in states[:-1])
        assert states[-1]._pass is not None


class TestEvolve:
    def test_zero_final_time_returns_input(self):
        curve = build_radial_curve(4, 0.4, 64)
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=0.0)
        trajectory = evolve(curve, config)
        assert trajectory.status is TrajectoryStatus.COMPLETED
        assert len(trajectory.snapshots) == 1
        assert trajectory.snapshots[0][0] == 0.0
        assert trajectory.snapshots[0][1] is curve

    def test_a_step_that_returns_its_input_keeps_the_last_record(self, monkeypatch):
        # the last state is recorded by step count, not by object identity
        monkeypatch.setattr(stepping, "step", lambda curve, config: curve)
        config = SolverConfig(FlowModel.curve_shortening(), t_final=25e-4, tau=1e-4,
                              snapshot_every=10)
        trajectory = evolve(build_circle(1.0, 16), config)
        assert trajectory.times == [0.0, 10 * config.tau, 20 * config.tau, 25 * config.tau]
        assert trajectory.final_time == 25 * config.tau

    def test_recording_cadence(self):
        curve = build_circle(1.0, 64)
        config = SolverConfig(
            model=FlowModel.area_preserving(), t_final=0.01, tau=1e-3, snapshot_every=3
        )
        trajectory = evolve(curve, config)
        assert trajectory.times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.01])
        assert len(trajectory.diagnostics) == len(trajectory.snapshots)
        assert all(b > a for a, b in zip(trajectory.times, trajectory.times[1:]))

    @pytest.mark.parametrize(
        "t_final, reached",
        [(2.5e-4, 3e-4), (3e-4, 3e-4), (1e-14, 1e-4), (3.0000000001e-4, 4e-4)],
        ids=["between", "on-a-multiple", "below-one-step", "just-past-a-multiple"],
    )
    def test_overshoots_to_reach_final_time(self, t_final, reached):
        curve = build_circle(1.0, 64)
        config = SolverConfig(model=FlowModel.area_preserving(), t_final=t_final, tau=1e-4)
        trajectory = evolve(curve, config)
        assert trajectory.final_time == pytest.approx(reached)
        assert trajectory.final_time >= t_final

    def test_small_circle_extinction(self):
        # analytic extinction at r0^2/2 = 0.005
        config = SolverConfig(
            model=FlowModel.curve_shortening(), t_final=0.02, tau=1e-5, snapshot_every=100
        )
        trajectory = evolve(build_circle(0.1, 64), config)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.extinction_time == pytest.approx(0.005, abs=5e-4)
        assert trajectory.diagnostics[-1].length < 1e-10

    @pytest.mark.parametrize("streamed", [False, True], ids=["plain", "streamed"])
    def test_extinct_initial_curve_takes_no_step(self, streamed, monkeypatch):
        # the first step refuses the speck before its solve, and its area
        # 1e-24 is far below 2 pi tau
        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal", no_solve)
        speck = CurveState(1e-12 * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
        seen = []
        on_record = (lambda *record: seen.append(record)) if streamed else None
        config = SolverConfig(FlowModel.curve_shortening(), t_final=1e-3, tau=1e-4)
        trajectory = evolve(speck, config, on_record=on_record)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.extinction_time == trajectory.final_time == 0.0
        assert len(trajectory.snapshots) == len(trajectory.diagnostics) == 1
        assert trajectory.final_state is speck
        assert trajectory.error is None
        assert len(seen) == (1 if streamed else 0)

    def test_extinction_at_the_final_step_is_extinct(self):
        # extinction is the step that cannot be taken: a run whose t_final
        # includes that step is extinct, one that ends just before it completed
        curve, csf = build_circle(0.1, 64), FlowModel.curve_shortening()
        plain = evolve(curve, SolverConfig(csf, t_final=0.02, tau=1e-5))
        t_extinct = plain.extinction_time
        trajectory = evolve(curve, SolverConfig(csf, t_final=t_extinct + 1e-5, tau=1e-5))
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.extinction_time == trajectory.final_time == t_extinct
        completed = evolve(curve, SolverConfig(csf, t_final=t_extinct, tau=1e-5))
        assert completed.status is TrajectoryStatus.COMPLETED
        assert completed.extinction_time is None
        assert completed.final_time == t_extinct
        assert completed.final_state.nodes.tobytes() == plain.final_state.nodes.tobytes()

    def test_immediate_abort_keeps_initial_snapshot(self):
        # one segment the step cannot resolve on a curve of area 1, far
        # above 2 pi tau: the first step must abort
        pinched = CurveState(PINCHED)
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4)
        trajectory = evolve(pinched, config)
        assert trajectory.status is TrajectoryStatus.ABORTED
        assert "segment" in trajectory.error
        assert trajectory.error.startswith("step 1 (t=0.0001): ")
        assert len(trajectory.snapshots) == 1

    def test_mid_run_abort_records_last_valid_state(self, monkeypatch):
        # a step fails in the shrink-to-point endgame, after the record at step 5000
        monkeypatch.setattr(stepping, "step", failing_at_step(5005))
        config = SolverConfig(
            model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4, snapshot_every=5000
        )
        trajectory = evolve(build_circle(1.0, 200), config)
        assert trajectory.status is TrajectoryStatus.ABORTED
        t_last, last = trajectory.snapshots[-1]
        assert t_last > 0.5
        assert np.isfinite(last.nodes).all()
        gaps = np.linalg.norm(last.nodes - np.roll(last.nodes, 1, axis=0), axis=1)
        assert gaps.min() > 0

    def test_collapsed_polygon_is_extinct(self):
        # at tau=1e-4 the unit 200-gon reaches a state its next step cannot
        # resolve, with an area that could vanish within that step
        config = SolverConfig(
            model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4, snapshot_every=5000
        )
        trajectory = evolve(build_circle(1.0, 200), config)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.error is None
        assert trajectory.extinction_time == trajectory.final_time == pytest.approx(0.501)
        last = trajectory.final_state
        assert unresolved(last, config.tau) >= 1.0
        assert abs(last.area) < 2.0 * np.pi * config.tau
        with pytest.raises(DegenerateSegmentError, match="too short to resolve"):
            step(last, config)
        # every earlier record was resolved and took its step
        _, before = trajectory.snapshots[-2]
        assert unresolved(before, config.tau) < 1.0

    def test_an_unresolved_tiny_ellipse_is_extinct_at_once(self):
        # a 200-node ellipse of semi-axes 3.5e-11 and 2e-11: its area ~2e-21
        # is far below 2 pi tau, so the step it cannot take makes it extinct
        curve = CurveState(TINY_ELLIPSE)
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4)
        assert unresolved(curve, config.tau) >= 1.0
        trajectory = evolve(curve, config)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.error is None
        assert trajectory.extinction_time == trajectory.final_time == 0.0
        assert len(trajectory.snapshots) == 1
        assert trajectory.final_state is curve

    def test_an_unresolved_tiny_ellipse_aborts_under_the_conserved_law(self):
        # the conserved law keeps the area, so its runs never end extinct,
        # whatever the sign of the discrete 2 pi - F*L
        config = SolverConfig(model=FlowModel.area_preserving(), t_final=1.0, tau=1e-4)
        trajectory = evolve(CurveState(TINY_ELLIPSE), config)
        assert trajectory.status is TrajectoryStatus.ABORTED
        assert trajectory.extinction_time is None
        assert trajectory.final_time == 0.0
        assert "step 1 (t=0.0001)" in trajectory.error
        assert "node 100" in trajectory.error

    def test_extinct_final_state_is_counterclockwise(self):
        # the last state of the shrinking 4-fold star spans ~1e-9 near the
        # origin; its area and isoperimetric ratio are those of a small
        # counterclockwise near-circle
        runs = [(200, 4, 0.4, None, 0.5410)]
        # (M, folds, amplitude, force; None for curve shortening, end): small
        # stars whose last step would carry the polygon through zero area onto
        # a clockwise one, which step refuses
        runs += [(10, 3, 0.5, None, 0.5644), (4, 3, 0.5, None, 0.5348),
                 (4, 2, 0.3, -1.0, 0.4095), (4, 5, 0.65, -1.0, 0.3876),
                 (5, 4, 0.4, -1.0, 0.3483), (6, 5, 0.65, -1.0, 0.3727)]
        for m, folds, amplitude, force, end in runs:
            model = FlowModel.curve_shortening() if force is None else FlowModel.constant_force(force)
            config = SolverConfig(model=model, t_final=3.0, tau=1e-4)
            trajectory = evolve(build_radial_curve(folds, amplitude, m), config)
            case = (m, folds, amplitude, force)
            assert trajectory.status is TrajectoryStatus.EXTINCT, case
            assert trajectory.extinction_time == pytest.approx(end, abs=1e-9), case
            assert trajectory.final_state.area > 0.0, case
            last = trajectory.diagnostics[-1]
            assert last.area > 0.0, case
            assert last.isoperimetric_ratio >= 1.0, case

    def test_length_decreases_under_curve_shortening_convex(self):
        # recorded at every single step
        t = 2 * np.pi * np.arange(100) / 100
        ellipse = CurveState(np.stack([1.3 * np.cos(t), 0.7 * np.sin(t)], axis=1))
        config = SolverConfig(
            model=FlowModel.curve_shortening(), t_final=0.02, tau=1e-4, snapshot_every=1
        )
        trajectory = evolve(ellipse, config)
        lengths = [row.length for row in trajectory.diagnostics]
        assert len(lengths) == 201
        assert all(b < a for a, b in zip(lengths, lengths[1:]))

    def test_recorded_forcing_is_the_applied_forcing(self, monkeypatch):
        # calls: diagnostics at t=0, the step from that state, diagnostics at t=tau
        applied = []

        def recording(*args):
            applied.append(forcing_value(*args))
            return applied[-1]

        monkeypatch.setattr(stepping, "forcing_value", recording)
        config = SolverConfig(model=FlowModel.area_preserving(), t_final=1e-4, tau=1e-4)
        rows = evolve(build_radial_curve(5, 0.65, 200), config).diagnostics
        assert len(applied) == 3
        assert rows[0].forcing == applied[1]

    @pytest.mark.parametrize("case", ["completed", "extinct", "aborted", "aborted_mid_run"])
    def test_on_record_sees_every_record_in_order(self, case, monkeypatch):
        # the callback gets the plain run's records; the streamed trajectory keeps the last
        curve, config, status = {
            "completed": (
                build_circle(1.0, 64),
                SolverConfig(FlowModel.area_preserving(), t_final=0.01, tau=1e-3, snapshot_every=3),
                TrajectoryStatus.COMPLETED,
            ),
            "extinct": (
                build_circle(0.1, 64),
                SolverConfig(FlowModel.curve_shortening(), t_final=0.02, tau=1e-5, snapshot_every=100),
                TrajectoryStatus.EXTINCT,
            ),
            "aborted": (
                CurveState(PINCHED),
                SolverConfig(FlowModel.curve_shortening(), t_final=0.01, tau=1e-4),
                TrajectoryStatus.ABORTED,
            ),
            # records at steps 0 and 5, step 7 fails, so step 6 is kept on record
            "aborted_mid_run": (
                build_radial_curve(5, 0.65, 100),
                SolverConfig(FlowModel.area_preserving(), t_final=0.01, tau=1e-4, snapshot_every=5),
                TrajectoryStatus.ABORTED,
            ),
        }[case]
        seen = []
        runs = []
        for on_record in (None, lambda *record: seen.append(record)):
            if case == "aborted_mid_run":
                monkeypatch.setattr(stepping, "step", failing_at_step(7))
            runs.append(evolve(curve, config, on_record=on_record))
        plain, trajectory = runs

        assert plain.status is trajectory.status is status
        assert trajectory.error == plain.error
        assert trajectory.extinction_time == plain.extinction_time
        assert [t for t, _, _ in seen] == plain.times == [row.t for _, _, row in seen]
        assert [state.nodes.tobytes() for _, state, _ in seen] == [
            state.nodes.tobytes() for _, state in plain.snapshots
        ]
        seen_rows = [row for _, _, row in seen]
        assert np.array(seen_rows).tobytes() == np.array(plain.diagnostics).tobytes()

        t_last, state_last, row_last = seen[-1]
        assert len(trajectory.snapshots) == len(trajectory.diagnostics) == 1
        assert trajectory.snapshots[0][0] == trajectory.final_time == t_last
        assert trajectory.final_state is state_last
        assert trajectory.diagnostics[0] is row_last
        assert plain.final_state.nodes.tobytes() == trajectory.final_state.nodes.tobytes()
        if case == "aborted_mid_run":
            assert plain.times == pytest.approx([0.0, 5e-4, 6e-4])
            assert trajectory.error == "step 7 (t=0.0007): injected"

    def test_csf_equals_zero_force_bitwise(self):
        check_bitwise_equivalence()

    @pytest.mark.parametrize("p", [-60, -36, 20, 60])
    @pytest.mark.parametrize(
        "model", [FlowModel.curve_shortening(), FlowModel.area_preserving()],
        ids=lambda m: m.law.value,
    )
    def test_scaled_star_follows_the_scaled_trajectory_bitwise(self, model, p):
        # the scheme has no length scale: the curve scaled by 2^p, run with
        # tau scaled by 2^(2p), gives every record scaled, bit for bit
        star, scale = build_radial_curve(5, 0.65, 200), 2.0**p
        config = SolverConfig(model, t_final=0.05, tau=1e-4)
        scaled_config = SolverConfig(model, t_final=0.05 * scale**2, tau=1e-4 * scale**2)
        plain = evolve(star, config)
        scaled = evolve(CurveState(scale * star.nodes), scaled_config)
        assert plain.status is scaled.status is TrajectoryStatus.COMPLETED
        assert len(scaled.snapshots) == len(plain.snapshots) == 6
        for (_, state), (_, scaled_state) in zip(plain.snapshots, scaled.snapshots):
            assert (scale * state.nodes).tobytes() == scaled_state.nodes.tobytes()

    def test_four_fold_collapse_ends_at_one_step_under_ulp_perturbations(self, reference_report):
        # ulp-level perturbations of the 4-fold study's nodes all end extinct
        # at step 5410; seed 7's step 5411, were it taken, would meet a
        # Sherman-Morrison denominator of pure roundoff and abort
        study = reference_report.records[0]
        assert study.name == "shrinking-4fold"
        assert study.trajectory.extinction_time == 5410 * study.config.tau
        nodes = build_radial_curve(4, 0.4, 200).nodes
        for seed in (0, 1, 7):
            sign = np.random.default_rng(seed).choice([-1.0, 0.0, 1.0], nodes.shape)
            trajectory = evolve(CurveState(nodes + sign * np.spacing(nodes)), study.config)
            assert trajectory.status is TrajectoryStatus.EXTINCT, (seed, trajectory.error)
            assert trajectory.extinction_time == study.trajectory.extinction_time

    def test_conserved_flow_drift_shrinks_with_tau(self):
        # the drift has an O(tau) part on top of a fixed spatial floor, so
        # halving tau in the tau-dominated regime cuts it by <= 0.75
        curve = build_radial_curve(5, 0.65, 200)
        drifts = {}
        for tau in (4e-4, 2e-4, 1e-4):
            config = SolverConfig(
                model=FlowModel.area_preserving(), t_final=0.5, tau=tau, snapshot_every=10000
            )
            rows = evolve(curve, config).diagnostics
            drifts[tau] = abs(rows[-1].area - rows[0].area) / rows[0].area
        assert drifts[2e-4] / drifts[4e-4] <= 0.75
        assert drifts[1e-4] < drifts[2e-4]

    @pytest.mark.parametrize("law", ["conserved", "csf"])
    def test_spacing_relaxes_at_the_tangential_rate(self, law):
        # the tangential speed relaxes d_i toward L/M at the rate <kappa^2>,
        # 1/R^2 on a circle: D(t) = max|d_i*M/L - 1| decays as e^(-t) on the
        # stationary unit circle and as sqrt(1 - 2t) on the shrinking one
        model = FlowModel.area_preserving() if law == "conserved" else FlowModel.curve_shortening()
        errors = []
        for m in (50, 100, 200):
            u = 2 * np.pi * np.arange(m) / m
            theta = u + 0.3 * np.sin(u)
            curve = CurveState(np.stack([np.cos(theta), np.sin(theta)], axis=1))
            tau = 1e-4 * (200 / m) ** 2
            config = SolverConfig(model, t_final=0.2, tau=tau, snapshot_every=round(0.01 / tau))
            trajectory = evolve(curve, config)
            t = np.array(trajectory.times)
            spread = np.array([np.max(np.abs(segment_lengths(state) * m / state.length - 1.0))
                               for _, state in trajectory.snapshots])
            if law == "conserved":
                late = t >= 0.05
                rate = -np.polyfit(t[late], np.log(spread[late]), 1)[0]
                errors.append(abs(rate - 1.0))
            else:
                errors.append(np.max(np.abs(spread / spread[0] / np.sqrt(1.0 - 2.0 * t) - 1.0)))
        order = -np.polyfit(np.log([50, 100, 200]), np.log(errors), 1)[0]
        assert order >= 1.9, errors
        assert errors[-1] <= 2e-3
