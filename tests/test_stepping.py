"""Time-stepper tests: closed forms on the regular polygon plus a dense
backward-Euler oracle assembled independently in the test."""

import itertools

import numpy as np
import pytest

from curveflow import (
    CurveState,
    DegenerateSegmentError,
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
from support import check_bitwise_equivalence, regular_polygon_radii


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

    def test_degenerate_segment_aborts(self):
        # the unit square with a node 5e-13 from a corner, below the 1e-12 threshold
        square = CurveState(
            np.array([(0.0, 0.0), (5e-13, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        )
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4)
        with pytest.raises(DegenerateSegmentError):
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


class TestGeometryHandOff:
    """``step`` takes the per-node geometry its input's validation computed,
    once; no trajectory or geometry may depend on whether it had it."""

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

    @pytest.mark.parametrize("failure", ["solver", "invalid_curve"])
    def test_a_failed_step_leaves_its_input_as_it_was(self, failure, monkeypatch):
        # the abort record then reads the geometry validation computed
        def failing(lower, diag, upper, rhs):
            if failure == "solver":
                raise LinearSolverError("injected")
            nodes = np.array(rhs)
            nodes[:, 1] = nodes[:, 0]
            return nodes

        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal", failing)
        curve = build_radial_curve(5, 0.65, 200)
        geometry = curve._pass
        with pytest.raises((LinearSolverError, DegenerateSegmentError)):
            step(curve, self.CONFIG)
        assert curve._pass is geometry

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

    def test_recording_cadence(self):
        curve = build_circle(1.0, 64)
        config = SolverConfig(
            model=FlowModel.area_preserving(), t_final=0.01, tau=1e-3, snapshot_every=3
        )
        trajectory = evolve(curve, config)
        assert trajectory.times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.01])
        assert len(trajectory.diagnostics) == len(trajectory.snapshots)
        assert all(b > a for a, b in zip(trajectory.times, trajectory.times[1:]))

    def test_overshoots_to_reach_final_time(self):
        curve = build_circle(1.0, 64)
        config = SolverConfig(model=FlowModel.area_preserving(), t_final=2.5e-4, tau=1e-4)
        trajectory = evolve(curve, config)
        assert trajectory.final_time == pytest.approx(3e-4)

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
        def no_step(curve, config):
            raise AssertionError("an extinct curve was stepped")

        monkeypatch.setattr(stepping, "step", no_step)
        speck = CurveState(1e-12 * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
        assert speck.length < stepping.EXTINCTION_LENGTH
        seen = []
        on_record = (lambda *record: seen.append(record)) if streamed else None
        config = SolverConfig(FlowModel.curve_shortening(), t_final=1e-3, tau=1e-4)
        trajectory = evolve(speck, config, on_record=on_record)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.extinction_time == trajectory.final_time == 0.0
        assert len(trajectory.snapshots) == len(trajectory.diagnostics) == 1
        assert trajectory.final_state is speck
        assert len(seen) == (1 if streamed else 0)

    def test_extinction_at_the_final_step_is_extinct(self):
        # t_final is the step at which the plain run goes extinct
        curve, csf = build_circle(0.1, 64), FlowModel.curve_shortening()
        t_extinct = evolve(curve, SolverConfig(csf, t_final=0.02, tau=1e-5)).extinction_time
        trajectory = evolve(curve, SolverConfig(csf, t_final=t_extinct, tau=1e-5))
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.extinction_time == trajectory.final_time == t_extinct

    def test_immediate_abort_keeps_initial_snapshot(self):
        # one segment below the 1e-12 threshold, total length far above the
        # extinction threshold: the first step must abort
        pinched = CurveState(
            np.array([(0.0, 0.0), (5e-13, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        )
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
        # at tau=1e-4 the unit 200-gon reaches a state of length ~2e-10, above
        # the extinction length, whose segments are all below the step threshold
        config = SolverConfig(
            model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4, snapshot_every=5000
        )
        trajectory = evolve(build_circle(1.0, 200), config)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.error is None
        assert trajectory.extinction_time == trajectory.final_time == pytest.approx(0.501)
        last = trajectory.final_state
        assert last.length >= stepping.EXTINCTION_LENGTH
        assert segment_lengths(last).max() < geometry.EPSILON_GEOM

    def test_a_segment_above_the_threshold_keeps_the_curve_alive(self):
        # a 200-node ellipse shorter than 200e-12, some of its segments above
        # 1e-12 and some below: not extinct, so its first step aborts
        angle = 2 * np.pi * np.arange(200) / 200
        curve = CurveState(np.stack([3.5e-11 * np.cos(angle), 2e-11 * np.sin(angle)], axis=1))
        assert curve.length < 200 * geometry.EPSILON_GEOM
        assert segment_lengths(curve).max() >= geometry.EPSILON_GEOM
        assert segment_lengths(curve).min() < geometry.EPSILON_GEOM
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=1.0, tau=1e-4)
        trajectory = evolve(curve, config)
        assert trajectory.status is TrajectoryStatus.ABORTED
        assert trajectory.error.startswith("step 1 (t=0.0001): segment length")

    def test_extinct_final_state_is_counterclockwise(self):
        # the last state of the shrinking 4-fold star spans ~4e-24 about a
        # point ~2e-16 from the origin; its area and isoperimetric ratio are
        # those of a small counterclockwise near-circle
        config = SolverConfig(model=FlowModel.curve_shortening(), t_final=0.6, tau=1e-4)
        trajectory = evolve(build_radial_curve(4, 0.4, 200), config)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert trajectory.extinction_time == pytest.approx(0.5411, abs=1e-9)
        assert trajectory.final_state.area > 0.0
        last = trajectory.diagnostics[-1]
        assert last.area > 0.0
        assert last.isoperimetric_ratio >= 1.0

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
                CurveState(np.array([(0.0, 0.0), (5e-13, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])),
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
