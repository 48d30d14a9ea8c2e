"""Circle-oracle and study-harness tests."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from curveflow import (
    CircleOracle,
    FlowModel,
    SolverConfig,
    TrajectoryStatus,
    build_circle,
    circle_radius,
    convergence_study,
    discrete_curvature,
    evolve,
)
from curveflow.analysis import nonconvex_fixture


def implicit_time_of_radius(r, r0, force):
    """Closed-form t(r) for dr/dt = force - 1/r (independent of the solver)."""
    return (np.log((1.0 - force * r) / (1.0 - force * r0)) + force * (r - r0)) / force**2


def exact_radius(r0, force, t):
    """The root of the closed-form t(r) = t, to 50 digits, by bisection in
    decimal arithmetic on r0's side of 1/force."""
    with localcontext() as ctx:
        ctx.prec = 50
        r0, force, t = Decimal(r0), Decimal(force), Decimal(t)

        def elapsed(r):
            return (force * (r - r0) + ((1 - force * r) / (1 - force * r0)).ln()) / force**2

        near, far = r0, (Decimal(0) if force * r0 < 1 else r0 + force * t)
        for _ in range(170):  # the bracket is at most 1 + force*t wide
            mid = (near + far) / 2
            if elapsed(mid) <= t:
                near = mid
            else:
                far = mid
        return near


class TestCircleOracle:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            CircleOracle(0.0, FlowModel.curve_shortening())

    def test_rejects_negative_time(self):
        oracle = CircleOracle(1.0, FlowModel.curve_shortening())
        with pytest.raises(ValueError):
            circle_radius(oracle, -0.1)

    def test_shrinking_closed_form(self):
        oracle = CircleOracle(1.0, FlowModel.curve_shortening())
        assert circle_radius(oracle, 0.375) == pytest.approx(0.5, rel=1e-15)
        assert circle_radius(oracle, 0.5) is None
        assert circle_radius(oracle, 17.0) is None
        assert oracle.extinction_time() == 0.5

    def test_self_consistency(self):
        # r(t)^2 + 2t = r0^2 exactly along the shrinking branch
        oracle = CircleOracle(1.7, FlowModel.curve_shortening())
        for t in np.linspace(0.0, 1.4, 29):
            r = circle_radius(oracle, float(t))
            assert np.isclose(r * r + 2 * t, 1.7**2, rtol=1e-14)

    def test_conserved_circle_is_stationary(self):
        oracle = CircleOracle(1.0, FlowModel.area_preserving())
        assert circle_radius(oracle, 17.0) == 1.0
        assert oracle.extinction_time() is None

    def test_zero_force_matches_shrinking_branch(self):
        csf = CircleOracle(1.0, FlowModel.curve_shortening())
        zero = CircleOracle(1.0, FlowModel.constant_force(0.0))
        for t in (0.1, 0.3, 0.49):
            assert circle_radius(csf, t) == circle_radius(zero, t)
        assert zero.extinction_time() == 0.5

    def test_constant_force_equilibrium(self):
        oracle = CircleOracle(0.5, FlowModel.constant_force(2.0))
        assert circle_radius(oracle, 3.0) == pytest.approx(0.5, rel=1e-9)
        assert oracle.extinction_time() is None

    def test_constant_force_shrinking_matches_implicit_relation(self):
        force, r0 = 0.5, 1.0
        oracle = CircleOracle(r0, FlowModel.constant_force(force))
        t_extinct = oracle.extinction_time()
        assert t_extinct == pytest.approx(
            -(np.log1p(-force * r0) + force * r0) / force**2, rel=1e-12
        )
        for t in (0.2, 0.5, 0.7):
            r = circle_radius(oracle, t)
            assert implicit_time_of_radius(r, r0, force) == pytest.approx(t, abs=1e-8)
        assert circle_radius(oracle, t_extinct + 0.01) is None

    def test_constant_force_growth(self):
        oracle = CircleOracle(1.0, FlowModel.constant_force(2.0))
        r = circle_radius(oracle, 0.3)
        assert r > 1.0
        assert implicit_time_of_radius(r, 1.0, 2.0) == pytest.approx(0.3, abs=1e-8)
        assert oracle.extinction_time() is None

    @pytest.mark.parametrize(
        "force, times",
        [(0.5, (0.05, 0.2, 0.5, 0.7, 0.77)), (2.0, (0.1, 0.3, 1.0, 3.0)), (-1.0, (0.05, 0.2, 0.3))],
        ids=["shrinking", "growing", "negative"],
    )
    def test_constant_force_radius_to_full_precision(self, force, times):
        oracle = CircleOracle(1.0, FlowModel.constant_force(force))
        for t in times:
            r = circle_radius(oracle, t)
            assert implicit_time_of_radius(r, 1.0, force) == pytest.approx(t, rel=1e-12)

    @pytest.mark.parametrize("force", [2.0, 0.5, -1.0], ids=["growing", "shrinking", "negative"])
    def test_constant_force_radius_at_short_times_is_within_4_ulp(self, force):
        # |t(r) - t|/t is ill-conditioned here: one ulp of r moves it by
        # about ulp/|r - r0|, so the radius itself is checked
        oracle = CircleOracle(1.0, FlowModel.constant_force(force))
        for t in (1e-6, 1e-4, 1e-2):
            r = circle_radius(oracle, t)
            assert abs(Decimal(r) - exact_radius(1.0, force, t)) <= 4 * Decimal(math.ulp(r))

    def test_constant_force_equilibrium_is_exact(self):
        oracle = CircleOracle(0.5, FlowModel.constant_force(2.0))
        for t in (1e-3, 0.5, 3.0):
            assert circle_radius(oracle, t) == 0.5

    @pytest.mark.parametrize("force", [0.5, -1.0, 1e-9])
    def test_constant_force_extinct_exactly_from_extinction_time(self, force):
        oracle = CircleOracle(1.0, FlowModel.constant_force(force))
        t_extinct = oracle.extinction_time()
        assert circle_radius(oracle, np.nextafter(t_extinct, 0.0)) > 0.0
        assert circle_radius(oracle, t_extinct) is None
        assert circle_radius(oracle, 1.5 * t_extinct) is None

    @pytest.mark.parametrize("x", [1e-8, 1e-10, -1e-10])
    def test_small_force_extinction_time_matches_series(self, x):
        # F = x / r0 exactly; t = r0^2 (1/2 + x/3 + x^2/4 + O(x^3))
        r0 = 2.0
        oracle = CircleOracle(r0, FlowModel.constant_force(x / r0))
        series = r0 * r0 * (0.5 + x / 3.0 + x * x / 4.0)
        assert oracle.extinction_time() == pytest.approx(series, rel=1e-15)

    def test_extinction_time_increases_with_force_near_zero(self):
        forces = (-1e-8, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-8)
        times = [CircleOracle(1.0, FlowModel.constant_force(f)).extinction_time() for f in forces]
        assert times[3] == 0.5
        assert all(a < b for a, b in zip(times, times[1:]))


class TestStepperAgainstConstantForceOracle:
    @pytest.mark.parametrize("force", [0.5, 2.0, -1.0])
    def test_mean_radius_tracks_circle_radius(self, force):
        model = FlowModel.constant_force(force)
        config = SolverConfig(model=model, t_final=0.2, tau=1e-4, snapshot_every=100)
        trajectory = evolve(build_circle(1.0, 200), config)
        assert trajectory.status is TrajectoryStatus.COMPLETED
        assert len(trajectory.snapshots) == 21
        oracle = CircleOracle(1.0, model)
        for t, state in trajectory.snapshots:
            nodes = state.nodes
            mean_radius = np.linalg.norm(nodes - nodes.mean(axis=0), axis=1).mean()
            assert mean_radius == pytest.approx(circle_radius(oracle, t), abs=1e-3)

    @pytest.mark.parametrize("force", [0.5, -1.0])
    def test_collapse_follows_the_closed_form_to_extinction(self, force):
        # the regular 100-gon runs through its collapse: measured 9.5 and 8.9
        # steps after extinction_time(), and within 7.2e-3 relative of
        # circle_radius while that is >= 0.3
        model = FlowModel.constant_force(force)
        config = SolverConfig(model=model, t_final=1.0, tau=4e-4, snapshot_every=10)
        trajectory = evolve(build_circle(1.0, 100), config)
        oracle = CircleOracle(1.0, model)
        assert trajectory.status is TrajectoryStatus.EXTINCT
        assert abs(trajectory.extinction_time - oracle.extinction_time()) <= 12 * config.tau
        checked = 0
        for t, state in trajectory.snapshots:
            radius = circle_radius(oracle, t)
            if radius is None or radius < 0.3:
                continue
            nodes = state.nodes
            mean_radius = np.linalg.norm(nodes - nodes.mean(axis=0), axis=1).mean()
            assert mean_radius == pytest.approx(radius, rel=1e-2)
            checked += 1
        assert checked >= 50


class TestNonconvexFixture:
    def test_shape(self):
        curve = nonconvex_fixture()
        assert curve.node_count == 200
        assert curve.area > 0.0
        kappa = discrete_curvature(curve)
        assert kappa.min() < 0 < kappa.max()  # genuinely nonconvex


class TestReferenceStudies:
    def test_report_structure(self, reference_report):
        names = [r.name for r in reference_report.records]
        assert names == [
            "shrinking-4fold",
            "conserved-5fold",
            "conserved-10fold",
            "conserved-polyline",
        ]
        for record in reference_report.records:
            assert record.trajectory.snapshots[0][0] == 0.0
            assert record.trajectory.diagnostics[0].t == 0.0
            assert record.elapsed_seconds > 0

    def test_shrinking_study_reaches_extinction(self, reference_report):
        record = reference_report.records[0]
        assert record.status == TrajectoryStatus.EXTINCT.value
        assert record.extinction_time is not None
        lengths = [row.length for row in record.trajectory.diagnostics]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))

    def test_conserved_studies_hold_area(self, reference_report):
        five, ten, poly = reference_report.records[1:]
        assert five.status == ten.status == poly.status == "completed"
        assert five.initial_area == pytest.approx(3.7964588, abs=1e-5)
        assert ten.initial_area == pytest.approx(3.4435442, abs=1e-5)
        assert five.area_drift <= 5e-3
        assert ten.area_drift <= 1e-2
        assert poly.area_drift <= 3e-3

    def test_conserved_studies_circularize_monotonically(self, reference_report):
        for record in reference_report.records[1:3]:
            iso = [row.isoperimetric_ratio for row in record.trajectory.diagnostics]
            assert all(b <= a + 1e-6 for a, b in zip(iso, iso[1:]))
            assert iso[-1] < iso[0]


class TestConvergenceStudy:
    def test_report_contents(self, convergence_report):
        assert len(convergence_report.records) == 3
        for record in convergence_report.records:
            assert record.status == TrajectoryStatus.EXTINCT.value
        table = convergence_report.error_tables["extinction_time_error_vs_tau"]
        assert [tau for tau, _ in table] == [4e-5, 2e-5, 1e-5]
        assert set(convergence_report.error_tables) == {"extinction_time_error_vs_tau"}
        assert set(convergence_report.fitted_orders) == {"extinction_time_vs_tau"}

    def test_tracks_circle_radius_oracle(self, convergence_report):
        # finest run: radius error against sqrt(1-2t) stays below 5e-3 to t=0.45
        finest = convergence_report.records[-1]
        assert finest.config.tau == pytest.approx(1e-5)
        worst = 0.0
        for t, state in finest.trajectory.snapshots:
            if t > 0.45:
                continue
            centroid = state.nodes.mean(axis=0)
            radius = float(np.linalg.norm(state.nodes - centroid, axis=1).mean())
            worst = max(worst, abs(radius - np.sqrt(1.0 - 2.0 * t)))
        assert worst <= 5e-3
