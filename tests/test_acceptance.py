"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values (run with ``pytest -s`` to see them all)."""

import numpy as np

from curveflow import (
    FlowModel,
    SolverConfig,
    TrajectoryStatus,
    build_circle,
    discrete_curvature,
    solve_cyclic_tridiagonal,
    step,
)
from conftest import random_star_curve
from support import (
    check_bitwise_equivalence,
    check_euclidean_invariance,
    check_gauss_bonnet,
    check_orientation_antisymmetry,
    check_scaling_covariance,
)
from test_tridiagonal import dense_matrix, random_dominant_system


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_area_preservation(reference_report):
    record = reference_report.records[1]
    assert record.name == "conserved-5fold"
    ok = record.status == "completed" and record.area_drift <= 5e-3
    _report(
        1,
        ok,
        f"5-fold conserved flow over [0,0.5]: area {record.initial_area:.6f} -> "
        f"{record.final_area:.6f}, drift {record.area_drift:.4%} (bound 0.5%)",
    )


def test_criterion_2_initial_areas(reference_report):
    five, ten = reference_report.records[1], reference_report.records[2]
    rel5 = abs(five.initial_area - 3.839) / 3.839
    rel10 = abs(ten.initial_area - 3.476) / 3.476
    ok = rel5 <= 1.5e-2 and rel10 <= 1.5e-2
    _report(
        2,
        ok,
        f"initial areas {five.initial_area:.5f} vs 3.839 ({rel5:.3%}) and "
        f"{ten.initial_area:.5f} vs 3.476 ({rel10:.3%}), bound 1.5%",
    )


def test_criterion_3_circularization(reference_report):
    five, ten = reference_report.records[1], reference_report.records[2]
    ok = (
        five.final_isoperimetric_ratio <= 1.001
        and ten.final_isoperimetric_ratio <= 1.001
    )
    _report(
        3,
        ok,
        f"isoperimetric ratio at t=0.5: 5-fold {five.final_isoperimetric_ratio:.6f}, "
        f"10-fold {ten.final_isoperimetric_ratio:.6f} (bound 1.001)",
    )


def test_criterion_4_shrink_to_point(reference_report, convergence_report):
    record = reference_report.records[0]
    lengths = [row.length for row in record.trajectory.diagnostics]
    decreasing = all(b < a for a, b in zip(lengths, lengths[1:]))
    extinct_in_time = (
        record.status == TrajectoryStatus.EXTINCT.value
        and record.extinction_time is not None
        and record.extinction_time <= 0.55
    )
    finest = convergence_report.records[-1]
    circle_error = (
        abs(finest.extinction_time - 0.5) if finest.extinction_time is not None else np.inf
    )
    ok = decreasing and extinct_in_time and circle_error <= 0.01
    _report(
        4,
        ok,
        f"4-fold length strictly decreasing={decreasing}, extinction at "
        f"t={record.extinction_time} (bound 0.55); unit-circle extinction error at "
        f"tau=1e-5: {circle_error:.2e} (bound 0.01)",
    )


def test_criterion_5_circle_stationarity(stationary_circle_trajectory):
    circle = build_circle(1.0, 200)
    config = SolverConfig(model=FlowModel.area_preserving(), t_final=1e-4, tau=1e-4)
    moved = step(circle, config)
    per_step = float(np.max(np.linalg.norm(moved.nodes - circle.nodes, axis=1)))

    trajectory = stationary_circle_trajectory
    start = trajectory.snapshots[0][1].nodes
    end = trajectory.final_state.nodes
    total = float(np.max(np.linalg.norm(end - start, axis=1)))
    ok = per_step <= 1e-8 and total <= 1e-4
    _report(
        5,
        ok,
        f"conserved-flow 200-gon: per-step displacement {per_step:.3e} (bound 1e-8), "
        f"total over [0,1] {total:.3e} (bound 1e-4)",
    )


def test_criterion_6_spatial_convergence():
    errors = [(m, float(np.max(np.abs(discrete_curvature(build_circle(1.0, m)) - 1.0))))
              for m in (50, 100, 200)]
    order = float(-np.polyfit(*np.log(errors).T, 1)[0])
    ok = order >= 1.9
    detail = ", ".join(f"M={m}: {e:.2e}" for m, e in errors)
    _report(6, ok, f"curvature error fitted order {order:.3f} (bound 1.9); {detail}")


def test_criterion_7_temporal_convergence(convergence_report):
    order = convergence_report.fitted_orders["extinction_time_vs_tau"]
    errors = convergence_report.error_tables["extinction_time_error_vs_tau"]
    ok = order >= 0.9
    detail = ", ".join(f"tau={t:.0e}: {e:.2e}" for t, e in errors)
    _report(7, ok, f"extinction-time error fitted order {order:.3f} (bound 0.9); {detail}")


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        curve = random_star_curve(rng)
        angle = float(rng.uniform(0, 2 * np.pi))
        shift = rng.uniform(-10, 10, size=2)
        check_euclidean_invariance(curve, angle, shift)
        check_scaling_covariance(curve, float(rng.uniform(0.1, 10.0)))
        check_orientation_antisymmetry(curve)
    check_gauss_bonnet()
    check_bitwise_equivalence()
    _report(
        8,
        True,
        "Euclidean invariance, scaling covariance, Gauss-Bonnet, orientation "
        "antisymmetry, and bitwise zero-force equivalence all hold",
    )


def test_criterion_9_linear_solver_oracle():
    worst = 0.0
    rng = np.random.default_rng(31415)
    for m in (6, 64, 200):
        for _ in range(5):
            lower, diag, upper, rhs = random_dominant_system(rng, m)
            solution = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
            expected = np.linalg.solve(dense_matrix(lower, diag, upper), rhs)
            worst = max(
                worst,
                float(np.max(np.abs(solution - expected)) / np.max(np.abs(expected))),
            )
    ok = worst <= 1e-10
    _report(9, ok, f"cyclic solve vs dense elimination, worst relative error {worst:.2e} (bound 1e-10)")


def test_criterion_10_mesh_uniformity(reference_report):
    maxima = {
        record.name: record.max_uniformity_ratio
        for record in reference_report.records[:3]
    }
    ok = all(value <= 3.0 for value in maxima.values())
    detail = ", ".join(f"{name}: {value:.3g}" for name, value in maxima.items())
    _report(10, ok, f"max uniformity ratio over each run (bound 3): {detail}")
