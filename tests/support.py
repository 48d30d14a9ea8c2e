"""Property-check helpers shared by the module tests and the acceptance suite.

Each check raises AssertionError with a measured value on failure, so it
can back both a targeted module test and an aggregated acceptance
criterion.
"""

import numpy as np

from curveflow import (
    CurveState,
    DiagnosticsRow,
    FlowModel,
    SolverConfig,
    build_circle,
    discrete_curvature,
    evolve,
    nonlocal_force,
    segment_lengths,
)


def initial_row(curve: CurveState) -> DiagnosticsRow:
    """The diagnostics row ``evolve`` records for ``curve`` at t = 0."""
    config = SolverConfig(FlowModel.curve_shortening(), t_final=0.0)
    return evolve(curve, config).diagnostics[0]


def rigid_motion(curve: CurveState, angle: float, shift) -> CurveState:
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    return CurveState(curve.nodes @ rotation.T + np.asarray(shift))


def check_euclidean_invariance(curve: CurveState, angle: float, shift) -> None:
    moved = rigid_motion(curve, angle, shift)
    d0, d1 = segment_lengths(curve), segment_lengths(moved)
    assert np.allclose(d0, d1, rtol=1e-9, atol=1e-12)
    k0, k1 = discrete_curvature(curve), discrete_curvature(moved)
    assert np.allclose(k0, k1, rtol=1e-8, atol=1e-8)
    assert np.isclose(curve.length, moved.length, rtol=1e-12)
    assert np.isclose(abs(curve.area), abs(moved.area), rtol=1e-9)
    s0, s1 = initial_row(curve), initial_row(moved)
    assert np.isclose(s0.isoperimetric_ratio, s1.isoperimetric_ratio, rtol=1e-9)
    assert np.isclose(s0.uniformity_ratio, s1.uniformity_ratio, rtol=1e-9)
    assert np.isclose(nonlocal_force(k0, d0), nonlocal_force(k1, d1), rtol=1e-8, atol=1e-10)


def check_scaling_covariance(curve: CurveState, scale: float) -> None:
    scaled = CurveState(scale * curve.nodes)
    d0, d1 = segment_lengths(curve), segment_lengths(scaled)
    assert np.allclose(scale * d0, d1, rtol=1e-12)
    k0, k1 = discrete_curvature(curve), discrete_curvature(scaled)
    assert np.allclose(k0 / scale, k1, rtol=1e-10, atol=1e-13)
    assert np.isclose(scale * curve.length, scaled.length, rtol=1e-12)
    assert np.isclose(scale**2 * curve.area, scaled.area, rtol=1e-12)
    assert np.isclose(nonlocal_force(k0, d0) / scale, nonlocal_force(k1, d1), rtol=1e-10)


def gauss_bonnet_sum(curve: CurveState) -> float:
    """sum_i kappa_i (d_i + d_{i+1})/2, the discrete total turning."""
    d = segment_lengths(curve)
    return float(np.sum(discrete_curvature(curve) * 0.5 * (d + np.roll(d, -1))))


def check_gauss_bonnet() -> None:
    # regular polygon: within O(M^-2) of 2*pi with the derived constant
    for m in (50, 100, 200, 400):
        err = abs(gauss_bonnet_sum(build_circle(1.0, m)) - 2 * np.pi)
        assert err <= 45.0 / m**2, f"M={m}: {err:.3e}"
    # smooth convex non-uniform mesh: second-order convergence to 2*pi
    errors = []
    for m in (64, 128, 256, 512):
        t = 2 * np.pi * np.arange(m) / m
        ellipse = CurveState(np.stack([1.3 * np.cos(t), 0.7 * np.sin(t)], axis=1))
        errors.append(abs(gauss_bonnet_sum(ellipse) - 2 * np.pi))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine > 3.3, f"ratios {errors}"


def check_orientation_antisymmetry(curve: CurveState) -> None:
    reversed_curve = CurveState(curve.nodes[::-1])
    kappa = discrete_curvature(curve)
    kappa_reversed = discrete_curvature(reversed_curve)
    assert np.allclose(
        np.sort(kappa), np.sort(-kappa_reversed), rtol=1e-12, atol=1e-14
    )
    assert np.isclose(curve.area, -reversed_curve.area, rtol=1e-13)


def check_bitwise_equivalence() -> None:
    """CURVE_SHORTENING and CONSTANT_FORCE(0) trajectories are bitwise equal."""
    from curveflow import build_radial_curve

    initial = build_radial_curve(5, 0.65, 64)
    results = []
    for model in (FlowModel.curve_shortening(), FlowModel.constant_force(0.0)):
        config = SolverConfig(model=model, t_final=0.02, tau=1e-3, snapshot_every=4)
        results.append(evolve(initial, config))
    first, second = results
    assert first.times == second.times
    for (_, a), (_, b) in zip(first.snapshots, second.snapshots):
        assert np.array_equal(a.nodes, b.nodes), "trajectories differ bitwise"
