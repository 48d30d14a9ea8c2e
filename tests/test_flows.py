"""Flow-law tests: forcing values pinned by polygon closed forms."""

import numpy as np
import pytest

from curveflow import (
    CurveState,
    FlowLaw,
    FlowModel,
    build_circle,
    discrete_curvature,
    forcing_value,
    nonlocal_force,
    segment_lengths,
)
from conftest import random_star_curve
from support import rigid_motion


def forcing_inputs(curve):
    """kappa, the spans s_i = d_i + d_{i+1} and the discrete normals N_i."""
    d = segment_lengths(curve)
    span = d + np.roll(d, -1)
    chord = np.roll(curve.nodes, -1, axis=0) - np.roll(curve.nodes, 1, axis=0)
    normal = np.stack([chord[:, 1], -chord[:, 0]], axis=1) / span[:, None]
    return discrete_curvature(curve), span, normal


def kappa_and_lengths(curve):
    return discrete_curvature(curve), segment_lengths(curve)


def law_force(curve):
    return forcing_value(FlowModel.area_preserving(), *forcing_inputs(curve))


class TestFlowModel:
    def test_factories(self):
        assert FlowModel.curve_shortening().law is FlowLaw.CURVE_SHORTENING
        assert FlowModel.constant_force(2.5).force == 2.5
        assert FlowModel.area_preserving().law is FlowLaw.AREA_PRESERVING

    def test_force_only_for_constant(self):
        with pytest.raises(ValueError):
            FlowModel(FlowLaw.CURVE_SHORTENING, force=1.0)

    def test_force_must_be_finite(self):
        with pytest.raises(ValueError):
            FlowModel.constant_force(np.nan)


class TestNonlocalForce:
    def test_polygon_closed_form(self):
        # length-weighted average of the uniform polygon curvature
        m = 200
        force = nonlocal_force(*kappa_and_lengths(build_circle(1.0, m)))
        assert np.isclose(force, np.cos(np.pi / m), rtol=1e-12)
        assert abs(force - 1.0) <= 1.5e-4

    def test_clockwise_polygon_flips_sign(self):
        m = 200
        clockwise = CurveState(build_circle(1.0, m).nodes[::-1])
        force = nonlocal_force(*kappa_and_lengths(clockwise))
        assert np.isclose(force, -np.cos(np.pi / m), rtol=1e-12)

    def test_constant_curvature_returns_the_constant(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = rng.uniform(0.1, 2.0, size=40)
            c = rng.uniform(-3.0, 3.0)
            assert np.isclose(nonlocal_force(np.full(40, c), d), c, rtol=1e-13)

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="equal size"):
            nonlocal_force(np.ones(5), np.ones(6))

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError, match="positive"):
            nonlocal_force(np.ones(5), np.array([1.0, 1.0, 0.0, 1.0, 1.0]))

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            kappa, d = kappa_and_lengths(random_star_curve(rng))
            force = nonlocal_force(kappa, d)
            assert kappa.min() - 1e-12 <= force <= kappa.max() + 1e-12

    def test_rigid_invariance_and_scaling(self):
        rng = np.random.default_rng(23)
        curve = random_star_curve(rng, node_count=64)
        force = nonlocal_force(*kappa_and_lengths(curve))
        moved = rigid_motion(curve, 1.1, (4.0, -2.0))
        assert np.isclose(nonlocal_force(*kappa_and_lengths(moved)), force, rtol=1e-8)
        scaled = CurveState(3.0 * curve.nodes)
        assert np.isclose(nonlocal_force(*kappa_and_lengths(scaled)), force / 3.0, rtol=1e-10)

    def test_total_turning_approximation(self):
        # F ~ 2*pi/L for smooth convex curves, O(M^-2) on a non-uniform mesh
        for m in (128, 256, 512):
            t = 2 * np.pi * np.arange(m) / m
            ellipse = CurveState(np.stack([1.3 * np.cos(t), 0.7 * np.sin(t)], axis=1))
            force = nonlocal_force(*kappa_and_lengths(ellipse))
            assert abs(force - 2 * np.pi / ellipse.length) <= 12.0 / m**2
            # the solver's area-conserving F differs from it only at O(M^-2)
            assert abs(law_force(ellipse) - force) <= 12.0 / m**2


class TestForcingValue:
    def test_dispatch(self):
        # on the regular M-gon kappa = cos(pi/M) and |N| = cos(pi/M), so the
        # area-preserving F is 1/cos(pi/M)
        m = 200
        inputs = forcing_inputs(build_circle(1.0, m))
        assert forcing_value(FlowModel.curve_shortening(), *inputs) == 0.0
        assert forcing_value(FlowModel.constant_force(2.5), *inputs) == 2.5
        assert np.isclose(
            forcing_value(FlowModel.area_preserving(), *inputs), 1.0 / np.cos(np.pi / m), rtol=1e-12
        )
