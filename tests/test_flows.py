"""Flow-law tests: forcing values pinned by polygon closed forms, and the
paper's average forcing as a reference for the applied one."""

import numpy as np
import pytest

from curveflow import (
    CurveState,
    FlowLaw,
    FlowModel,
    SolverConfig,
    build_circle,
    build_radial_curve,
    discrete_curvature,
    evolve,
    forcing_value,
    segment_lengths,
    stepping,
)


def forcing_inputs(curve):
    """kappa, the spans s_i = d_i + d_{i+1} and the discrete normals N_i as
    (2, M) rows."""
    d = segment_lengths(curve)
    span = d + np.roll(d, -1)
    chord = np.roll(curve.nodes, -1, axis=0) - np.roll(curve.nodes, 1, axis=0)
    normal = np.stack([chord[:, 1], -chord[:, 0]]) / span
    return discrete_curvature(curve), span, normal


def law_force(curve):
    return forcing_value(FlowModel.area_preserving(), *forcing_inputs(curve))


def paper_average(kappa, span):
    """The paper's F: sum_i kappa_i*s_i / sum_i s_i, i.e. sum_i kappa_i*s_i / 2L."""
    return float(np.dot(kappa, span) / span.sum())


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
        # an int too large for a float: the check's ValueError, not float()'s OverflowError
        with pytest.raises(ValueError, match="force must be finite"):
            FlowModel.constant_force(10**400)

    @pytest.mark.parametrize("force", [0.7, -1.3])
    def test_clockwise_curve_runs_under_the_opposite_force(self, force):
        # N_i points outward only on a counterclockwise curve, so F on the
        # reversed star is -F on the star, node for node in reverse order
        star = build_radial_curve(5, 0.65, 200)

        def final_nodes(curve, f):
            return evolve(curve, SolverConfig(FlowModel.constant_force(f), 0.05)).final_state.nodes

        clockwise = final_nodes(CurveState(star.nodes[::-1]), force)
        assert np.abs(clockwise[::-1] - final_nodes(star, -force)).max() <= 1e-12


class TestNonlocalForce:
    """The paper's forcing (1/L) * integral of kappa ds, as a reference for the law's F."""

    def test_total_turning_approximation(self):
        # F ~ 2*pi/L for smooth convex curves, O(M^-2) on a non-uniform mesh
        for m in (128, 256, 512):
            t = 2 * np.pi * np.arange(m) / m
            ellipse = CurveState(np.stack([1.3 * np.cos(t), 0.7 * np.sin(t)], axis=1))
            kappa, span, _ = forcing_inputs(ellipse)
            force = paper_average(kappa, span)
            assert abs(force - 2 * np.pi / ellipse.length) <= 12.0 / m**2
            # the solver's area-conserving F differs from it only at O(M^-2)
            assert abs(law_force(ellipse) - force) <= 12.0 / m**2

    def test_paper_average_drifts_at_second_order_in_space(self, monkeypatch, reference_report):
        # the 5-fold study over [0, 0.5] at tau = 1e-4: under the paper's F
        # the area drift is a spatial error (4.25x smaller from M = 100 to
        # 200), which the applied F removes (9.8x smaller at M = 200)
        monkeypatch.setattr(stepping, "forcing_value",
                            lambda model, kappa, span, normal: paper_average(kappa, span))
        drifts = {}
        for m in (100, 200):
            config = SolverConfig(FlowModel.area_preserving(), t_final=0.5, snapshot_every=10**6)
            rows = evolve(build_radial_curve(5, 0.65, m), config).diagnostics
            drifts[m] = abs(rows[-1].area - rows[0].area) / rows[0].area
        assert drifts[100] / drifts[200] >= 3.5, drifts
        applied = {r.name: r.area_drift for r in reference_report.records}["conserved-5fold"]
        assert drifts[200] / applied >= 5.0, (drifts, applied)


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
