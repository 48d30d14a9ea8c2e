"""Geometry module tests; quadrature oracles computed independently with scipy."""

import numpy as np
import pytest
from scipy.integrate import quad

from curveflow import (
    CircleOracle,
    CurveState,
    FlowLaw,
    FlowModel,
    SolverConfig,
    build_circle,
    build_radial_curve,
    circle_radius,
    discrete_curvature,
    evolve,
    read_polyline,
    segment_lengths,
    write_polyline,
)
from conftest import random_star_curve
from support import initial_row

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

#: each real-valued parameter of the package -> a call that sets it
REAL_PARAMETERS = {
    "t_final": lambda v: SolverConfig(FlowModel.curve_shortening(), t_final=v),
    "tau": lambda v: SolverConfig(FlowModel.curve_shortening(), t_final=1.0, tau=v),
    "force": lambda v: FlowModel(FlowLaw.CONSTANT_FORCE, force=v),
    "radius": lambda v: build_circle(radius=v, node_count=8),
    "amplitude": lambda v: build_radial_curve(3, v, 8),
    "initial_radius": lambda v: CircleOracle(v, FlowModel.curve_shortening()),
    "t": lambda v: circle_radius(CircleOracle(1.0, FlowModel.curve_shortening()), v),
}


def radial_speed(u, folds, amplitude):
    """|X'(u)| of the polar graph r(u) = 1 + a*cos(2*folds*pi*u)."""
    w = 2.0 * folds * np.pi
    r = 1.0 + amplitude * np.cos(w * u)
    rp = -amplitude * w * np.sin(w * u)
    return np.sqrt(rp**2 + (2.0 * np.pi * r) ** 2)


def polar_area(folds, amplitude):
    """Independent quadrature of A = 1/2 int r(theta)^2 dtheta."""
    return quad(
        lambda t: 0.5 * (1.0 + amplitude * np.cos(folds * t)) ** 2, 0.0, 2.0 * np.pi,
        limit=400,
    )[0]


def arc_length(folds, amplitude):
    return quad(lambda u: radial_speed(u, folds, amplitude), 0.0, 1.0, limit=400)[0]


class TestCurveState:
    @pytest.mark.parametrize("shape", [(5, 3), (10,)])
    def test_rejects_nodes_not_of_shape_m_by_2(self, shape):
        with pytest.raises(ValueError, match=r"nodes must have shape \(M, 2\)"):
            CurveState(np.ones(shape))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least 4"):
            CurveState(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    def test_rejects_duplicate_consecutive_nodes(self):
        with pytest.raises(ValueError, match="distinct"):
            CurveState(np.array(UNIT_SQUARE + [(0.0, 1.0)]))

    def test_rejects_cyclic_duplicate(self):
        # closure is implied, so repeating the first point is a duplicate
        with pytest.raises(ValueError, match="distinct"):
            CurveState(np.array(UNIT_SQUARE + [(0.0, 0.0)]))

    def test_rejects_non_finite(self):
        nodes = np.array(UNIT_SQUARE)
        nodes[2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CurveState(nodes)

    @pytest.mark.parametrize(
        "nodes",
        [
            [(0.0, 0.0), (1e200, 0.0), (1e200, 1e200), (0.0, 1e200)],  # area inf
            [(-1.5e308, -1.5e308), (1.5e308, -1.5e308), (1.5e308, 1.5e308),
             (-1.5e308, 1.5e308)],  # area nan
            [(0.0, 0.0), (1e308, 0.0), (1e308, 1e-300), (0.0, 1e-300)],  # length inf
        ],
        ids=["area-overflows", "area-is-nan", "length-overflows"],
    )
    def test_rejects_an_overflowing_length_or_area(self, nodes):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="length and area must be finite"):
            CurveState(np.array(nodes))

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError, match="zero signed area"):
            CurveState(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))

    def test_immutable(self):
        curve = CurveState(UNIT_SQUARE)
        assert not curve.nodes.flags.writeable
        with pytest.raises(Exception):
            curve.nodes = np.zeros((4, 2))

    def test_layout(self):
        # held as contiguous x/y rows; .nodes is a read-only (M, 2) view of them
        source = build_radial_curve(5, 0.65, 50).nodes.copy()
        curve = CurveState(source)
        assert curve.nodes.shape == (50, 2)
        assert curve.nodes.tobytes() == source.tobytes()
        assert not curve.nodes.flags.writeable
        assert curve.nodes.T.flags.c_contiguous

    def test_input_is_copied(self):
        source = build_radial_curve(5, 0.65, 50).nodes.copy()
        kept = source.copy()
        curve = CurveState(source)
        length, area = curve.length, curve.area
        source[3] = (7.0, -7.0)
        assert curve.nodes.tobytes() == kept.tobytes()
        assert (curve.length, curve.area) == (length, area)


class TestBuilders:
    def test_radial_nodes_on_polar_graph(self):
        curve = build_radial_curve(4, 0.4, 200)
        assert curve.node_count == 200
        assert curve.area > 0.0
        u = np.arange(200) / 200
        radius = np.linalg.norm(curve.nodes, axis=1)
        assert np.allclose(radius, 1.0 + 0.4 * np.cos(8 * np.pi * u), rtol=1e-14)
        assert np.allclose(curve.nodes[0], [1.4, 0.0])

    def test_zero_amplitude_gives_regular_polygon(self):
        curve = build_radial_curve(7, 0.0, 200)
        d = segment_lengths(curve)
        assert np.allclose(d, 2.0 * np.sin(np.pi / 200), rtol=1e-12)

    @pytest.mark.parametrize("amplitude", [1.0, -1.0, 1.5])
    def test_rejects_large_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            build_radial_curve(4, amplitude, 100)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            build_radial_curve(4, 0.4, 3)
        with pytest.raises(ValueError):
            build_radial_curve(0, 0.4, 100)
        # a fractional node count is no polygon; a bool is no count
        for node_count in (4.5, 10.5, True):
            with pytest.raises(ValueError, match="node_count >= 4 and integral"):
                build_circle(1.0, node_count)
            with pytest.raises(ValueError, match="node_count >= 4 and integral"):
                build_radial_curve(3, 0.2, node_count)
        # numpy integers are counts
        assert build_circle(1.0, np.int64(8)).node_count == 8
        assert build_radial_curve(3, 0.2, np.int64(10)).node_count == 10
        # a fractional folds does not close the curve; a bool is no count
        for folds in (2.5, True):
            with pytest.raises(ValueError, match="folds"):
                build_radial_curve(folds, 0.4, 200)

    def test_circle_radius(self):
        curve = build_circle(2.5, 128)
        assert np.allclose(np.linalg.norm(curve.nodes, axis=1), 2.5, rtol=1e-14)

    @pytest.mark.parametrize("radius", [1.0, 2.5, 2.0**-30])
    @pytest.mark.parametrize("folds", [1, 5])
    @pytest.mark.parametrize("node_count", [4, 7, 40, 200, 1000])
    def test_circle_is_the_scaled_zero_amplitude_star(self, node_count, folds, radius):
        # one polar sampling: the regular M-gon is one polygon, bit for bit
        star = build_radial_curve(folds, 0.0, node_count)
        circle = build_circle(radius, node_count)
        assert circle.nodes.tobytes() == (radius * star.nodes).tobytes()


class TestPolyline:
    def test_square_ccw(self):
        curve = CurveState(UNIT_SQUARE)
        assert curve.area > 0.0

    def test_square_cw(self):
        curve = CurveState(UNIT_SQUARE[::-1])
        assert curve.area < 0.0

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            CurveState(UNIT_SQUARE[:3])

    def test_file_round_trip(self, tmp_path):
        curve = build_radial_curve(5, 0.65, 200)
        path = tmp_path / "five_fold.txt"
        write_polyline(curve, path)
        loaded = read_polyline(path)
        assert np.array_equal(loaded.nodes, curve.nodes)
        assert loaded.area == curve.area

    def test_gz_suffix_round_trips_as_plain_text(self, tmp_path):
        # the suffix does not pick a compression: the bytes are the plain file's
        curve = build_radial_curve(5, 0.65, 200)
        write_polyline(curve, tmp_path / "curve.txt")
        write_polyline(curve, tmp_path / "curve.txt.gz")
        assert (tmp_path / "curve.txt.gz").read_bytes() == (tmp_path / "curve.txt").read_bytes()
        assert np.array_equal(read_polyline(tmp_path / "curve.txt.gz").nodes, curve.nodes)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("# a square\n\n0 0\n1 0\n\n1 1\n# midway comment\n0 1\n")
        curve = read_polyline(path)
        assert curve.node_count == 4

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 0 7\n1 1\n0 1\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_polyline(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 zero\n1 1\n0 1\n")
        with pytest.raises(ValueError, match=":2"):
            read_polyline(path)


class TestSegmentLengths:
    @pytest.mark.parametrize("m", [50, 200])
    def test_regular_polygon_chords(self, m):
        d = segment_lengths(build_circle(1.0, m))
        assert np.allclose(d, 2.0 * np.sin(np.pi / m), rtol=1e-12)

    def test_unit_square(self):
        d = segment_lengths(CurveState(UNIT_SQUARE))
        assert np.array_equal(d, np.ones(4))

    def test_five_fold_matches_quadrature(self):
        # independent fine-quadrature oracle for the arc length
        curve = build_radial_curve(5, 0.65, 200)
        total = curve.length
        oracle = arc_length(5, 0.65)
        assert abs(total - oracle) / oracle <= 1e-3

    def test_short_segment_returned_exactly(self):
        # a segment 1e-13 of the curve's size is measured like any other
        nodes = np.array([(0.0, 0.0), (1e-13, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert segment_lengths(CurveState(nodes))[1] == 1e-13


class TestDiscreteCurvature:
    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_regular_polygon_closed_form(self, radius):
        m = 200
        curve = build_circle(radius, m)
        kappa = discrete_curvature(curve)
        assert np.allclose(kappa, np.cos(np.pi / m) / radius, rtol=1e-10)

    def test_clockwise_flips_sign(self):
        m = 200
        curve = CurveState(build_circle(1.0, m).nodes[::-1])
        kappa = discrete_curvature(curve)
        assert np.allclose(kappa, -np.cos(np.pi / m), rtol=1e-10)

    def test_circle_convergence_is_second_order(self):
        node_counts = np.array([50, 100, 200, 400])
        errors = []
        for m in node_counts:
            kappa = discrete_curvature(build_circle(1.0, int(m)))
            err = np.max(np.abs(kappa - 1.0))
            assert np.isclose(err, 1.0 - np.cos(np.pi / m), rtol=1e-9)
            errors.append(err)
        order = -np.polyfit(np.log(node_counts), np.log(errors), 1)[0]
        assert order >= 1.9

    def test_translation_invariance_bitwise_on_dyadic_grid(self):
        # coordinates and offsets exactly representable, so the additions
        # are exact and the curvature values must match bit for bit
        rng = np.random.default_rng(11)
        base = random_star_curve(rng, node_count=32)
        nodes = np.round(base.nodes * 1024.0) / 1024.0
        curve = CurveState(nodes)
        shifted = CurveState(nodes + np.array([5.0, -3.0]))
        assert np.array_equal(discrete_curvature(curve), discrete_curvature(shifted))

    def test_translation_invariance_general(self):
        curve = build_radial_curve(5, 0.65, 200)
        shifted = CurveState(curve.nodes + np.array([5.0, -3.0]))
        assert np.allclose(
            discrete_curvature(curve), discrete_curvature(shifted), rtol=1e-9, atol=1e-9
        )


class TestAreaAndLength:
    def test_unit_square_area(self):
        assert CurveState(UNIT_SQUARE).area == 1.0

    def test_regular_200gon_area(self):
        area = build_circle(1.0, 200).area
        assert np.isclose(area, 100.0 * np.sin(np.pi / 100), rtol=1e-12)
        assert abs(area - 3.14108) < 1e-5

    def test_tiny_curve_away_from_origin_keeps_its_area(self):
        # side 2^-60 at offset 2^-10: every coordinate and difference is
        # exact, so the shoelace about X_0 gives exactly side^2, while
        # products of absolute coordinates cancel to 0
        side, offset = 2.0**-60, 2.0**-10
        square = offset + side * np.array(UNIT_SQUARE)
        curve = CurveState(square)
        assert curve.area == side * side
        assert CurveState(square[::-1]).area == -side * side

    def test_five_fold_area_matches_quadrature(self):
        curve = build_radial_curve(5, 0.65, 200)
        oracle = polar_area(5, 0.65)
        assert np.isclose(oracle, np.pi * (1 + 0.65**2 / 2), rtol=1e-10)
        assert abs(curve.area - oracle) / oracle <= 3e-3

    def test_unit_square_length(self):
        assert CurveState(UNIT_SQUARE).length == 4.0

    def test_polygon_perimeter(self):
        for m in (100, 400):
            length = build_circle(1.0, m).length
            assert np.isclose(length, 2 * m * np.sin(np.pi / m), rtol=1e-12)
        assert abs(length - 2 * np.pi) < 1e-4


class TestShapeDiagnostics:
    """The scalar shape measures of the diagnostics row recorded at t = 0."""

    def test_regular_polygon(self):
        for m in (64, 200):
            diag = initial_row(build_circle(1.0, m))
            assert np.isclose(diag.isoperimetric_ratio, (m / np.pi) * np.tan(np.pi / m), rtol=1e-12)
            assert diag.isoperimetric_ratio >= 1.0
            assert abs(diag.uniformity_ratio - 1.0) < 1e-12

    def test_unit_square(self):
        diag = initial_row(CurveState(UNIT_SQUARE))
        assert np.isclose(diag.isoperimetric_ratio, 4.0 / np.pi, rtol=1e-12)

    def test_five_fold_vs_quadrature(self):
        curve = build_radial_curve(5, 0.65, 200)
        diag = initial_row(curve)
        oracle = arc_length(5, 0.65) ** 2 / (4 * np.pi * polar_area(5, 0.65))
        assert diag.isoperimetric_ratio > 1.2
        assert abs(diag.isoperimetric_ratio - oracle) / oracle <= 5e-3


class TestInvariantProperties:
    def test_euclidean_invariance(self):
        from support import check_euclidean_invariance

        rng = np.random.default_rng(101)
        for _ in range(5):
            check_euclidean_invariance(
                random_star_curve(rng), float(rng.uniform(0, 2 * np.pi)), rng.uniform(-5, 5, 2)
            )

    def test_scaling_covariance(self):
        from support import check_scaling_covariance

        rng = np.random.default_rng(103)
        for _ in range(5):
            check_scaling_covariance(random_star_curve(rng), float(rng.uniform(0.1, 10.0)))

    def test_gauss_bonnet(self):
        from support import check_gauss_bonnet

        check_gauss_bonnet()

    def test_orientation_antisymmetry(self):
        from support import check_orientation_antisymmetry

        rng = np.random.default_rng(107)
        for _ in range(5):
            check_orientation_antisymmetry(random_star_curve(rng))


@pytest.mark.parametrize("value", [True, "1", pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("name", list(REAL_PARAMETERS))
def test_real_parameters_reject_a_bool_or_a_string(name, value):
    # the message starts with the parameter, which the CLI maps to its key;
    # an int too large for a float is not finite
    with pytest.raises(ValueError) as raised:
        REAL_PARAMETERS[name](value)
    assert str(raised.value).split()[0].strip("|") == name


@pytest.mark.parametrize("name", list(REAL_PARAMETERS))
def test_real_parameters_accept_a_numpy_float(name):
    # a narrow float must not overflow a cast: pytest turns the warning into an error
    for dtype in (np.float64, np.float32, np.float16):
        REAL_PARAMETERS[name](dtype(0.5))


class TestANumpyScalarIsTheNumberItHolds:
    """Each real parameter is used as the Python float it holds, so a float32
    input runs the float64 arithmetic of its value, bit for bit."""

    STAR = build_radial_curve(5, 0.3, 64)

    def test_solver_config_times(self):
        law = FlowModel.area_preserving()
        t_final, tau = np.float32(0.002), np.float32(1e-4)
        narrow = SolverConfig(law, t_final=t_final, tau=tau, snapshot_every=1)
        wide = SolverConfig(law, t_final=float(t_final), tau=float(tau), snapshot_every=1)
        assert type(narrow.t_final) is float and type(narrow.tau) is float
        run = evolve(self.STAR, narrow)
        assert all(type(t) is float for t in run.times)
        assert np.array_equal(run.final_state.nodes, evolve(self.STAR, wide).final_state.nodes)

    def test_constant_force(self):
        def final_nodes(force):
            config = SolverConfig(FlowModel.constant_force(force), t_final=0.002, tau=1e-4)
            return evolve(self.STAR, config).final_state.nodes

        model = FlowModel.constant_force(np.float32(0.7))
        assert type(model.force) is float
        assert np.array_equal(final_nodes(np.float32(0.7)), final_nodes(float(np.float32(0.7))))

    def test_circle_oracle(self):
        csf = FlowModel.curve_shortening()
        narrow = CircleOracle(np.float32(1.7), csf)
        wide = CircleOracle(float(np.float32(1.7)), csf)
        assert circle_radius(narrow, 0.3) == circle_radius(wide, 0.3) == 1.5132746486096422
        assert type(narrow.extinction_time()) is float

    def test_circle_radius_time(self):
        oracle = CircleOracle(1.0, FlowModel.curve_shortening())
        t = np.float32(0.3)
        assert circle_radius(oracle, t) == circle_radius(oracle, float(t))
