"""Config parsing, snapshot/summary formats, and CLI end-to-end runs."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import curveflow
from curveflow import (
    ConfigError,
    CurveState,
    FlowLaw,
    LinearSolverError,
    build_circle,
    build_radial_curve,
    cli,
    discrete_curvature,
    geometry,
    segment_lengths,
    stepping,
)
from curveflow.analysis import StudyReport
from curveflow.cli import (
    SUMMARY_HEADER,
    parse_config,
    run_cli,
    write_snapshot,
)

EX2_CONFIG = """\
# five-folded star under the conserved flow
curve = radial
folds = 5
amplitude = 0.65
model = area_preserving
nodes = 200
t_final = 0.5
"""


class TestParseConfig:
    def test_full_example(self):
        spec = parse_config(EX2_CONFIG)
        assert np.array_equal(spec.initial.nodes, build_radial_curve(5, 0.65, 200).nodes)
        assert spec.config.model.law is FlowLaw.AREA_PRESERVING
        assert spec.config.t_final == 0.5
        # documented defaults
        assert spec.config.tau == 1e-4
        assert spec.config.snapshot_every == 100
        assert spec.out_dir == "out"

    def test_circle_defaults(self):
        # radius 1 and 200 nodes, the defaults of build_circle
        spec = parse_config("curve = circle\nmodel = csf\nt_final = 1\n")
        assert np.array_equal(spec.initial.nodes, build_circle(1.0, 200).nodes)

    def test_constant_force_round_trip(self):
        spec = parse_config(
            "curve = circle\nmodel = constant\nforce = 2.5\nt_final = 1\n"
        )
        assert spec.config.model.law is FlowLaw.CONSTANT_FORCE
        assert spec.config.model.force == 2.5

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("curve = radial\nfolds = 5\namplitude = 0.65\nmodel = csf\ntau = -1\nt_final = 1", "tau > 0", 5),
            ("curve = radial\nfolds = 5\namplitude = 0.65\npolyline_path = x\nmodel = csf\nt_final = 1", "exactly one initial curve", 4),
            ("curve = circle\nfolds = 3\nmodel = csf\nt_final = 1", "exactly one initial curve", 2),
            ("curve = circle\nmodel = csf\nt_final = -2", "t_final >= 0", 3),
            ("curve = circle\nmodel = csf\nt_final = 1\nsnapshot_every = 0", "snapshot_every >= 1", 4),
            ("curve = circle\nmodel = csf\nt_final = 1\nnodes = 3", "nodes >= 4", 4),
            ("curve = radial\nfolds = 0\namplitude = 0.5\nmodel = csf\nt_final = 1", "folds >= 1", 2),
            ("curve = radial\nfolds = 4\namplitude = 1.0\nmodel = csf\nt_final = 1", "amplitude", 3),
            ("curve = circle\nradius = -1\nmodel = csf\nt_final = 1", "radius > 0", 2),
            ("curve = circle\nmodel = csf\nt_final = 1\nforce = 2", "force only applies", 4),
            ("curve = circle\nmodel = constant\nt_final = 1", "missing required key 'force'", None),
            ("curve = polyline\npolyline_path = p.txt\nnodes = 10\nmodel = csf\nt_final = 1", "nodes does not apply", 3),
            ("curve = hexagon\nmodel = csf\nt_final = 1", "curve must be one of", 1),
            ("curve = circle\nmodel = magic\nt_final = 1", "model must be one of", 2),
            ("model = csf\nt_final = 1", "missing required key 'curve'", None),
            ("curve = circle\nmodel = csf", "missing required key 't_final'", None),
            ("curve = circle\nmodel = csf\ntau = nan\nt_final = 1", "tau > 0", 3),
        ],
    )
    def test_validation_errors(self, text, message, line):
        with pytest.raises(ConfigError, match=message) as caught:
            parse_config(text)
        assert caught.value.line == line

    def test_type_errors_come_before_cross_key_checks(self):
        # each value is converted as its line is read, so a bad integer on
        # line 2 is reported before the unknown curve on line 1
        with pytest.raises(ConfigError, match="nodes must be an integer") as caught:
            parse_config("curve = hexagon\nnodes = x\nmodel = csf\nt_final = 1")
        assert caught.value.line == 2

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("curve = circle\nmodel = csf\nwhat is this\nt_final = 1")
        with pytest.raises(ConfigError, match="line 2: unknown key"):
            parse_config("curve = circle\ncolor = red\nmodel = csf\nt_final = 1")
        with pytest.raises(ConfigError, match="line 3: duplicate key"):
            parse_config("curve = circle\nmodel = csf\nmodel = csf\nt_final = 1")
        with pytest.raises(ConfigError, match="line 2: empty value"):
            parse_config("curve = circle\nmodel =\nt_final = 1")

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_config("# heading\n\ncurve = circle # trailing\nmodel = csf\nt_final = 1\n")
        assert np.array_equal(spec.initial.nodes, build_circle().nodes)


def _per_row_snapshot(t, curve, kappa):
    """The snapshot text formatted one numpy scalar at a time (the reference)."""
    nodes = curve.nodes
    lines = [f"# t={t:.17g} M={curve.node_count}"]
    for i in range(curve.node_count):
        lines.append(f"{i + 1} {nodes[i, 0]:.17g} {nodes[i, 1]:.17g} {kappa[i]:.17g}")
    return "\n".join(lines) + "\n"


def _awkward_snapshot(node_count):
    if node_count == 4:
        nodes = np.array([(-0.0, -0.0), (1e300, 5e-324), (1e300, 0.1), (3.0, 2.0)])
    else:
        # a circle scaled node by node over 200 decades (the shoelace must
        # not overflow), with a few exact values
        rng = np.random.default_rng(5)
        nodes = build_circle(1.0, node_count).nodes * 10.0 ** rng.uniform(-100, 100, (node_count, 1))
        nodes[:4] = [(-0.0, 1.0), (5e-324, 2.0), (0.1, -0.0), (7.0, 1e200)]
    kappa = np.random.default_rng(6).normal(size=node_count)
    kappa[:4] = [np.inf, -np.inf, np.nan, -0.0]
    return CurveState(nodes), kappa


class TestSnapshotFormat:
    @pytest.mark.parametrize("node_count", [4, 1000])
    def test_matches_the_per_row_formula(self, tmp_path, monkeypatch, node_count):
        # the kappa column carries values no curve has (+-inf, nan, -0.0)
        curve, kappa = _awkward_snapshot(node_count)
        monkeypatch.setattr(cli, "discrete_curvature", lambda _: kappa)
        path = tmp_path / "awkward.dat"
        for t in (0.0, 3 * 1e-4, 0.1):
            write_snapshot(t, curve, path)
            assert path.read_bytes() == _per_row_snapshot(t, curve, kappa).encode()

    def test_unit_square_rows(self, tmp_path):
        square = CurveState([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        path = tmp_path / "square.dat"
        write_snapshot(0.0, square, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# t=0 M=4"
        assert len(lines) == 5
        first = lines[1].split()
        assert first[0] == "1" and float(first[1]) == 0.0

    def test_round_trip_is_exact(self, tmp_path):
        curve = build_radial_curve(5, 0.65, 200)
        path = tmp_path / "five.dat"
        write_snapshot(0.0, curve, path)
        points = []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                continue
            _, x, y, _ = line.split()
            points.append((float(x), float(y)))
        loaded = CurveState(points)
        assert np.array_equal(loaded.nodes, curve.nodes)

    def test_write_failure_names_the_path(self, tmp_path):
        from curveflow import CurveFlowError

        square = CurveState([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        target = tmp_path / "no-such-dir" / "x.dat"
        with pytest.raises(CurveFlowError, match="no-such-dir"):
            write_snapshot(0.0, square, target)

    def test_five_fold_snapshot_area(self, tmp_path):
        # shoelace of the written rows against the polar-area quadrature oracle
        curve = build_radial_curve(5, 0.65, 200)
        path = tmp_path / "five.dat"
        write_snapshot(0.0, curve, path)
        rows = np.loadtxt(path)
        assert rows.shape == (200, 4)
        area = 0.5 * np.sum(
            rows[:, 1] * np.roll(rows[:, 2], -1) - np.roll(rows[:, 1], -1) * rows[:, 2]
        )
        oracle = quad(lambda t: 0.5 * (1 + 0.65 * np.cos(5 * t)) ** 2, 0, 2 * np.pi, limit=400)[0]
        assert abs(area - oracle) / oracle <= 1e-2


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestRunCommand:
    CONFIG = (
        "curve = circle\nradius = 1\nmodel = area_preserving\nnodes = 64\n"
        "tau = 1e-3\nt_final = 0.02\nsnapshot_every = 5\nout_dir = {out}\n"
    )

    def test_run_writes_snapshots_and_summary(self, run_dir):
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="out-a"))
        assert run_cli(["run", config]) == 0
        out = run_dir / "out-a"
        snapshots = sorted(p.name for p in out.glob("snapshot_*.dat"))
        assert snapshots == [f"snapshot_{i:06d}.dat" for i in range(5)]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 6
        times = [float(line.split(",")[0]) for line in summary[1:]]
        assert times == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02])

    def test_each_state_geometry_is_computed_once(self, run_dir, monkeypatch):
        # the step, the diagnostics row and the snapshot's curvature share one pass
        calls = []
        node_geometry = geometry._node_geometry

        def counting(*args):
            calls.append(args)
            return node_geometry(*args)

        monkeypatch.setattr(geometry, "_node_geometry", counting)
        text = self.CONFIG.format(out="out-g").replace("snapshot_every = 5", "snapshot_every = 2")
        assert run_cli(["run", _write(run_dir / "run.conf", text)]) == 0
        assert len(list((run_dir / "out-g").glob("snapshot_*.dat"))) == 11
        assert len(calls) == 20 + 1  # one per state: the initial one and one per step

    def test_summary_is_deterministic(self, run_dir):
        config_a = _write(run_dir / "a.conf", self.CONFIG.format(out="out-a"))
        config_b = _write(run_dir / "b.conf", self.CONFIG.format(out="out-b"))
        assert run_cli(["run", config_a]) == 0
        assert run_cli(["run", config_b]) == 0
        assert (run_dir / "out-a/summary.csv").read_bytes() == (
            run_dir / "out-b/summary.csv"
        ).read_bytes()

    def test_summary_area_matches_snapshot_nodes_exactly(self, run_dir):
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="out-a"))
        assert run_cli(["run", config]) == 0
        out = run_dir / "out-a"
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        for index, line in enumerate(summary):
            area_column = float(line.split(",")[2])
            rows = np.loadtxt(out / f"snapshot_{index:06d}.dat")
            assert CurveState(rows[:, 1:3]).area == area_column

    def test_min_segment_column_is_the_smallest_segment(self, run_dir):
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="out-a"))
        assert run_cli(["run", config]) == 0
        out = run_dir / "out-a"
        header, *summary = (out / "summary.csv").read_text().splitlines()
        assert header.split(",")[-1] == "min_segment"
        for index, line in enumerate(summary):
            rows = np.loadtxt(out / f"snapshot_{index:06d}.dat")
            d = segment_lengths(CurveState(rows[:, 1:3]))
            assert float(line.split(",")[-1]) == d.min()

    def test_snapshot_kappa_column_is_its_own_curves(self, run_dir):
        # the kappa column, read back, is the discrete curvature of the x and y
        # columns, bit for bit (%.17g round-trips)
        text = EX2_CONFIG.replace("t_final = 0.5", "t_final = 3e-3\nsnapshot_every = 10")
        assert run_cli(["run", _write(run_dir / "run.conf", text)]) == 0
        snapshots = sorted((run_dir / "out").glob("snapshot_*.dat"))
        assert len(snapshots) == 4
        for path in snapshots:
            rows = np.loadtxt(path)
            kappa = discrete_curvature(CurveState(rows[:, 1:3]))
            assert rows[:, 3].tobytes() == kappa.tobytes()

    def test_polyline_input_resolves_relative_to_config(self, run_dir):
        (run_dir / "sub").mkdir()
        square = "0 0\n1 0\n1 1\n0 1\n"
        (run_dir / "sub" / "square.txt").write_text(square)
        config = _write(
            run_dir / "sub" / "poly.conf",
            "curve = polyline\npolyline_path = square.txt\nmodel = csf\n"
            "tau = 1e-4\nt_final = 0.001\nout_dir = out-p\n",
        )
        assert run_cli(["run", config]) == 0

    def test_out_dir_resolves_relative_to_working_directory(self, run_dir):
        # unlike polyline_path, which resolves against the config's directory
        (run_dir / "sub").mkdir()
        _write(run_dir / "sub" / "run.conf", self.CONFIG.format(out="out"))
        assert run_cli(["run", "sub/run.conf"]) == 0
        assert (run_dir / "out" / "summary.csv").is_file()
        assert not (run_dir / "sub" / "out").exists()

    def test_missing_config_exits_1(self, run_dir, capsys):
        assert run_cli(["run", "missing.conf"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_missing_polyline_exits_1(self, run_dir):
        config = _write(
            run_dir / "p.conf",
            "curve = polyline\npolyline_path = nowhere.txt\nmodel = csf\nt_final = 1\n",
        )
        assert run_cli(["run", config]) == 1

    def test_overflowing_polyline_exits_1(self, run_dir, capsys, recwarn):
        # finite squares whose area, or whose edges too, overflow: the error
        # line is all of stderr, with no numpy warning ahead of it
        squares = {
            "huge.txt": "0 0\n1e200 0\n1e200 1e200\n0 1e200\n",
            "max.txt": "-1.5e308 -1.5e308\n1.5e308 -1.5e308\n1.5e308 1.5e308\n-1.5e308 1.5e308\n",
        }
        for name, text in squares.items():
            (run_dir / name).write_text(text)
            config = _write(
                run_dir / "p.conf",
                f"curve = polyline\npolyline_path = {name}\nmodel = area_preserving\n"
                "t_final = 1e-3\nout_dir = out-h\n",
            )
            assert run_cli(["run", config]) == 1
            assert capsys.readouterr().err == (
                "error: invalid polyline file: curve length and area must be finite\n"
            )
            assert [str(w.message) for w in recwarn] == []
            assert not (run_dir / "out-h").exists()

    def test_extinct_run_exits_0(self, run_dir, capsys):
        # a circle of radius 0.1 shrinks to a point at t = 0.005 < t_final
        config = _write(
            run_dir / "x.conf",
            "curve = circle\nradius = 0.1\nnodes = 16\nmodel = csf\n"
            "tau = 1e-4\nt_final = 0.01\nout_dir = out-x\n",
        )
        assert run_cli(["run", config]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("status=extinct ")
        assert out[1].startswith("extinction at t=")

    def test_out_dir_that_is_a_file_exits_2(self, run_dir, capsys):
        (run_dir / "taken").write_text("")
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="taken"))
        assert run_cli(["run", config]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot prepare output directory taken: "
        )

    def test_unwritable_summary_exits_2_before_any_snapshot(self, run_dir, capsys):
        (run_dir / "out-s" / "summary.csv").mkdir(parents=True)
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="out-s"))
        assert run_cli(["run", config]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write summary out-s/summary.csv: ")
        assert list((run_dir / "out-s").glob("snapshot_*.dat")) == []

    def test_solver_abort_exits_2(self, run_dir, capsys):
        # two points 1e-20 apart on a unit square: eps*w ~ 4, too fine for the
        # first step to resolve, on a curve far too large to be extinct
        (run_dir / "pinched.txt").write_text("0 0\n1e-20 0\n1 0\n1 1\n0 1\n")
        config = _write(
            run_dir / "p.conf",
            "curve = polyline\npolyline_path = pinched.txt\nmodel = csf\n"
            "tau = 1e-4\nt_final = 0.01\nout_dir = out-p\n",
        )
        assert run_cli(["run", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solver aborted: step 1 (t=0.0001): ")
        assert "segment" in err
        out = run_dir / "out-p"
        assert sorted(p.name for p in out.iterdir()) == ["snapshot_000000.dat", "summary.csv"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 2

    def test_interrupted_run_keeps_its_records(self, run_dir, monkeypatch):
        # records at steps 0, 5 and 10; step 12 is interrupted
        inner, calls = stepping.step, itertools.count(1)

        def interrupted_at_12(curve, config):
            if next(calls) == 12:
                raise KeyboardInterrupt
            return inner(curve, config)

        monkeypatch.setattr(stepping, "step", interrupted_at_12)
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="out-i"))
        with pytest.raises(KeyboardInterrupt):
            run_cli(["run", config])
        out = run_dir / "out-i"
        snapshots = sorted(p.name for p in out.glob("snapshot_*.dat"))
        assert snapshots == [f"snapshot_{i:06d}.dat" for i in range(3)]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 4
        for index, line in enumerate(summary[1:]):
            rows = np.loadtxt(out / f"snapshot_{index:06d}.dat")
            assert rows.shape == (64, 4)
            assert CurveState(rows[:, 1:3]).area == float(line.split(",")[2])

    # completed: records at steps 0, 5, ..., 20; aborted at step 7: steps 0,
    # 5 and the last valid step 6
    @pytest.mark.parametrize("fails_at,records,code", [(None, 5, 0), (7, 3, 2)])
    def test_printed_snapshot_count_is_the_files_written(
        self, fails_at, records, code, run_dir, capsys, monkeypatch
    ):
        inner, calls = stepping.step, itertools.count(1)

        def failing(curve, config):
            if next(calls) == fails_at:
                raise LinearSolverError("injected")
            return inner(curve, config)

        monkeypatch.setattr(stepping, "step", failing)
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="out-n"))
        assert run_cli(["run", config]) == code
        printed = int(capsys.readouterr().out.split("snapshots=")[1].split()[0])
        out = run_dir / "out-n"
        assert printed == records == len(list(out.glob("snapshot_*.dat")))
        assert printed == len((out / "summary.csv").read_text().splitlines()) - 1

    def test_aborted_run_computes_each_state_geometry_once(self, run_dir, monkeypatch):
        # the 7th solve fails: the initial state and steps 1-6 are validated,
        # and the abort record reads step 6's geometry, which the failed step left
        calls, solves = [], itertools.count(1)
        node_geometry, solve = geometry._node_geometry, stepping.solve_cyclic_tridiagonal

        def counting(*args):
            calls.append(args)
            return node_geometry(*args)

        def failing(*args):
            if next(solves) == 7:
                raise LinearSolverError("injected")
            return solve(*args)

        monkeypatch.setattr(geometry, "_node_geometry", counting)
        monkeypatch.setattr(stepping, "solve_cyclic_tridiagonal", failing)
        config = _write(run_dir / "run.conf", self.CONFIG.format(out="out-f"))
        assert run_cli(["run", config]) == 2
        assert len(list((run_dir / "out-f").glob("snapshot_*.dat"))) == 3
        assert len(calls) == 7

    def test_memory_does_not_grow_with_the_records(self, run_dir):
        # M = 1000 and 99 steps recorded 100 or 10 times: a retained state
        # would cost 16 KB of nodes per record
        peaks = []
        for every in (11, 1):
            text = (
                "curve = radial\nfolds = 10\namplitude = 0.3\nnodes = 1000\n"
                "model = area_preserving\ntau = 1e-5\nt_final = 99e-5\n"
                f"snapshot_every = {every}\nout_dir = out-{every}\n"
            )
            tracemalloc.start()
            try:
                assert run_cli(["run", _write(run_dir / "run.conf", text)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        written = [len(list((run_dir / f"out-{every}").glob("*.dat"))) for every in (11, 1)]
        assert written == [10, 100]
        assert peaks[1] - peaks[0] < 256 * 1024

    def test_rerun_clears_stale_snapshots(self, run_dir):
        # a shorter run into the same out_dir must not leave the longer
        # run's later snapshots beside its own summary
        five_fold = (
            "curve = radial\nfolds = 5\namplitude = 0.65\nmodel = csf\ntau = 1e-3\n"
            "snapshot_every = 5\nout_dir = out-s\nt_final = {t_final}\n"
        )
        for t_final in ("0.02", "0.005"):
            config = _write(run_dir / "run.conf", five_fold.format(t_final=t_final))
            assert run_cli(["run", config]) == 0
        out = run_dir / "out-s"
        snapshots = sorted(p.name for p in out.glob("snapshot_*.dat"))
        assert snapshots == [f"snapshot_{i:06d}.dat" for i in range(2)]
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "curve",
            "curve == circle\nmodel = csf\nt_final = 1",
            "curve = circle\nmodel = csf\nt_final = one",
            "curve = circle\nmodel = csf\nt_final = 1\nnodes = 1e9",
            "curve = circle\nmodel = csf\nt_final = inf",
            "curve = circle☃\nmodel = csf\nt_final = 1",
            "= value\ncurve = circle",
            "curve = circle\nmodel = csf\nt_final = 1\ntau = 1e-400",
            "curve = circle\nmodel = csf\nt_final = 1\ntau = 1e-320",
            "curve circle\nmodel = csf",
            "[section]\ncurve = circle",
        ],
    )
    def test_fuzzed_configs_exit_1(self, run_dir, text):
        config = _write(run_dir / "fuzz.conf", text)
        assert run_cli(["run", config]) == 1

    def test_usage_errors_exit_1(self):
        assert run_cli([]) == 1
        assert run_cli(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "curveflow" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, status, stream, text",
        [
            (["--help"], 0, "stdout", "usage: curveflow"),
            (["examples", "--nodes", "3"], 1, "stderr", "unrecognized arguments: --nodes 3"),
        ],
        ids=["help", "bad-nodes"],
    )
    def test_module_entry_point_exits_with_the_status(self, run_dir, argv, status, stream, text):
        # cli.main and its __main__ guard, in a process of their own
        env = dict(os.environ, PYTHONPATH=str(Path(curveflow.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "curveflow.cli", *argv], cwd=run_dir,
                              env=env, capture_output=True, text=True)
        assert done.returncode == status
        assert text in getattr(done, stream)


class TestStudySubcommands:
    def test_examples_fast(self, run_dir, monkeypatch, capsys, reference_report):
        # the session fixture already ran the studies
        monkeypatch.setattr(cli, "run_reference_studies", lambda: reference_report)
        assert run_cli(["examples", "--out-dir", "ex-out"]) == 0
        out = capsys.readouterr().out
        assert "shrinking-4fold" in out
        report = (run_dir / "ex-out" / "report.csv").read_text().splitlines()
        assert len(report) == 5
        assert (run_dir / "ex-out" / "conserved-5fold" / "summary.csv").exists()

    def test_examples_default_parameters_hold_area(self, run_dir, monkeypatch, capsys,
                                                   reference_report):
        # at M = 200 and tau = 1e-4 the conserved 5-fold study must keep its
        # area drift within 0.5%; the session fixture already ran the studies
        monkeypatch.setattr(cli, "run_reference_studies", lambda: reference_report)
        assert run_cli(["examples", "--out-dir", "ex-full"]) == 0
        capsys.readouterr()
        lines = (run_dir / "ex-full" / "report.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        drift = float(rows["conserved-5fold"][header.index("area_drift")])
        assert drift <= 5e-3
        assert rows["shrinking-4fold"][header.index("status")] == "extinct"

    def test_convergence_fast(self, run_dir, monkeypatch, capsys, convergence_report):
        # the session fixture already ran the study
        monkeypatch.setattr(cli, "convergence_study", lambda: convergence_report)
        assert run_cli(["convergence", "--out-dir", "cv-out"]) == 0
        out = capsys.readouterr().out
        assert "fitted order extinction_time_vs_tau: " in out
        assert (run_dir / "cv-out" / "extinction_time_error_vs_tau.csv").exists()

    def test_convergence_level_without_extinction_exits_2(self, run_dir, monkeypatch, capsys):
        # a step that leaves the 200-gon as it is completes [0, 1] without
        # extinction, so the temporal fit has no error at its first level
        monkeypatch.setattr(stepping, "step", lambda curve, config: CurveState(curve.nodes))
        assert run_cli(["convergence", "--out-dir", "cv-out"]) == 2
        err = capsys.readouterr().err
        assert err == "error: circle-extinction-tau-4e-05 ended completed, not extinct, at t=1\n"
        assert not (run_dir / "cv-out").exists()

    def test_shrinking_study_without_extinction_exits_2(self, run_dir, monkeypatch, capsys):
        # with the same step the 4-fold star completes [0, 0.6] without going
        # extinct, and the rule that ends convergence's levels ends it too
        monkeypatch.setattr(stepping, "step", lambda curve, config: CurveState(curve.nodes))
        assert run_cli(["examples", "--out-dir", "ex-out"]) == 2
        err = capsys.readouterr().err
        assert err == "error: shrinking-4fold ended completed, not extinct, at t=0.6\n"
        assert not (run_dir / "ex-out").exists()

    @pytest.mark.parametrize("out_dir", ["keep", "keep/sub", "new/a/b", "new/../empty"])
    def test_failed_study_leaves_no_directory_it_made(self, run_dir, monkeypatch, out_dir):
        # the directories that existed, and their files, stay as they were; an
        # empty one reached through a new directory is not one made here.  A
        # Ctrl-C is no Exception, so it takes the widest path out.
        def interrupted():
            raise KeyboardInterrupt

        (run_dir / "keep").mkdir()
        (run_dir / "keep" / "x").write_text("kept")
        (run_dir / "empty").mkdir()
        monkeypatch.setattr(cli, "run_reference_studies", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["examples", "--out-dir", out_dir])
        assert [p.name for p in (run_dir / "keep").iterdir()] == ["x"]
        assert (run_dir / "keep" / "x").read_text() == "kept"
        assert sorted(p.name for p in run_dir.iterdir()) == ["empty", "keep"]

    def test_removed_base_nodes_flag_exits_1(self, run_dir, capsys):
        # convergence has no spatial sweep, so --base-nodes is an unknown flag
        assert run_cli(["convergence", "--base-nodes", "8", "--out-dir", "bad-out"]) == 1
        assert "unrecognized arguments: --base-nodes 8" in capsys.readouterr().err
        assert not (run_dir / "bad-out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["examples", "--nodes", "100"],
            ["examples", "--tau", "5e-4"],
            ["convergence", "--base-tau", "1e-4"],
            ["convergence", "--levels", "4"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_removed_study_flag_exits_1(self, run_dir, capsys, argv):
        # the studies are fixed, so a study parameter is an unknown flag
        assert run_cli(argv + ["--out-dir", "bad-out"]) == 1
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (run_dir / "bad-out").exists()

    @pytest.mark.parametrize("command", ["examples", "convergence"])
    def test_aborted_study_exits_2(self, run_dir, monkeypatch, capsys, command):
        def failing_step(curve, config):
            raise LinearSolverError("injected failure")

        monkeypatch.setattr(stepping, "step", failing_step)
        assert run_cli([command, "--out-dir", "abort-out"]) == 2
        assert "at least one study aborted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, study",
        [("examples", "run_reference_studies"), ("convergence", "convergence_study")],
        ids=["examples", "convergence"],
    )
    def test_unwritable_report_exits_2(self, run_dir, monkeypatch, capsys, command, study):
        # --out-dir names a file, so the report directory cannot be made, and
        # that is found before the study runs
        (run_dir / "taken").write_text("")
        calls = []

        def recording():
            calls.append(study)
            return StudyReport(records=[])

        monkeypatch.setattr(cli, study, recording)
        assert run_cli([command, "--out-dir", "taken"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write report to taken: ")
        assert calls == []

    @pytest.mark.parametrize(
        "blocked, message",
        [
            ("report.csv", "cannot write report to cv-out: "),
            ("circle-extinction-tau-4e-05/summary.csv",
             "cannot write summary cv-out/circle-extinction-tau-4e-05/summary.csv: "),
        ],
        ids=["report", "summary"],
    )
    def test_unwritable_report_file_exits_2(self, run_dir, monkeypatch, capsys,
                                            convergence_report, blocked, message):
        # a directory where the study writes a file
        (run_dir / "cv-out" / blocked).mkdir(parents=True)
        monkeypatch.setattr(cli, "convergence_study", lambda: convergence_report)
        assert run_cli(["convergence", "--out-dir", "cv-out"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_unexpected_failure_exits_2(self, run_dir, monkeypatch, capsys):
        # a study's ValueError, even one without a message, is no config error
        for error, message in [(RuntimeError("injected"), "injected"), (ValueError(), "")]:
            def failing():
                raise error

            monkeypatch.setattr(cli, "run_reference_studies", failing)
            assert run_cli(["examples", "--out-dir", "failed-out"]) == 2
            assert capsys.readouterr().err == f"error: unexpected failure: {message}\n"

    @pytest.mark.parametrize(
        "command, study",
        [("examples", "run_reference_studies"), ("convergence", "convergence_study")],
        ids=["examples", "convergence"],
    )
    def test_defaults_come_from_the_library(self, run_dir, monkeypatch, capsys, command, study):
        # the CLI runs the library's study as it is, with no argument of its own
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return StudyReport(records=[])

        monkeypatch.setattr(cli, study, recording)
        assert run_cli([command, "--out-dir", "defaults-out"]) == 0
        capsys.readouterr()
        assert calls == [((), {})]
