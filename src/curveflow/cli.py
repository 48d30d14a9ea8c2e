"""Command-line front end.

Subcommands:

* ``run <config>``   execute one evolution described by a flat ``key = value``
                     config file, writing plain-text node snapshots plus
                     ``summary.csv`` into the configured output directory;
* ``oracle``         validate the stepper against the shrinking-circle
                     closed form (prints the extinction-time error);
* ``examples``       run the bundled reference studies;
* ``convergence``    run the spatial/temporal refinement study.

Exit codes: 0 success, 1 configuration/validation error, 2 solver abort or
unexpected failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    StudyReport,
    convergence_study,
    run_reference_studies,
)
from .errors import ConfigError, CurveFlowError
from .flows import FlowLaw, FlowModel
from .geometry import (
    CurveState,
    build_circle,
    build_radial_curve,
    discrete_curvature,
    read_polyline,
)
from .stepping import (
    DiagnosticsRow,
    SolverConfig,
    TrajectoryStatus,
    evolve,
)

_KNOWN_KEYS = frozenset(
    {
        "curve", "folds", "amplitude", "radius", "polyline_path",
        "model", "force", "nodes", "tau", "t_final", "snapshot_every", "out_dir",
    }
)
#: the ``curve`` values and the keys tied to each; any of those keys with
#: a different ``curve`` value is a configuration error.
_VARIANT_KEYS = {
    "radial": {"folds", "amplitude"},
    "circle": {"radius"},
    "polyline": {"polyline_path"},
}

#: constructor parameters whose config key has another name
_PARAMETER_KEYS = {"node_count": "nodes"}

#: one column per DiagnosticsRow field, in field order
SUMMARY_HEADER = "t,length,area,F,isoperimetric_ratio,uniformity_ratio,min_segment"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


#: one 'i x y kappa' snapshot row, with _fmt's 17 significant digits
_SNAPSHOT_ROW = "%d %.17g %.17g %.17g\n"


@dataclass
class RunSpec:
    """Validated contents of a run config file."""

    curve: str
    config: SolverConfig
    folds: int | None = None
    amplitude: float | None = None
    radius: float = 1.0
    polyline_path: str | None = None
    nodes: int = 200
    out_dir: str = "out"
    #: the built radial or circle curve; build_initial_curve reads a polyline
    initial: CurveState | None = field(default=None, repr=False)


class _ConfigValues:
    """Raw key -> (value, line) pairs with typed, line-tagged accessors."""

    def __init__(self):
        self.entries: dict[str, tuple[str, int]] = {}

    def add(self, key: str, value: str, line: int) -> None:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line)
        if key in self.entries:
            raise ConfigError(f"duplicate key {key!r}", line)
        self.entries[key] = (value, line)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str) -> str:
        return self.entries[key][0]

    def line(self, key: str) -> int:
        return self.entries[key][1]

    def as_float(self, key: str) -> float:
        value, line = self.entries[key]
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}", line) from None

    def as_int(self, key: str) -> int:
        value, line = self.entries[key]
        try:
            return int(value, 10)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", line) from None


def parse_config(text: str) -> RunSpec:
    """Parse and validate the flat ``key = value`` config format.

    One assignment per line; '#' starts a comment; unknown and duplicate
    keys are hard errors.  Raises ConfigError carrying the offending line
    number (None for a missing key); a validation error names the violated
    invariant, e.g. ``tau > 0``.
    """
    values = _ConfigValues()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        values.add(key, value, lineno)
    return _build_run_spec(values)


def _require(values: _ConfigValues, key: str) -> None:
    if key not in values:
        raise ConfigError(f"missing required key {key!r}")


def _construct(values: _ConfigValues, build, *args, **kwargs):
    """Call a validating constructor.  Its ValueError, whose message starts
    with the violated parameter, becomes a ConfigError on that key's line."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        message = str(exc)
        name = message.split()[0].strip("|")
        key = _PARAMETER_KEYS.get(name, name)
        line = values.line(key) if key in values else None
        raise ConfigError(message.replace(name, key, 1), line) from None


def _build_run_spec(values: _ConfigValues) -> RunSpec:
    _require(values, "curve")
    curve = values.raw("curve")
    if curve not in _VARIANT_KEYS:
        raise ConfigError(
            f"curve must be one of {'|'.join(_VARIANT_KEYS)}, got {curve!r}",
            values.line("curve"),
        )
    for kind, keys in _VARIANT_KEYS.items():
        if kind == curve:
            continue
        stray = sorted(keys & values.entries.keys())
        if stray:
            raise ConfigError(
                f"exactly one initial curve: key {stray[0]!r} does not apply to curve = {curve}",
                values.line(stray[0]),
            )

    _require(values, "model")
    model_kind, laws = values.raw("model"), [law.value for law in FlowLaw]
    if model_kind not in laws:
        raise ConfigError(
            f"model must be one of {'|'.join(laws)}, got {model_kind!r}", values.line("model")
        )
    law = FlowLaw(model_kind)
    if law is FlowLaw.CONSTANT_FORCE:
        _require(values, "force")
    elif "force" in values:
        raise ConfigError("force only applies to model = constant", values.line("force"))
    force = values.as_float("force") if "force" in values else 0.0
    model = _construct(values, FlowModel, law, force)

    _require(values, "t_final")
    options = {}
    if "tau" in values:
        options["tau"] = values.as_float("tau")
    if "snapshot_every" in values:
        options["snapshot_every"] = values.as_int("snapshot_every")
    config = _construct(values, SolverConfig, model, values.as_float("t_final"), **options)
    spec = RunSpec(curve=curve, config=config)

    if curve == "polyline":
        _require(values, "polyline_path")
        spec.polyline_path = values.raw("polyline_path")
        if "nodes" in values:
            raise ConfigError(
                "nodes does not apply to curve = polyline (the file sets the node count)",
                values.line("nodes"),
            )
    else:
        if "nodes" in values:
            spec.nodes = values.as_int("nodes")
        if curve == "radial":
            _require(values, "folds")
            _require(values, "amplitude")
            spec.folds = values.as_int("folds")
            spec.amplitude = values.as_float("amplitude")
            spec.initial = _construct(
                values, build_radial_curve, spec.folds, spec.amplitude, spec.nodes
            )
        else:
            if "radius" in values:
                spec.radius = values.as_float("radius")
            spec.initial = _construct(values, build_circle, spec.radius, spec.nodes)
    if "out_dir" in values:
        spec.out_dir = values.raw("out_dir")
    return spec


def build_initial_curve(spec: RunSpec, base_dir: Path | None = None) -> CurveState:
    """Materialize the configured initial curve.

    Relative polyline paths resolve against ``base_dir`` (the config file's
    directory when invoked through the CLI).
    """
    if spec.initial is not None:
        return spec.initial
    path = Path(spec.polyline_path)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    try:
        return read_polyline(path)
    except OSError as exc:
        raise ConfigError(f"cannot read polyline file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid polyline file: {exc}") from exc


def write_snapshot(t: float, curve: CurveState, kappa, path: str | Path) -> None:
    """Write one plot-ready snapshot: header line, then 'i x y kappa' rows."""
    # Python floats format faster than numpy scalars, to the same text; rows
    # stream to the file one at a time, so no whole-file string is built
    x, y = curve.nodes.T.tolist()
    rows = zip(range(1, curve.node_count + 1), x, y, np.asarray(kappa).tolist())
    try:
        with open(path, "w") as out:
            out.write(f"# t={_fmt(t)} M={curve.node_count}\n")
            out.writelines(map(_SNAPSHOT_ROW.__mod__, rows))
    except OSError as exc:
        raise CurveFlowError(f"cannot write snapshot {path}: {exc}") from exc


def _summary_line(row: DiagnosticsRow) -> str:
    return ",".join(map(_fmt, row)) + "\n"


def write_summary(rows: list[DiagnosticsRow], path: str | Path) -> None:
    """Write summary.csv with the fixed column order."""
    try:
        Path(path).write_text(SUMMARY_HEADER + "\n" + "".join(map(_summary_line, rows)))
    except OSError as exc:
        raise CurveFlowError(f"cannot write summary {path}: {exc}") from exc


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    spec = parse_config(text)
    initial = build_initial_curve(spec, config_path.parent)
    out_dir = Path(spec.out_dir)
    summary_path = out_dir / "summary.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # a longer run's snapshots would outlive this summary; glob() costs ~0.2 ms more
        for stale in out_dir.iterdir():
            if stale.name.startswith("snapshot_") and stale.suffix == ".dat":
                stale.unlink()
    except OSError as exc:
        raise CurveFlowError(f"cannot prepare output directory {out_dir}: {exc}") from exc
    try:
        summary = open(summary_path, "w")
    except OSError as exc:
        raise CurveFlowError(f"cannot write summary {summary_path}: {exc}") from exc
    snapshot_paths = (out_dir / f"snapshot_{index:06d}.dat" for index in itertools.count())

    def write_record(t: float, state: CurveState, row: DiagnosticsRow) -> None:
        write_snapshot(t, state, discrete_curvature(state), next(snapshot_paths))
        # a summary line follows its snapshot, so every line on disk has its file
        try:
            summary.write(_summary_line(row))
            summary.flush()
        except OSError as exc:
            raise CurveFlowError(f"cannot write summary {summary_path}: {exc}") from exc

    with summary:
        summary.write(SUMMARY_HEADER + "\n")
        trajectory = evolve(initial, spec.config, on_record=write_record)
    last = trajectory.diagnostics[-1]
    print(
        f"status={trajectory.status.value} t={_fmt(last.t)} length={_fmt(last.length)} "
        f"area={_fmt(last.area)} snapshots={len(trajectory.snapshots)} out_dir={spec.out_dir}"
    )
    if trajectory.status is TrajectoryStatus.EXTINCT:
        print(f"extinction at t={_fmt(trajectory.extinction_time)}")
    if trajectory.status is TrajectoryStatus.ABORTED:
        print(f"error: solver aborted: {trajectory.error}", file=sys.stderr)
        return 2
    return 0


def _cmd_oracle(args) -> int:
    circle = build_circle(1.0, 200)
    config = SolverConfig(
        model=FlowModel.curve_shortening(),
        t_final=1.0,
        tau=args.tau,
        snapshot_every=2000,
    )
    trajectory = evolve(circle, config)
    if trajectory.status is not TrajectoryStatus.EXTINCT:
        print(
            f"error: shrinking circle did not reach extinction ({trajectory.status.value}:"
            f" {trajectory.error})",
            file=sys.stderr,
        )
        return 2
    analytic = 0.5
    measured = trajectory.extinction_time
    print(f"shrinking unit circle, tau={_fmt(args.tau)}, nodes=200")
    print(f"extinction time: measured={_fmt(measured)} analytic={_fmt(analytic)}")
    print(f"extinction-time error: {_fmt(abs(measured - analytic))}")

    stationary = evolve(
        circle,
        SolverConfig(
            model=FlowModel.area_preserving(), t_final=0.1, tau=1e-4, snapshot_every=200
        ),
    )
    radii = np.linalg.norm(stationary.final_state.nodes, axis=1)
    print(
        f"conserved-flow circle over [0, 0.1]: max radius drift {_fmt(np.max(np.abs(radii - 1.0)))}"
    )
    return 0


def _report_lines(report: StudyReport) -> list[str]:
    lines = []
    for r in report.records:
        extinct = "" if r.extinction_time is None else f" extinction_t={_fmt(r.extinction_time)}"
        lines.append(
            f"{r.name}: status={r.status} area {_fmt(r.initial_area)} -> {_fmt(r.final_area)}"
            f" (drift {r.area_drift:.4%}) iso_final={r.final_isoperimetric_ratio:.6f}"
            f" max_uniformity={r.max_uniformity_ratio:.3g}{extinct} [{r.elapsed_seconds:.2f}s]"
        )
    for name, order in report.fitted_orders.items():
        lines.append(f"fitted order {name}: {order:.3f}")
    return lines


def _write_report(report: StudyReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    header = (
        "name,nodes,tau,t_final,status,initial_area,final_area,area_drift,"
        "final_isoperimetric_ratio,extinction_time,max_uniformity_ratio,elapsed_seconds"
    )
    rows = [header]
    for r in report.records:
        rows.append(
            ",".join(
                [
                    r.name,
                    str(r.node_count),
                    _fmt(r.tau),
                    _fmt(r.t_final),
                    r.status,
                    _fmt(r.initial_area),
                    _fmt(r.final_area),
                    _fmt(r.area_drift),
                    _fmt(r.final_isoperimetric_ratio),
                    "" if r.extinction_time is None else _fmt(r.extinction_time),
                    _fmt(r.max_uniformity_ratio),
                    f"{r.elapsed_seconds:.3f}",
                ]
            )
        )
    (out_dir / "report.csv").write_text("\n".join(rows) + "\n")
    for r in report.records:
        run_dir = out_dir / r.name
        run_dir.mkdir(parents=True, exist_ok=True)
        write_summary(r.trajectory.diagnostics, run_dir / "summary.csv")
    for name, table in report.error_tables.items():
        lines = ["parameter,error"] + [f"{_fmt(p)},{_fmt(e)}" for p, e in table]
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")


def _cmd_examples(args) -> int:
    report = run_reference_studies(node_count=args.nodes, tau=args.tau)
    _write_report(report, Path(args.out_dir))
    for line in _report_lines(report):
        print(line)
    print(f"report written to {args.out_dir}")
    if any(r.status == TrajectoryStatus.ABORTED.value for r in report.records):
        print("error: at least one study aborted", file=sys.stderr)
        return 2
    return 0


def _cmd_convergence(args) -> int:
    report = convergence_study(
        base_node_count=args.base_nodes, base_tau=args.base_tau, levels=args.levels
    )
    _write_report(report, Path(args.out_dir))
    for line in _report_lines(report):
        print(line)
    print(f"report written to {args.out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Evolve closed plane curves by curve-shortening or area-preserving curvature flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured evolution")
    p_run.add_argument("config", help="path to a 'key = value' config file")
    p_run.set_defaults(handler=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="circle validations against closed forms")
    p_oracle.add_argument("--tau", type=float, default=1e-5, help="time step (default 1e-5)")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_examples = sub.add_parser("examples", help="run the bundled reference studies")
    p_examples.add_argument("--nodes", type=int, default=200)
    p_examples.add_argument("--tau", type=float, default=1e-4)
    p_examples.add_argument("--out-dir", default="examples-out")
    p_examples.set_defaults(handler=_cmd_examples)

    p_conv = sub.add_parser("convergence", help="spatial/temporal refinement study")
    p_conv.add_argument("--base-nodes", type=int, default=50)
    p_conv.add_argument("--base-tau", type=float, default=4e-5)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--out-dir", default="convergence-out")
    p_conv.set_defaults(handler=_cmd_convergence)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit status (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CurveFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never crash on malformed input
        print(f"error: unexpected failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
