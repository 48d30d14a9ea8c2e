"""Command-line front end.

Subcommands:

* ``run <config>``   execute one evolution described by a flat ``key = value``
                     config file, writing plain-text node snapshots plus
                     ``summary.csv`` into the configured output directory;
* ``examples``       run the bundled reference studies;
* ``convergence``    run the temporal refinement study.

Exit codes: 0 success, 1 configuration/validation error, 2 solver abort,
unwritable output or unexpected failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import StudyReport, convergence_study, run_reference_studies
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

#: the ``curve`` values, each with its own initial-curve builder
_CURVES = ("radial", "circle", "polyline")

#: config key -> (value type, the ``curve`` values it applies to; None for
#: every one); a key given with another ``curve`` value is an error
_KEYS = {
    "curve": (str, None),
    "model": (str, None),
    "force": (float, None),
    "tau": (float, None),
    "t_final": (float, None),
    "snapshot_every": (int, None),
    "out_dir": (str, None),
    "nodes": (int, ("radial", "circle")),
    "folds": (int, ("radial",)),
    "amplitude": (float, ("radial",)),
    "radius": (float, ("circle",)),
    "polyline_path": (str, ("polyline",)),
}

#: one column per DiagnosticsRow field, in field order
SUMMARY_HEADER = "t,length,area,F,isoperimetric_ratio,uniformity_ratio,min_segment"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


#: one 'i x y kappa' snapshot row, with _fmt's 17 significant digits
_SNAPSHOT_ROW = "%d %.17g %.17g %.17g\n"


@dataclass
class RunSpec:
    """Validated contents of a run config file."""

    config: SolverConfig
    initial: CurveState = field(repr=False)
    out_dir: str = "out"


def parse_config(text: str, base_dir: Path | None = None) -> RunSpec:
    """Parse and validate the flat ``key = value`` config format.

    One assignment per line; '#' starts a comment; unknown and duplicate
    keys are hard errors, and each value is converted to its key's type as
    its line is read.  Raises ConfigError carrying the offending line
    number (None for a missing key); a validation error names the violated
    invariant, e.g. ``tau > 0``.  A polyline is read here, a relative path
    resolving against ``base_dir`` (the config file's directory when invoked
    through the CLI).
    """
    values, lines = {}, {}  # key -> converted value, key -> line number; in line order
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
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in lines:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        kind = _KEYS[key][0]
        try:
            values[key], lines[key] = kind(value), lineno
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {value!r}", lineno) from None

    def required(*keys: str) -> None:
        for key in keys:
            if key not in values:
                raise ConfigError(f"missing required key {key!r}")

    def choice(key: str, options):
        required(key)
        if (value := values[key]) not in options:
            raise ConfigError(f"{key} must be one of {'|'.join(options)}, got {value!r}", lines[key])
        return value

    def construct(build, *args, **keys):
        """Call a validating constructor with each ``parameter="key"`` of ``keys``
        whose key is given, so every default stays in its signature.  The same
        mapping places its ValueError: a message starting with one of those
        parameters names its key instead, on that key's line; any other message,
        a check of what ``build`` makes, names no line."""
        try:
            return build(*args, **{name: values[key] for name, key in keys.items() if key in values})
        except ValueError as exc:
            name = str(exc).partition(" ")[0].strip("|")
            key = keys.get(name)  # None for a message no parameter here starts
            raise ConfigError(str(exc).replace(name, key or name, 1), lines.get(key)) from None

    curve = choice("curve", _CURVES)
    for key, lineno in lines.items():
        if curve not in (_KEYS[key][1] or _CURVES):
            raise ConfigError(
                f"exactly one initial curve: {key} does not apply to curve = {curve}", lineno
            )

    law = FlowLaw(choice("model", [kind.value for kind in FlowLaw]))
    if law is FlowLaw.CONSTANT_FORCE:
        required("force")
    elif "force" in values:
        raise ConfigError("force only applies to model = constant", lines["force"])
    model = construct(FlowModel, law, force="force")
    required("t_final")
    config = construct(SolverConfig, model, t_final="t_final", tau="tau", snapshot_every="snapshot_every")

    if curve == "polyline":
        required("polyline_path")
        try:
            initial = read_polyline(Path(base_dir or "", values["polyline_path"]))
        except OSError as exc:
            raise ConfigError(f"cannot read polyline file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"invalid polyline file: {exc}") from exc
    elif curve == "radial":
        required("folds", "amplitude")
        initial = construct(build_radial_curve, folds="folds", amplitude="amplitude", node_count="nodes")
    else:
        initial = construct(build_circle, radius="radius", node_count="nodes")
    return construct(RunSpec, config, initial, out_dir="out_dir")


def write_snapshot(t: float, curve: CurveState, path: str | Path) -> None:
    """Write one plot-ready snapshot: header line, then the curve's 'i x y kappa' rows."""
    # Python floats format faster than numpy scalars, to the same text; rows
    # stream to the file one at a time, so no whole-file string is built
    x, y = curve.nodes.T.tolist()
    rows = zip(range(1, curve.node_count + 1), x, y, discrete_curvature(curve).tolist())
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
        raise ConfigError(f"cannot read config: {exc}") from exc
    spec = parse_config(text, config_path.parent)
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
    written = 0  # records on disk: evolve keeps only the last one

    def write_record(t: float, state: CurveState, row: DiagnosticsRow) -> None:
        nonlocal written
        path = out_dir / f"snapshot_{written:06d}.dat"
        write_snapshot(t, state, path)
        # a summary line follows its snapshot, so every line on disk has its file
        summary.write(_summary_line(row))
        summary.flush()
        written += 1

    # write_snapshot maps its own OSError, so any OSError here is the summary's
    try:
        with open(summary_path, "w") as summary:
            summary.write(SUMMARY_HEADER + "\n")
            trajectory = evolve(spec.initial, spec.config, on_record=write_record)
    except OSError as exc:
        raise CurveFlowError(f"cannot write summary {summary_path}: {exc}") from exc
    last = trajectory.diagnostics[-1]
    print(
        f"status={trajectory.status.value} t={_fmt(last.t)} length={_fmt(last.length)} "
        f"area={_fmt(last.area)} snapshots={written} out_dir={spec.out_dir}"
    )
    if trajectory.status is TrajectoryStatus.EXTINCT:
        print(f"extinction at t={_fmt(trajectory.extinction_time)}")
    if trajectory.status is TrajectoryStatus.ABORTED:
        raise CurveFlowError(f"solver aborted: {trajectory.error}")
    return 0


#: report.csv's columns in order, each with its formatter of a StudyRecord
_REPORT_COLUMNS = {
    "name": lambda r: r.name,
    "nodes": lambda r: str(r.trajectory.snapshots[0][1].node_count),
    "tau": lambda r: _fmt(r.config.tau),
    "t_final": lambda r: _fmt(r.config.t_final),
    "status": lambda r: r.status,
    "initial_area": lambda r: _fmt(r.initial_area),
    "final_area": lambda r: _fmt(r.final_area),
    "area_drift": lambda r: _fmt(r.area_drift),
    "final_isoperimetric_ratio": lambda r: _fmt(r.final_isoperimetric_ratio),
    "extinction_time": lambda r: "" if r.extinction_time is None else _fmt(r.extinction_time),
    "max_uniformity_ratio": lambda r: _fmt(r.max_uniformity_ratio),
    "elapsed_seconds": lambda r: f"{r.elapsed_seconds:.3f}",
}


def _print_report(report: StudyReport) -> None:
    for r in report.records:
        extinct = "" if r.extinction_time is None else f" extinction_t={_fmt(r.extinction_time)}"
        print(
            f"{r.name}: status={r.status} area {_fmt(r.initial_area)} -> {_fmt(r.final_area)}"
            f" (drift {r.area_drift:.4%}) iso_final={r.final_isoperimetric_ratio:.6f}"
            f" max_uniformity={r.max_uniformity_ratio:.3g}{extinct} [{r.elapsed_seconds:.2f}s]"
        )
    for name, order in report.fitted_orders.items():
        print(f"fitted order {name}: {order:.3f}")


def _write_report(report: StudyReport, out_dir: Path) -> None:
    rows = [",".join(_REPORT_COLUMNS)] + [
        ",".join(column(r) for column in _REPORT_COLUMNS.values()) for r in report.records
    ]
    try:
        (out_dir / "report.csv").write_text("\n".join(rows) + "\n")
        for r in report.records:
            run_dir = out_dir / r.name
            run_dir.mkdir(parents=True, exist_ok=True)
            write_summary(r.trajectory.diagnostics, run_dir / "summary.csv")
        for name, table in report.error_tables.items():
            lines = ["parameter,error"] + [f"{_fmt(p)},{_fmt(e)}" for p, e in table]
            (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise CurveFlowError(f"cannot write report to {out_dir}: {exc}") from exc


def _cmd_study(args) -> int:
    out_dir = Path(args.out_dir)
    made = []  # the directories made here, deepest first; the study writes none of them
    try:  # before the study runs, so an unwritable --out-dir costs no run
        for path in reversed((out_dir, *out_dir.parents)):  # in 'new/../old' only new is made
            if not path.is_dir():
                path.mkdir()
                made.insert(0, path)
    except OSError as exc:
        raise CurveFlowError(f"cannot write report to {out_dir}: {exc}") from exc
    try:
        report = args.study()
    except BaseException:  # a study that fails leaves no directory it made
        for path in made:
            path.rmdir()
        raise
    _write_report(report, out_dir)
    _print_report(report)
    print(f"report written to {args.out_dir}")
    aborted = [f"{r.name}: {r.trajectory.error}" for r in report.records
               if r.status == TrajectoryStatus.ABORTED.value]
    if aborted:
        raise CurveFlowError("at least one study aborted: " + "; ".join(aborted))
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

    p_examples = sub.add_parser("examples", help="run the bundled reference studies")
    p_examples.add_argument("--out-dir", default="examples-out")
    p_examples.set_defaults(handler=_cmd_study, study=run_reference_studies)

    p_conv = sub.add_parser("convergence", help="temporal refinement study")
    p_conv.add_argument("--out-dir", default="convergence-out")
    p_conv.set_defaults(handler=_cmd_study, study=convergence_study)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit status (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # an overflow or NaN surfaces as a typed error, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except ConfigError as exc:
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
