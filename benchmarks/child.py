"""One run of one workload, in a fresh process started by ``run.py``.

Usage: child.py WORKLOAD SEED MODE WORK_DIR LAUNCHED_NS RESULT_PATH

MODE is ``plain`` (end-to-end timings), ``trace`` (timing wrappers on the
package's layers) or ``count`` (a profile hook counting calls, after one
warm-up step).  LAUNCHED_NS is the parent's ``time.monotonic_ns()`` just
before it started this process, so set-up time includes interpreter start
and imports.  The result is written as JSON to RESULT_PATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracer import CallCounter, Tracer
from workloads import TAU, WORKLOADS, gate, initial_nodes, rows_digest, run_config

ROOT = Path(__file__).resolve().parents[1]


def _import_package():
    import curveflow

    src = (ROOT / "src").resolve()
    if not Path(curveflow.__file__).resolve().is_relative_to(src):
        sys.exit(f"curveflow was imported from {curveflow.__file__}, not from {src}")
    from curveflow import cli, stepping
    from curveflow.flows import FlowModel
    from curveflow.geometry import CurveState

    return cli, stepping, FlowModel, CurveState


def _probe_first_step(stepping) -> dict:
    """Record when the first step starts, then put the original name back."""
    inner = stepping.step
    mark = {}

    def first_step(*args, **kwargs):
        mark["ns"] = time.monotonic_ns()
        stepping.step = inner
        return inner(*args, **kwargs)

    stepping.step = first_step
    return mark


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_evolve(workload, nodes, stepping, model, CurveState, measured) -> dict:
    initial = CurveState(nodes)
    config = stepping.SolverConfig(
        model=model, t_final=workload.t_final, tau=TAU, snapshot_every=workload.snapshot_every
    )
    with measured:
        start = time.monotonic_ns()
        trajectory = stepping.evolve(initial, config)
        end = time.monotonic_ns()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows = [tuple(row) for row in trajectory.diagnostics]
    return {
        "end_ns": end,
        "peak_rss_kb": peak_rss_kb,
        # the records reach the caller when evolve returns
        "first_snapshot_ns": end - start,
        "gate_failures": gate(
            workload, trajectory.status.value, rows, len(trajectory.snapshots)
        ),
        "rows": rows,
        "final_digest": _sha256(trajectory.final_state.nodes.tobytes()),
        "summary_digest": rows_digest(rows),
        "bytes_written": 0,
    }


def _parse_snapshot(text: str, node_count: int) -> bool:
    lines = text.splitlines()
    if len(lines) != node_count + 1 or not lines[0].startswith("# t="):
        return False
    values = np.array(" ".join(lines[1:]).split(), dtype=np.float64)
    return values.size == 4 * node_count and bool(np.isfinite(values).all())


def _run_cli(workload, nodes, cli, work: Path, measured) -> dict:
    (work / "initial.txt").write_text(
        "".join(f"{x:.17g} {y:.17g}\n" for x, y in nodes)
    )
    out = work / "out"
    config_path = work / "run.cfg"
    config_path.write_text(run_config(workload, "initial.txt", str(out)))
    stdout = io.StringIO()
    with measured, contextlib.redirect_stdout(stdout):
        start_wall = time.time_ns()
        code = cli.run_cli(["run", str(config_path)])
        end = time.monotonic_ns()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = [] if code == 0 else [f"exit code {code}"]
    status = "completed" if "status=completed" in stdout.getvalue() else stdout.getvalue().strip()
    snapshots = sorted(out.glob("snapshot_*.dat"))
    summary = (out / "summary.csv").read_bytes() if (out / "summary.csv").exists() else b""
    rows = [tuple(map(float, line.split(","))) for line in summary.decode().splitlines()[1:]]
    bad = [p.name for p in snapshots if not _parse_snapshot(p.read_text(), workload.nodes)]
    if bad:
        failures.append(f"{len(bad)} snapshot files do not parse with M rows, first {bad[0]}")
    failures += gate(workload, status, rows, len(snapshots))
    first = out / "snapshot_000000.dat"
    return {
        "end_ns": end,
        "peak_rss_kb": peak_rss_kb,
        "first_snapshot_ns": first.stat().st_mtime_ns - start_wall if first.exists() else None,
        "gate_failures": failures,
        "rows": rows,
        "final_digest": _sha256(snapshots[-1].read_bytes()) if snapshots else "",
        "summary_digest": _sha256(summary),
        "bytes_written": sum(p.stat().st_size for p in out.iterdir()),
    }


def main(argv: list[str]) -> int:
    name, seed, mode, work, launched_ns, result_path = argv
    workload = WORKLOADS[name]
    work = Path(work)
    cli, stepping, FlowModel, CurveState = _import_package()
    model = (
        FlowModel.area_preserving() if workload.law == "area_preserving"
        else FlowModel.curve_shortening()
    )
    nodes = initial_nodes(workload, int(seed))

    tracer = counter = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    elif mode == "count":
        # scipy finishes lazy set-up in the first steps; keep it out of the counts
        warm_config = stepping.SolverConfig(model=model, t_final=TAU, tau=TAU)
        stepping.step(CurveState(nodes), warm_config)
        counter = CallCounter()
    first_step = _probe_first_step(stepping)

    measured = counter if counter is not None else contextlib.nullcontext()
    if workload.via_cli:
        result = _run_cli(workload, nodes, cli, work, measured)
    else:
        result = _run_evolve(workload, nodes, stepping, model, CurveState, measured)

    result.update(
        mode=mode,
        setup_ns=first_step["ns"] - int(launched_ns),
        wall_ns=result["end_ns"] - first_step["ns"],
    )
    if tracer is not None:
        tracer.uninstall()
        result["layer_metrics"], result["layer_report"] = tracer.layer_stats(
            workload.steps, result["wall_ns"]
        )
        result["layer_metrics"]["cli.bytes_written"] = result["bytes_written"]
        result["spans"] = tracer.spans()
    if counter is not None:
        result["count_metrics"] = counter.count_metrics(workload.steps)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
