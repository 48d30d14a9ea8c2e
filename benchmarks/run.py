"""Benchmark runner for curveflow: one workload, fresh child processes, one report.

Run from the repository root:

    python3 benchmarks/run.py --workload conserved-5fold-m200 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py        # every workload, untraced and traced

Children are launched one at a time with BLAS/OpenMP threads pinned to 1,
until ``--seconds`` have passed (and at least a few have run).  Each child
runs the whole workload once, from the seeded initial curve.

``--trace 0`` runs plain children and reports the end-to-end metrics as
medians over them.  ``--trace 1`` alternates traced and plain children,
then runs one counting child, and reports the per-layer metrics; it also
writes the spans and per-layer report to ``.bench_out/trace-<workload>.json``.

Every child is gated on physical invariants (see ``workloads.gate``), and
all children of one run must produce a byte-identical summary and bitwise
identical final nodes, traced or not.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS, area_rel_error

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"
DEFAULT_SECONDS = 30
#: a run must end within 180 s; children still running past this are killed
RUN_BUDGET_S = 170
#: fewest children per mode, however short --seconds is; a median needs three
MIN_CHILDREN = 3
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "area_rel_error": "ratio",
    "first_snapshot_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_step"] = "calls/step"
        units[f"{layer}.self_us_per_step"] = "us/step"
    units.update({
        "stepping.step.us_p50": "us",
        "stepping.step.us_p99": "us",
        "flows.forcing_value.share_of_step": "ratio",
        "cli.write_snapshot.share_of_wall": "ratio",
        "cli.bytes_written": "bytes",
        "numpy.calls_per_step": "calls/step",
        "numpy.roll.calls_per_step": "calls/step",
        "numpy.linalg.norm.calls_per_step": "calls/step",
        "geometry.length_pass_efficiency": "ratio",
        "scipy.calls_per_step": "calls/step",
        "scipy.solve_banded.calls_per_step": "calls/step",
        "trace.overhead_ratio": "ratio",
    })
    return units


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def linalg_build(module) -> str:
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return ", ".join(
            f"{kind}={deps[kind].get('name')} {deps[kind].get('version')}"
            for kind in ("blas", "lapack") if kind in deps
        )

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_linalg": linalg_build(numpy),
        "scipy_linalg": linalg_build(scipy),
        "thread_pinning": PINNED_THREADS,
    }


def run_child(workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    """Run one child to completion; returns its result with an ``error`` key on failure."""
    work = OUT / "work" / f"{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    try:
        launched = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, str(seed), mode, str(work),
             str(launched), str(result_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"mode": mode, "error": f"exit code {proc.returncode}: {tail[0]}"}
        return json.loads(result_path.read_text())
    except (OSError, ValueError) as exc:
        return {"mode": mode, "error": f"no readable result: {exc}"}
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"no result within the {RUN_BUDGET_S} s budget"}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(results: list[dict]) -> None:
    """Mark each failed child with ``error``: gates, and agreement with the first."""
    reference = None
    for r in results:
        if "error" in r:
            continue
        if r["gate_failures"]:
            r["error"] = "; ".join(r["gate_failures"])
        elif reference is None:
            reference = r
        elif r["summary_digest"] != reference["summary_digest"]:
            r["error"] = "summary differs from the first run with the same seed"
        elif r["final_digest"] != reference["final_digest"]:
            r["error"] = f"{r['mode']} run's final nodes differ from the {reference['mode']} run's"


def end_to_end(workload, plain: list[dict]) -> dict:
    rows = plain[0]["rows"]
    walls = [r["wall_ns"] / 1e9 for r in plain]
    return {
        "wall_s": statistics.median(walls),
        "node_steps_per_s": statistics.median(workload.nodes * workload.steps / w for w in walls),
        "setup_s": statistics.median(r["setup_ns"] / 1e9 for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in plain),
        "area_rel_error": area_rel_error(workload, rows[-1][0], rows[0][2], rows[-1][2]),
        "first_snapshot_s": statistics.median(r["first_snapshot_ns"] / 1e9 for r in plain),
    }


def per_layer(traced: list[dict], plain: list[dict], counted: list[dict]) -> dict:
    metrics = {
        name: statistics.median(r["layer_metrics"][name] for r in traced)
        for name in traced[0]["layer_metrics"]
    }
    metrics.update(counted[0]["count_metrics"])
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_ns"] for r in traced)
        / statistics.median(r["wall_ns"] for r in plain)
    )
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, facts: dict) -> dict | None:
    """Run one workload for ``seconds``, print its report, return its result object."""
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: M={workload.nodes}"
          f" law={workload.law} steps={workload.steps} snapshot_every={workload.snapshot_every}")
    modes = ("trace", "plain") if trace else ("plain",)
    results: list[dict] = []
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    while time.monotonic() - start < seconds or len(results) < MIN_CHILDREN * len(modes):
        results.append(run_child(workload.name, seed, modes[len(results) % len(modes)],
                                 len(results), deadline))
    if trace:
        results.append(run_child(workload.name, seed, "count", len(results), deadline))
    check(results)

    for i, r in enumerate(results):
        timing = "" if "wall_ns" not in r else (
            f" wall {r['wall_ns'] / 1e9:.4f} s setup {r['setup_ns'] / 1e9:.4f} s")
        print(f"  child {i} {r['mode']}:{timing} gates {'FAIL: ' + r['error'] if 'error' in r else 'pass'}")
    ok = {mode: [r for r in results if r["mode"] == mode and "error" not in r]
          for mode in ("plain", "trace", "count")}
    failed = sum("error" in r for r in results)
    print(f"fail_ratio = {failed}/{len(results)}")
    if not ok["plain"] or (trace and not (ok["trace"] and ok["count"])):
        print("error: no successful run to measure", file=sys.stderr)
        return None

    if trace:
        metrics = per_layer(ok["trace"], ok["plain"], ok["count"])
        units = per_layer_units()
        traced = ok["trace"][0]
        absent = [name for name, rep in traced["layer_report"].items() if rep["status"] == "absent"]
        print("absent wrapped names: " + (", ".join(absent) or "none"))
        trace_path = OUT / f"trace-{workload.name}.json"
        OUT.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": seed, "machine": facts,
            "metrics": metrics, "layers": traced["layer_report"],
            "spans": traced["spans"],
        }))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(workload, ok["plain"])
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


#: (workload, per-layer metric, comparison, threshold): the traced split must
#: show each workload doing the work it was chosen for.
SPLIT_EXPECTATIONS = (
    ("conserved-5fold-m200", "flows.forcing_value.share_of_step", ">=", 0.05),
    ("csf-4fold-m5000", "flows.forcing_value.share_of_step", "<", 0.01),
    ("cli-run-10fold-m1000", "cli.write_snapshot.share_of_wall", ">=", 0.25),
    ("conserved-5fold-m200", "cli.write_snapshot.calls_per_step", "==", 0.0),
    ("csf-4fold-m5000", "cli.write_snapshot.calls_per_step", "==", 0.0),
)
_COMPARE = {">=": operator.ge, "<": operator.lt, "==": operator.eq}


def run_all(seed: int, seconds: float, facts: dict) -> int:
    """Every workload, untraced then traced, then the split checks."""
    all_correct = True
    layers = {}
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = measure(workload, seed, seconds, trace, facts)
            all_correct &= result is not None and result["correct"]
            if trace and result is not None:
                layers[workload.name] = result["metrics"]
    for name, metric, op, threshold in SPLIT_EXPECTATIONS:
        value = layers[name][metric]["value"] if name in layers else float("nan")
        verdict = "pass" if _COMPARE[op](value, threshold) else "FAIL"
        print(f"split {name}: {metric} = {value:.4g} (expected {op} {threshold}) {verdict}")
    print(f"all gates {'pass' if all_correct else 'FAIL'}")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Without --workload, runs every workload untraced and traced"
        " (--trace is then ignored)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curveflow" / "__init__.py").is_file():
        print(f"error: no curveflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.workload is None:
        return run_all(args.seed, args.seconds, facts)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), facts)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
