"""Tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest benchmarks/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import CallCounter, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, gate, initial_nodes  # noqa: E402

from curveflow import FlowModel, SolverConfig, build_radial_curve, cli, stepping  # noqa: E402

SMALL = SolverConfig(FlowModel.area_preserving(), t_final=0.02, tau=1e-4, snapshot_every=50)


def _final_nodes() -> np.ndarray:
    curve = build_radial_curve(5, 0.65, 200)
    return stepping.evolve(curve, SMALL).final_state.nodes


def test_traced_run_is_bitwise_equal_to_plain():
    plain = _final_nodes()
    originals = {attr: getattr(stepping, attr) for _, module, attr in Tracer().traced
                 if module == "curveflow.stepping"}
    tracer = Tracer()
    tracer.install()
    try:
        traced = _final_nodes()
    finally:
        tracer.uninstall()
    assert plain.tobytes() == traced.tobytes()
    assert tracer.names.count("stepping.step") == 200
    assert all(getattr(stepping, attr) is fn for attr, fn in originals.items())


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(cli, "write_summary")
    monkeypatch.delattr(stepping, "segment_lengths")
    monkeypatch.setattr(stepping, "step", lambda curve, config: curve)
    tracer = Tracer()
    tracer.install()
    try:
        stepping.evolve(build_radial_curve(5, 0.65, 200), SMALL)
    finally:
        tracer.uninstall()
    metrics, report = tracer.layer_stats(steps=200, wall_ns=10**9)
    assert tracer.absent == {"cli.write_summary", "geometry.segment_lengths"}
    for name in tracer.absent:
        assert report[name] == {"status": "absent", "calls": 0, "self_ms": 0.0,
                                "inclusive_ms": 0.0}
        assert metrics[f"{name}.calls_per_step"] == 0.0
    assert report["stepping.step"]["status"] == "present"
    assert not hasattr(cli, "write_summary")


def test_self_time_excludes_children():
    fake = types.ModuleType("fake_layers")
    fake.inner = lambda: None
    fake.outer = lambda: fake.inner() or fake.inner()
    sys.modules["fake_layers"] = fake
    ticks = iter(range(0, 1000, 10))
    try:
        tracer = Tracer(
            traced=(("stepping.step", "fake_layers", "outer"), ("x.inner", "fake_layers", "inner")),
            clock=lambda: next(ticks),
        )
        tracer.install()
        fake.outer()
        tracer.uninstall()
    finally:
        del sys.modules["fake_layers"]
    # outer spans 0..50, its two children 10..20 and 30..40
    metrics, report = tracer.layer_stats(steps=1, wall_ns=100)
    assert [s[3] for s in tracer.spans()] == [-1, 0, 0]
    assert metrics["stepping.step.self_us_per_step"] == pytest.approx(30e-3)
    assert metrics["x.inner.self_us_per_step"] == pytest.approx(20e-3)
    assert metrics["stepping.step.us_p50"] == pytest.approx(50e-3)


def test_call_counter_counts_solves_and_rolls():
    curve = build_radial_curve(5, 0.65, 200)
    config = SolverConfig(FlowModel.area_preserving(), t_final=0.005, tau=1e-4, snapshot_every=100)
    stepping.step(curve, config)
    with CallCounter() as counter:
        stepping.evolve(curve, config)
    counts = counter.count_metrics(steps=50)
    assert counts["scipy.solve_banded.calls_per_step"] == 1.0
    assert counts["numpy.roll.calls_per_step"] >= 1.0
    assert 0.0 < counts["geometry.length_pass_efficiency"] <= 1.0


def test_gate_flags_broken_invariants():
    csf = Workload("t", "", 4, 0.4, 50, "csf", steps=2, snapshot_every=1, via_cli=False)
    rows = [(0.0, 5.0, 3.0, 0, 2.0), (1e-4, 4.9, 2.9, 0, 1.9), (2e-4, 4.95, 2.8, 0, 1.8)]
    assert gate(csf, "completed", rows, 3) == ["length not strictly decreasing"]
    conserved = Workload("t", "", 5, 0.65, 50, "area_preserving", 2, 1, False)
    failures = gate(conserved, "aborted", rows[:2], 2)
    assert failures[0] == "status aborted, expected completed"
    assert any("area drift" in f for f in failures)


def test_seed_moves_nodes_but_not_the_work():
    w = WORKLOADS["conserved-5fold-m200"]
    a, b = initial_nodes(w, 1), initial_nodes(w, 2)
    assert a.shape == b.shape == (w.nodes, 2)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, initial_nodes(w, 1))


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
