"""Per-layer tracing and call counting, from outside the package.

Tracing swaps names in the module globals of ``curveflow.stepping`` and
``curveflow.cli`` for timing wrappers.  The package's own code looks those
names up at call time, so every call it makes through them opens a span.
Spans (name, start, end, parent) are kept in memory; a layer's self time
is its span's duration minus its direct children's durations.

Counting uses a ``sys.setprofile`` hook, in a run of its own because the
hook slows every Python call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

#: (layer name, module, global name).  The CLI calls evolve through its own
#: import of the name, so ``stepping.evolve`` is wrapped in both modules.
#:
#: Which end-to-end metric each layer should move, and on which workload:
#: the geometry layer, CurveState validation and numpy.calls_per_step move
#: wall_s on conserved-5fold-m200; the solve moves wall_s most on
#: csf-4fold-m5000; forcing_value moves wall_s on conserved-5fold-m200 only;
#: the cli layer and _diagnostics_row move wall_s, first_snapshot_s and
#: peak_rss_mb on cli-run-10fold-m1000 only.
TRACED = (
    ("geometry.segment_lengths", "curveflow.stepping", "segment_lengths"),
    ("geometry.discrete_curvature", "curveflow.stepping", "discrete_curvature"),
    ("geometry.CurveState", "curveflow.stepping", "CurveState"),
    ("flows.forcing_value", "curveflow.stepping", "forcing_value"),
    ("stepping.step", "curveflow.stepping", "step"),
    ("stepping.solve_cyclic_tridiagonal", "curveflow.stepping", "solve_cyclic_tridiagonal"),
    ("stepping.solve_banded", "curveflow.stepping", "solve_banded"),
    ("stepping._diagnostics_row", "curveflow.stepping", "_diagnostics_row"),
    ("stepping.evolve", "curveflow.stepping", "evolve"),
    ("stepping.evolve", "curveflow.cli", "evolve"),
    ("cli.write_snapshot", "curveflow.cli", "write_snapshot"),
    ("cli.write_summary", "curveflow.cli", "write_summary"),
    ("cli.discrete_curvature", "curveflow.cli", "discrete_curvature"),
    ("cli.parse_config", "curveflow.cli", "parse_config"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TRACED))


class Tracer:
    """Timing wrappers over module globals, with spans held in memory."""

    def __init__(self, traced=TRACED, clock=time.perf_counter_ns):
        self.traced = traced
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.absent: set[str] = set()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        names, parents, starts, ends, stack, clock = (
            self.names, self.parents, self.starts, self.ends, self._stack, self.clock,
        )

        def timed(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return timed

    def install(self) -> None:
        """Swap every traced global that exists; record the names that do not."""
        present = set()
        for name, module_name, attr in self.traced:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
            present.add(name)
        self.absent = {name for name, _, _ in self.traced} - present

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def spans(self) -> list[list]:
        """Spans as [name, start_ns, end_ns, parent index or -1]."""
        return [list(s) for s in zip(self.names, self.starts, self.ends, self.parents)]

    def layer_stats(self, steps: int, wall_ns: int) -> tuple[dict, dict]:
        """Per-layer metrics and a per-layer report, both normalised per step.

        A layer whose every global is missing is reported ``absent`` with 0
        calls instead of failing the run.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self_ns = list(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                self_ns[parent] -= duration
        calls, self_total, inclusive = Counter(), Counter(), Counter()
        forcing_in_step = 0
        step_ns = []
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_total[name] += self_ns[i]
            inclusive[name] += durations[i]
            if name == "stepping.step":
                step_ns.append(durations[i])
            elif name == "flows.forcing_value" and self.parents[i] >= 0 \
                    and self.names[self.parents[i]] == "stepping.step":
                forcing_in_step += durations[i]

        metrics, report = {}, {}
        for name in dict.fromkeys(name for name, _, _ in self.traced):
            metrics[f"{name}.calls_per_step"] = calls[name] / steps
            metrics[f"{name}.self_us_per_step"] = self_total[name] / steps / 1e3
            report[name] = {
                "status": "absent" if name in self.absent else "present",
                "calls": calls[name],
                "self_ms": self_total[name] / 1e6,
                "inclusive_ms": inclusive[name] / 1e6,
            }
        step_ns.sort()
        metrics["stepping.step.us_p50"] = _percentile(step_ns, 0.50) / 1e3
        metrics["stepping.step.us_p99"] = _percentile(step_ns, 0.99) / 1e3
        step_total = sum(step_ns)
        metrics["flows.forcing_value.share_of_step"] = (
            forcing_in_step / step_total if step_total else 0.0
        )
        metrics["cli.write_snapshot.share_of_wall"] = inclusive["cli.write_snapshot"] / wall_ns
        return metrics, report


def _percentile(sorted_values: list[int], q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))])


def _owner(frame, event, arg) -> tuple[str, str]:
    """(module, qualified name) of the function a profile event enters."""
    if event == "call":
        return frame.f_globals.get("__name__") or "", frame.f_code.co_qualname
    module = getattr(arg, "__module__", None)
    if module is None:  # a bound builtin method such as ndarray.ravel or ufunc.reduce
        module = type(getattr(arg, "__self__", None)).__module__
    return module or "", getattr(arg, "__qualname__", "")


class CallCounter:
    """Counts every Python and builtin call entered while active."""

    def __init__(self):
        self.counts: Counter = Counter()

    def _hook(self, frame, event, arg):
        if event == "call" or event == "c_call":
            self.counts[_owner(frame, event, arg)] += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def count_metrics(self, steps: int) -> dict:
        """numpy and scipy calls per step, nested calls included.

        ufuncs and array operators raise no profile event, so numpy's count
        covers its Python functions and builtins only.
        """

        def per_step(match) -> float:
            return sum(n for key, n in self.counts.items() if match(*key)) / steps

        def in_package(package):
            return lambda module, _: module == package or module.startswith(package + ".")

        # One segment-length pass per step is useful; every further norm pass
        # recomputes lengths already known.
        norm = per_step(lambda m, q: m.startswith("numpy.linalg") and q == "norm")
        return {
            "numpy.calls_per_step": per_step(in_package("numpy")),
            "numpy.roll.calls_per_step": per_step(
                lambda m, q: m.startswith("numpy.") and q == "roll"
            ),
            "numpy.linalg.norm.calls_per_step": norm,
            "geometry.length_pass_efficiency": 1.0 / max(norm, 1.0),
            "scipy.calls_per_step": per_step(in_package("scipy")),
            "scipy.solve_banded.calls_per_step": per_step(
                lambda m, q: m.startswith("scipy.linalg") and q == "solve_banded"
            ),
        }
