"""Spans around calls into each ratecert layer, and the per-layer metrics
derived from them.

Spans come from pass-through wrappers installed on the module-level names
each caller looks up at call time (``cli.certify``, ``certifier.max_eigenvalue``,
``ellipsoid._jacobi_batch``, ...), so nothing under ``src/`` changes.  Each
span records its name, start, end, parent span and op id.  Spans stay in
memory, in per-thread columns (sweep rows run on the CLI's thread pool), and
are written out when the run ends.  A wrapped name that no longer exists is
recorded as missing; every original name is restored on exit.

A span's self time is its duration minus the time its children cover; the
CLI's own time is the op wall time not covered by any call into a layer.
Layer shares (``linalg.time_frac``, ``<layer>.self_frac``) divide a layer's
self time by the self time of all layers, which is the op wall time when an
op is single-threaded and the time summed over threads for the sweeps (where
a row waiting for the interpreter lock counts in the span it waits in).
Metrics the workload does not exercise are None (printed as 0).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import threading
from array import array
from time import perf_counter_ns

# (module, name looked up there, layer the called code belongs to).  Only
# per-cut and per-eigen-batch work has no public boundary, hence the two
# private names.
WRAPPED = (
    ("cli", "certify", "certifier"),
    ("cli", "run", "simulator"),
    ("cli", "line_chart", "svg"),
    ("certifier", "feasible_at_rho", "certifier"),
    ("certifier", "ellipsoid_feasibility", "ellipsoid"),
    ("certifier", "max_eigenvalue", "linalg"),
    ("certifier", "cond_spd", "linalg"),
    ("certifier", "eig_sym", "linalg"),
    ("certifier", "sector", "iqc"),
    ("certifier", "weighted_off_by_1", "iqc"),
    ("certifier", "zames_falb", "iqc"),
    ("certifier", "augment", "iqc"),
    ("certifier", "quad_form", "iqc"),
    ("ellipsoid", "_first_violated_cut", "ellipsoid"),
    ("ellipsoid", "_jacobi_batch", "linalg"),
    ("simulator", "sample_alpha", "simulator"),
    ("simulator", "step", "simulator"),
)
OP = "op"             # the whole CLI command, recorded by the benchmark loop
LAYERS = ("cli", "certifier", "iqc", "ellipsoid", "linalg", "simulator", "svg")

# Per-layer metrics: name -> unit, in BENCHMARK.json order.
UNITS = {
    "linalg.time_frac": "ratio",
    "linalg.eig_batch_us": "us",
    "linalg.eig_batches_per_cut": "count",
    "ellipsoid.cuts_per_probe": "count",
    "ellipsoid.cut_self_us": "us",
    "certifier.probes_per_cert": "count",
    "certifier.infeasible_probe_frac": "ratio",
    "certifier.probe_ms_p50": "ms",
    "iqc.build_us_per_probe": "us",
    "certifier.rho_gap_mean": "rate",
    "model.grid_points_per_cert": "count",
    "cli.rows_per_op": "count",
    "cli.row_s_p50": "s",
    "cli.row_concurrency": "ratio",
    "svg.chart_ms": "ms",
    "simulator.step_us": "us",
    "simulator.sample_alpha_frac": "ratio",
    "simulator.runs_per_op": "count",
    # linalg spans have no children, so linalg.time_frac is its self share.
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS if layer != "linalg"},
    "trace.overhead_frac": "ratio",
}


class _Columns:
    """One thread's spans; a parent is an index into the same columns."""

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nones = array("b")   # per span: 1 when the call returned None
        self.stack: list[int] = []


class Tracer:
    """Records spans while ``op >= 0`` and its wrappers are installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self.names: list[str] = [OP] + [f"{mod}.{attr}" for mod, attr, _ in WRAPPED]
        self.layer_of = {OP: "cli", **{f"{m}.{a}": layer for m, a, layer in WRAPPED}}
        self.missing: list[str] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Columns] = []

    def _columns(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            with self._lock:
                cols = _Columns(len(self._threads))
                self._threads.append(cols)
            self._local.cols = cols
        return cols

    def open(self, name_id: int) -> tuple[_Columns, int]:
        cols = self._columns()
        idx = len(cols.name)
        cols.name.append(name_id)
        cols.parent.append(cols.stack[-1] if cols.stack else -1)
        cols.op.append(self.op)
        cols.end.append(0)
        cols.nones.append(0)
        cols.stack.append(idx)
        cols.start.append(perf_counter_ns())
        return cols, idx

    @staticmethod
    def close(cols: _Columns, idx: int) -> None:
        cols.end[idx] = perf_counter_ns()
        cols.stack.pop()

    def _wrapper(self, orig, name_id: int):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return orig(*args, **kwargs)
            cols, idx = tracer.open(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(cols, idx)
            if result is None:
                cols.nones[idx] = 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED`` that exists; restore them all on exit."""
        saved = []
        missing = []
        try:
            for name_id, (mod, attr, _) in enumerate(WRAPPED, start=1):
                module = self._modules[mod]
                orig = getattr(module, attr, None)
                if orig is None:
                    missing.append(f"{mod}.{attr}")
                    continue
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrapper(orig, name_id))
            self.missing = missing
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def save(self, path) -> None:
        """Write the spans as gzip JSON lines: a header with the name table,
        then [thread, index, name, parent, op, start_ns, end_ns] per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "missing": self.missing}) + "\n")
            for cols in self._threads:
                for i in range(len(cols.name)):
                    fh.write(f"[{cols.thread},{i},{cols.name[i]},{cols.parent[i]},"
                             f"{cols.op[i]},{cols.start[i]},{cols.end[i]}]\n")


_EIG = "ellipsoid._jacobi_batch"
_CUT = "ellipsoid._first_violated_cut"
_PROBE = "certifier.feasible_at_rho"


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanStats:
    """Counts, durations and self times per span name, over traced ops."""

    def __init__(self, tracer: Tracer, op_commands: dict[int, str]):
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.nones: dict[str, int] = {}
        self.probe_durs: list[int] = []
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self.op_wall_ns: dict[int, int] = {}
        self.sweep_rows: list[int] = []       # cli.certify durations in sweep ops
        self.sweep_row_ns = 0
        names, layer_of = tracer.names, tracer.layer_of
        covered: dict[int, list[tuple[int, int]]] = {}   # op -> top-level spans
        for cols in tracer._threads:
            n = len(cols.name)
            child_ns = [0] * n
            for i in range(n):
                p = cols.parent[i]
                if p >= 0:
                    child_ns[p] += cols.end[i] - cols.start[i]
            for i in range(n):
                name = names[cols.name[i]]
                op = cols.op[i]
                dur = cols.end[i] - cols.start[i]
                if name == OP:
                    self.op_wall_ns[op] = dur
                    continue
                if cols.parent[i] < 0 or names[cols.name[cols.parent[i]]] == OP:
                    covered.setdefault(op, []).append((cols.start[i], cols.end[i]))
                self.count[name] = self.count.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + dur
                own = dur - child_ns[i]
                self.self_ns[name] = self.self_ns.get(name, 0) + own
                self.layer_self_ns[layer_of[name]] += own
                self.nones[name] = self.nones.get(name, 0) + cols.nones[i]
                if name == _PROBE:
                    self.probe_durs.append(dur)
                if name == "cli.certify" and op_commands.get(op, "").startswith("sweep"):
                    self.sweep_rows.append(dur)
                    self.sweep_row_ns += dur
        # The CLI's own time is the op wall time its calls into layers leave
        # uncovered (rows of one sweep overlap on the pool, hence the union).
        for op, wall in self.op_wall_ns.items():
            self.layer_self_ns["cli"] += wall - _union_ns(covered.get(op, []))
        # Time summed over threads; the op wall time when ops are single-threaded.
        self.busy_ns = sum(self.layer_self_ns.values())
        self.sweep_ops = sum(1 for op in self.op_wall_ns
                             if op_commands.get(op, "").startswith("sweep"))
        self.sweep_wall_ns = sum(w for op, w in self.op_wall_ns.items()
                                 if op_commands.get(op, "").startswith("sweep"))
        self.simulate_ops = sum(1 for op in self.op_wall_ns
                                if op_commands.get(op, "") == "simulate")


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


_LINALG = (_EIG, "certifier.max_eigenvalue", "certifier.cond_spd", "certifier.eig_sym")
_BUILD = ("certifier.sector", "certifier.weighted_off_by_1", "certifier.zames_falb",
          "certifier.augment", "certifier.quad_form")

# Span names each metric is computed from; a metric is missing when one of
# them could not be wrapped.
NEEDS = {
    "linalg.time_frac": _LINALG,
    "linalg.eig_batch_us": (_EIG,),
    "linalg.eig_batches_per_cut": (_EIG, _CUT),
    "ellipsoid.cuts_per_probe": (_CUT, "certifier.ellipsoid_feasibility"),
    "ellipsoid.cut_self_us": (_CUT, _EIG, "certifier.ellipsoid_feasibility"),
    "certifier.probes_per_cert": (_PROBE, "cli.certify"),
    "certifier.infeasible_probe_frac": (_PROBE,),
    "certifier.probe_ms_p50": (_PROBE,),
    "iqc.build_us_per_probe": _BUILD,
    "cli.rows_per_op": ("cli.certify",),
    "cli.row_s_p50": ("cli.certify",),
    "cli.row_concurrency": ("cli.certify",),
    "svg.chart_ms": ("cli.line_chart",),
    "simulator.step_us": ("cli.run", "simulator.step"),
    "simulator.sample_alpha_frac": ("cli.run", "simulator.sample_alpha"),
    "simulator.runs_per_op": ("cli.run",),
    **{f"{layer}.self_frac": tuple(f"{m}.{a}" for m, a, lay in WRAPPED if lay == layer)
       for layer in LAYERS if layer != "linalg"},
}


def per_layer(stats: SpanStats, quality: dict, overhead: float | None,
              missing_names: list[str]) -> tuple[dict[str, float | None], list[str]]:
    """Per-layer metric values, and the metrics that are missing because a
    span name they need could not be wrapped.  A value is None when it is
    missing or the workload does not exercise it."""
    c, t, s = stats.count, stats.total_ns, stats.self_ns

    def g(d, k):
        return d.get(k, 0)

    cuts = g(c, _CUT)
    probes = g(c, _PROBE)
    probe_durs = stats.probe_durs
    values = {
        "linalg.time_frac": _ratio(sum(g(t, n) for n in _LINALG), stats.busy_ns),
        "linalg.eig_batch_us": _ratio(g(t, _EIG) / 1e3, g(c, _EIG)),
        "linalg.eig_batches_per_cut": _ratio(g(c, _EIG), cuts),
        "ellipsoid.cuts_per_probe": _ratio(cuts, g(c, "certifier.ellipsoid_feasibility")),
        "ellipsoid.cut_self_us": _ratio(
            (g(s, "certifier.ellipsoid_feasibility") + g(s, _CUT)) / 1e3, cuts),
        "certifier.probes_per_cert": _ratio(probes, g(c, "cli.certify")),
        "certifier.infeasible_probe_frac": _ratio(g(stats.nones, _PROBE), probes),
        "certifier.probe_ms_p50": statistics.median(probe_durs) / 1e6 if probe_durs else None,
        "iqc.build_us_per_probe": _ratio(sum(g(t, n) for n in _BUILD) / 1e3,
                                         g(c, "certifier.augment")),
        "certifier.rho_gap_mean": quality["rho_gap_mean"],
        "model.grid_points_per_cert": (statistics.fmean(quality["grid_points"])
                                       if quality["grid_points"] else None),
        "cli.rows_per_op": _ratio(len(stats.sweep_rows), stats.sweep_ops),
        "cli.row_s_p50": (statistics.median(stats.sweep_rows) / 1e9
                          if stats.sweep_rows else None),
        "cli.row_concurrency": _ratio(stats.sweep_row_ns, stats.sweep_wall_ns),
        "svg.chart_ms": _ratio(g(t, "cli.line_chart") / 1e6, g(c, "cli.line_chart")),
        "simulator.step_us": _ratio(g(t, "cli.run") / 1e3, g(c, "simulator.step")),
        "simulator.sample_alpha_frac": _ratio(g(t, "simulator.sample_alpha"),
                                              g(t, "cli.run")),
        "simulator.runs_per_op": _ratio(g(c, "cli.run"), stats.simulate_ops),
        **{f"{layer}.self_frac": _ratio(ns, stats.busy_ns)
           for layer, ns in stats.layer_self_ns.items() if layer != "linalg"},
        "trace.overhead_frac": overhead,
    }
    gone = set(missing_names)
    missing = [m for m, names in NEEDS.items() if gone.intersection(names)]
    for m in missing:
        values[m] = None
    return values, missing
