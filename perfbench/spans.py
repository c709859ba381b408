"""Span tracing of a2gsounder's public functions, applied from outside.

``install()`` wraps each function named in ``TRACED`` once per process.
Every ``a2gsounder.*`` module attribute that *is* the original function
is replaced by the wrapper, because ``pipeline``, ``cli`` and
``processing`` import names directly; ``ArrayGeometry.port_gains`` is
wrapped on the class and the CLI's command table is patched as well.

A span is (id, name, start, end, parent, thread, snapshot, extra). Spans
stay in memory and are written as JSON lines when the process exits.
``layer_metrics()`` turns the spans of one benchmark flow into the
per-layer metrics; self time is a span's duration minus the part of its
interval that its child spans cover.
"""

import atexit
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

# (module, function) pairs; "Class.method" names are wrapped on the class
TRACED = {
    "config": ("parse_scenario",),
    "channel_synth": ("synthesize_paths", "tx_position_at", "tx_tilt_at"),
    "array_geometry": ("ArrayGeometry.port_gains", "build_cylindrical_array"),
    "capture_sim": ("build_system_response", "port_stack_response",
                    "port_response_row", "simulate_snapshot", "simulate_b2b"),
    "pipeline": ("run_synthesis", "run_b2b", "calibrate_records",
                 "analyze_records", "metrics_rows", "stability_rows",
                 "summarize", "write_rows_csv", "write_rows_json"),
    "calibration": ("calibrate", "stability_stats"),
    "processing": ("snapshot_metrics", "cir_from_tf", "threshold_and_gate",
                   "rms_delay_spread", "rx_power", "correlation_and_eigen",
                   "column_power_profile", "los_bin_power_db"),
    "capture_file": ("write_capture", "read_capture"),
    "cli": ("cmd_synth", "cmd_b2b", "cmd_calibrate", "cmd_analyze",
            "cmd_stability", "cmd_report"),
}
MODULES = tuple(TRACED)


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # a pool worker's outermost span belongs to the span that is open
        # on the main thread, which waits inside the pool's map
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = self._parent(stack)
        span = {"id": next(self._ids), "name": name,
                "parent": parent["id"] if parent else None,
                "thread": threading.get_ident(),
                "snapshot": _snapshot_of(args, kwargs,
                                         parent["snapshot"] if parent else None)}
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        extra = _extra(name, args, kwargs, result)
        if extra:
            span["extra"] = extra
        return result

    def dump(self, path):
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")


def _snapshot_of(args, kwargs, inherited):
    if "snapshot_index" in kwargs:
        return int(kwargs["snapshot_index"])
    index = getattr(args[0], "snapshot_index", None) if args else None
    return int(index) if index is not None else inherited


def _extra(name, args, kwargs, result):
    """Counts recorded at the call boundary. Bytes and flops are computed
    from array sizes, not measured."""
    if name == "array_geometry.ArrayGeometry.port_gains":
        return {"rows": int(result.shape[0])}
    if name in ("capture_file.write_capture", "capture_file.read_capture"):
        path = kwargs.get("path", args[0] if args else None)
        return {"file_bytes": os.path.getsize(path)}
    if name == "processing.cir_from_tf":
        # one complex128 ports x tones array in, one out
        return {"bytes": int(args[0].h_f.nbytes + result.h.nbytes)}
    if name == "processing.correlation_and_eigen":
        ports, tones = args[0].h_f.shape
        return {"flops": 8 * ports * ports * tones}
    if name == "capture_sim.simulate_snapshot":
        return {"base_tf": kwargs.get("base_tf") is not None}
    return None


def _wrap(recorder, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)
    return traced


def install(spans_path):
    """Wrap every function in TRACED and write the spans at exit."""
    import a2gsounder.cli  # noqa: F401  (loads every traced module)

    recorder = Recorder()
    loaded = [m for n, m in list(sys.modules.items())
              if n == "a2gsounder" or n.startswith("a2gsounder.")]
    commands = a2gsounder.cli._COMMANDS  # main() dispatches through this table
    for module_name, functions in TRACED.items():
        module = sys.modules[f"a2gsounder.{module_name}"]
        for function in functions:
            name = f"{module_name}.{function}"
            if "." in function:
                cls_name, attr = function.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, _wrap(recorder, name, getattr(cls, attr)))
                continue
            original = getattr(module, function)
            wrapper = _wrap(recorder, name, original)
            for loaded_module in loaded:
                for attr, value in list(vars(loaded_module).items()):
                    if value is original:
                        setattr(loaded_module, attr, wrapper)
            for command, value in commands.items():
                if value is original:
                    commands[command] = wrapper
    atexit.register(recorder.dump, spans_path)
    return recorder


# ---------------------------------------------------------------- analysis

def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(s["start"], s["end"], children.get(s["id"], ()))
            for s in spans}


def root_covered(spans):
    """Wall time covered by spans without a parent (one process)."""
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    if not roots:
        return 0.0
    return _covered(min(a for a, _ in roots), max(b for _, b in roots), roots)


def _tail(values):
    """Highest order statistic with at least ten samples beyond it (the
    maximum when there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _parallel(spans, name):
    """Workers and efficiency (worker busy time / (wall x workers)) of the
    one ``name`` span a command opens, or (0, 0.0) without one. Children
    on other threads than the span's own ran in the pool."""
    for parent in spans:
        if parent["name"] == name:
            kids = [s for s in spans if s["parent"] == parent["id"]]
            pooled = [k for k in kids if k["thread"] != parent["thread"]] or kids
            workers = len({k["thread"] for k in pooled})
            wall = parent["end"] - parent["start"]
            busy = sum(k["end"] - k["start"] for k in pooled)
            return workers, busy / (wall * workers) if workers and wall > 0 else 0.0
    return 0, 0.0


# (metric name, unit, better); the doc beside this file maps each one to
# the end-to-end metric and workload it should move
LAYER_METRICS = [
    ("channel_synth.synthesize_paths.calls", "count", "lower"),
    ("channel_synth.synthesize_paths.self_s", "s", "lower"),
    ("channel_synth.tx_position_at.calls", "count", "lower"),
    ("channel_synth.tx_position_at.self_s", "s", "lower"),
    ("capture_sim.port_response_row.calls", "count", "lower"),
    ("capture_sim.port_response_row.self_s", "s", "lower"),
    ("array_geometry.port_gains.calls", "count", "lower"),
    ("array_geometry.port_gains.self_s", "s", "lower"),
    ("array_geometry.port_gains.rows_used_ratio", "ratio", "higher"),
    ("capture_sim.port_stack_response.calls", "count", "lower"),
    ("capture_sim.port_stack_response.self_s", "s", "lower"),
    ("capture_sim.simulate_snapshot.self_s", "s", "lower"),
    ("pipeline.base_cache_hit_ratio", "ratio", "higher"),
    ("pipeline.run_synthesis.s", "s", "lower"),
    ("pipeline.analyze_records.s", "s", "lower"),
    ("pipeline.workers", "count", "higher"),
    ("pipeline.synth_parallel_efficiency", "ratio", "higher"),
    ("pipeline.analyze_parallel_efficiency", "ratio", "higher"),
    ("processing.cir_from_tf.self_s", "s", "lower"),
    ("processing.threshold_and_gate.self_s", "s", "lower"),
    ("processing.rms_delay_spread.self_s", "s", "lower"),
    ("processing.correlation_and_eigen.self_s", "s", "lower"),
    ("processing.column_power_profile.self_s", "s", "lower"),
    ("processing.snapshot_metrics.p50_ms", "ms", "lower"),
    ("processing.snapshot_metrics.tail_ms", "ms", "lower"),
    ("processing.cir_from_tf.bytes", "B", "lower"),
    ("processing.correlation_and_eigen.flops", "flop", "lower"),
    ("calibration.calibrate.calls", "count", "lower"),
    ("calibration.calibrate.self_s", "s", "lower"),
    ("calibration.stability_stats.s", "s", "lower"),
    ("capture_file.write_capture.s", "s", "lower"),
    ("capture_file.write_capture.bytes", "B", "lower"),
    ("capture_file.write_capture.MBps", "MB/s", "higher"),
    ("capture_file.read_capture.s", "s", "lower"),
    ("capture_file.read_capture.bytes", "B", "lower"),
    ("capture_file.read_capture.MBps", "MB/s", "higher"),
    ("config.parse_scenario.s", "s", "lower"),
] + [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    ("cli.unattributed_s", "s", "lower"),
    ("trace.thread_overlap_s", "s", "higher"),
    ("trace.synth_s", "s", "lower"),
    ("trace.analyze_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(commands):
    """Per-layer metrics of one traced flow.

    ``commands`` holds (phase, wall_s, spans) per CLI command, where phase
    is "synth" or "analyze" and wall_s the parent-measured wall time.
    Values are summed over the flow's commands. ``trace.overhead_s`` is
    left to the caller, which knows the untraced times.
    """
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    snapshot_ms = []
    rows_used = rows_computed = 0
    hits = snapshots = 0
    for phase, wall, spans in commands:
        covered = root_covered(spans)
        selfs = self_times(spans)
        out[f"trace.{phase}_s"] += wall
        out["cli.unattributed_s"] += wall - covered
        # self times on pool threads that ran side by side exceed the wall
        out["trace.thread_overlap_s"] += sum(selfs.values()) - covered
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            module, function = s["name"].split(".", 1)
            function = function.rsplit(".", 1)[-1]
            dur = s["end"] - s["start"]
            own = selfs[s["id"]]
            out[f"{module}.self_s"] += own
            for key, value in ((f"{module}.{function}.calls", 1),
                               (f"{module}.{function}.self_s", own),
                               (f"{module}.{function}.s", dur)):
                if key in out:
                    out[key] += value
            extra = s.get("extra", {})
            parent = by_id.get(s["parent"])
            if function == "port_gains":
                rows_computed += extra["rows"]
                single = parent is not None and parent["name"] == "capture_sim.port_response_row"
                rows_used += 1 if single else extra["rows"]
            elif function in ("write_capture", "read_capture"):
                out[f"capture_file.{function}.bytes"] += extra["file_bytes"]
            elif function == "cir_from_tf":
                out["processing.cir_from_tf.bytes"] += extra["bytes"]
            elif function == "correlation_and_eigen":
                out["processing.correlation_and_eigen.flops"] += extra["flops"]
            elif function == "snapshot_metrics":
                snapshot_ms.append(1e3 * dur)
            elif function == "simulate_snapshot" and parent is not None \
                    and parent["name"] == "pipeline.run_synthesis":
                snapshots += 1
                hits += extra["base_tf"]
            elif function == "port_stack_response" and parent is not None \
                    and parent["name"] == "pipeline.run_synthesis":
                hits -= 1  # computed by the cache on a miss, not reused
        for key, name in (("synth", "pipeline.run_synthesis"),
                          ("analyze", "pipeline.analyze_records")):
            workers, efficiency = _parallel(spans, name)
            if workers:
                out["pipeline.workers"] = max(out["pipeline.workers"], workers)
                out[f"pipeline.{key}_parallel_efficiency"] = efficiency
    out["pipeline.base_cache_hit_ratio"] = hits / snapshots if snapshots else 0.0
    out["array_geometry.port_gains.rows_used_ratio"] = (
        rows_used / rows_computed if rows_computed else 0.0)
    if snapshot_ms:
        out["processing.snapshot_metrics.p50_ms"] = statistics.median(snapshot_ms)
        out["processing.snapshot_metrics.tail_ms"] = _tail(snapshot_ms)
    for op in ("write_capture", "read_capture"):
        seconds = out[f"capture_file.{op}.s"]
        out[f"capture_file.{op}.MBps"] = (
            out[f"capture_file.{op}.bytes"] / seconds / 1e6 if seconds else 0.0)
    return out

