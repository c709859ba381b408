"""Scenario execution: synthesis, calibration, metrics, reports.

Snapshot simulation and analysis are embarrassingly parallel; the
A2GS_THREADS environment variable caps the worker count (default 1).
Randomness is counter-based, so the thread count never changes results.

What runs where in the pool:

- synthesis: the noise-free base response of each distinct static or
  hover TX state, then every snapshot's noise and capture, each pass
  mapped over one shared pool;
- calibration: every measurement's division by the reference;
- analysis: only the BLAS-free per-snapshot chain (IFFT, gating, delay
  spread, column profile). The correlation matrix and its eigenvalues
  run first, for every snapshot in order, on the calling thread: BLAS
  starts threads of its own, and nested inside pool workers they spin
  against the other workers, so analysis at two threads ran slower
  than at one.
"""

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .calibration import calibrate
from .capture_sim import (build_system_response, port_stack_response,
                          simulate_b2b, simulate_snapshot)
from .channel_synth import synthesize_slots, tx_positions_at, tx_tilt_at, wobble_index
from .processing import correlation_and_eigen, snapshot_metrics
from .waveform import snapshot_timestamps


def thread_count():
    value = os.environ.get("A2GS_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


@contextmanager
def _ordered_pool():
    """Yield map(fn, items) -> list in item order, run on up to
    thread_count() worker threads; one pool serves every map inside the
    block, so its worker threads are started once."""
    workers = thread_count()
    if workers == 1:
        yield lambda fn, items: [fn(x) for x in items]
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def _map_ordered(fn, items):
    with _ordered_pool() as map_ordered:
        return map_ordered(fn, items)


def system_for(config):
    return build_system_response(config.tone_plan, config.geometry.n_ports, **config.system)


def paths_for_snapshot(config, time):
    """SlotPaths of the snapshot that starts at ``time``.

    A static or hover TX is frozen within a snapshot: it is synthesized
    once, at ``time``, and every port shares that row. A route TX
    advances between switch slots: it is synthesized at each slot time
    time + k * t_siso, and port k sees row k. One synthesize_slots call
    computes the image-source paths of every position in one array
    pass.
    """
    traj = config.trajectory
    slots = config.geometry.n_ports if traj.kind == "square_route" else 1
    times = time + np.arange(slots) * config.timing.t_siso
    return synthesize_slots(config.scene, tx_positions_at(traj, times),
                            config.tone_plan.center_frequency, tx_tilt=tx_tilt_at(traj, time))


def run_synthesis(config):
    """Simulate every snapshot of the scenario; returns CaptureRecords.

    Static and hover TX states repeat across snapshots (a static TX has
    one state, a hover TX one per wobble index), so their noise-free
    response is computed once per distinct state, at the state's first
    snapshot time, in a first pool pass; no two workers ever compute
    the same state. The second pass adds each snapshot's noise and
    system response. A route snapshot's response is computed inside its
    own task, so the route never holds more than one response per
    worker.
    """
    system = system_for(config)
    times = snapshot_timestamps(config.timing, config.capture["burst_count"])
    traj = config.trajectory
    if traj.kind == "static_point":
        keys = [0] * len(times)
    elif traj.kind == "hover":
        keys = [wobble_index(traj, t) for t in times]
    else:
        keys = [None] * len(times)
    first_times = {}
    for key, time in zip(keys, times):
        if key is not None:
            first_times.setdefault(key, time)

    def base_at(time):
        paths = paths_for_snapshot(config, time)
        return paths, port_stack_response(paths, config.geometry, config.tone_plan,
                                          config.scene.rx_mounting_rotation)

    def one(index):
        time = times[index]
        key = keys[index]
        paths, base_tf = bases[key] if key is not None else base_at(time)
        return simulate_snapshot(
            paths,
            config.geometry,
            config.tone_plan,
            system,
            noise_snr_db=config.capture["snr_db"],
            snapshot_index=index,
            timestamp=float(time),
            mounting_rotation=config.scene.rx_mounting_rotation,
            seed=config.capture["noise_seed"],
            base_tf=base_tf,
        )

    with _ordered_pool() as map_ordered:
        bases = dict(zip(first_times, map_ordered(base_at, list(first_times.values()))))
        return map_ordered(one, list(range(len(times))))


def run_b2b(config, snapshot_count=None):
    """Simulate a back-to-back reference series for the scenario."""
    system = system_for(config)
    if snapshot_count is None:
        snapshot_count = config.capture["b2b_snapshot_count"]
    return simulate_b2b(
        config.tone_plan,
        system,
        config.attenuator,
        snapshot_count=snapshot_count,
        seed=config.capture["b2b_noise_seed"],
        noise_snr_db=config.capture["b2b_snr_db"],
        snapshot_period=1.0 / config.timing.burst_rate,
    )


def calibrate_records(meas_records, ref_records, attenuator):
    """Calibrate every measurement against the first B2B reference snapshot.

    The measurements are divided in the pool; calibration is elementwise
    numpy and starts no BLAS threads.
    """
    ref = ref_records[0]
    ref_median = float(np.median(np.abs(ref.h_f)))
    return _map_ordered(lambda m: calibrate(m, ref, attenuator, ref_median=ref_median),
                        meas_records)


def analyze_records(cal_records, geometry, gate, window="rect"):
    """Per-snapshot metrics for a list of calibrated responses.

    correlation_and_eigen runs for every snapshot first, in order, on
    the calling thread, where BLAS keeps its own threads as it does at
    A2GS_THREADS=1; the rest of snapshot_metrics, which uses no BLAS,
    then runs in the pool with the precomputed EigenReport. BLAS thus
    never runs nested inside a pool worker, and the eigen columns are
    the same bytes for any A2GS_THREADS.
    """
    eigen = [correlation_and_eigen(c) for c in cal_records]
    return _map_ordered(
        lambda pair: snapshot_metrics(pair[0], geometry, gate, window, eigen=pair[1]),
        list(zip(cal_records, eigen)))


# One row per snapshot, in column order; CSV, JSON and the route report
# are all projections of these rows.
METRIC_FIELDS = {
    "snapshot_index": lambda m: m.snapshot_index,
    "timestamp": lambda m: m.timestamp,
    "tx_x": lambda m: float(m.tx_position[0]),
    "tx_y": lambda m: float(m.tx_position[1]),
    "tx_z": lambda m: float(m.tx_position[2]),
    "p_rx": lambda m: m.p_rx,
    "p_rx_db": lambda m: m.p_rx_db,
    "sigma_tau_s": lambda m: m.sigma_tau_s,
    "sigma_tau_dbs": lambda m: m.sigma_tau_dbs,
    "strongest_port": lambda m: m.strongest_port,
    "los_bin_power_db": lambda m: m.los_bin_power_db,
    "gamma12_db": lambda m: m.gamma12_db,
    "gamma14_db": lambda m: m.gamma14_db,
    "eigen_span_db": lambda m: m.eigen_span_db,
    "argmax_v_column": lambda m: m.argmax_v_column,
}

# route table columns after "location"; the per-column col{c}_{v,h}_db
# powers follow them
REPORT_FIELDS = ("timestamp", "tx_x", "tx_y", "tx_z", "p_rx_db", "sigma_tau_dbs",
                 "gamma12_db", "gamma14_db", "argmax_v_column")


def metrics_rows(metrics):
    """Per-snapshot rows: METRIC_FIELDS, then col{c}_v_db/col{c}_h_db per column."""
    rows = []
    for m in metrics:
        row = {name: value(m) for name, value in METRIC_FIELDS.items()}
        for col in range(m.column_power_db.shape[0]):
            row[f"col{col}_v_db"] = m.column_power_db[col, 0]
            row[f"col{col}_h_db"] = m.column_power_db[col, 1]
        rows.append(row)
    return rows


def report_rows(rows):
    """Location-indexed route table projected from metrics rows.

    ``rows`` are metrics_rows() dicts or the same rows read back from a
    metrics CSV, all carrying REPORT_FIELDS; values pass through
    untouched.
    """
    if not rows:
        raise ValueError("route report needs at least one snapshot")
    out = []
    for i, row in enumerate(rows):
        entry = {"location": i}
        entry.update((key, row[key]) for key in REPORT_FIELDS)
        entry.update((key, value) for key, value in row.items() if key.startswith("col"))
        out.append(entry)
    return out


def route_rows(metrics):
    """Route table of SnapshotMetrics: report_rows(metrics_rows(metrics))."""
    return report_rows(metrics_rows(metrics))


def write_rows_csv(path, rows, config_hash=None):
    """Write rows as CSV; the provenance hash rides in a '#' comment line
    that pandas/gnuplot-style readers skip."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash: {config_hash}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_rows_json(path, rows):
    with open(path, "w") as fh:
        json.dump([_jsonable(r) for r in rows], fh, indent=2)
        fh.write("\n")


def _jsonable(row):
    out = {}
    for key, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[key] = str(value)
        elif isinstance(value, (np.floating, np.integer)):
            out[key] = value.item()
        else:
            out[key] = value
    return out


def _stat(values):
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return {"mean": None, "std": None, "count": 0}
    return {
        "mean": float(np.mean(finite)),
        "std": float(np.std(finite)),
        "count": len(finite),
    }


def summarize(metrics, config_hash=""):
    """Scenario summary: means and stds of the headline metrics."""
    return {
        "snapshots": len(metrics),
        "config_hash": config_hash,
        "gamma12_db": _stat([m.gamma12_db for m in metrics]),
        "gamma14_db": _stat([m.gamma14_db for m in metrics]),
        "sigma_tau_dbs": _stat([m.sigma_tau_dbs for m in metrics]),
        "p_rx_db": _stat([m.p_rx_db for m in metrics]),
        "los_bin_power_db": _stat([m.los_bin_power_db for m in metrics]),
        # tone-average caveat: with a large coherence bandwidth the number
        # of independent frequency samples is low, so the correlation
        # matrix summarizes diversity rather than true second-order stats
        "frequency_averaging_note": "tone average over a band with few independent samples",
    }


def stability_rows(report):
    return [
        {"snapshot_index": i,
         "rel_amp_db": float(report.rel_amp_db[i]),
         "rel_phase_deg": float(report.rel_phase_deg[i])}
        for i in range(len(report.rel_amp_db))
    ]
