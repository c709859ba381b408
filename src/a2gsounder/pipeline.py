"""Scenario execution: synthesis, calibration, metrics, reports.

Snapshot simulation and analysis are embarrassingly parallel; the
A2GS_THREADS environment variable caps the worker count (default 1).
Randomness is counter-based, so the thread count never changes results.

Every stage is an ordered iterator and the row writers take each row as
it comes, so memory is bounded whatever the series length. The process
runs one pool at a time (see _map_ordered), on the response, noise
step (and, for the synth command, the capture write) of run_synthesis
or the capture reads, calibration and metrics of analyze_records. What
feeds it runs in the feeding thread: the paths of each run of
snapshots that share a TX state, from which each worker builds the
state's path-sum factors once. run_b2b runs with no pool, and a
process that starts none never imports concurrent.futures or the
logging it imports. Given a
capture writer's rows, both synthesis stages write each snapshot's
16-port blocks straight to the file, so no ports x tones payload is
held.
Analysis holds numpy's OpenBLAS at one thread (see analyze_records);
synthesis leaves it at its own count, and its bytes do not depend on it.
"""

import csv
import ctypes
import json
import math
import os
import threading
from array import array
from collections import deque
from functools import cache, partial
from itertools import chain, groupby

import numpy as np

from .calibration import CalibrationError, Reference, calibrate
from .capture_file import CaptureFile, Layout, replacing
from .capture_sim import (FactoredResponse, build_system_response, noise_scratch, noise_sigma,
                          port_stack_response, simulate_b2b, simulate_snapshot)
from .channel_synth import synthesize_slots, tx_positions_at, tx_tilt_at
from .config import SchemaError
from .processing import Workspace, snapshot_metrics
from .waveform import snapshot_timestamps


def thread_count():
    """A2GS_THREADS as an integer >= 1; 1 when unset or empty."""
    value = os.environ.get("A2GS_THREADS", "").strip() or "1"
    if not value.isdecimal() or int(value) < 1:
        raise SchemaError(f"A2GS_THREADS must be an integer >= 1, got {value!r}")
    return int(value)


@cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):  # another BLAS build: a pair that does nothing
        return (lambda: None), (lambda count: None)


_POOL_RUNNING = threading.Lock()


def _map_ordered(fn, items):
    """Ordered iterator of fn(item) on up to thread_count() worker threads,
    at most workers + 1 tasks (every worker busy, one queued) ahead of
    the result being taken; ``items`` is consumed as tasks are submitted.

    While another call's pool runs (it holds _POOL_RUNNING until its
    iterator ends or is closed), as when this stage feeds that pool, it
    maps in the taking thread: A2GS_THREADS caps the whole process. So
    it does at one thread, and only a call that starts a pool imports
    concurrent.futures.
    """
    workers = thread_count()
    if workers == 1 or not _POOL_RUNNING.acquire(blocking=False):
        yield from map(fn, items)
        return
    try:
        from concurrent.futures import ThreadPoolExecutor  # and logging: 0.6 MiB

        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            try:
                for item in items:
                    pending.append(pool.submit(fn, item))
                    if len(pending) > workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:  # after an error or an early close: run no queued task
                for future in pending:
                    future.cancel()
    finally:
        _POOL_RUNNING.release()


def system_for(config):
    return build_system_response(config.tone_plan, config.geometry.n_ports, **config.system)


def paths_for_snapshot(config, time):
    """SlotPaths of the snapshot that starts at ``time``.

    A TX at one waypoint is frozen within a snapshot: it is synthesized
    once, at ``time``, and every port shares that row. A TX that walks
    more than one waypoint advances between switch slots: it is
    synthesized at each slot time time + k * t_siso, and port k sees
    row k. One synthesize_slots call computes the image-source paths of
    every position in one array pass.
    """
    traj = config.trajectory
    slots = config.geometry.n_ports if traj.moves else 1
    times = time + np.arange(slots) * config.timing.t_siso
    return synthesize_slots(config.scene, tx_positions_at(traj, times),
                            config.tone_plan.center_frequency, tx_tilt=tx_tilt_at(traj, time))


def synthesis_layout(config):
    """Capture-file Layout of run_synthesis(config), from the trajectory
    alone: each snapshot's start time, slot-0 TX position and tilt."""
    times = snapshot_timestamps(config.timing, config.capture["burst_count"])
    traj = config.trajectory
    return Layout("MEAS", config.tone_plan, config.geometry.n_ports, times,
                  tx_positions_at(traj, times), [tx_tilt_at(traj, t) for t in times],
                  range(len(times)), config.capture["snr_db"], config.capture["noise_seed"])


def run_synthesis(config, rows=None):
    """Simulate every snapshot of the scenario: an ordered iterator of
    fresh CaptureRecords, or, given ``rows`` (write_capture's; see its
    producer), every snapshot written through it from the pool's tasks,
    returning once the pool is done.

    Consecutive snapshots that share a TX state (Trajectory.state) form
    a run: one run for a still TX, one per wobble index for a wobbling
    one at one waypoint, one per snapshot for a moving one. The thread
    that feeds the pool synthesizes a run's paths once, at its first
    snapshot time, as the run is reached, and hands each of its
    snapshots to a pool task with the run's key (its first index), those
    paths and the first run's. Each worker thread keeps one
    FactoredResponse, into which port_stack_response writes the state's
    path-sum factors (0.50 MB for a paper-route state, 0.93 MB for an
    olin-hover one at 128 x 1841) only when a task's key is not the one
    it built last.
    As a worker starts, it builds snapshot 0's state there and takes the
    capture's noise sigma from snapshot 0 (noise_sigma, one expansion of
    its blocks through the worker's noise scratch block): every worker
    holds the same float, without a lock or an extra buffer.
    A task expands the noise-free
    response times the common chain from the factors 16 ports at a time
    (the path-sum matmuls use BLAS at its own thread count), multiplies
    the ports by its snapshot's port gains and drift and adds the noise,
    in one pass through that noise scratch block, into a fresh complex128
    array, or with ``rows`` block by block to rows(index, k, block),
    cast to ``<c8`` in that scratch; its record then carries no payload
    and is dropped. No ports x tones array crosses between threads,
    none is held by a worker that writes, and the pool's lookahead
    holds only snapshot indices and paths.

    A SceneError surfaces when its run is reached: at one thread after
    every earlier record, at A2GS_THREADS >= 2 up to workers + 1
    snapshots ahead of the record being taken.
    """
    system = system_for(config)
    times = snapshot_timestamps(config.timing, config.capture["burst_count"])
    traj = config.trajectory
    local = threading.local()

    def snapshots():
        first = None
        for _, run in groupby(range(len(times)), key=lambda s: traj.state(s, times[s])):
            run = list(run)
            paths = paths_for_snapshot(config, times[run[0]])
            first = paths if first is None else first
            for index in run:
                yield index, run[0], paths, first

    def fill(key, paths):  # a TX state's path-sum factors, into this worker's response
        port_stack_response(paths, config.geometry, config.tone_plan,
                            config.scene.rx_mounting_rotation, out=local.response)
        local.key = key

    def one(item):
        index, key, paths, first = item
        if not hasattr(local, "scratch"):  # and the capture's noise, from snapshot 0's state
            local.scratch = noise_scratch(config.tone_plan.tone_count)
            local.response = FactoredResponse(config.geometry.n_ports, system.common_chain)
            fill(0, first)
            local.sigma = noise_sigma(config.capture["snr_db"], local.response.product,
                                      local.response.shape,
                                      system.per_port_gain * system.drift(0), local.scratch)
        if key != local.key:
            fill(key, paths)
        return simulate_snapshot(paths, config.geometry, config.tone_plan, system,
                                 noise_snr_db=config.capture["snr_db"], snapshot_index=index,
                                 timestamp=float(times[index]),
                                 mounting_rotation=config.scene.rx_mounting_rotation,
                                 seed=config.capture["noise_seed"], base_tf=local.response,
                                 out=None if rows is None else partial(rows, index),
                                 scratch=local.scratch, sigma=local.sigma)

    records = _map_ordered(one, snapshots())
    if rows is None:
        return records
    deque(records, maxlen=0)


def _b2b_count(config, snapshot_count):
    return config.capture["b2b_snapshot_count"] if snapshot_count is None else snapshot_count


def b2b_layout(config, snapshot_count=None):
    """Capture-file Layout of run_b2b(config, snapshot_count)."""
    count = _b2b_count(config, snapshot_count)
    period = 1.0 / config.timing.burst_rate
    return Layout("B2B", config.tone_plan, config.geometry.n_ports,
                  [s * period for s in range(count)], [np.zeros(3)] * count,
                  [np.zeros(2)] * count, range(count),
                  config.capture["b2b_snr_db"], config.capture["b2b_noise_seed"])


def run_b2b(config, snapshot_count=None, rows=None):
    """Simulate a back-to-back reference series for the scenario: an
    ordered iterator of B2B CaptureRecords, each made as it is taken
    into a fresh complex128 array, or, given ``rows`` (write_capture's;
    see its producer), every snapshot written block by block through
    it, returning once the last is written (see simulate_b2b, whose base
    response and noise scratch block it holds)."""
    records = simulate_b2b(config.tone_plan, system_for(config), config.attenuator,
                           snapshot_count=_b2b_count(config, snapshot_count),
                           seed=config.capture["b2b_noise_seed"],
                           noise_snr_db=config.capture["b2b_snr_db"],
                           snapshot_period=1.0 / config.timing.burst_rate, rows=rows)
    if rows is None:
        return records
    deque(records, maxlen=0)


def first_reference(ref_records, attenuator):
    """The Reference of the first B2B snapshot of ``ref_records``, checked
    and its factor attenuation / reference computed."""
    ref = next(iter(ref_records), None)
    if ref is None:
        raise CalibrationError("calibration needs a reference snapshot")
    return Reference(ref, attenuator)


def calibrate_records(meas_records, ref_records, attenuator):
    """Calibrate every measurement against the first B2B reference
    snapshot; an ordered iterator of CAL records.

    The reference is checked, and its factor computed, once here. Each
    measurement is then multiplied by that factor as it is taken, in
    the taking thread, into a fresh complex128 array.
    """
    reference = first_reference(ref_records, attenuator)
    return map(lambda m: calibrate(m, reference), meas_records)


def analyze_records(records, geometry, gate, window="rect", reference=None):
    """Metrics rows (see snapshot_metrics) of calibrated records, or of
    measurements calibrated against ``reference`` (a Reference); an
    ordered iterator, one pool task per record.

    A task ends with its record's row. Each worker thread owns one
    processing.Workspace, reused for every record it takes, and every
    step writes into it: the calibrated response (calibrate's product
    with the reference's factor, or snapshot_metrics' cast of a
    calibrated record) and all that follows. When ``records`` is a
    CaptureFile, a task also reads its snapshot's payload, into the
    workspace's payload half; otherwise the records are taken in the
    thread that feeds the pool. Memory is then the workspaces plus any
    records in flight, whatever the series length.

    numpy's OpenBLAS is held at one thread from the first row until the
    iterator ends, is closed or raises: BLAS threads nested in the pool
    spin against its workers, and their count changes the eigen columns'
    last digits. Another BLAS build runs with its own threading.
    """
    local = threading.local()
    from_file = isinstance(records, CaptureFile)

    def one(item):
        shape = records.shape if from_file else item.h_f.shape
        ws = getattr(local, "workspace", None)
        if ws is None or ws.shape != shape:
            ws = local.workspace = Workspace(shape)
        record = records.read(item, out=ws.payload) if from_file else item
        cal = record if reference is None else calibrate(record, reference, out=ws.response)
        return snapshot_metrics(cal, geometry, gate, window, ws)

    get, set_ = _openblas_threads()
    before = get()
    set_(1)
    try:
        yield from _map_ordered(one, range(len(records)) if from_file else records)
    finally:
        set_(before)


def metrics_rows(cal_records, geometry, gate, window="rect"):
    """Metrics rows of calibrated records, as a list."""
    return list(analyze_records(cal_records, geometry, gate, window))


# route table columns after "location"; the per-column col{c}_{v,h}_db
# powers follow them
REPORT_FIELDS = ("timestamp", "tx_x", "tx_y", "tx_z", "p_rx_db", "sigma_tau_dbs",
                 "gamma12_db", "gamma14_db", "argmax_v_column")


def report_rows(rows):
    """Location-indexed route table projected from metrics rows, an iterator.

    ``rows`` are snapshot_metrics rows or the same rows read back from a
    metrics CSV, all carrying REPORT_FIELDS.
    """
    for i, row in enumerate(rows):
        entry = {"location": i}
        entry.update((key, row[key]) for key in REPORT_FIELDS)
        entry.update((key, value) for key, value in row.items() if key.startswith("col"))
        yield entry


def write_rows_csv(path, rows, config_hash=None):
    """Write rows, any iterable, as CSV with the first row's keys as header;
    the provenance hash rides in a '#' line that CSV readers can skip."""
    rows = iter(rows)
    with replacing(path) as fh:
        first = next(rows, None)
        if first is None:
            raise ValueError("no rows to write")
        if config_hash:
            fh.write(f"# config_hash: {config_hash}\n")
        writer = csv.DictWriter(fh, fieldnames=list(first))
        writer.writeheader()
        writer.writerows(chain([first], rows))


def write_rows_json(path, rows):
    """Write rows, any iterable, as json.dump(list(rows), indent=2) and a
    newline would, one row at a time; non-finite floats become strings."""
    with replacing(path) as fh:
        sep = "["
        for row in rows:
            fh.write(sep + "\n  " + json.dumps(_jsonable(row), indent=2).replace("\n", "\n  "))
            sep = ","
        fh.write("[]\n" if sep == "[" else "\n]\n")


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


SUMMARY_FIELDS = ("gamma12_db", "gamma14_db", "sigma_tau_dbs", "p_rx_db", "los_bin_power_db")


def _stat(values):
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return {"mean": None, "std": None, "count": 0}
    return {
        "mean": float(np.mean(finite)),
        "std": float(np.std(finite)),
        "count": len(finite),
    }


def summarize(rows, config_hash=""):
    """Scenario summary of metrics rows, any iterable: means and stds of
    the SUMMARY_FIELDS, of which it keeps 40 B a row."""
    columns = {key: array("d") for key in SUMMARY_FIELDS}
    count = 0
    for count, row in enumerate(rows, 1):
        for key, column in columns.items():
            column.append(row[key])
    return {
        "snapshots": count,
        "config_hash": config_hash,
        **{key: _stat(column) for key, column in columns.items()},
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
