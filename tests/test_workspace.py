"""Analysis in one fixed workspace per worker, and synthesis that applies
the common chain once per run.

Each in-place kernel is held byte for byte to the allocating form it
replaced, on random arrays. The memory of analyze_records is bounded by
its workspaces and the records in flight (none when it reads a capture
file), whatever the series length, and a fresh ``a2gs analyze`` process
takes no page faults per extra snapshot beyond a small bound.
"""

import collections
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import test_golden as golden

from a2gsounder import pipeline
from a2gsounder.calibration import Reference, calibrate
from a2gsounder.capture_file import read_capture, write_capture
from a2gsounder.capture_sim import (AttenuatorModel, CaptureRecord, _add_noise,
                                    port_stack_response, simulate_snapshot)
from a2gsounder.config import parse_scenario
from a2gsounder.processing import (GateConfig, RawCIR, Workspace, cir_from_tf,
                                   correlation_and_eigen, threshold_and_gate)
from a2gsounder.waveform import TonePlan

SRC = str(Path(__file__).resolve().parent.parent / "src")
PLAN = TonePlan(tone_count=1841)


def random_response(seed, ports=16, tones=PLAN.tone_count, dtype=np.complex64):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((ports, tones)) + 1j * rng.standard_normal((ports, tones))
    h *= 10.0 ** rng.uniform(-4, 2, (ports, 1))
    return h.astype(dtype)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gate_by_mask(raw, gate):
    """threshold_and_gate as it was: a late-bin mask and np.where over the
    power of a complex128 copy."""
    power = np.abs(raw.h.astype(np.complex128, copy=False)) ** 2
    n_ports, n_bins = power.shape
    tail = max(1, int(math.ceil(gate.noise_window_fraction * n_bins)))
    noise_floor = np.mean(power[:, n_bins - tail:], axis=1)
    peak = np.max(power, axis=1)
    threshold = np.maximum(noise_floor * 10.0 ** (gate.noise_margin_db / 10.0),
                           peak * 10.0 ** (-gate.peak_margin_db / 10.0))
    keep = power >= threshold[:, np.newaxis]
    any_kept = keep.any(axis=1) & (peak > 0.0)
    first_delay = raw.delays[np.argmax(keep, axis=1)]
    late = raw.delays[np.newaxis, :] > (first_delay[:, np.newaxis] + gate.delay_gate)
    kept = keep & ~late
    kept[~any_kept] = False
    return (np.where(kept, power, 0.0), noise_floor, threshold,
            tuple(np.nonzero(~any_kept)[0].tolist()))


class TestInPlaceKernels:
    @pytest.mark.parametrize("window", ["rect", "hann"])
    @pytest.mark.parametrize("seed", range(3))
    def test_ifft_in_place_gives_the_allocating_bytes(self, seed, window):
        h = random_response(seed)
        expected = cir_from_tf(CaptureRecord(h_f=h, tone_plan=PLAN), window=window).h
        buffer = h.copy()
        got = cir_from_tf(CaptureRecord(h_f=buffer, tone_plan=PLAN), window=window,
                          out=buffer).h
        assert got is buffer
        assert same_bytes(got, expected)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("seed", range(3))
    def test_float64_absolute_and_square_give_the_power_of_a_complex128_copy(self, seed,
                                                                               dtype):
        h = random_response(seed, dtype=dtype)
        power = np.empty(h.shape)
        np.absolute(h, out=power, dtype=np.float64)
        np.square(power, out=power)
        assert same_bytes(power, np.abs(h.astype(np.complex128)) ** 2)

    @pytest.mark.parametrize("delay_gate", [1e-7, 2e-6, 2e-5])
    @pytest.mark.parametrize("seed", range(4))
    def test_prefix_cut_and_multiply_give_the_mask_and_where_bytes(self, seed, delay_gate):
        h = random_response(seed)
        h[:, 40] += 50.0 * np.abs(h).max()  # a strong path, so the gates differ per port
        h[3] = 0.0  # a port where nothing survives
        raw = RawCIR(h=h, delays=PLAN.delay_bins)
        gate = GateConfig(delay_gate=delay_gate)
        power, noise_floor, threshold, all_zero = gate_by_mask(raw, gate)
        out, keep = np.empty(h.shape), np.empty(h.shape, bool)
        for gated in (threshold_and_gate(raw, gate), threshold_and_gate(raw, gate, out, keep)):
            assert same_bytes(gated.power, power)
            assert same_bytes(gated.noise_floor, noise_floor)
            assert same_bytes(gated.threshold, threshold)
            assert gated.all_zero_ports == all_zero == (3,)
        assert gated.power is out
        assert np.array_equal(keep, power > 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_calibrating_a_complex64_payload_into_a_workspace_gives_the_copy_bytes(self, seed):
        ref = CaptureRecord(h_f=random_response(seed + 10), tone_plan=PLAN, record_type="B2B")
        reference = Reference(ref, AttenuatorModel())
        payload = random_response(seed)
        expected = payload.astype(np.complex128) * reference.factor
        out = np.empty(payload.shape, np.complex128)
        cal = calibrate(CaptureRecord(h_f=payload, tone_plan=PLAN), reference, out=out)
        assert cal.h_f is out
        assert same_bytes(out, expected)
        assert same_bytes(calibrate(CaptureRecord(h_f=payload, tone_plan=PLAN), reference).h_f,
                          expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_correlation_from_contiguous_planes_gives_the_strided_product_bytes(self, seed):
        h = random_response(seed, dtype=np.complex128)
        x = h.view(np.float64)
        c = h.imag @ h.real.T
        expected = (x @ x.T + 1j * (c - c.T)) / h.shape[1]
        planes = np.empty((2, *h.shape))
        for got in (correlation_and_eigen(CaptureRecord(h_f=h, tone_plan=PLAN)),
                    correlation_and_eigen(CaptureRecord(h_f=h, tone_plan=PLAN), planes)):
            assert same_bytes(got.correlation, expected)


def test_chain_applied_once_per_run_gives_the_per_snapshot_bytes():
    config = parse_scenario({"preset": "olin-static", "array": {"columns": 4, "rows": 2},
                             "timing": {"ports_per_simo": 16}, "tone_plan": {"tone_count": 64}})
    system = pipeline.system_for(config)
    paths = pipeline.paths_for_snapshot(config, 0.0)
    args = (paths, config.geometry, config.tone_plan, system)
    base = port_stack_response(paths, config.geometry, config.tone_plan)
    chained = base * system.common_chain
    for index in range(3):
        # the per-snapshot form it replaced: chain, then gains and drift in place
        expected = base * system.common_chain
        expected *= (system.per_port_gain * system.drift(index))[:, np.newaxis]
        _add_noise(expected, 30.0, 7, index)
        kwargs = dict(noise_snr_db=30.0, snapshot_index=index, seed=7)
        assert same_bytes(simulate_snapshot(*args, base_tf=chained, **kwargs).h_f, expected)
        assert same_bytes(simulate_snapshot(*args, **kwargs).h_f, expected)


# Peak traced bytes per worker beyond its workspace and the payloads in
# flight: the ports x ports correlation and eigen arrays, the per-port
# vectors, the finiteness check of a read and the row (0.8 MB measured
# at 128 x 1841).
SLACK_PER_WORKER = 3 << 19
# At one worker the peaks over two series lengths agree to within bytes.
# At more, whether one worker's transients coincide with another's peak
# varies from run to run (by up to 0.53 MB seen at two workers), so each
# worker past the first adds its slack.
SERIES_TOLERANCE = 1 << 16
# Six snapshots fill the pool's lookahead of 2 * workers + 1 records at
# up to two workers; four would not at two (24.2 against 26.1 MB).
SHORT, LONG = 6, 32


@pytest.fixture(scope="module")
def full_size(tmp_path_factory):
    """A 128-port, 1841-tone scenario, its Reference, one measured
    complex64 record, and capture files of SHORT and LONG copies of it.
    The record is analyzed once so that lazily built state (the FFT's
    plan cache) is in place before any peak is traced."""
    config = parse_scenario({"preset": "olin-static"})
    reference = Reference(next(pipeline.run_b2b(config, 1)), config.attenuator)
    record = next(pipeline.run_synthesis(config))
    record = replace(record, h_f=record.h_f.astype(np.complex64))
    pipeline.metrics_rows([calibrate(record, reference)], config.geometry, config.gate)
    files = {}
    for count in (SHORT, LONG):
        path = tmp_path_factory.mktemp("capture") / "meas.bin"
        write_capture(path, [replace(record, snapshot_index=s) for s in range(count)])
        files[count] = read_capture(path)[0]
    return config, reference, record, files


def analysis_peak(full_size, count, source):
    """Peak traced bytes of analyze_records over ``count`` snapshots: a
    capture file whose tasks read their own payloads ("file"), or
    records whose payloads are copied in the feeding thread as they are
    taken ("records")."""
    config, reference, record, files = full_size
    records = files[count] if source == "file" else (
        replace(record, h_f=record.h_f.copy(), snapshot_index=s) for s in range(count))
    tracemalloc.start()
    try:
        collections.deque(pipeline.analyze_records(records, config.geometry, config.gate,
                                                   reference=reference), maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", ["file", "records"])
@pytest.mark.parametrize("workers", [1, 2])
def test_analysis_memory_is_fixed_by_the_workers_not_the_series(full_size, monkeypatch,
                                                                  workers, source):
    monkeypatch.setenv("A2GS_THREADS", str(workers))
    short, long = analysis_peak(full_size, SHORT, source), analysis_peak(full_size, LONG, source)
    shape = full_size[2].h_f.shape
    workspace = sum(a.nbytes for a in vars(Workspace(shape)).values()
                    if isinstance(a, np.ndarray))
    in_flight = 0 if source == "file" else (2 * workers + 1) * full_size[2].h_f.nbytes
    bound = workers * (workspace + SLACK_PER_WORKER) + in_flight
    assert abs(long - short) <= SERIES_TOLERANCE + (workers - 1) * SLACK_PER_WORKER, \
        (short, long)
    assert long <= bound, (long, bound)


# Minor faults a fresh analyze process may take per extra snapshot. One
# 1.9 MB array given back to the kernel and faulted in again each
# snapshot costs ~460, and analysis that allocates its arrays per
# snapshot, as it did before its workspaces, ~2,100 without a heap
# setting. A run takes under 2 per snapshot at one or two workers.
FAULTS_PER_SNAPSHOT = 20


def analyze_faults(scenario, meas, ref, out, workers):
    """Minor page faults of one ``a2gs analyze`` child process."""
    env = dict(os.environ, A2GS_THREADS=str(workers), PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-m", "a2gsounder", "analyze", "--scenario",
                              scenario, "--meas", meas, "--ref", ref, "--out", out],
                             env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, child.stderr.read().decode()
    child.stderr.close()
    return usage.ru_minflt


@pytest.fixture(scope="module")
def static_series(tmp_path_factory):
    """olin-static captures of 3 and 11 bursts (9 and 33 snapshots) and
    their references. At two workers the heap grows over the first few
    snapshots, as the lookahead and the second workspace fill; nine
    snapshots are past that."""
    out = {}
    for bursts in (3, 11):
        tmp = tmp_path_factory.mktemp(f"static{bursts}")
        scenario = golden._scenario(tmp, "static", bursts)
        meas, ref = str(tmp / f"meas{bursts}.bin"), str(tmp / f"ref{bursts}.bin")
        golden._run("synth", "--scenario", scenario, "--out", meas)
        golden._run("b2b", "--scenario", scenario, "--out", ref, "--snapshots", "2")
        out[3 * bursts] = scenario, meas, ref
    return out


@pytest.mark.skipif(not hasattr(os, "wait4") or not sys.platform.startswith("linux"),
                    reason="minor fault counts of a child process are read on Linux")
@pytest.mark.parametrize("workers", [1, 2])
def test_analyze_takes_no_page_faults_per_extra_snapshot(static_series, tmp_path, workers):
    faults = {count: analyze_faults(*files, str(tmp_path / f"m{count}.csv"), workers)
              for count, files in static_series.items()}
    (short, few), (long, many) = sorted(faults.items())
    assert (many - few) / (long - short) <= FAULTS_PER_SNAPSHOT, faults


def test_workers_never_share_a_workspace(monkeypatch):
    # more workers than cores and a short switch interval interleave the
    # tasks finely; two workers writing one workspace would mix their rows
    config = parse_scenario({"preset": "olin-hover", "array": {"columns": 4, "rows": 2},
                             "timing": {"ports_per_simo": 16}, "tone_plan": {"tone_count": 64},
                             "capture": {"burst_count": 8}})
    reference = pipeline.first_reference(pipeline.run_b2b(config, 1), config.attenuator)
    meas = [replace(r, h_f=r.h_f.astype(np.complex64)) for r in pipeline.run_synthesis(config)]

    def rows(workers):
        monkeypatch.setenv("A2GS_THREADS", str(workers))
        return repr(list(pipeline.analyze_records(meas, config.geometry, config.gate,
                                                  reference=reference)))
    expected = rows(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert rows(6) == expected
    finally:
        sys.setswitchinterval(interval)
