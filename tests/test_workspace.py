"""Analysis and synthesis in one fixed workspace per worker, and the
capture writer that each synthesis task writes its snapshot's blocks
through.

Each in-place kernel is held byte for byte to the allocating form it
replaced, on random arrays. An analysis Workspace is one complex128
buffer (plus the keep mask and a 16-port block, 4.48 MB at 128 x 1841)
whose views take each role in turn: the payload in its second half,
the calibrated response over all of it, per-row [Re | Im] planes, the
complex64 delay domain in its first half and the float64 power in its
second; snapshot_metrics in it is held byte for byte to the allocating
kernels at port counts that are not whole 16-port blocks. The memory
of analyze_records is bounded by its workspaces, each owning buffer
counted once, and the records in flight (none when it reads a capture
file), that of the synth command's write by its workspaces, each with
its TX state's path-sum factors and no payload, that of the b2b
command's write by its base response and scratch, and that of the
calibrate command by its one payload, whatever the series length; a read into a buffer
that is not a payload raises; a fresh ``a2gs analyze``, ``synth``,
``calibrate`` or ``b2b`` process takes no page faults per extra
snapshot beyond a small bound. The
writer fails closed: an error in any task leaves no file, and a row
block written twice or skipped, or a snapshot left short, raises. Its
positioned row writes give the pinned bytes when every write is short,
and a streamed write gives the bytes of a record list.
"""

import collections
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import test_golden as golden
from oracles import whole_product

from a2gsounder import cli, pipeline, processing
from a2gsounder._rng import TAG_NOISE, stream
from a2gsounder.calibration import Reference, calibrate
from a2gsounder.capture_file import Layout, read_capture, write_capture
from a2gsounder.array_geometry import build_cylindrical_array
from a2gsounder.capture_sim import (AttenuatorModel, CaptureRecord, FactoredResponse,
                                    _gain_and_noise, build_system_response, noise_scratch,
                                    noise_sigma, port_stack_response, simulate_b2b,
                                    simulate_snapshot)
from a2gsounder.channel_synth import SlotPaths
from a2gsounder.cli import main as cli_main
from a2gsounder.config import parse_scenario
from a2gsounder.processing import (GateConfig, RawCIR, Workspace, cir_from_tf,
                                   correlation_and_eigen, snapshot_metrics,
                                   threshold_and_gate)
from a2gsounder.waveform import TonePlan, snapshot_timestamps

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
        # in place, as the calibrate command does: the complex128 product cast
        cal = calibrate(CaptureRecord(h_f=payload, tone_plan=PLAN), reference, out=payload)
        assert cal.h_f is payload
        assert same_bytes(payload, expected.astype("<c8"))

    @pytest.mark.parametrize("ports", [1, 3, 40, 128])
    def test_calibrating_the_payload_into_its_own_workspace_gives_the_copy_bytes(self, ports):
        # the payload lies in the second half of the response it is
        # calibrated into; a stale response must not leak in
        ref = CaptureRecord(h_f=random_response(10, ports), tone_plan=PLAN, record_type="B2B")
        reference = Reference(ref, AttenuatorModel())
        ws = Workspace((ports, PLAN.tone_count))
        ws.response.fill(np.nan)
        payload = random_response(0, ports)
        np.copyto(ws.payload, payload)
        cal = calibrate(CaptureRecord(h_f=ws.payload, tone_plan=PLAN), reference,
                        out=ws.response)
        assert cal.h_f is ws.response
        assert same_bytes(ws.response, payload.astype(np.complex128) * reference.factor)

    @pytest.mark.parametrize("seed", range(3))
    def test_correlation_from_contiguous_planes_gives_the_strided_product_bytes(self, seed):
        h = random_response(seed, dtype=np.complex128)
        expected = correlation_by_planes(h)
        ws = Workspace(h.shape)
        np.copyto(ws.response, h)
        for cal, workspace in ((CaptureRecord(h_f=h, tone_plan=PLAN), None),
                               (CaptureRecord(h_f=ws.response, tone_plan=PLAN), ws)):
            assert same_bytes(correlation_and_eigen(cal, workspace).correlation, expected)
        # the response is left as [Re | Im] planes, row by row
        assert same_bytes(ws.response.view(np.float64), np.hstack([h.real, h.imag]))

    def test_product_of_the_strided_planes_allocates_only_its_result(self):
        ws = Workspace((128, PLAN.tone_count))
        np.copyto(ws.response, random_response(0, 128, dtype=np.complex128))
        re, im = ws.planes()
        assert re.strides == im.strides == (2 * PLAN.tone_count * 8, 8)
        im @ re.T  # one-time allocations are not the product's
        tracemalloc.start()
        try:
            c = im @ re.T
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of either plane would be 1.9 MB
        assert peak <= c.nbytes + (1 << 12), peak


def correlation_by_planes(h):
    """The correlation as the allocating kernel forms it: C from fresh
    contiguous Re and Im planes of the complex128 response."""
    h = h.astype(np.complex128)
    x = h.view(np.float64)
    c = np.ascontiguousarray(h.imag) @ np.ascontiguousarray(h.real).T
    return (x @ x.T + 1j * (c - c.T)) / h.shape[1]


class ColumnPerPort:
    """A geometry stub for any port count: one column per port, whose V
    and H means are that port's energy."""

    def __init__(self, ports):
        self.n_ports = ports

    def column_means(self, energy):
        return np.stack([energy, energy], axis=1)


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("ports", [1, 3, 40, 128])  # none a whole number of 16-port blocks
def test_one_buffer_analysis_gives_the_allocating_bytes(monkeypatch, ports, dtype, window):
    # snapshot_metrics in one Workspace reused across snapshots of
    # different content, against the allocating kernels: the correlation
    # from contiguous planes, and fresh delay and power arrays. A complex64
    # snapshot is analyzed from an array apart from the workspace and from
    # its payload half, as a capture read leaves it.
    gate = GateConfig()
    seen = {}
    picks = {"correlation_and_eigen": lambda result: result.correlation,
             "cir_from_tf": lambda result: result.h.copy(),
             "threshold_and_gate": lambda result: result.power.copy()}

    def spy(name, fn):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[name] = picks[name](result)
            return result
        return traced
    for name in picks:
        monkeypatch.setattr(processing, name, spy(name, getattr(processing, name)))
    ws = Workspace((ports, PLAN.tone_count))
    ws.response.fill(np.nan)
    sources = ["apart", "payload"] if dtype == np.complex64 else ["apart"]
    for seed in range(3):
        h = random_response(seed, ports, dtype=dtype)
        raw = cir_from_tf(CaptureRecord(h_f=h.astype(np.complex64), tone_plan=PLAN),
                          window=window)
        expected = {"correlation_and_eigen": correlation_by_planes(h), "cir_from_tf": raw.h,
                    "threshold_and_gate": threshold_and_gate(raw, gate).power}
        rows = []
        for source in sources:
            if source == "payload":
                h_f = ws.payload
                np.copyto(h_f, h)
            else:
                h_f = h.copy()
            seen.clear()
            rows.append(snapshot_metrics(CaptureRecord(h_f=h_f, tone_plan=PLAN),
                                         ColumnPerPort(ports), gate, window, ws))
            if source == "apart":
                assert same_bytes(h_f, h)  # the caller's response is not written
            for name, want in expected.items():
                assert same_bytes(seen[name], want), (source, name)
        assert repr(rows[0]) == repr(rows[-1])


def test_chain_applied_once_per_run_gives_the_per_snapshot_bytes():
    config = parse_scenario({"preset": "olin-static", "array": {"columns": 4, "rows": 2},
                             "timing": {"ports_per_simo": 16}, "tone_plan": {"tone_count": 64}})
    system = pipeline.system_for(config)
    paths = pipeline.paths_for_snapshot(config, 0.0)
    args = (paths, config.geometry, config.tone_plan, system)
    base = port_stack_response(paths, config.geometry, config.tone_plan)
    chained = FactoredResponse(config.geometry.n_ports, system.common_chain)
    port_stack_response(paths, config.geometry, config.tone_plan, out=chained)
    gains = [system.per_port_gain * system.drift(index) for index in range(3)]
    first = base * system.common_chain * gains[0][:, np.newaxis]  # the capture's snapshot 0
    sigma = noise_sigma(30.0, chained.product, chained.shape, gains[0])
    for index in range(3):  # one build, reused as a worker reuses it for a run
        # the per-snapshot form it replaced: chain, then gains and drift in place
        expected = base * system.common_chain
        expected *= gains[index][:, np.newaxis]
        alone = noise_by_fresh_draws(expected.copy(), 30.0, 7, index)
        noise_by_fresh_draws(expected, 30.0, 7, index, first)
        kwargs = dict(noise_snr_db=30.0, snapshot_index=index, seed=7)
        assert same_bytes(simulate_snapshot(*args, base_tf=chained, sigma=sigma, **kwargs).h_f,
                          expected)
        # without the capture's sigma, a snapshot is a capture of its own
        assert same_bytes(simulate_snapshot(*args, **kwargs).h_f, alone)
        assert same_bytes(simulate_snapshot(*args, base_tf=chained, **kwargs).h_f, alone)
        assert same_bytes(alone, expected) == (index == 0)


def noise_by_fresh_draws(tf, snr_db, seed, snapshot_index, first=None):
    """The noise step as it was, with the noise of a capture whose first
    snapshot is ``first`` (``tf`` itself when None): ``snr_db`` below the
    largest mean |.|^2 of a port of ``first``, taken per 16-port block,
    added to ``tf`` in place through fresh draws per 16-port block."""
    first = tf if first is None else first
    ref_power = float(np.max(np.concatenate([np.mean(np.abs(first[k:k + 16]) ** 2, axis=1)
                                             for k in range(0, len(first), 16)])))
    rng = stream(seed, TAG_NOISE, snapshot_index)
    for b in (tf[k:k + 16] for k in range(0, len(tf), 16)):
        draws = rng.standard_normal((len(b), 2, tf.shape[1]))
        draws *= math.sqrt(ref_power * 10.0 ** (-snr_db / 10.0) / 2.0)
        b.real += draws[:, 0]
        b.imag += draws[:, 1]
    return tf


@pytest.mark.parametrize("snr_db", [20.0, None])
@pytest.mark.parametrize("ports", [128, 40])  # 40: two whole blocks and a short last one
@pytest.mark.parametrize("seed", range(3))
def test_gain_and_noise_by_blocks_gives_the_whole_array_bytes(ports, seed, snr_db):
    # the base is a view whose rows lie whole tone blocks apart, as
    # port_stack_response's; out, block and scratch start full of NaN,
    # as an earlier snapshot may leave them, which must not leak in. The
    # noise is that of a capture whose first snapshot is another base
    # times the same gains, through the same blocks
    base, first = (random_response(s, ports, 1856, np.complex128)[:, :PLAN.tone_count]
                   for s in (seed, seed + 20))
    gain = random_response(seed + 10, ports, 1, np.complex128)[:, 0]
    expected = base * gain[:, np.newaxis]
    if snr_db is not None:
        noise_by_fresh_draws(expected, snr_db, seed, 7, first * gain[:, np.newaxis])
    untouched = base.copy()
    for want in (expected, np.ascontiguousarray(expected, "<c8")):
        for scratch in (np.full(noise_scratch(PLAN.tone_count).shape, np.nan), None):
            sigma = noise_sigma(snr_db, whole_product(first), first.shape, gain, scratch)
            out = np.full(base.shape, np.nan, want.dtype)
            got = _gain_and_noise(out, whole_product(base), base.shape, gain, sigma, seed, 7,
                                  scratch)
            assert got is out and same_bytes(out, want)
    assert same_bytes(base, untouched)


def test_a_b2b_series_takes_its_noise_from_snapshot_0():
    # the chain and port gains through the attenuator, times each
    # snapshot's drift, plus noise snr_db below snapshot 0's strongest port
    plan = TonePlan(tone_count=64)
    system = build_system_response(plan, 40, seed=3, amplitude_jitter_db=0.5)
    attenuator = AttenuatorModel()
    base = system.common_chain[np.newaxis, :] * system.per_port_gain[:, np.newaxis]
    base *= attenuator.response(plan)
    first = base * system.drift(0, "b2b")
    records = simulate_b2b(plan, system, attenuator, snapshot_count=3, seed=7, noise_snr_db=20.0)
    for s, record in enumerate(records):
        want = noise_by_fresh_draws(base * system.drift(s, "b2b"), 20.0, 7, s, first)
        assert same_bytes(record.h_f, want), s


def random_slot_paths(rng, rows, count):
    """SlotPaths of ``rows`` rows of ``count`` random paths each; with more
    than one row, each row past the first pads a random number of paths
    (zero gain and direction, infinite delay), as a route's rows do."""
    delays = np.sort(rng.uniform(50e-9, 400e-9, (rows, count)), axis=1)
    directions = rng.standard_normal((rows, count, 3))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    jones = rng.standard_normal((rows, count, 2)) + 1j * rng.standard_normal((rows, count, 2))
    counts = np.full(rows, count)
    if rows > 1:
        counts[1:] = rng.integers(1, count + 1, rows - 1)
    padded = np.arange(count) >= counts[:, np.newaxis]
    delays[padded], directions[padded], jones[padded] = np.inf, 0.0, 0.0
    return SlotPaths(delays=delays, jones=jones, directions=directions, counts=counts,
                     tx_positions=np.zeros((rows, 3)), tx_tilt=np.zeros(2))


@pytest.mark.parametrize("tones", [2, 63, 64, 65, 1841])  # partial and whole tone blocks
@pytest.mark.parametrize("ports", [2, 6, 40, 128])  # partial and whole 16-port blocks
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-slot"])
def test_factored_blocks_give_the_whole_response_bytes(shared, ports, tones):
    # _gain_and_noise on a FactoredResponse against the whole
    # port_stack_response times the chain, over states whose path count
    # grows, then shrinks, in one factor buffer; the buffer, out and the
    # scratch start full of NaN, as an earlier state or snapshot may
    # leave them, which must not leak in
    rng = np.random.default_rng(ports * tones)
    geometry = build_cylindrical_array(ports // 2 if ports < 40 else ports // 8,
                                       1 if ports < 40 else 4, 0.11, 0.043)
    assert geometry.n_ports == ports
    plan = TonePlan(tone_count=tones)
    system = build_system_response(plan, ports, seed=3)
    response = FactoredResponse(ports, system.common_chain)
    scratch = np.empty(noise_scratch(tones).shape)
    gain = system.per_port_gain * system.drift(1)
    for key, count in enumerate((2, 6, 1)):
        paths = random_slot_paths(rng, 1 if shared else ports, count)
        whole = port_stack_response(paths, geometry, plan, 0.4)
        whole *= system.common_chain
        response._buffer.fill(np.nan)
        assert port_stack_response(paths, geometry, plan, 0.4, out=response) is response
        for snr_db in (20.0, None):
            sigma = noise_sigma(snr_db, whole_product(whole), whole.shape, gain)
            scratch.fill(np.nan)
            assert noise_sigma(snr_db, response.product, response.shape, gain, scratch) == sigma
            want = _gain_and_noise(None, whole_product(whole), whole.shape, gain, sigma, 5, key)
            for dtype in (np.complex128, np.complex64):
                out = np.full(whole.shape, np.nan, dtype)
                scratch.fill(np.nan)
                assert _gain_and_noise(out, response.product, response.shape, gain, sigma, 5,
                                       key, scratch) is out
                assert same_bytes(out, want.astype(dtype)), (key, snr_db, dtype)


def test_non_finite_path_gains_raise_on_the_factor_path():
    rng = np.random.default_rng(0)
    geometry = build_cylindrical_array(4, 2, 0.11, 0.043)
    plan = TonePlan(tone_count=65)
    system = build_system_response(plan, geometry.n_ports, seed=3)
    response = FactoredResponse(geometry.n_ports, system.common_chain)
    good = random_slot_paths(rng, 1, 3)
    bad = replace(good, jones=good.jones.copy())
    bad.jones[0, 1] = np.nan
    args = (response.product, response.shape, system.per_port_gain, None, 1, 0)
    port_stack_response(good, geometry, plan, out=response)
    want = _gain_and_noise(None, *args)
    with pytest.raises(ValueError, match="non-finite path gains"):
        port_stack_response(bad, geometry, plan)
    with pytest.raises(ValueError, match="non-finite path gains"):
        port_stack_response(bad, geometry, plan, out=response)
    # the rejected paths leave the filled state as it was
    assert same_bytes(_gain_and_noise(None, *args), want)


def test_rows_cast_to_the_bytes_of_ascontiguousarray(tmp_path):
    # whole snapshots written from several threads in reverse order, one
    # of them a strided view, and one with float32 subnormal,
    # underflowing and near-maximum samples; then a C-contiguous <c8
    # payload, which rows writes as it is, without a copy
    arrays = [random_response(s, 16, 64, np.complex128) for s in range(3)]
    arrays[0][0, :3] = [1e-42, 1e-50j, 3.4e38 - 3.4e38j]
    arrays.append(random_response(3, 16, 128, np.complex128)[:, ::2])
    payload = random_response(4, 16, 64)
    arrays.append(payload)
    count = len(arrays)
    layout = Layout("B2B", TonePlan(tone_count=64), 16, [0.05 * s for s in range(count)],
                    [np.zeros(3)] * count, [np.zeros(2)] * count, range(count))
    peaks = []

    def produce(rows):
        with ThreadPoolExecutor(max_workers=count) as pool:
            for future in [pool.submit(rows, s, 0, arrays[s])
                           for s in reversed(range(count - 1))]:
                future.result()
        tracemalloc.start()
        try:
            rows(count - 1, 0, payload)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    write_capture(tmp_path / "cast.bin", produce, layout=layout)
    back, _ = read_capture(tmp_path / "cast.bin")
    for s, h_f in enumerate(arrays):
        assert back.read(s).h_f.tobytes() == np.ascontiguousarray(h_f, "<c8").tobytes()
    assert back.read(count - 1).h_f.tobytes() == payload.tobytes()
    assert peaks[0] < payload.nbytes // 8, peaks


# Peak traced bytes per worker beyond its workspace and the payloads in
# flight: the ports x ports correlation and eigen arrays, the per-port
# vectors and the row (0.8 MB measured at 128 x 1841).
SLACK_PER_WORKER = 3 << 19
# At one worker the peaks over two series lengths agree to within bytes.
# At more, whether one worker's transients coincide with another's peak
# varies from run to run (by up to 0.53 MB seen at two workers), so each
# worker past the first adds its slack.
SERIES_TOLERANCE = 1 << 16
# Six snapshots fill the pool's lookahead of workers + 1 records at up
# to three workers; three would not at three (30.1 against 32.7 MB
# traced in analysis, 20.5 against 25.1 MB in the synth write).
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
        write_capture(path, [replace(record, snapshot_index=s) for s in range(count)],
                      config_hash=config.scenario_hash)
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
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_analysis_memory_is_fixed_by_the_workers_not_the_series(full_size, monkeypatch,
                                                                  workers, source):
    monkeypatch.setenv("A2GS_THREADS", str(workers))
    short, long = analysis_peak(full_size, SHORT, source), analysis_peak(full_size, LONG, source)
    # each array that owns its memory, once: the buffer, the mask and
    # the block (4.48 MB at 128 x 1841; its views would count it again)
    workspace = Workspace(full_size[2].h_f.shape).nbytes
    assert workspace <= 4.6e6, workspace
    in_flight = 0 if source == "file" else (workers + 1) * full_size[2].h_f.nbytes
    bound = workers * (workspace + SLACK_PER_WORKER) + in_flight
    assert abs(long - short) <= SERIES_TOLERANCE + (workers - 1) * SLACK_PER_WORKER, \
        (short, long)
    assert long <= bound, (long, bound)


def synthesis_write_peak(tmp_path, preset, count):
    """Peak traced bytes of the synth command's write of ``count``
    snapshots, one per burst: each pool task puts its own snapshot."""
    config = parse_scenario({"preset": preset, "timing": {"simos_per_burst": 1},
                             "capture": {"burst_count": count}})
    layout = pipeline.synthesis_layout(config)
    tracemalloc.start()
    try:
        write_capture(tmp_path / "meas.bin", partial(pipeline.run_synthesis, config),
                      layout=layout)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def factor_bytes(preset, count):
    """The largest factor buffer of a FactoredResponse over the states of
    ``count`` snapshots of ``preset``, one per burst: the phase (R, A, P),
    coarse (R, Q*A, P) and fine (R, P, 64) complex128 factors, with one
    row per element and its V and H gain sets (R = 64, Q = 2) for the
    shared row of a static or hover TX, and A = 29 tone blocks."""
    config = parse_scenario({"preset": preset, "timing": {"simos_per_burst": 1}})
    times = snapshot_timestamps(config.timing, count)
    paths = max(pipeline.paths_for_snapshot(config, t).delays.shape[1] for t in times)
    blocks = -(-config.tone_plan.tone_count // 64)
    return 16 * 64 * paths * (3 * blocks + 64)


# olin-static has one TX state for the whole series; olin-hover at one
# snapshot per burst a state per snapshot, so each worker builds the
# factors of each state it takes in its own buffer.
@pytest.mark.parametrize("preset", ["olin-static", "olin-hover"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_synthesis_write_memory_is_fixed_by_the_workers_not_the_series(tmp_path, monkeypatch,
                                                                       workers, preset):
    monkeypatch.setenv("A2GS_THREADS", str(workers))
    synthesis_write_peak(tmp_path, preset, SHORT)  # one-time allocations are not the run's
    short = synthesis_write_peak(tmp_path, preset, SHORT)
    long = synthesis_write_peak(tmp_path, preset, LONG)
    # a worker's noise scratch (the 16-port complex128 block and the
    # float64 block, where each finished block is cast to <c8 for the
    # writer) and its factor buffer; no ports x tones payload
    per_worker = noise_scratch(PLAN.tone_count).nbytes + factor_bytes(preset, LONG)
    bound = workers * (per_worker + SLACK_PER_WORKER)
    assert abs(long - short) <= SERIES_TOLERANCE + (workers - 1) * SLACK_PER_WORKER, \
        (short, long)
    assert long <= bound, (long, bound)


def b2b_write_peak(tmp_path, count):
    """Peak traced bytes of the b2b command's write of ``count`` snapshots,
    each written a 16-port block at a time."""
    config = parse_scenario({"preset": "olin-static"})
    layout = pipeline.b2b_layout(config, count)
    tracemalloc.start()
    try:
        write_capture(tmp_path / "ref.bin", partial(pipeline.run_b2b, config, count),
                      layout=layout)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_b2b_write_memory_is_fixed_by_the_base_not_the_series(tmp_path):
    b2b_write_peak(tmp_path, SHORT)  # one-time allocations are not the run's
    short, long = b2b_write_peak(tmp_path, SHORT), b2b_write_peak(tmp_path, LONG)
    ports, tones = 128, PLAN.tone_count
    # the base response, built in place, and the noise scratch
    bound = ports * tones * 16 + noise_scratch(tones).nbytes + SLACK_PER_WORKER
    assert abs(long - short) <= SERIES_TOLERANCE, (short, long)
    assert long <= bound, (long, bound)


@pytest.fixture(scope="module")
def full_size_ref(full_size, tmp_path_factory):
    """The full_size scenario's file and a one-snapshot B2B file of it."""
    config, tmp = full_size[0], tmp_path_factory.mktemp("ref")
    scenario, path = tmp / "static.json", tmp / "ref.bin"
    scenario.write_text(json.dumps({"preset": "olin-static"}))
    write_capture(path, pipeline.run_b2b(config, 1), config_hash=config.scenario_hash)
    return str(scenario), str(path)


def calibrate_peak(full_size, full_size_ref, tmp_path, count):
    """Peak traced bytes of the calibrate command over ``count`` snapshots;
    its Reference is full_size's, built before tracing starts."""
    meas = str(full_size[3][count].path)
    scenario, ref = full_size_ref
    tracemalloc.start()
    try:
        assert cli_main(["calibrate", "--scenario", scenario, "--meas", meas, "--ref", ref,
                         "--out", str(tmp_path / "cal.bin")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_calibrate_memory_is_one_payload_whatever_the_series(full_size, full_size_ref,
                                                             tmp_path, monkeypatch):
    # each snapshot is read, calibrated and written in the one <c8 payload
    # (a 2.2 MB peak measured at 128 x 1841); a complex128 product array
    # beside it, 3.8 MB, would break the bound
    reference = full_size[1]
    monkeypatch.setattr(cli, "first_reference", lambda ref, attenuator: reference)
    calibrate_peak(full_size, full_size_ref, tmp_path, SHORT)  # one-time allocations
    payload = reference.factor.size * 8
    for count in (SHORT, LONG):
        peak = calibrate_peak(full_size, full_size_ref, tmp_path, count)
        assert peak <= payload + SLACK_PER_WORKER, (count, peak)


def test_a_read_into_a_buffer_allocates_no_payload(full_size):
    # the payload and its finiteness check go through the buffer alone
    files = full_size[3]
    buf = np.empty(files[SHORT].shape, "<c8")
    files[SHORT].read(0, out=buf)  # one-time allocations are not the read's
    tracemalloc.start()
    try:
        assert files[SHORT].read(1, out=buf).h_f.base is buf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


@pytest.mark.parametrize("dtype,tones,step", [(np.complex128, 1841, 1), ("<c8", 3682, 2),
                                              ("<c8", 1840, 1)],
                         ids=["complex128", "strided", "shape"])
def test_a_read_into_another_buffer_raises(full_size, dtype, tones, step):
    # such a buffer would be left as it was, under a fresh array's record
    buf = np.empty((128, tones), dtype)[:, ::step]
    with pytest.raises(ValueError, match="out must be a C-contiguous <c8 array"):
        full_size[3][SHORT].read(0, out=buf)


# Minor faults a fresh a2gs process may take per extra snapshot. One
# 1.9 MB array given back to the kernel and faulted in again each
# snapshot costs ~460, and analysis that allocates its arrays per
# snapshot, as it did before its workspaces, ~2,100 without a heap
# setting. A run takes under 2 per snapshot at one or two workers.
FAULTS_PER_SNAPSHOT = 20
linux_only = pytest.mark.skipif(not hasattr(os, "wait4") or not sys.platform.startswith("linux"),
                                reason="minor fault counts of a child process are read on Linux")


def cli_faults(workers, *argv):
    """Minor page faults of one ``a2gs`` child process. Its stderr goes
    to a temporary file, read after the wait: a pipe would block a child
    that writes more than the pipe holds."""
    env = dict(os.environ, A2GS_THREADS=str(workers), PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile() as stderr:
        child = subprocess.Popen([sys.executable, "-m", "a2gsounder", *argv],
                                 env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        stderr.seek(0)
        assert child.returncode == 0, stderr.read().decode()
    return usage.ru_minflt


def faults_per_extra_snapshot(faults):
    """Slope of {snapshot count: faults} between its two counts."""
    (short, few), (long, many) = sorted(faults.items())
    return (many - few) / (long - short)


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


@linux_only
@pytest.mark.parametrize("workers", [1, 2])
def test_analyze_takes_no_page_faults_per_extra_snapshot(static_series, tmp_path, workers):
    faults = {count: cli_faults(workers, "analyze", "--scenario", scenario, "--meas", meas,
                                "--ref", ref, "--out", str(tmp_path / f"m{count}.csv"))
              for count, (scenario, meas, ref) in static_series.items()}
    assert faults_per_extra_snapshot(faults) <= FAULTS_PER_SNAPSHOT, faults


@linux_only
def test_calibrate_takes_no_page_faults_per_extra_snapshot(static_series, tmp_path):
    faults = {count: cli_faults(1, "calibrate", "--scenario", scenario, "--meas", meas,
                                "--ref", ref, "--out", str(tmp_path / f"cal{count}.bin"))
              for count, (scenario, meas, ref) in static_series.items()}
    assert faults_per_extra_snapshot(faults) <= FAULTS_PER_SNAPSHOT, faults


@linux_only
@pytest.mark.parametrize("workers", [1, 2])
def test_synth_takes_no_page_faults_per_extra_snapshot(tmp_path, workers):
    # olin-hover has a TX state per burst. Each worker refills its own
    # factor buffer for a new state and writes its blocks to the file,
    # so nothing ports x tones is allocated per snapshot: a run reads
    # under one fault per extra snapshot. The series, 36 and 102 long,
    # start past the first snapshots, in which the workers' buffers are
    # first faulted in, and end at the benchmark's hover length
    faults = {}
    for bursts in (12, 34):
        scenario = golden._scenario(tmp_path, "hover", bursts)
        faults[3 * bursts] = cli_faults(workers, "synth", "--scenario", scenario,
                                        "--out", str(tmp_path / "meas.bin"))
    assert faults_per_extra_snapshot(faults) <= FAULTS_PER_SNAPSHOT, faults


@linux_only
def test_b2b_takes_no_page_faults_per_extra_snapshot(tmp_path):
    scenario = golden._scenario(tmp_path, "static")
    faults = {count: cli_faults(1, "b2b", "--scenario", scenario, "--snapshots", str(count),
                                "--out", str(tmp_path / "ref.bin"))
              for count in (12, 48)}
    assert faults_per_extra_snapshot(faults) <= FAULTS_PER_SNAPSHOT, faults


def small_hover(tmp_path):
    """A 16-port, 64-tone olin-hover scenario file of 8 bursts."""
    path = tmp_path / "small-hover.json"
    path.write_text(json.dumps({"preset": "olin-hover", "array": {"columns": 4, "rows": 2},
                                "timing": {"ports_per_simo": 16},
                                "tone_plan": {"tone_count": 64}, "capture": {"burst_count": 8}}))
    return str(path)


def test_a_failed_synthesis_task_leaves_no_file_and_the_earlier_one(tmp_path, monkeypatch):
    scenario = small_hover(tmp_path)
    out = tmp_path / "meas.bin"
    out.write_bytes(b"earlier output")
    original = pipeline.simulate_snapshot

    def failing(*args, **kwargs):
        if kwargs["snapshot_index"] == 4:
            raise RuntimeError("synthesis failed at snapshot 4")
        return original(*args, **kwargs)
    monkeypatch.setattr(pipeline, "simulate_snapshot", failing)
    monkeypatch.setenv("A2GS_THREADS", "2")
    threads = threading.active_count()
    assert cli_main(["synth", "--scenario", scenario, "--out", str(out)]) == 1
    # the pool is drained inside the file's block: no worker is left to write
    assert threading.active_count() == threads
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meas.bin", "small-hover.json"]
    assert out.read_bytes() == b"earlier output"


def test_a_streamed_write_holds_one_record_and_the_buffer(tmp_path):
    # a record is dropped before the next is computed, so the peak is one
    # complex128 record and its <c8 cast, not two records
    ports, tones, count = 64, 512, 8
    layout = Layout("B2B", TonePlan(tone_count=tones), ports, [0.05 * s for s in range(count)],
                    [np.zeros(3)] * count, [np.zeros(2)] * count, range(count))
    records = (layout.record(s, np.full((ports, tones), complex(1.0, 0.01 * s)))
               for s in range(count))
    tracemalloc.start()
    try:
        write_capture(tmp_path / "b2b.bin", records, layout=layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = ports * tones * 16
    assert peak <= record + record // 2 + (1 << 16), peak


# each step: a snapshot and the blocks of its ports in the order they
# are written, each (first port, count); WHOLE is one block of all 4
WHOLE = ((0, 4),)


@pytest.mark.parametrize("steps, message", [
    (((0, WHOLE), (1, WHOLE), (1, WHOLE), (2, WHOLE)), "snapshot 1 is written twice"),
    (((0, WHOLE), (2, WHOLE)), "2 records for a header of 3 snapshots: snapshot 1 has 0 of 4"),
    (((0, WHOLE), (1, ((0, 2), (2, 2))), (1, WHOLE), (2, WHOLE)), "snapshot 1 is written twice"),
    (((0, ((0, 2), (0, 2))), (1, WHOLE), (2, WHOLE)), "snapshot 0 is written twice"),
    (((0, ((0, 2), (2, 2))), (1, ((0, 2),)), (2, WHOLE)), "snapshot 1 has 2 of 4 ports written"),
    (((0, ((0, 1), (2, 2))), (1, WHOLE), (2, WHOLE)), "snapshot 0 ports 1..1 are skipped"),
    (((0, ((0, 2), (2, 2))), (1, ((0, 2), (2, 2))), (2, ((0, 3), (3, 2)))),
     "do not fit snapshot 2 of 4 x 8"),
], ids=["twice", "never", "whole-over-rows", "block-twice", "block-short", "block-skipped",
        "block-beyond"])
def test_a_snapshot_written_twice_or_left_short_raises(tmp_path, steps, message):
    layout = Layout("B2B", TonePlan(tone_count=8), 4, [0.0, 0.05, 0.1], [np.zeros(3)] * 3,
                    [np.zeros(2)] * 3, range(3))

    def produce(rows):
        for s, blocks in steps:
            for k, n in blocks:
                rows(s, k, np.ones((n, 8), "<c8"))
    with pytest.raises(ValueError, match=message):
        write_capture(tmp_path / "b2b.bin", produce, layout=layout)
    assert list(tmp_path.iterdir()) == []


def test_streamed_and_whole_records_give_one_file(tmp_path):
    # rows of any block sizes write the bytes of the whole records
    plan = TonePlan(tone_count=8)
    layout = Layout("B2B", plan, 4, [0.0, 0.05], [np.zeros(3)] * 2, [np.zeros(2)] * 2, range(2))
    payloads = [random_response(s, 4, 8) for s in range(2)]
    write_capture(tmp_path / "whole.bin", [layout.record(s, h) for s, h in enumerate(payloads)])

    def produce(rows):
        for s, h in enumerate(payloads):
            for k, n in ((0, 1), (1, 3)):
                rows(s, k, h[k:k + n])
    write_capture(tmp_path / "rows.bin", produce, layout=layout)
    assert (tmp_path / "rows.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


def test_short_row_writes_give_the_pinned_bytes(tmp_path, monkeypatch):
    # every positioned write takes at most 4096 bytes, so each 16-port
    # block (235 KB at 1841 tones) and each calibrated payload is
    # written in many parts; the files are still the pinned ones
    pwrite, sizes = os.pwrite, []

    def short_pwrite(fd, data, position):
        sizes.append(len(data))
        return pwrite(fd, memoryview(data)[:4096], position)
    monkeypatch.setattr(os, "pwrite", short_pwrite)
    monkeypatch.setenv("A2GS_THREADS", "2")
    scenario = golden._scenario(tmp_path, "hover", golden.BURSTS["hover"])
    out = {key: str(tmp_path / f"{key}.bin") for key in ("synth", "b2b", "calibrate")}
    golden._run("synth", "--scenario", scenario, "--out", out["synth"])
    golden._run("b2b", "--scenario", scenario, "--out", out["b2b"], "--snapshots", "2")
    golden._run("calibrate", "--scenario", scenario, "--meas", out["synth"], "--ref", out["b2b"],
                "--out", out["calibrate"])
    for key, path in out.items():
        assert golden._sha256(path) == golden.GOLDEN["hover"][key], key
    assert max(sizes) > 4096 and min(sizes) < 4096, (min(sizes), max(sizes))


@pytest.mark.parametrize("preset", ["olin-static", "olin-hover", "paper-route"])
@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_synth_and_b2b_give_the_record_list_bytes(tmp_path, monkeypatch, workers,
                                                           preset):
    # the commands' writes, block by block from the workers, against the
    # library's complex128 records, each cast whole by the list write.
    # A streamed snapshot carries no record to check, so the list write,
    # which checks every record against synthesis_layout or b2b_layout,
    # is where the layouts meet what run_synthesis and run_b2b make, for
    # each trajectory kind
    monkeypatch.setenv("A2GS_THREADS", str(workers))
    config = parse_scenario({**json.loads(Path(small_hover(tmp_path)).read_text()),
                             "preset": preset})
    for name, layout, run in (("synth", pipeline.synthesis_layout(config),
                               partial(pipeline.run_synthesis, config)),
                              ("b2b", pipeline.b2b_layout(config, 5),
                               partial(pipeline.run_b2b, config, 5))):
        records = list(run())
        assert all(r.h_f.dtype == np.complex128 for r in records)
        write_capture(tmp_path / f"{name}-list.bin", records, layout=layout)
        write_capture(tmp_path / f"{name}-rows.bin", run, layout=layout)
        assert (tmp_path / f"{name}-rows.bin").read_bytes() == \
            (tmp_path / f"{name}-list.bin").read_bytes(), name


def test_synthesis_workers_never_share_a_workspace_or_a_write(tmp_path, monkeypatch):
    # six workers on the synth command's write, interleaved finely: a
    # shared workspace, buffer or file position would change the bytes
    scenario = small_hover(tmp_path)

    def synth(workers, out):
        monkeypatch.setenv("A2GS_THREADS", str(workers))
        assert cli_main(["synth", "--scenario", scenario, "--out", str(out)]) == 0
        return out.read_bytes()
    expected = synth(1, tmp_path / "one.bin")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert synth(6, tmp_path / "six.bin") == expected
    finally:
        sys.setswitchinterval(interval)


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
