"""Where the pipeline runs its work when A2GS_THREADS > 1, and how it
holds BLAS at one thread for the analysis."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import test_golden as golden

from a2gsounder import pipeline, processing
from a2gsounder.capture_file import write_capture
from a2gsounder.channel_synth import wobble_index
from a2gsounder.cli import main as cli_main
from a2gsounder.config import SchemaError, parse_scenario
from a2gsounder.waveform import snapshot_timestamps

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tiny(burst_count, preset="olin-hover"):
    return parse_scenario({"preset": preset, "array": {"columns": 4, "rows": 2},
                           "timing": {"ports_per_simo": 16},
                           "tone_plan": {"tone_count": 64},
                           "capture": {"burst_count": burst_count,
                                       "b2b_snapshot_count": 2}})


def recording(calls, fn):
    """``fn`` wrapped to append the calling thread's id to ``calls``."""
    def wrapper(*args, **kwargs):
        calls.append(threading.get_ident())
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def two_threads(monkeypatch):
    monkeypatch.setenv("A2GS_THREADS", "2")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("preset", ["olin-static", "olin-hover", "paper-route"])
def test_base_response_computed_once_per_tx_state(monkeypatch, preset, threads):
    monkeypatch.setenv("A2GS_THREADS", threads)
    config = tiny(burst_count=6, preset=preset)
    times = snapshot_timestamps(config.timing, 6)
    if preset == "olin-hover":
        states = len({wobble_index(config.trajectory, t) for t in times})
        assert 1 < states < len(times)
    else:  # a static TX has one state, a route TX one per snapshot
        states = 1 if preset == "olin-static" else len(times)
    calls = []
    monkeypatch.setattr(pipeline, "port_stack_response",
                        recording(calls, pipeline.port_stack_response))
    records = list(pipeline.run_synthesis(config))
    assert [r.snapshot_index for r in records] == list(range(len(times)))
    assert len(calls) == states


def test_closing_the_synthesis_partway_shuts_its_pool_down(two_threads):
    before = threading.active_count()
    records = pipeline.run_synthesis(tiny(burst_count=6))
    next(records)
    next(records)
    assert before < threading.active_count() <= before + 2  # one pool of two workers
    records.close()
    assert threading.active_count() == before


def test_analysis_of_calibrated_records_runs_one_pool(two_threads):
    config = tiny(burst_count=6)
    meas = list(pipeline.run_synthesis(config))
    ref = pipeline.run_b2b(config, snapshot_count=2)
    before = threading.active_count()
    rows = pipeline.analyze_records(pipeline.calibrate_records(meas, ref, config.attenuator),
                                    config.geometry, config.gate)
    next(rows)
    assert before < threading.active_count() <= before + 2  # calibration runs in this thread
    rows.close()
    assert threading.active_count() == before


def test_readme_chain_runs_one_pool_in_the_process(two_threads):
    config = tiny(burst_count=6)
    before = threading.active_count()
    rows = pipeline.analyze_records(
        pipeline.calibrate_records(pipeline.run_synthesis(config),
                                   pipeline.run_b2b(config, snapshot_count=2), config.attenuator),
        config.geometry, config.gate)
    most = before
    for _ in rows:
        most = max(most, threading.active_count())
    assert before < most <= before + 2  # the parent's nested pools made it before + 4
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", ["1", "2"])
def test_readme_chain_matches_the_cli_and_the_stages_run_apart(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("A2GS_THREADS", threads)
    doc = {"preset": "olin-hover", "array": {"columns": 4, "rows": 2},
           "timing": {"ports_per_simo": 16}, "tone_plan": {"tone_count": 64},
           "capture": {"burst_count": 3}}
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    config = parse_scenario(doc)
    synthesized = []

    def kept(records):
        for record in records:
            synthesized.append(record)
            yield record
    ref = list(pipeline.run_b2b(config, snapshot_count=2))
    chain = list(pipeline.analyze_records(
        pipeline.calibrate_records(kept(pipeline.run_synthesis(config)), ref, config.attenuator),
        config.geometry, config.gate))
    # synthesis under the analysis pool, in its feeding thread and BLAS hold,
    # writes the bytes of the synth command
    write_capture(tmp_path / "chain.bin", synthesized, config_hash=config.scenario_hash,
                  geometry_hash=config.geometry.content_hash(),
                  layout=pipeline.synthesis_layout(config))
    assert cli_main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "m.bin")]) == 0
    assert (tmp_path / "chain.bin").read_bytes() == (tmp_path / "m.bin").read_bytes()
    apart = list(pipeline.run_synthesis(config))
    assert chain == pipeline.metrics_rows(
        pipeline.calibrate_records(apart, ref, config.attenuator), config.geometry, config.gate)


@pytest.mark.parametrize("end", ["close", "drop"])
def test_ending_a_suspended_stage_lets_the_next_start_a_pool(two_threads, end):
    config = tiny(burst_count=6)
    before = threading.active_count()
    first = pipeline.run_synthesis(config)
    next(first)
    second = pipeline.run_synthesis(config)
    next(second)  # maps in this thread while the first stage holds the pool
    assert threading.active_count() == before + 2
    if end == "close":
        first.close()
    else:
        del first
    assert threading.active_count() == before
    third = pipeline.run_synthesis(config)
    next(third)
    assert threading.active_count() == before + 2
    assert [r.snapshot_index for r in third] == list(range(1, 18))
    assert threading.active_count() == before
    second.close()


def test_concurrent_stages_run_one_pool_at_a_time(two_threads):
    config = tiny(burst_count=4)
    expected = [r.h_f for r in pipeline.run_synthesis(config)]
    consumers, before = 4, threading.active_count()
    counts, failures = [], []

    def consume():
        try:
            got = []
            for record in pipeline.run_synthesis(config):
                got.append(record.h_f)
                counts.append(threading.active_count())
            assert len(got) == len(expected)
            assert all((a == b).all() for a, b in zip(got, expected))
        except BaseException as exc:  # handed to the test thread below
            failures.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume) for _ in range(consumers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert max(counts) <= before + consumers + 2  # one pool of two workers at a time
    assert not pipeline._POOL_RUNNING.locked()


def tiny_cal(burst_count=3):
    config = tiny(burst_count)
    ref = pipeline.run_b2b(config, snapshot_count=2)
    return config, list(pipeline.calibrate_records(pipeline.run_synthesis(config), ref,
                                                   config.attenuator))


@pytest.mark.parametrize("value,count", [(None, 1), ("", 1), ("1", 1), ("3", 3)])
def test_thread_count_is_a_positive_integer_and_one_when_unset(monkeypatch, value, count):
    if value is None:
        monkeypatch.delenv("A2GS_THREADS", raising=False)
    else:
        monkeypatch.setenv("A2GS_THREADS", value)
    assert pipeline.thread_count() == count


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
def test_thread_count_rejects_a_value_that_is_not_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("A2GS_THREADS", value)
    with pytest.raises(SchemaError, match="A2GS_THREADS"):
        pipeline.thread_count()


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set), its count set to 3 for the test."""
    get, set_ = pipeline._openblas_threads()
    if get() is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    before = get()
    set_(3)
    yield get
    set_(before)


def test_analysis_runs_on_one_blas_thread_and_restores_the_count(two_threads, blas_threads,
                                                                   monkeypatch):
    config, cal = tiny_cal()
    counts = []

    def metrics(*args):
        counts.append(blas_threads())
        return processing.snapshot_metrics(*args)
    monkeypatch.setattr(pipeline, "snapshot_metrics", metrics)
    rows = list(pipeline.analyze_records(cal, config.geometry, config.gate))
    assert [row["snapshot_index"] for row in rows] == [c.snapshot_index for c in cal]
    assert counts == [1] * len(cal)
    assert blas_threads() == 3


def test_closing_the_analysis_partway_restores_the_blas_count(two_threads, blas_threads):
    config, cal = tiny_cal()
    rows = pipeline.analyze_records(cal, config.geometry, config.gate)
    next(rows)
    assert blas_threads() == 1
    rows.close()
    assert blas_threads() == 3


def test_a_raising_record_restores_the_blas_count(two_threads, blas_threads):
    config, cal = tiny_cal()

    def records():
        yield from cal[:2]
        raise RuntimeError("record 2 is unreadable")
    with pytest.raises(RuntimeError, match="record 2"):
        list(pipeline.analyze_records(records(), config.geometry, config.gate))
    assert blas_threads() == 3


def test_a_blas_without_the_setter_still_yields_every_row(two_threads, monkeypatch):
    class OtherBlas:  # a shared library that exports no OpenBLAS thread setter
        def __init__(self, path):
            pass
    monkeypatch.setattr(pipeline.ctypes, "CDLL", OtherBlas)
    unpinned = pipeline._openblas_threads.__wrapped__()
    assert unpinned[0]() is None
    monkeypatch.setattr(pipeline, "_openblas_threads", lambda: unpinned)
    config, cal = tiny_cal()
    rows = list(pipeline.analyze_records(cal, config.geometry, config.gate))
    assert [row["snapshot_index"] for row in rows] == [c.snapshot_index for c in cal]


@pytest.fixture(scope="module")
def golden_captures(tmp_path_factory):
    """The golden hover and route measurement and reference files."""
    out = {}
    for name in ("hover", "route"):
        tmp = tmp_path_factory.mktemp(name)
        scenario = golden._scenario(tmp, name, golden.BURSTS[name])
        meas, ref = str(tmp / "meas.bin"), str(tmp / "ref.bin")
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref, "--snapshots", "2"]) == 0
        out[name] = scenario, meas, ref
    return out


def _a2gs_at_blas(blas, *argv):
    """Run the CLI in a fresh process with OpenBLAS at ``blas`` threads
    and A2GS_THREADS=2; the command must exit 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, A2GS_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "a2gsounder", *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("blas", ["1", "2", "4"])
@pytest.mark.parametrize("name", ["hover", "route"])
def test_golden_analysis_does_not_depend_on_the_blas_thread_count(golden_captures, tmp_path,
                                                                   name, blas):
    scenario, meas, ref = golden_captures[name]
    csv_out, summary = tmp_path / "metrics.csv", tmp_path / "summary.json"
    _a2gs_at_blas(blas, "analyze", "--scenario", scenario, "--meas", meas, "--ref", ref,
                  "--out", str(csv_out), "--summary", str(summary))
    assert golden._sha256(csv_out) == golden.GOLDEN[name]["analyze_csv"]
    assert golden._sha256(summary) == golden.GOLDEN[name]["analyze_summary"]


@pytest.mark.parametrize("blas", ["1", "2", "4"])
@pytest.mark.parametrize("name", sorted(golden.BURSTS))
def test_golden_synthesis_does_not_depend_on_the_blas_thread_count(tmp_path, name, blas):
    # the path-sum matmuls of port_stack_response run with BLAS at its
    # own thread count: only analyze_records holds it at one
    scenario = golden._scenario(tmp_path, name, golden.BURSTS[name])
    meas = tmp_path / "meas.bin"
    _a2gs_at_blas(blas, "synth", "--scenario", scenario, "--out", str(meas))
    assert golden._sha256(meas) == golden.GOLDEN[name]["synth"]
