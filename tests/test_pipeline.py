"""Where the pipeline runs its work when A2GS_THREADS > 1."""

import threading

import pytest

from a2gsounder import pipeline, processing
from a2gsounder.channel_synth import wobble_index
from a2gsounder.config import parse_scenario
from a2gsounder.waveform import snapshot_timestamps


def tiny_hover(burst_count):
    return parse_scenario({"preset": "olin-hover", "array": {"columns": 4, "rows": 2},
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


def test_hover_base_response_computed_once_per_wobble_state(two_threads, monkeypatch):
    config = tiny_hover(burst_count=6)
    times = snapshot_timestamps(config.timing, 6)
    states = {wobble_index(config.trajectory, t) for t in times}
    assert len(states) < len(times)
    calls = []
    monkeypatch.setattr(pipeline, "port_stack_response",
                        recording(calls, pipeline.port_stack_response))
    records = list(pipeline.run_synthesis(config))
    assert len(records) == len(times)
    assert len(calls) == len(states)


def test_correlation_runs_on_the_calling_thread(two_threads, monkeypatch):
    config = tiny_hover(burst_count=3)
    records = pipeline.run_synthesis(config)
    ref = pipeline.run_b2b(config, snapshot_count=2)
    cal = list(pipeline.calibrate_records(records, ref, config.attenuator))
    eigen_threads, metric_threads = [], []
    # pipeline imports both names; processing.snapshot_metrics would call
    # its own module's correlation_and_eigen if no report were passed in
    for module in (pipeline, processing):
        monkeypatch.setattr(module, "correlation_and_eigen",
                            recording(eigen_threads, processing.correlation_and_eigen))
    monkeypatch.setattr(pipeline, "snapshot_metrics",
                        recording(metric_threads, processing.snapshot_metrics))
    metrics = list(pipeline.analyze_records(cal, config.geometry, config.gate))
    caller = threading.get_ident()
    assert len(metrics) == len(cal) == len(eigen_threads) == len(metric_threads)
    assert set(eigen_threads) == {caller}
    assert caller not in metric_threads
