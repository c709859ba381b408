"""The analysis front end: the complex64 delay domain held to the
complex128 reference chain, and the heap setting of the commands that
synthesize or calibrate, which analyze does without.

The reference chain is ``oracles.complex128_metrics``. On every row of
the reduced golden route and hover presets, each dB column stays within
1e-4 dB of it, the discrete columns are equal and the inf/NaN cells sit
in the same places.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import test_golden as golden
from oracles import complex128_metrics

from a2gsounder import cli
from a2gsounder.capture_file import read_capture
from a2gsounder.config import parse_scenario

SRC = str(Path(__file__).resolve().parent.parent / "src")
DB_TOLERANCE = 1e-4
DISCRETE = ("strongest_port", "argmax_v_column")


def read_metrics(path):
    with open(path) as fh:
        fh.readline()  # the config hash
        return [{key: float(cell) for key, cell in row.items()} for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def golden_flows(tmp_path_factory):
    """scenario, meas, ref and metrics CSV of the reduced route and hover presets."""
    out = {}
    for name in ("hover", "route"):
        tmp = tmp_path_factory.mktemp(name)
        scenario = golden._scenario(tmp, name, golden.BURSTS[name])
        meas, ref, metrics = (str(tmp / file) for file in ("meas.bin", "ref.bin", "m.csv"))
        golden._run("synth", "--scenario", scenario, "--out", meas)
        golden._run("b2b", "--scenario", scenario, "--out", ref, "--snapshots", "2")
        golden._run("analyze", "--scenario", scenario, "--meas", meas, "--ref", ref,
                    "--out", metrics)
        out[name] = scenario, meas, ref, metrics
    return out


@pytest.mark.parametrize("name", ["hover", "route"])
def test_rows_match_the_complex128_chain(golden_flows, name):
    scenario, meas, ref, metrics = golden_flows[name]
    with open(scenario) as fh:
        config = parse_scenario(json.load(fh))
    reference = next(iter(read_capture(ref)[0]))
    attenuation = config.attenuator.response(reference.tone_plan)
    rows = read_metrics(metrics)
    records = list(read_capture(meas)[0])
    assert len(rows) == len(records) > 0
    worst = 0.0
    for row, record in zip(rows, records):
        expected = complex128_metrics(record, reference, attenuation, config.geometry,
                                      config.gate)
        for key, want in expected.items():
            got = row[key]
            assert (math.isnan(got), math.isinf(got)) == (math.isnan(want), math.isinf(want)), \
                (record.snapshot_index, key, got, want)
            if math.isinf(want):
                assert got == want, (record.snapshot_index, key)
            elif key in DISCRETE:
                assert got == want, (record.snapshot_index, key, got, want)
            elif key.endswith(("_db", "_dbs")) and not math.isnan(want):
                worst = max(worst, abs(got - want))
    assert worst <= DB_TOLERANCE, f"largest dB difference {worst:.3g}"


# calibrate in a fresh process whose C library loader finds no glibc
# (OSError) or a library without mallopt, so the heap is never set
WITHOUT_HEAP_SETTING = """
import sys, types
from a2gsounder import cli

def no_libc(name):
    raise OSError(name + ": cannot open shared object file")

class NoMallopt:
    def __init__(self, name):
        pass

cli.ctypes = types.SimpleNamespace(CDLL={"OSError": no_libc, "no-mallopt": NoMallopt}[sys.argv[1]])
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("loader", ["OSError", "no-mallopt"])
def test_calibrate_without_the_heap_setting_writes_the_golden_bytes(golden_flows, tmp_path,
                                                                    loader):
    scenario, meas, ref, metrics = golden_flows["route"]
    out = tmp_path / "cal.bin"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", WITHOUT_HEAP_SETTING, loader, "calibrate",
                           "--meas", meas, "--ref", ref, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert golden._sha256(out) == golden.GOLDEN["route"]["calibrate"]


@pytest.mark.parametrize("source", ["meas", "cal"])
def test_analyze_never_sets_the_heap_and_writes_the_golden_bytes(golden_flows, tmp_path,
                                                                 monkeypatch, source):
    # analyze writes every snapshot into workspaces that live for the run,
    # so it has no freed arrays for the heap setting to keep mapped
    scenario, meas, ref, metrics = golden_flows["route"]
    inputs = ["--meas", meas, "--ref", ref]
    if source == "cal":
        cal = str(tmp_path / "cal.bin")
        golden._run("calibrate", *inputs, "--out", cal)
        inputs = ["--cal", cal]
    calls = []
    monkeypatch.setattr(cli, "_keep_heap_mapped", lambda: calls.append(True))
    out = tmp_path / "metrics.csv"
    golden._run("analyze", "--scenario", scenario, *inputs, "--out", str(out))
    assert calls == []
    digest = "analyze_csv" if source == "meas" else "analyze_cal_csv"
    assert golden._sha256(out) == golden.GOLDEN["route"][digest]


def test_only_synth_and_calibrate_set_the_heap(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_keep_heap_mapped", lambda: calls.append(True))
    scenario = golden._scenario(tmp_path, "static", golden.BURSTS["static"])
    meas, ref, cal = (str(tmp_path / file) for file in ("meas.bin", "ref.bin", "cal.bin"))
    golden._run("synth", "--scenario", scenario, "--out", meas)
    assert len(calls) == 1
    golden._run("b2b", "--scenario", scenario, "--out", ref, "--snapshots", "2")
    assert len(calls) == 1
    golden._run("calibrate", "--meas", meas, "--ref", ref, "--out", cal)
    assert len(calls) == 2
    golden._run("analyze", "--scenario", scenario, "--cal", cal,
                "--out", str(tmp_path / "metrics.csv"))
    golden._run("analyze", "--scenario", scenario, "--meas", meas, "--ref", ref,
                "--out", str(tmp_path / "metrics.csv"))
    assert len(calls) == 2
