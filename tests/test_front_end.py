"""The analysis front end: the complex64 delay domain held to the
complex128 reference chain.

The reference chain is ``oracles.complex128_metrics``. On every row of
the reduced golden route and hover presets, each dB column stays within
1e-4 dB of it, the discrete columns are equal and the inf/NaN cells sit
in the same places.
"""

import csv
import json
import math

import pytest
import test_golden as golden
from oracles import complex128_metrics

from a2gsounder.capture_file import read_capture
from a2gsounder.config import parse_scenario

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
