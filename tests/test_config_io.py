import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import a2gsounder as a2g
from a2gsounder import cli
from a2gsounder.calibration import CalibrationError
from a2gsounder.capture_file import (CaptureFileError, HashMismatch,
                                     read_capture, write_capture)
from a2gsounder.channel_synth import SceneError
from a2gsounder.cli import main as cli_main
from a2gsounder.config import DEFAULTS, MIN_SNR_DB, SchemaError, parse_scenario
from a2gsounder.pipeline import REPORT_FIELDS
from a2gsounder.processing import AnalysisError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# the columns `report` projects, as the header of a hand-made metrics CSV
_REPORT_HEADER = (b"timestamp,tx_x,tx_y,tx_z,p_rx_db,sigma_tau_dbs,gamma12_db,"
                  b"gamma14_db,argmax_v_column\n")

def _leaf_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


class TestParseScenario:
    def test_minimal_document_gets_table_defaults(self):
        config = parse_scenario({})
        assert config.timing.t_siso == 50e-6
        assert config.timing.ports_per_simo == 128
        assert config.timing.burst_rate == 20.0
        assert config.tone_plan.tone_count == 1841
        assert config.tone_plan.center_frequency == 3.5e9
        assert config.geometry.n_ports == 128

    def test_zero_ports_names_the_field(self):
        with pytest.raises(SchemaError, match="timing.ports_per_simo"):
            parse_scenario({"timing": {"ports_per_simo": 0}})

    def test_paper_route_preset(self):
        config = parse_scenario({"preset": "paper-route"})
        # the 30 m square at 50 m height, NW corner first, closed
        np.testing.assert_array_equal(config.trajectory.waypoints, [
            [-15.0, 15.0, 50.0], [15.0, 15.0, 50.0], [15.0, -15.0, 50.0],
            [-15.0, -15.0, 50.0], [-15.0, 15.0, 50.0]])
        assert config.trajectory.speed == 2.0
        assert config.trajectory.moves

    @pytest.mark.parametrize("preset", ["olin-static", "olin-hover"])
    def test_olin_presets_are_one_waypoint(self, preset):
        trajectory = parse_scenario({"preset": preset}).trajectory
        np.testing.assert_array_equal(trajectory.waypoints, [[12.0, 0.0, 1.8]])
        assert not trajectory.moves
        wobble = (trajectory.wobble.sigma_pos, trajectory.wobble.sigma_angle)
        assert wobble == ((0.08, math.radians(1.0)) if preset == "olin-hover" else (0.0, 0.0))

    def test_trajectory_has_six_settable_leaves(self):
        assert sorted(_leaf_paths(DEFAULTS["trajectory"])) == [
            "speed", "waypoints", "wobble.rho", "wobble.seed", "wobble.sigma_angle_deg",
            "wobble.sigma_pos"]

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(SchemaError, match="scenario.frequency"):
            parse_scenario({"frequency": 2.4e9})
        with pytest.raises(SchemaError, match="tone_plan.count"):
            parse_scenario({"tone_plan": {"count": 5}})
        with pytest.raises(SchemaError, match=r"scene.facets\[0\].shiny"):
            parse_scenario({"scene": {"facets": [
                {"corners": [[0, 0, 0], [1, 0, 0], [1, 1, 0]], "shiny": True}]}})

    def test_json_string_accepted(self):
        config = parse_scenario('{"capture": {"burst_count": 2}}')
        assert config.capture["burst_count"] == 2

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_scenario("{not json")

    def test_type_violations_name_field(self):
        with pytest.raises(SchemaError, match="timing.burst_rate"):
            parse_scenario({"timing": {"burst_rate": "fast"}})
        with pytest.raises(SchemaError, match="tone_plan.tone_count"):
            parse_scenario({"tone_plan": {"tone_count": 10.5}})
        with pytest.raises(SchemaError, match="capture.snr_db: expected a finite number"):
            parse_scenario({"capture": {"snr_db": 10 ** 400}})
        with pytest.raises(SchemaError, match=r"scene.facets\[0\].name"):
            parse_scenario({"scene": {"facets": [
                {"corners": [[0, 0, 0], [1, 0, 0], [1, 1, 0]], "name": 5}]}})

    def test_ports_must_match_array(self):
        with pytest.raises(SchemaError, match="does not match"):
            parse_scenario({"array": {"columns": 8}})
        config = parse_scenario({"array": {"columns": 8},
                                 "timing": {"ports_per_simo": 64}})
        assert config.geometry.n_ports == 64

    def test_port_count_checked_before_the_array_is_built(self, monkeypatch):
        def must_not_build(**_):
            raise AssertionError("array built before the port count was checked")
        monkeypatch.setattr("a2gsounder.config.build_cylindrical_array", must_not_build)
        with pytest.raises(SchemaError, match="timing.ports_per_simo: 128 does not match the "
                                              "16000000-port array"):
            parse_scenario({"array": {"columns": 2000000}})

    def test_unknown_preset(self):
        with pytest.raises(SchemaError, match="unknown preset"):
            parse_scenario({"preset": "mars-rover"})

    def test_hash_is_stable_and_sensitive(self):
        a = parse_scenario({"preset": "olin-static"})
        b = parse_scenario({"preset": "olin-static"})
        c = parse_scenario({"preset": "olin-static", "capture": {"snr_db": 31.0}})
        assert a.scenario_hash == b.scenario_hash
        assert a.scenario_hash != c.scenario_hash

    @pytest.mark.parametrize("preset,digest", [
        (None, "157cada1a101a3783a09fd62c2661e8c18098e6b9b1939d855417c7b7275db1c"),
        ("olin-static", "b8e556d2b0e93cbcde806aa0ba9f717018be7ce31979622725d9904a3ab8770d"),
        ("olin-hover", "18ac7d4bff47700ee510e960c2f51f5e6a7ee55c5c5206025d5fd0b5c3009c34"),
        ("paper-route", "adda4140307537b04be9ffa0addbf576a47c0a07c082c584d52b11b9aefff0ef"),
    ], ids=["defaults", "olin-static", "olin-hover", "paper-route"])
    def test_resolved_scenario_hash_pinned(self, preset, digest):
        # the resolved document, hence every provenance hash, is part of
        # the output contract: the bare defaults and each preset are pinned
        document = {} if preset is None else {"preset": preset}
        assert parse_scenario(document).scenario_hash == digest

    @pytest.mark.parametrize("name", sorted(path.stem for path in SCENARIOS.glob("*.json")))
    def test_provenance_hashes_are_hashlibs_sha256(self, name):
        # the interpreter's built-in sha256 gives hashlib's digest of the
        # same canonical JSON, for the scenario and for its geometry
        config = parse_scenario(json.loads((SCENARIOS / f"{name}.json").read_text()))
        for document, digest in ((config.resolved, config.scenario_hash),
                                 (config.geometry.to_dict(), config.geometry.content_hash())):
            blob = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
            assert digest == hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize("bad", ["x", True, [1], math.nan, -math.inf],
                             ids=["str", "bool", "list", "nan", "neg-inf"])
    @pytest.mark.parametrize("path", list(_leaf_paths(DEFAULTS)))
    def test_every_leaf_rejects_bad_values_with_its_path(self, path, bad):
        *sections, leaf = path.split(".")
        doc = node = {}
        for key in sections:
            node = node.setdefault(key, {})
        node[leaf] = bad
        with pytest.raises(SchemaError) as info:
            parse_scenario(doc)
        assert path in str(info.value)

    @pytest.mark.parametrize("doc,path", [
        ({"trajectory": {"waypoints": [[math.nan, 0.0, 1.8]]}}, "trajectory.waypoints[0][0]"),
        ({"scene": {"rx_position": [0.0, math.nan, 1.5]}}, "scene.rx_position[1]"),
        ({"scene": {"facets": [{"corners": [[0, 0, 0], [1, 0, 0], [1, 1, math.nan]]}]}},
         "scene.facets[0].corners[2][2]"),
        ({"scene": {"facets": [{"corners": [[0, 0, 0], [1, 0, 0], [1, 1, 0]],
                                "gamma_v": [0.1, math.nan]}]}}, "scene.facets[0].gamma_v[1]"),
    ], ids=["waypoint", "rx-position", "facet-corner", "facet-gamma"])
    def test_nan_inside_a_vector_rejected_with_path(self, doc, path):
        with pytest.raises(SchemaError, match="NaN") as info:
            parse_scenario(doc)
        assert path in str(info.value)

    @pytest.mark.parametrize("leaf", ["snr_db", "b2b_snr_db"])
    def test_snr_has_a_lower_bound(self, leaf):
        assert parse_scenario({"capture": {leaf: MIN_SNR_DB}}).capture[leaf] == MIN_SNR_DB
        with pytest.raises(SchemaError, match=f"capture.{leaf}: must be >= -300.0"):
            parse_scenario({"capture": {leaf: MIN_SNR_DB - 0.5}})

    def test_waypoints_replace_the_presets_whole(self):
        config = parse_scenario({"preset": "paper-route",
                                 "trajectory": {"waypoints": [[30.0, 0.0, 2.0]]}})
        np.testing.assert_array_equal(config.trajectory.waypoints, [[30.0, 0.0, 2.0]])
        assert config.trajectory.speed == 2.0

    def test_mounting_rotation_paper_orientation(self):
        config = parse_scenario({"preset": "olin-static"})
        assert config.scene.rx_mounting_rotation == pytest.approx(-math.pi / 2)


def overwrite_payload(path, samples, snapshot=0, port=0):
    """Write complex ``samples`` into a capture file's payload from the
    first tone of ``port`` in ``snapshot`` on."""
    _, header = read_capture(path)
    blob = bytearray(Path(path).read_bytes())
    ports, tones = header["port_count"], header["tone_count"]
    at = len(blob) - header["snapshot_count"] * ports * tones * 8  # payload start
    at += (snapshot * ports + port) * tones * 8
    data = np.asarray(samples, "<c8").tobytes()
    blob[at:at + len(data)] = data
    Path(path).write_bytes(blob)


def tiny_config(**extra):
    doc = {
        "preset": "olin-static",
        "array": {"columns": 4, "rows": 2},
        "timing": {"ports_per_simo": 16},
        "tone_plan": {"tone_count": 32},
        "capture": {"burst_count": 1, "b2b_snapshot_count": 2},
    }
    for key, value in extra.items():
        doc.setdefault(key, {}).update(value)
    return parse_scenario(doc)


class TestCaptureFile:
    def test_payload_size_for_full_array(self, tmp_path):
        config = a2g.parse_scenario({"preset": "olin-static"})
        records = list(a2g.run_synthesis(config))[:1]
        path = tmp_path / "one.bin"
        write_capture(path, records, config_hash=config.scenario_hash)
        with open(path, "rb") as fh:
            blob = fh.read()
        header_len = int.from_bytes(blob[8:12], "little")
        payload = len(blob) - 12 - header_len
        assert payload == 128 * 1841 * 8 == 1_885_184

    def test_round_trip_preserves_payload_bits(self, tmp_path):
        config = tiny_config()
        records = list(a2g.run_synthesis(config))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_capture(p1, records, config_hash=config.scenario_hash)
        back, header = read_capture(p1)
        assert header["record_type"] == "MEAS"
        write_capture(p2, back, config_hash=header["config_hash"],
                      record_type=header["record_type"])
        assert p1.read_bytes() == p2.read_bytes()
        assert back[0].timestamp == records[0].timestamp
        np.testing.assert_array_equal(back[0].tx_position, records[0].tx_position)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CaptureFileError, match="magic"):
            read_capture(path)

    def test_truncated_payload_rejected(self, tmp_path):
        config = tiny_config()
        records = list(a2g.run_synthesis(config))
        path = tmp_path / "t.bin"
        write_capture(path, records)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CaptureFileError, match="truncated"):
            read_capture(path)

    def test_unsupported_version_rejected(self, tmp_path):
        config = tiny_config()
        records = list(a2g.run_synthesis(config))
        path = tmp_path / "v.bin"
        write_capture(path, records)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CaptureFileError, match="version"):
            read_capture(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises_when_read(self, tmp_path, value):
        path = tmp_path / "n.bin"
        write_capture(path, list(a2g.run_b2b(tiny_config())))
        overwrite_payload(path, [complex(0.0, value)], snapshot=1, port=3)
        records, _ = read_capture(path)  # the header and size are sound
        assert records[0].h_f.shape == (16, 32)
        assert len(list(records.port_rows(2))) == 2
        with pytest.raises(CaptureFileError, match="snapshot 1 has a sample that is not finite"):
            records[1]
        with pytest.raises(CaptureFileError, match="not finite"):
            list(records.port_rows(3))

    def test_hash_mismatch_warns_then_strict_raises(self, tmp_path):
        config = tiny_config()
        records = list(a2g.run_synthesis(config))
        path = tmp_path / "h.bin"
        write_capture(path, records, config_hash="aaaa")
        with pytest.warns(UserWarning, match="hash"):
            read_capture(path, expected_config_hash="bbbb")
        with pytest.raises(HashMismatch):
            read_capture(path, expected_config_hash="bbbb", strict_hash=True)

    def test_mixed_dimensions_rejected(self, tmp_path):
        config = tiny_config()
        records = list(a2g.run_synthesis(config))
        clone = a2g.CaptureRecord(h_f=records[0].h_f[:, :10].copy(),
                                  tone_plan=records[0].tone_plan)
        with pytest.raises(ValueError, match="shape"):
            write_capture(tmp_path / "m.bin", [records[0], clone])


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        config = tiny_config()
        p1, p2 = tmp_path / "r1.bin", tmp_path / "r2.bin"
        write_capture(p1, a2g.run_synthesis(config), config_hash=config.scenario_hash)
        write_capture(p2, a2g.run_synthesis(config), config_hash=config.scenario_hash)
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path, monkeypatch):
        config = tiny_config(capture={"burst_count": 2})
        serial = list(a2g.run_synthesis(config))
        monkeypatch.setenv("A2GS_THREADS", "2")
        threaded = list(a2g.run_synthesis(config))
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.h_f, b.h_f)


class TestCli:
    def scenario_file(self, tmp_path, doc=None):
        path = tmp_path / "scenario.json"
        document = {
            "preset": "olin-static",
            "array": {"columns": 4, "rows": 2},
            "timing": {"ports_per_simo": 16},
            "tone_plan": {"tone_count": 32},
            "capture": {"burst_count": 1, "b2b_snapshot_count": 3},
        }
        if doc:
            document.update(doc)
        path.write_text(json.dumps(document))
        return str(path)

    def test_full_pipeline_flow(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        meas = str(tmp_path / "meas.bin")
        ref = str(tmp_path / "ref.bin")
        cal = str(tmp_path / "cal.bin")
        metrics = str(tmp_path / "metrics.csv")
        summary = str(tmp_path / "summary.json")
        stability = str(tmp_path / "stab.csv")
        route = str(tmp_path / "route.csv")

        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
        capsys.readouterr()
        assert cli_main(["calibrate", "--scenario", scenario, "--meas", meas, "--ref", ref,
                         "--out", cal, "--strict-hash"]) == 0
        # one of the three B2B snapshots is the reference, and both commands say so
        assert "reference: B2B snapshot 0 of 3\n" in capsys.readouterr().out
        assert cli_main(["analyze", "--scenario", scenario, "--meas", meas,
                         "--ref", ref, "--out", metrics, "--summary", summary]) == 0
        assert "reference: B2B snapshot 0 of 3\n" in capsys.readouterr().out
        assert cli_main(["analyze", "--scenario", scenario, "--cal", cal,
                         "--out", str(tmp_path / "m2.csv")]) == 0
        assert "reference" not in capsys.readouterr().out
        assert cli_main(["stability", "--ref", ref, "--port", "0",
                         "--out", stability]) == 0
        assert cli_main(["report", "--metrics", metrics, "--out", route]) == 0

        with open(summary) as fh:
            doc = json.load(fh)
        assert doc["snapshots"] == 3
        assert doc["config_hash"]
        lines = Path(metrics).read_text().splitlines()
        assert len(lines) == 5  # provenance comment + header + 3 snapshots
        assert lines[0].startswith("# config_hash:")
        assert doc["config_hash"] in lines[0]
        # the header is the metrics row's keys: 15 named columns, then the
        # per-column powers
        config = parse_scenario(json.loads(Path(scenario).read_text()))
        cal = next(a2g.calibrate_records(a2g.run_synthesis(config), a2g.run_b2b(config),
                                         config.attenuator))
        header = lines[1].split(",")
        assert header == list(a2g.snapshot_metrics(cal, config.geometry, config.gate))
        assert header[:15] == [
            "snapshot_index", "timestamp", "tx_x", "tx_y", "tx_z", "p_rx", "p_rx_db",
            "sigma_tau_s", "sigma_tau_dbs", "strongest_port", "los_bin_power_db",
            "gamma12_db", "gamma14_db", "eigen_span_db", "argmax_v_column"]
        assert header[15:] == [f"col{c}_{pol}_db" for c in range(config.geometry.columns)
                               for pol in ("v", "h")]
        route_lines = Path(route).read_text().splitlines()
        assert route_lines[0] == lines[0]  # hash propagates to the route table

    @pytest.mark.parametrize("loss", [10.0, 20.0])
    def test_calibrate_divides_by_the_scenario_attenuator_as_analyze_does(self, tmp_path,
                                                                          loss):
        # calibrate and analyze --meas --ref divide by the one attenuator of
        # the scenario, ripple included, so analyze --cal of calibrate's
        # output reads what analyze --meas --ref reads; the 30 dB default
        # would put every absolute power 30 - loss dB off
        scenario = self.scenario_file(
            tmp_path, {"attenuator": {"nominal_loss_db": loss, "ripple_db": 1.0}})
        files = {name: str(tmp_path / name) for name in (
            "meas.bin", "ref.bin", "cal.bin", "m.csv", "cal.csv")}
        for argv in (["synth", "--scenario", scenario, "--out", files["meas.bin"]],
                     ["b2b", "--scenario", scenario, "--out", files["ref.bin"]],
                     ["calibrate", "--scenario", scenario, "--meas", files["meas.bin"],
                      "--ref", files["ref.bin"], "--out", files["cal.bin"]],
                     ["analyze", "--scenario", scenario, "--meas", files["meas.bin"],
                      "--ref", files["ref.bin"], "--out", files["m.csv"]],
                     ["analyze", "--scenario", scenario, "--cal", files["cal.bin"],
                      "--out", files["cal.csv"]]):
            assert cli_main(argv) == 0, argv

        def rows(name):
            with open(files[name]) as fh:
                fh.readline()  # the config hash
                return [{key: float(cell) for key, cell in row.items()}
                        for row in csv.DictReader(fh)]

        measured, calibrated = rows("m.csv"), rows("cal.csv")
        assert len(measured) == len(calibrated) == 3
        for want, got in zip(measured, calibrated):
            assert math.isfinite(want["p_rx_db"])
            for key, value in want.items():
                if key.endswith(("_db", "_dbs")) and math.isfinite(value):
                    assert abs(got[key] - value) <= 1e-4, (key, got[key], value)

    @pytest.mark.parametrize("command", [["report", "--metrics", "m.csv"],
                                         ["stability", "--ref", "ref.bin"]])
    def test_only_commands_that_check_a_hash_take_strict_hash(self, tmp_path, command):
        with pytest.raises(SystemExit) as exit_:
            cli_main([*command, "--out", str(tmp_path / "out.csv"), "--strict-hash"])
        assert exit_.value.code == 2

    def test_exit_codes(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        assert cli_main(["synth", "--scenario", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "x.bin")]) == 3
        bad = tmp_path / "bad.json"
        bad.write_text('{"unknown_section": 1}')
        assert cli_main(["synth", "--scenario", str(bad),
                         "--out", str(tmp_path / "x.bin")]) == 2
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"not a capture")
        assert cli_main(["stability", "--ref", str(garbage),
                         "--out", str(tmp_path / "s.csv")]) == 4
        assert cli_main(["analyze", "--scenario", scenario,
                         "--out", str(tmp_path / "m.csv")]) == 2

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
    @pytest.mark.parametrize("command", ["synth", "report", "selftest"])
    def test_bad_thread_count_exit_code(self, tmp_path, capsys, monkeypatch, command, value):
        def no_thread(self):
            raise AssertionError("a thread was started")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setenv("A2GS_THREADS", value)
        out = tmp_path / "out"
        argv = {"synth": ["synth", "--scenario", self.scenario_file(tmp_path),
                          "--out", str(out)],
                "report": ["report", "--metrics", str(tmp_path / "m.csv"), "--out", str(out)],
                "selftest": ["selftest"]}[command]
        assert cli_main(argv) == 2
        assert f"A2GS_THREADS must be an integer >= 1, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("document,argv,names", [
        ([1, 2], ["synth", "--seed", "4"], "scenario: expected a JSON object"),
        ({"preset": "olin-static", "capture": 5}, ["synth", "--seed", "4"],
         "scenario.capture: expected an object"),
        ({"preset": "olin-static", "system": [1]}, ["b2b", "--seed", "4"],
         "scenario.system: expected an object"),
        (None, ["b2b", "--snapshots", "0"], "--snapshots must be >= 1"),
        (None, ["b2b", "--snapshots", "-2"], "--snapshots must be >= 1"),
        ({"preset": "olin-static", "gate": {"delay_gate": math.nan}}, ["synth"],
         "gate.delay_gate: expected a number, got NaN"),
        ({"preset": "olin-static", "capture": {"snr_db": -math.inf}}, ["synth"],
         "capture.snr_db: expected a finite number"),
        ({"preset": "olin-static", "capture": {"snr_db": -5000}}, ["synth"],
         "capture.snr_db: must be >= -300.0, got -5000.0"),
        ({"preset": "olin-static", "capture": {"snr_db": -900}}, ["synth"],
         "capture.snr_db: must be >= -300.0, got -900.0"),
        ({"preset": "olin-static", "capture": {"b2b_snr_db": -5000}}, ["b2b"],
         "capture.b2b_snr_db: must be >= -300.0, got -5000.0"),
        ({"preset": "olin-static", "trajectory": {"waypoints": [[math.inf, 0, 1.8]]}},
         ["synth"], "trajectory.waypoints[0][0]: expected a finite number"),
        (None, ["analyze", "--cal", "cal.bin", "--meas", "meas.bin"], "--meas"),
        (None, ["analyze", "--cal", "cal.bin", "--ref", "ref.bin"], "--ref"),
        ({"preset": []}, ["synth"], "scenario.preset: expected a string"),
        ({"preset": {}}, ["synth"], "scenario.preset: expected a string"),
        ({"preset": None}, ["synth"], "scenario.preset: expected a string"),
        ({"preset": "olin-hover", "trajectory": {"wobble": {"rho": 0.999}}}, ["synth"],
         "trajectory.wobble.rho: must be <="),
    ], ids=["seed-on-json-list", "seed-on-scalar-capture", "seed-on-list-system",
            "zero-b2b-snapshots", "negative-b2b-snapshots", "nan-scenario-number",
            "infinite-snr", "overflowing-snr", "non-finite-capture-snr",
            "overflowing-b2b-snr", "infinite-waypoint", "cal-with-meas",
            "cal-with-ref", "list-preset", "object-preset", "null-preset",
            "wobble-rho-beyond-window"])
    def test_bad_input_exit_code(self, tmp_path, capsys, document, argv, names):
        scenario = self.scenario_file(tmp_path)  # None: the valid test scenario
        if document is not None:
            with open(scenario, "w") as fh:
                json.dump(document, fh)
        out = tmp_path / "out.bin"
        assert cli_main(argv + ["--scenario", str(scenario), "--out", str(out)]) == 2
        assert names in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda h: b"not json",
        lambda h: json.dumps({"snapshot_count": 1}).encode(),
        lambda h: json.dumps({**h, "snapshot_count": -1}).encode(),
        lambda h: json.dumps([h]).encode(),
        lambda h: json.dumps({**h, "timestamps": h["timestamps"][:-1]}).encode(),
        lambda h: json.dumps({**h, "tone_plan": {**h["tone_plan"],
                                                 "tone_count": h["tone_count"] // 2}}).encode(),
        lambda h: json.dumps({**h, "tone_plan": {**h["tone_plan"],
                                                 "tone_count": math.inf}}).encode(),
        lambda h: json.dumps({**h, "tone_plan": {**h["tone_plan"],
                                                 "center_frequency": math.nan}}).encode(),
        lambda h: json.dumps({**h, "tone_plan": {**h["tone_plan"],
                                                 "nominal_bandwidth": math.inf}}).encode(),
        lambda h: json.dumps({**h, "tone_plan": {**h["tone_plan"], "shiny": 1}}).encode(),
        lambda h: json.dumps({**h, "tone_plan": [1]}).encode(),
        # beyond the default limit of Python's int parser
        lambda h: json.dumps(h).replace('"seed":', '"seed":' + "9" * 5000 + ',"x":').encode(),
    ], ids=["not-json", "missing-keys", "negative-count", "json-list", "short-list",
            "tone-plan-count", "infinite-tone-count", "nan-center-frequency",
            "infinite-bandwidth", "tone-plan-unknown-key", "tone-plan-list",
            "oversized-integer"])
    def test_malformed_header_exit_code(self, tmp_path, edit):
        scenario = self.scenario_file(tmp_path)
        ref = tmp_path / "ref.bin"
        assert cli_main(["b2b", "--scenario", scenario, "--out", str(ref)]) == 0
        blob = ref.read_bytes()
        end = 12 + int.from_bytes(blob[8:12], "little")
        header = edit(json.loads(blob[12:end]))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header + blob[end:])
        assert cli_main(["stability", "--ref", str(bad),
                         "--out", str(tmp_path / "s.csv")]) == 4

    @pytest.mark.parametrize("command", ["analyze", "calibrate"])
    @pytest.mark.parametrize("key,value", [
        ("timestamps", "x"),
        ("timestamps", True),
        ("timestamps", math.nan),
        ("tx_positions", [1, 2]),
        ("tx_positions", "abc"),
        ("tx_positions", [1, 2, "z"]),
        ("tx_positions", [math.inf, 0, 0]),
        ("tx_tilts", "ab"),
        ("tx_tilts", [0.0, None]),
        ("snapshot_indices", 1.5),
        ("snapshot_indices", "q"),
        ("snapshot_indices", -1),
        ("snapshot_indices", False),
        ("snr_db", "x"),
        ("seed", 1.5),
        ("tone_plan", {"center_frequency": math.nan, "tone_spacing": 20e3,
                       "tone_count": 32, "nominal_bandwidth": 46e6}),
    ])
    def test_malformed_header_element_exit_code(self, tmp_path, command, key, value):
        scenario = self.scenario_file(tmp_path)
        meas = tmp_path / "meas.bin"
        ref = str(tmp_path / "ref.bin")
        assert cli_main(["synth", "--scenario", scenario, "--out", str(meas)]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
        blob = meas.read_bytes()
        end = 12 + int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:end])
        if isinstance(header[key], list):
            header[key][0] = value
        else:
            header[key] = value
        edited = json.dumps(header).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:8] + len(edited).to_bytes(4, "little") + edited + blob[end:])
        assert cli_main([command, "--scenario", scenario, "--meas", str(bad), "--ref", ref,
                                "--out", str(tmp_path / "out")]) == 4

    @pytest.mark.parametrize("count", ["snapshot_count", "port_count"])
    @pytest.mark.parametrize("command", ["stability", "analyze-meas", "analyze-ref",
                                         "calibrate"])
    def test_zero_count_header_exit_code(self, tmp_path, command, count):
        # a header that declares no snapshots (or no ports) and no payload
        scenario = self.scenario_file(tmp_path)
        meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
        source = ref if command in ("stability", "analyze-ref") else meas
        blob = Path(source).read_bytes()
        end = 12 + int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:end])
        header[count] = 0
        if count == "snapshot_count":
            for key in ("timestamps", "tx_positions", "tx_tilts", "snapshot_indices"):
                header[key] = []
        edited = json.dumps(header).encode()
        bad = str(tmp_path / "bad.bin")
        with open(bad, "wb") as fh:
            fh.write(blob[:8] + len(edited).to_bytes(4, "little") + edited)
        argv = {"stability": ["stability", "--ref", bad],
                "analyze-meas": ["analyze", "--scenario", scenario, "--meas", bad, "--ref", ref],
                "analyze-ref": ["analyze", "--scenario", scenario, "--meas", meas, "--ref", bad],
                "calibrate": ["calibrate", "--scenario", scenario, "--meas", bad,
                              "--ref", ref]}[command]
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 4

    @pytest.mark.parametrize("argv,wrong", [
        (["calibrate", "--meas", "ref.bin", "--ref", "meas.bin"], "is a B2B file, expected MEAS"),
        (["calibrate", "--meas", "meas.bin", "--ref", "meas.bin"], "is a MEAS file, expected B2B"),
        (["analyze", "--meas", "ref.bin", "--ref", "meas.bin"], "is a B2B file, expected MEAS"),
        (["analyze", "--meas", "meas.bin", "--ref", "cal.bin"], "is a CAL file, expected B2B"),
        (["analyze", "--cal", "meas.bin"], "is a MEAS file, expected CAL"),
        (["stability", "--ref", "meas.bin"], "is a MEAS file, expected B2B"),
        (["stability", "--ref", "cal.bin"], "is a CAL file, expected B2B"),
    ], ids=["calibrate-swapped", "calibrate-meas-as-ref", "analyze-swapped",
            "analyze-cal-as-ref", "analyze-meas-as-cal", "stability-meas", "stability-cal"])
    def test_wrong_record_type_exit_code(self, tmp_path, capsys, argv, wrong):
        scenario = self.scenario_file(tmp_path)
        files = {name: str(tmp_path / name) for name in ("meas.bin", "ref.bin", "cal.bin")}
        assert cli_main(["synth", "--scenario", scenario, "--out", files["meas.bin"]]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", files["ref.bin"]]) == 0
        assert cli_main(["calibrate", "--scenario", scenario, "--meas", files["meas.bin"],
                         "--ref", files["ref.bin"], "--out", files["cal.bin"]]) == 0
        capsys.readouterr()
        argv = [files.get(arg, arg) for arg in argv]
        if argv[0] != "stability":
            argv += ["--scenario", scenario]
        out = tmp_path / "out"
        assert cli_main(argv + ["--out", str(out)]) == 4
        assert wrong in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "calibrate"])
    @pytest.mark.parametrize("loss", [0, -3, math.nan, math.inf])
    def test_bad_attenuator_exit_code(self, tmp_path, capsys, command, loss):
        # the scenario's attenuator is checked by its rules before any file is read
        scenario = self.scenario_file(tmp_path)
        meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
        out = tmp_path / "out"
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
        bad = self.scenario_file(tmp_path, {"attenuator": {"nominal_loss_db": loss}})
        assert cli_main([command, "--scenario", bad, "--meas", meas, "--ref", ref,
                         "--out", str(out)]) == 2
        assert "attenuator.nominal_loss_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"", _REPORT_HEADER,
                                         "# config_hash: \u00e9\n".encode("latin-1"),
                                         "analyze-json", "stability-csv",
                                         _REPORT_HEADER + b"0,1,2,3,4,5,6,7,8,9\n",
                                         _REPORT_HEADER + b"0,1,2,3,4,5,6,7,8\n0,1\n",
                                         _REPORT_HEADER + b"0,1,2,3,4,5,6,7,x\n",
                                         _REPORT_HEADER + b"0,1,2,3,4,5,6,,8\n"],
                             ids=["no-rows", "header-only", "not-utf8", "analyze-json",
                                  "stability-csv", "long-row", "short-row", "not-a-number",
                                  "empty-cell"])
    def test_unreadable_metrics_exit_code(self, tmp_path, capsys, content):
        metrics = tmp_path / "metrics.csv"
        if isinstance(content, bytes):
            metrics.write_bytes(content)
        else:
            scenario = self.scenario_file(tmp_path)
            meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
            assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
            assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
            argv = {"analyze-json": ["analyze", "--scenario", scenario, "--meas", meas,
                                     "--ref", ref, "--format", "json"],
                    "stability-csv": ["stability", "--ref", ref]}[content]
            assert cli_main(argv + ["--out", str(metrics)]) == 0
            capsys.readouterr()
        out = tmp_path / "route.csv"
        assert cli_main(["report", "--metrics", str(metrics), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert str(metrics) in err
        if not isinstance(content, bytes):
            assert "lacks columns" in err and "p_rx_db" in err
        if content == _REPORT_HEADER:  # the CLI, not report_rows, rejects an empty table
            assert "has no rows" in err
        assert not out.exists()

    def test_route_crossing_a_small_facet_plane_synthesizes(self, tmp_path):
        # at t = 26.5 s the route is at (15, -8, 50): 50 m above the 4 x 3 m
        # umbrella and on its plane y = -8
        scenario = tmp_path / "route.json"
        scenario.write_text(json.dumps({
            "preset": "paper-route",
            "timing": {"simos_per_burst": 1, "burst_rate": 0.037735849056603772},
            "capture": {"burst_count": 2}}))
        scenario = str(scenario)
        meas = str(tmp_path / "meas.bin")
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        records, _ = read_capture(meas)
        np.testing.assert_array_equal(records[1].tx_position, [15.0, -8.0, 50.0])

    @pytest.mark.parametrize("key,value", [
        ("kind", "hover"), ("position", [12.0, 0.0, 1.8]), ("center", [0.0, 0.0]),
        ("side", 30.0), ("height", 50.0), ("start_corner", "NW")])
    def test_a_removed_trajectory_key_exit_code(self, tmp_path, capsys, key, value):
        # the trajectory is waypoints alone: the keys of the former
        # static, hover and square-route kinds are unknown keys
        scenario = self.scenario_file(tmp_path, {"trajectory": {key: value}})
        out = tmp_path / "meas.bin"
        assert cli_main(["synth", "--scenario", scenario, "--out", str(out)]) == 2
        assert f"trajectory.{key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("waypoints,names", [
        ([], "trajectory.waypoints: expected a list of >= 1 points"),
        ({"0": [0, 0, 1]}, "trajectory.waypoints: expected a list of >= 1 points"),
        ([[0, 0, 1], [1, 2]], "trajectory.waypoints[1]: expected a list of 3 elements"),
        ([[0, 0, 1], [1, 2, 3, 4]], "trajectory.waypoints[1]: expected a list of 3 elements"),
        ([[0, 0, 1], 5], "trajectory.waypoints[1]: expected a list of 3 elements"),
        ([[0, 0, 1], [0, "up", 1]], "trajectory.waypoints[1][1]: expected a number"),
        ([[0, 0, 1], [0, math.nan, 1]], "trajectory.waypoints[1][1]: expected a number, got NaN"),
        ([[0, 0, 1], [0, 0, -math.inf]], "trajectory.waypoints[1][2]: expected a finite number"),
        ([[0, 0, 1], [5, 0, 1], [5, 0, 1.0]],
         "trajectory.waypoints[2]: equals the waypoint before it"),
        ([[0, 0, 1], [5, 0, 1], [0, 0, 1], [0, 0, 1]],
         "trajectory.waypoints[3]: equals the waypoint before it"),
    ], ids=["empty", "object", "2-vector", "4-vector", "scalar", "string-coordinate",
            "nan-coordinate", "infinite-coordinate", "repeated-point", "repeated-closure"])
    def test_bad_waypoints_exit_code(self, tmp_path, capsys, waypoints, names):
        scenario = self.scenario_file(tmp_path, {"trajectory": {"waypoints": waypoints}})
        out = tmp_path / "meas.bin"
        assert cli_main(["synth", "--scenario", scenario, "--out", str(out)]) == 2
        assert names in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_climb_runs_through_every_command(self, tmp_path, monkeypatch, threads):
        # an open climb from 2 to 120 m, 30 m east of the array, at
        # 16 ports and 64 tones: 7 snapshots 0.5 s apart at 40 m/s; the
        # walk ends at 2.95 s, and the last snapshot holds 120 m
        monkeypatch.setenv("A2GS_THREADS", threads)
        scenario = self.scenario_file(tmp_path, {
            "tone_plan": {"tone_count": 64},
            "timing": {"ports_per_simo": 16, "simos_per_burst": 1, "burst_rate": 2.0},
            "trajectory": {"waypoints": [[30.0, 0.0, 2.0], [30.0, 0.0, 120.0]], "speed": 40.0},
            "capture": {"burst_count": 7}})
        out = {name: str(tmp_path / name) for name in (
            "meas.bin", "ref.bin", "cal.bin", "metrics.csv", "route.csv", "stab.csv")}
        for argv in (
                ["synth", "--scenario", scenario, "--out", out["meas.bin"]],
                ["b2b", "--scenario", scenario, "--out", out["ref.bin"]],
                ["calibrate", "--scenario", scenario, "--meas", out["meas.bin"],
                 "--ref", out["ref.bin"], "--out", out["cal.bin"], "--strict-hash"],
                ["analyze", "--scenario", scenario, "--cal", out["cal.bin"],
                 "--out", out["metrics.csv"]],
                ["report", "--metrics", out["metrics.csv"], "--out", out["route.csv"]],
                ["stability", "--ref", out["ref.bin"], "--port", "0",
                 "--out", out["stab.csv"]]):
            assert cli_main(argv) == 0, argv
        with open(out["metrics.csv"]) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [int(row["snapshot_index"]) for row in rows] == list(range(7))
        # each row carries the snapshot's slot-0 position, 2 + 40 t m up
        heights = [float(row["tx_z"]) for row in rows]
        assert heights == [2.0, 22.0, 42.0, 62.0, 82.0, 102.0, 120.0]
        records, _ = read_capture(out["meas.bin"])
        assert len(records) == 7

    def test_tx_inside_a_facet_exit_code(self, tmp_path):
        # olin-static's east facade spans y in [-15, 15], z in [0, 12] at x = 25
        scenario = self.scenario_file(tmp_path, {
            "trajectory": {"waypoints": [[25.0, 0.0, 5.0]]}})
        assert cli_main(["synth", "--scenario", scenario,
                         "--out", str(tmp_path / "meas.bin")]) == 2

    def test_negative_stability_port_exit_code(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        ref = str(tmp_path / "ref.bin")
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
        assert cli_main(["stability", "--ref", ref, "--port", "-1",
                         "--out", str(tmp_path / "s.csv")]) == 5

    def captures(self, tmp_path, doc=None):
        """The synth, b2b and calibrate files of scenario_file's scenario
        with ``doc``'s sections updated; returns their paths."""
        document = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        for key, value in (doc or {}).items():
            document.setdefault(key, {}).update(value)
        source = tmp_path / "captured.json"
        source.write_text(json.dumps(document))
        meas, ref, cal = (str(tmp_path / name) for name in ("meas.bin", "ref.bin", "cal.bin"))
        assert cli_main(["synth", "--scenario", str(source), "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", str(source), "--out", ref]) == 0
        assert cli_main(["calibrate", "--scenario", str(source), "--meas", meas, "--ref", ref,
                         "--out", cal]) == 0
        return meas, ref, cal

    def test_lowest_snr_writes_captures_that_analyze(self, tmp_path):
        # every sample of each file is checked for finiteness as it is read
        meas, ref, cal = self.captures(
            tmp_path, {"capture": {"snr_db": MIN_SNR_DB, "b2b_snr_db": MIN_SNR_DB}})
        scenario = str(tmp_path / "captured.json")
        assert cli_main(["analyze", "--scenario", scenario, "--meas", meas, "--ref", ref,
                         "--out", str(tmp_path / "m.csv")]) == 0
        assert cli_main(["analyze", "--scenario", scenario, "--cal", cal,
                         "--out", str(tmp_path / "c.csv")]) == 0

    @pytest.mark.parametrize("command", ["calibrate", "analyze-meas", "analyze-cal",
                                         "stability"])
    def test_non_finite_sample_exit_code(self, tmp_path, capsys, command):
        meas, ref, cal = self.captures(tmp_path)
        scenario = self.scenario_file(tmp_path)
        poisoned, argv = {
            "calibrate": (meas, ["calibrate", "--scenario", scenario, "--meas", meas,
                                 "--ref", ref]),
            "analyze-meas": (meas, ["analyze", "--scenario", scenario,
                                    "--meas", meas, "--ref", ref]),
            "analyze-cal": (cal, ["analyze", "--scenario", scenario, "--cal", cal]),
            "stability": (ref, ["stability", "--ref", ref, "--port", "5"]),
        }[command]
        # the last snapshot, so rows before it are computed and written first
        last = read_capture(poisoned)[1]["snapshot_count"] - 1
        overwrite_payload(poisoned, [complex(math.nan, 0.0)], snapshot=last, port=5)
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert cli_main([*argv, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(f"error: {poisoned} snapshot {last} ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cal.bin", "captured.json", "meas.bin", "ref.bin", "scenario.json"]

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_at_either_end_exit_code(self, tmp_path, capsys, value, where):
        # a read checks the min and max of its floats: the payload's first
        # sample (a real part) and its last (an imaginary part) count too
        meas, ref, _ = self.captures(tmp_path)
        header = read_capture(meas)[1]
        if where == "first":
            snapshot, port, samples = 0, 0, [complex(value, 0.0)]
        else:
            snapshot, port = header["snapshot_count"] - 1, header["port_count"] - 1
            samples = [0j] * (header["tone_count"] - 1) + [complex(0.0, value)]
        overwrite_payload(meas, samples, snapshot=snapshot, port=port)
        capsys.readouterr()
        out = tmp_path / "out.bin"
        assert cli_main(["calibrate", "--scenario", str(tmp_path / "captured.json"),
                         "--meas", meas, "--ref", ref, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(
            f"error: {meas} snapshot {snapshot} has a sample that is not finite")
        assert not out.exists()

    def test_unexpected_analysis_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        meas, ref, _ = self.captures(tmp_path)

        def fail(*args, **kwargs):
            raise ValueError("boom")
        monkeypatch.setattr(a2g.pipeline, "snapshot_metrics", fail)
        capsys.readouterr()
        assert cli_main(["analyze", "--scenario", self.scenario_file(tmp_path), "--meas", meas,
                         "--ref", ref, "--out", str(tmp_path / "m.csv")]) == 1
        assert capsys.readouterr().err.startswith("unexpected error: ValueError: boom")

    @pytest.mark.parametrize("doc,message", [
        ({"array": {"columns": 2}, "timing": {"ports_per_simo": 8}},
         "gated CIR has 8 ports but geometry has 16"),
        ({"tone_plan": {"tone_spacing": 1e6}, "gate": {"delay_gate": 0.5e-6}},
         "delay_gate must be below the maximum unambiguous delay")],
        ids=["port-count", "delay-gate"])
    def test_file_of_another_scenario_exit_code(self, tmp_path, capsys, doc, message):
        _, _, cal = self.captures(tmp_path, doc)
        capsys.readouterr()
        with pytest.warns(UserWarning, match="config hash mismatch"):
            assert cli_main(["analyze", "--scenario", self.scenario_file(tmp_path),
                             "--cal", cal, "--out", str(tmp_path / "m.csv")]) == 5
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_all_zero_cal_payload_exit_code(self, tmp_path, capsys):
        _, _, cal = self.captures(tmp_path)
        _, header = read_capture(cal)
        overwrite_payload(cal, np.zeros(header["port_count"] * header["tone_count"]))
        capsys.readouterr()
        assert cli_main(["analyze", "--scenario", self.scenario_file(tmp_path), "--cal", cal,
                         "--out", str(tmp_path / "m.csv")]) == 5
        assert capsys.readouterr().err == "error: no port has surviving bins\n"

    def test_strict_hash_mismatch_exit_code(self, tmp_path):
        s1 = self.scenario_file(tmp_path)
        s2 = tmp_path / "other.json"
        doc = json.loads(Path(s1).read_text())
        doc["capture"]["snr_db"] = 12.0
        s2.write_text(json.dumps(doc))
        meas = str(tmp_path / "a.bin")
        ref = str(tmp_path / "b.bin")
        assert cli_main(["synth", "--scenario", s1, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", str(s2), "--out", ref]) == 0
        assert cli_main(["calibrate", "--scenario", s1, "--meas", meas, "--ref", ref,
                         "--out", str(tmp_path / "c.bin"), "--strict-hash"]) == 6
        # without strict it proceeds with a warning
        with pytest.warns(UserWarning, match="config hash mismatch"):
            assert cli_main(["calibrate", "--scenario", s1, "--meas", meas, "--ref", ref,
                             "--out", str(tmp_path / "c.bin")]) == 0

    def test_hash_mismatch_without_strict_warns(self, tmp_path):
        s1 = self.scenario_file(tmp_path)
        s2 = tmp_path / "other.json"
        doc = json.loads(Path(s1).read_text())
        doc["capture"]["snr_db"] = 12.0
        s2.write_text(json.dumps(doc))
        meas, ref = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        assert cli_main(["synth", "--scenario", s1, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", str(s2), "--out", ref]) == 0
        with pytest.warns(UserWarning, match="config hash mismatch"):
            assert cli_main(["calibrate", "--scenario", s1, "--meas", meas, "--ref", ref,
                             "--out", str(tmp_path / "c.bin")]) == 0

    @pytest.mark.parametrize("error,code,prefix", [
        (SchemaError, 2, "error: "), (SceneError, 2, "error: "), (HashMismatch, 6, "error: "),
        (CaptureFileError, 4, "error: "), (CalibrationError, 5, "error: "),
        (AnalysisError, 5, "error: "),
        (ValueError, 1, "unexpected error: "), (RuntimeError, 1, "unexpected error: ")],
        ids=lambda value: value.__name__ if isinstance(value, type) else None)
    def test_exit_code_table(self, monkeypatch, capsys, error, code, prefix):
        def fail(args):
            raise error("boom")
        monkeypatch.setitem(cli._COMMANDS, "report", fail)
        assert cli_main(["report", "--metrics", "m.csv", "--out", "r.csv"]) == code
        assert capsys.readouterr().err.startswith(prefix)

    def test_exit_codes_through_the_process(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        meas = str(tmp_path / "meas.bin")
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(a2g.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        for ref, code in ((str(tmp_path / "missing.bin"), 3), (meas, 4)):
            done = subprocess.run([sys.executable, "-m", "a2gsounder", "calibrate",
                                   "--scenario", scenario, "--meas", meas, "--ref", ref,
                                   "--out", str(tmp_path / "cal.bin")],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == code, done.stderr
            assert done.stderr.startswith("error: ")

    def test_json_output_format(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        meas = str(tmp_path / "meas.bin")
        ref = str(tmp_path / "ref.bin")
        out = str(tmp_path / "metrics.json")
        cli_main(["synth", "--scenario", scenario, "--out", meas])
        cli_main(["b2b", "--scenario", scenario, "--out", ref])
        assert cli_main(["analyze", "--scenario", scenario, "--meas", meas,
                         "--ref", ref, "--out", out, "--format", "json"]) == 0
        rows = json.loads(Path(out).read_text())
        assert len(rows) == 3
        assert "gamma12_db" in rows[0]

    @pytest.mark.parametrize("doc", [None, {"preset": "paper-route"}], ids=["static", "route"])
    def test_report_json_is_the_analyze_json_projected(self, tmp_path, doc):
        scenario = self.scenario_file(tmp_path, doc)
        meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
        paths = {name: str(tmp_path / name) for name in ("m.csv", "m.json", "r.json")}
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
        for out, fmt in (("m.csv", "csv"), ("m.json", "json")):
            assert cli_main(["analyze", "--scenario", scenario, "--meas", meas, "--ref", ref,
                             "--out", paths[out], "--format", fmt]) == 0
        assert cli_main(["report", "--metrics", paths["m.csv"], "--out", paths["r.json"],
                         "--format", "json"]) == 0
        analyzed = json.loads(Path(paths["m.json"]).read_text())
        reported = json.loads(Path(paths["r.json"]).read_text())
        expected = [{"location": i, **{key: row[key] for key in REPORT_FIELDS},
                     **{key: value for key, value in row.items() if key.startswith("col")}}
                    for i, row in enumerate(analyzed)]
        assert reported == expected
        # == holds between 1 and 1.0 but not between "1" and 1: compare types too
        assert [{k: type(v) for k, v in row.items()} for row in reported] == \
            [{k: type(v) for k, v in row.items()} for row in expected]
        assert isinstance(reported[0]["argmax_v_column"], int)
        assert isinstance(reported[0]["timestamp"], float)

    def test_selftest_command(self):
        assert cli_main(["selftest"]) == 0

    def test_stability_on_drift_free_b2b_is_exactly_zero(self, tmp_path):
        scenario = self.scenario_file(tmp_path, {
            "system": {"phase_drift_deg": 0.0, "amplitude_jitter_db": 0.0},
            "capture": {"burst_count": 1, "b2b_snapshot_count": 5,
                        "b2b_snr_db": None},
        })
        ref = str(tmp_path / "quiet.bin")
        out = str(tmp_path / "quiet.csv")
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0
        assert cli_main(["stability", "--ref", ref, "--out", out]) == 0
        rows = [line.split(",") for line in Path(out).read_text().splitlines()
                if not line.startswith("#")][1:]
        assert len(rows) == 5
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)

    def test_seed_override_changes_output(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        cli_main(["synth", "--scenario", scenario, "--out", a, "--seed", "1"])
        cli_main(["synth", "--scenario", scenario, "--out", b, "--seed", "2"])
        ra, _ = read_capture(a)
        rb, _ = read_capture(b)
        assert not np.array_equal(ra[0].h_f, rb[0].h_f)
