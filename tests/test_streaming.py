"""Streaming capture and row paths: bounded memory, lazy reads that
fail closed, and failed writes that leave no file behind."""

import csv
import dataclasses
import io
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from a2gsounder import cli, pipeline
from a2gsounder.calibration import calibrate, stability_stats
from a2gsounder.capture_file import (CaptureFileError, Layout, read_capture, replacing,
                                     write_capture)
from a2gsounder.capture_sim import CaptureRecord
from a2gsounder.channel_synth import wobble_index
from a2gsounder.cli import main as cli_main
from a2gsounder.config import parse_scenario
from a2gsounder.processing import AnalysisError
from a2gsounder.waveform import TonePlan


def series(count, ports, tones, fail_at=None):
    """(Layout, generator) of a B2B series; the generator raises at
    record ``fail_at``."""
    plan = TonePlan(tone_count=tones)
    times = [0.05 * s for s in range(count)]
    layout = Layout("B2B", plan, ports, times, [np.zeros(3)] * count,
                    [np.zeros(2)] * count, range(count))

    def records():
        for s in range(count):
            if s == fail_at:
                raise RuntimeError(f"synthesis failed at record {s}")
            h_f = np.full((ports, tones), complex(1.0 + 0.01 * s, 0.02 * s))
            h_f[:, 0] += 0.5j  # a tone that differs from the others
            yield CaptureRecord(h_f=h_f, tone_plan=plan, timestamp=times[s],
                                snapshot_index=s, record_type="B2B")
    return layout, records()


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tiny(preset="olin-static", **sections):
    doc = {"preset": preset, "array": {"columns": 4, "rows": 2},
           "timing": {"ports_per_simo": 16}, "tone_plan": {"tone_count": 32},
           "capture": {"burst_count": 1, "b2b_snapshot_count": 3}}
    for key, value in sections.items():
        doc.setdefault(key, {}).update(value)
    return doc


def scenario_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestFailedWrite:
    @pytest.mark.parametrize("fail_at", [0, 3])
    def test_error_in_the_records_leaves_no_file(self, tmp_path, fail_at):
        path = tmp_path / "b2b.bin"
        layout, records = series(5, 4, 8, fail_at=fail_at)
        with pytest.raises(RuntimeError, match=f"record {fail_at}"):
            write_capture(path, records, layout=layout)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_an_existing_file(self, tmp_path):
        path = tmp_path / "b2b.bin"
        path.write_bytes(b"earlier output")
        layout, records = series(5, 4, 8, fail_at=2)
        with pytest.raises(RuntimeError):
            write_capture(path, records, layout=layout)
        assert path.read_bytes() == b"earlier output"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("change, message", [
        (lambda r: setattr(r, "timestamp", 9.0), "timestamp"),
        (lambda r: setattr(r, "snapshot_index", 7), "snapshot_index"),
        (lambda r: setattr(r, "h_f", r.h_f[:3]), "shape"),
        (lambda r: setattr(r, "seed", 5), "seed"),
        (lambda r: setattr(r, "seed", 0.5), "seed"),
        (lambda r: setattr(r, "snapshot_index", 2.5), "snapshot_index"),
    ])
    def test_record_that_disagrees_with_the_header(self, tmp_path, change, message):
        layout, records = series(4, 4, 8)

        def altered():
            for s, record in enumerate(records):
                if s == 2:
                    change(record)
                yield record
        with pytest.raises(ValueError, match=message):
            write_capture(tmp_path / "b2b.bin", altered(), layout=layout)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", [3, 5])
    def test_record_count_must_match_the_header(self, tmp_path, count):
        layout, _ = series(4, 4, 8)
        _, records = series(count, 4, 8)
        with pytest.raises(ValueError, match="records"):
            write_capture(tmp_path / "b2b.bin", records, layout=layout)
        assert list(tmp_path.iterdir()) == []

    def test_scene_error_partway_through_a_route_exits_2(self, tmp_path, monkeypatch):
        # the RX sits where the route's second snapshot puts the TX
        scenario = scenario_file(tmp_path, "route.json", tiny(
            "paper-route", timing={"simos_per_burst": 1, "burst_rate": 0.1},
            scene={"rx_position": [5.0, 15.0, 50.0]}, capture={"burst_count": 3}))
        config = parse_scenario(json.loads(Path(scenario).read_text()))
        monkeypatch.setenv("A2GS_THREADS", "1")
        assert next(pipeline.run_synthesis(config)).snapshot_index == 0
        for threads in ("1", "2"):
            monkeypatch.setenv("A2GS_THREADS", threads)
            assert cli_main(["synth", "--scenario", scenario,
                             "--out", str(tmp_path / "meas.bin")]) == 2
            assert sorted(p.name for p in tmp_path.iterdir()) == ["route.json"]

    def test_calibration_error_while_writing_exits_5(self, tmp_path):
        meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
        small = tiny(array={"columns": 2, "rows": 2}, timing={"ports_per_simo": 8})
        assert cli_main(["synth", "--scenario", scenario_file(tmp_path, "a.json", tiny()),
                         "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario_file(tmp_path, "b.json", small),
                         "--out", ref]) == 0
        cal = tmp_path / "cal.bin"
        # the two scenarios differ, so their config hashes do too
        with pytest.warns(UserWarning, match="config hash mismatch"):
            assert cli_main(["calibrate", "--scenario", str(tmp_path / "a.json"),
                             "--meas", meas, "--ref", ref, "--out", str(cal)]) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "meas.bin",
                                                              "ref.bin"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("ref_sections, message", [
        ({"array": {"columns": 2, "rows": 2}, "timing": {"ports_per_simo": 8}},
         "measurement (16, 32) and reference (8, 32) dimensions differ"),
        ({"tone_plan": {"tone_count": 16}},
         "measurement (16, 32) and reference (16, 16) dimensions differ"),
        ({"tone_plan": {"tone_spacing": 10e3}}, "measurement and reference tone plans differ"),
    ], ids=["ports", "tones", "plan"])
    def test_analyze_of_a_reference_that_does_not_fit_exits_5(self, tmp_path, monkeypatch,
                                                              capsys, ref_sections, message,
                                                              threads):
        # calibrate's own check stops analyze, before any product of the two
        scenario = scenario_file(tmp_path, "a.json", tiny())
        meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario_file(tmp_path, "b.json",
                                                            tiny(**ref_sections)),
                         "--out", ref]) == 0
        capsys.readouterr()
        monkeypatch.setenv("A2GS_THREADS", threads)
        out = tmp_path / "metrics.csv"
        with pytest.warns(UserWarning, match="config hash mismatch"):
            assert cli_main(["analyze", "--scenario", scenario, "--meas", meas, "--ref", ref,
                             "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestLazyRead:
    def test_reads_fail_closed_after_truncation(self, tmp_path):
        path = tmp_path / "b2b.bin"
        layout, records = series(3, 4, 8)
        write_capture(path, records, layout=layout)
        back, header = read_capture(path)
        os.truncate(path, path.stat().st_size - 8)  # the last port's last tone
        assert back[0].h_f.shape == (4, 8)
        with pytest.raises(CaptureFileError, match="truncated"):
            back[2]
        with pytest.raises(CaptureFileError, match="truncated"):
            list(back.port_rows(3))
        assert len(list(back.port_rows(2))) == 3
        path.unlink()
        with pytest.raises(CaptureFileError):
            back[0]

    @pytest.mark.parametrize("index", [3, 4, -1])
    def test_read_outside_the_file_raises_index_error(self, tmp_path, index):
        # as port_rows does for a port, read names the count; a negative
        # index counts from the end only through indexing
        path = tmp_path / "b2b.bin"
        layout, records = series(3, 4, 8)
        write_capture(path, records, layout=layout)
        back, _ = read_capture(path)
        buf = np.zeros(back.shape, "<c8")
        for out in (None, buf):
            with pytest.raises(IndexError, match=f"snapshot {index} out of range for 3 "):
                back.read(index, out=out)
        assert not buf.any()
        assert back[-1].snapshot_index == 2

    @pytest.mark.parametrize("window", [slice(1, 3), slice(None, None, -1), slice(-2, None)],
                             ids=["1:3", "::-1", "-2:"])
    def test_slice_is_the_list_slice(self, tmp_path, window):
        path = tmp_path / "b2b.bin"
        layout, records = series(5, 4, 8)
        write_capture(path, records, layout=layout)
        back, _ = read_capture(path)
        got, expected = back[window], list(back)[window]
        assert isinstance(got, list)
        assert [r.snapshot_index for r in got] == [r.snapshot_index for r in expected]
        for a, b in zip(got, expected):
            for name in (f.name for f in dataclasses.fields(CaptureRecord)):
                if isinstance(getattr(a, name), np.ndarray):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
                else:
                    assert getattr(a, name) == getattr(b, name), name

    @pytest.mark.parametrize("command", ["stability", "analyze", "calibrate"])
    def test_cli_exits_4_when_the_file_shrinks_after_open(self, tmp_path, monkeypatch, command):
        scenario = scenario_file(tmp_path, "s.json", tiny())
        meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
        assert cli_main(["synth", "--scenario", scenario, "--out", meas]) == 0
        assert cli_main(["b2b", "--scenario", scenario, "--out", ref]) == 0

        def shrinking(path, *args, **kwargs):
            opened = read_capture(path, *args, **kwargs)
            os.truncate(path, os.path.getsize(path) - 8)
            return opened
        monkeypatch.setattr(cli, "read_capture", shrinking)
        out = tmp_path / "out"
        argv = {"stability": ["stability", "--ref", ref, "--port", "15"],
                "analyze": ["analyze", "--scenario", scenario, "--meas", meas, "--ref", ref],
                "calibrate": ["calibrate", "--scenario", scenario, "--meas", meas,
                              "--ref", ref]}[command]
        assert cli_main(argv + ["--out", str(out)]) == 4
        assert not out.exists()


class TestBoundedMemory:
    def test_streamed_write_peak_does_not_grow_with_the_series(self, tmp_path):
        ports, tones = 64, 512
        record_bytes = ports * tones * 16
        for count in (4, 32):
            layout, records = series(count, ports, tones)
            peak = peak_bytes(lambda: write_capture(tmp_path / "b2b.bin", records,
                                                    layout=layout))
            assert peak < 3 * record_bytes, (count, peak)

    def test_open_and_stability_read_one_port_only(self, tmp_path):
        ports, tones, count = 64, 256, 40
        path = tmp_path / "b2b.bin"
        layout, records = series(count, ports, tones)
        write_capture(path, records, layout=layout)
        reports = []
        peak = peak_bytes(lambda: reports.append(
            stability_stats(read_capture(path)[0].port_rows(ports - 1))))
        assert peak < ports * tones * 16  # one complex128 snapshot
        listed = stability_stats([r.h_f[ports - 1] for r in read_capture(path)[0]])
        np.testing.assert_array_equal(reports[0].rel_amp_db, listed.rel_amp_db)
        np.testing.assert_array_equal(reports[0].rel_phase_deg, listed.rel_phase_deg)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("preset,bursts", [("olin-hover", 24), ("paper-route", 8)])
    def test_synthesis_computes_a_bounded_number_of_states_ahead(self, monkeypatch, preset,
                                                                 bursts, threads):
        # 24 TX states each: one per wobble index, or one per route snapshot
        config = parse_scenario(tiny(preset, capture={"burst_count": bursts}))
        calls, paths = [], pipeline.paths_for_snapshot

        def counted(*args):  # one call per TX state, in the feeding thread
            calls.append(None)
            return paths(*args)
        monkeypatch.setattr(pipeline, "paths_for_snapshot", counted)
        monkeypatch.setenv("A2GS_THREADS", str(threads))
        taken = set()
        for record in pipeline.run_synthesis(config):
            taken.add(wobble_index(config.trajectory, record.timestamp)
                      if preset == "olin-hover" else record.snapshot_index)
            assert len(calls) - len(taken) <= threads + 1, (len(taken), len(calls))
        assert len(taken) == len(calls) == 24

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("fed_by", ["records", "calibrate_records"])
    def test_analysis_pulls_a_bounded_lookahead(self, monkeypatch, fed_by, threads):
        config = parse_scenario(tiny("olin-hover", tone_plan={"tone_count": 64},
                                     capture={"burst_count": 7}))
        meas, ref = list(pipeline.run_synthesis(config)), list(pipeline.run_b2b(config))
        cal = list(pipeline.calibrate_records(meas, ref, config.attenuator))
        pulled = 0  # CAL records taken from the list, or calibrate calls

        def records():
            nonlocal pulled
            for record in cal:
                pulled += 1
                yield record

        def counted(*args):
            nonlocal pulled
            pulled += 1
            return calibrate(*args)
        if fed_by == "records":
            feed = records()
        else:
            monkeypatch.setattr(pipeline, "calibrate", counted)
            feed = pipeline.calibrate_records(meas, ref, config.attenuator)
        monkeypatch.setenv("A2GS_THREADS", str(threads))
        rows = []
        for row in pipeline.analyze_records(feed, config.geometry, config.gate):
            rows.append(row)
            assert pulled - len(rows) <= threads + 1, (len(rows), pulled)
        assert len(cal) > 2 * (threads + 1)
        assert rows == pipeline.metrics_rows(cal, config.geometry, config.gate)


# a metrics row's 47 columns: 15 named ones, then two powers per array column
METRICS_COLUMNS = (
    "snapshot_index", "timestamp", "tx_x", "tx_y", "tx_z", "p_rx", "p_rx_db", "sigma_tau_s",
    "sigma_tau_dbs", "strongest_port", "los_bin_power_db", "gamma12_db", "gamma14_db",
    "eigen_span_db", "argmax_v_column",
    *(f"col{c}_{pol}_db" for c in range(16) for pol in ("v", "h")))


def cheap_rows(count, fail_at=None):
    """``count`` metrics rows that cost nothing to compute; raises
    AnalysisError in place of row ``fail_at``."""
    template = {key: -i for i, key in enumerate(METRICS_COLUMNS)}  # int cells read fast
    for s in range(count):
        if s == fail_at:
            raise AnalysisError(f"analysis failed at row {s}")
        yield {**template, "snapshot_index": s, "argmax_v_column": s % 16}


@pytest.fixture
def fake_analysis(tmp_path, monkeypatch):
    """Run ``analyze --cal`` on cheap rows: returns run(count, *argv,
    fail_at=None) -> exit code, and a list of the rows' start flags."""
    scenario = scenario_file(tmp_path, "s.json", tiny())
    started = []

    def analyze_records(*args, **kwargs):
        started.append(True)
        yield from monkeypatch.rows
    monkeypatch.setattr(cli, "_read", lambda *args, **kwargs: (None, None))
    monkeypatch.setattr(cli, "analyze_records", analyze_records)

    def run(count, *argv, fail_at=None):
        monkeypatch.rows = cheap_rows(count, fail_at)
        return cli_main(["analyze", "--scenario", scenario, "--cal", "cal.bin", *argv])
    return run, started


def metrics_file(path, count):
    pipeline.write_rows_csv(path, cheap_rows(count), config_hash="abc")
    return str(path)


def slope(peak_of, small=1000, large=10000):
    """Peak traced bytes per extra row between ``small`` and ``large`` rows."""
    before = peak_of(small)
    return (peak_of(large) - before) / (large - small)


class TestRowsStream:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_analyze_holds_only_the_summary_columns(self, tmp_path, fake_analysis, fmt):
        run, _ = fake_analysis
        out, summary = str(tmp_path / "m.out"), str(tmp_path / "summary.json")

        def peak_of(count):
            return peak_bytes(lambda: run(count, "--out", out, "--summary", summary,
                                          "--format", fmt))
        per_row = slope(peak_of)
        print(f"analyze {fmt}: {per_row:.1f} B per extra row")
        assert per_row <= 256, per_row
        assert json.loads(Path(summary).read_text())["snapshots"] == 10000

    def test_report_holds_no_row(self, tmp_path):
        # JSON rows are written by the same write_rows_json as analyze's
        out = str(tmp_path / "route.csv")
        metrics = {count: metrics_file(tmp_path / f"m{count}.csv", count)
                   for count in (1000, 10000)}

        def peak_of(count):
            return peak_bytes(lambda: cli_main(["report", "--metrics", metrics[count],
                                                "--out", out]))
        per_row = slope(peak_of)
        print(f"report: {per_row:.1f} B per extra row")
        assert per_row <= 64, per_row
        with open(out) as fh:
            assert len(fh.readlines()) == 10000 + 2  # the hash comment and the header

    def test_summary_of_an_iterator_is_the_summary_of_the_list(self):
        rows = list(cheap_rows(5))
        rows[1]["gamma12_db"], rows[3]["sigma_tau_dbs"] = math.inf, math.nan
        assert pipeline.summarize(iter(rows), "h") == pipeline.summarize(rows, "h")
        assert pipeline.summarize(rows)["sigma_tau_dbs"]["count"] == 4
        assert pipeline.summarize([])["snapshots"] == 0


class TestFailedRows:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fail_at", [1, 4])
    def test_analysis_error_partway_leaves_no_output(self, tmp_path, fake_analysis, fmt,
                                                    fail_at):
        run, _ = fake_analysis
        out, summary = tmp_path / "m.out", tmp_path / "summary.json"
        out.write_bytes(b"earlier metrics")
        assert run(6, "--out", str(out), "--format", fmt, "--summary", str(summary),
                   fail_at=fail_at) == 5
        assert out.read_bytes() == b"earlier metrics"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.out", "s.json"]

    def test_bad_summary_path_fails_before_any_row(self, tmp_path, fake_analysis):
        run, started = fake_analysis
        out = tmp_path / "metrics.csv"
        assert run(3, "--out", str(out), "--summary", str(tmp_path / "nodir" / "s.json")) == 1
        assert not out.exists()
        assert not started
        assert run(3, "--out", str(out), "--summary", str(tmp_path / "summary.json")) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["snapshots"] == 3

    def test_writers_of_one_path_do_not_share_a_file(self, tmp_path, fake_analysis):
        path = tmp_path / "out.txt"
        with replacing(path) as outer:
            with replacing(path) as inner:
                inner.write("inner")
            outer.write("outer")
        assert path.read_text() == "outer"
        # the summary, written last, is the file, as when the writers opened it in turn
        run, _ = fake_analysis
        assert run(3, "--out", str(path), "--summary", str(path)) == 0
        assert json.loads(path.read_text())["snapshots"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "s.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad_row,cell", [(2, "x"), (5, ""), (3, None)],
                             ids=["not-a-number", "empty", "short-row"])
    def test_bad_report_row_partway_leaves_no_output(self, tmp_path, capsys, fmt, bad_row,
                                                    cell):
        metrics = Path(metrics_file(tmp_path / "m.csv", 6))
        lines = metrics.read_text().splitlines(keepends=True)
        line = 2 + bad_row  # after the hash comment and the header
        cells = lines[line].rstrip("\r\n").split(",")
        cells = cells[:-1] if cell is None else [*cells[:3], cell, *cells[4:]]
        lines[line] = ",".join(cells) + "\r\n"
        metrics.write_text("".join(lines), newline="")
        out = tmp_path / "route.out"
        out.write_bytes(b"earlier route")
        assert cli_main(["report", "--metrics", str(metrics), "--out", str(out),
                         "--format", fmt]) == 4
        assert "metrics file" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier route"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "route.out"]


def jsonable(row):
    return {key: str(value) if isinstance(value, float) and not math.isfinite(value)
            else value for key, value in row.items()}


def analyzed_rows():
    config = parse_scenario(tiny(capture={"burst_count": 1}))
    ref = pipeline.run_b2b(config, snapshot_count=2)
    rows = pipeline.metrics_rows(pipeline.calibrate_records(pipeline.run_synthesis(config),
                                                            ref, config.attenuator),
                                 config.geometry, config.gate)
    rows[0]["gamma12_db"], rows[1]["eigen_span_db"], rows[2]["sigma_tau_dbs"] = (
        math.inf, -math.inf, math.nan)
    return rows


def stability_rows():
    _, records = series(4, 2, 8)
    return pipeline.stability_rows(stability_stats(r.h_f[1] for r in records))


class TestRowWriters:
    @pytest.mark.parametrize("rows", [
        analyzed_rows, lambda: list(pipeline.report_rows(analyzed_rows())), stability_rows,
        lambda: analyzed_rows()[:1], lambda: []],
        ids=["analyze-non-finite", "report", "stability", "one-row", "empty"])
    def test_json_of_an_iterator_is_json_dump_of_the_list(self, tmp_path, rows):
        rows = rows()
        pipeline.write_rows_json(tmp_path / "rows.json", iter(rows))
        expected = json.dumps([jsonable(row) for row in rows], indent=2,
                              default=lambda value: value.item()) + "\n"
        assert (tmp_path / "rows.json").read_text() == expected
        assert list(tmp_path.iterdir()) == [tmp_path / "rows.json"]

    def test_empty_json_is_an_empty_array(self, tmp_path):
        pipeline.write_rows_json(tmp_path / "rows.json", iter(()))
        assert (tmp_path / "rows.json").read_bytes() == b"[]\n"

    def test_csv_of_an_iterator_is_the_csv_of_the_list(self, tmp_path):
        rows = analyzed_rows()
        pipeline.write_rows_csv(tmp_path / "rows.csv", iter(rows), config_hash="abc")
        expected = io.StringIO(newline="")
        expected.write("# config_hash: abc\n")
        writer = csv.DictWriter(expected, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        assert (tmp_path / "rows.csv").read_bytes() == expected.getvalue().encode()

    def test_csv_of_no_rows_raises_and_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            pipeline.write_rows_csv(tmp_path / "rows.csv", iter(()))
        assert list(tmp_path.iterdir()) == []
