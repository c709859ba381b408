"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

The smoke runs use ``--smoke`` snapshot counts, so the whole file takes
well under a minute.
"""

import json
import subprocess
import sys

import pytest

import checks
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert_metrics(result, BENCHMARK["end_to_end"])
    if workload != "route-96":  # a smoke route is too short to visit all 16 columns
        assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_prints_every_per_layer_metric():
    result = smoke("hover-102-t2", 1)
    assert_metrics(result, BENCHMARK["per_layer"])
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # names imported directly by pipeline, processing and cli were traced
    assert values["calibration.calibrate.calls"] == 6
    assert values["capture_sim.port_stack_response.calls"] > 0
    assert values["processing.snapshot_metrics.p50_ms"] > 0
    assert values["processing.correlation_and_eigen.flops"] == 6 * 8 * 128**2 * 1841
    assert values["cli.self_s"] > 0
    assert values["pipeline.workers"] == 2


def test_declared_workloads_exist():
    for workload in BENCHMARK["workloads"]:
        assert workload["name"] in run.WORKLOADS


@pytest.fixture(scope="module")
def flow_dir(tmp_path_factory):
    """One smoke flow of static-102, run in a scratch directory."""
    cwd = tmp_path_factory.mktemp("flow")
    workload = run.WORKLOADS["static-102"]
    (cwd / run.SCENARIO).write_text(json.dumps(run.scenario(workload, 5, smoke=True)))
    tally = run.Tally()
    commands = run.run_flow(workload.commands, cwd, run.child_env("1"), "flow", False, tally)
    assert tally.failed == 0 and len(commands) == len(workload.commands)
    return cwd


def rewrite_tally(cwd):
    tally = run.Tally()
    run.check_rewrite(run.WORKLOADS["static-102"], cwd, run.child_env("1"), tally)
    return tally


def output_tally(cwd):
    tally = run.Tally()
    tally.add("output checks", run.check_outputs(run.WORKLOADS["static-102"], cwd, 6, 5))
    return tally


def copy_flow(flow_dir, tmp_path):
    for name in ("meas.bin", "metrics.csv", "route.csv"):
        (tmp_path / name).write_bytes((flow_dir / name).read_bytes())
    return tmp_path


def test_valid_outputs_pass(flow_dir, tmp_path):
    cwd = copy_flow(flow_dir, tmp_path)
    assert (rewrite_tally(cwd).failed, output_tally(cwd).failed) == (0, 0)


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:-100],             # truncated payload
    lambda data: b"XXXX" + data[4:],      # bad magic
    lambda data: data + b"\0",            # trailing bytes
])
def test_corrupted_capture_counts_as_failed(flow_dir, tmp_path, corrupt):
    cwd = copy_flow(flow_dir, tmp_path)
    (cwd / "meas.bin").write_bytes(corrupt((cwd / "meas.bin").read_bytes()))
    tally = rewrite_tally(cwd)
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("corrupt", [
    lambda text: text.rsplit("\n", 2)[0] + "\n",                 # a row lost
    lambda text: text.replace(",", ";"),                        # wrong delimiter
    lambda text: "\x00\xff garbage",                             # not a CSV
])
def test_corrupted_metrics_csv_counts_as_failed(flow_dir, tmp_path, corrupt):
    cwd = copy_flow(flow_dir, tmp_path)
    path = cwd / "metrics.csv"
    path.write_text(corrupt(path.read_text()))
    tally = output_tally(cwd)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_metric_out_of_bounds_counts_as_failed(flow_dir, tmp_path):
    cwd = copy_flow(flow_dir, tmp_path)
    rows = checks.read_rows(cwd / "metrics.csv")
    rows[3]["gamma12_db"] = "14.9"
    with open(cwd / "metrics.csv", "w", newline="") as fh:
        writer = checks.csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert output_tally(cwd).failed == 1


def test_differing_metrics_fail_the_thread_check(flow_dir, tmp_path):
    other = tmp_path / "metrics.csv"
    other.write_text((flow_dir / "metrics.csv").read_text().replace("1", "2", 1))
    assert checks.same_bytes(flow_dir / "metrics.csv", other)
    assert not checks.same_bytes(flow_dir / "metrics.csv", flow_dir / "metrics.csv")


def test_stability_check_uses_the_injected_drift(tmp_path):
    amp, phase = checks.injected_drift_std(13, 400)
    path = tmp_path / "stability.csv"

    def write(amp_scale):
        rows = [f"{i},{amp_scale * amp * (-1) ** i},{phase * (-1) ** i}" for i in range(400)]
        path.write_text("snapshot_index,rel_amp_db,rel_phase_deg\n" + "\n".join(rows) + "\n")

    write(1.0)
    assert checks.check_stability(path, 400, 13) == []
    write(1.2)
    assert checks.check_stability(path, 400, 13)


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        {"id": 0, "name": "pipeline.run_synthesis", "parent": None, "thread": 1,
         "start": 0.0, "end": 10.0},
        # two pool threads overlap between 2 and 5
        {"id": 1, "name": "capture_sim.simulate_snapshot", "parent": 0, "thread": 2,
         "start": 1.0, "end": 5.0},
        {"id": 2, "name": "capture_sim.simulate_snapshot", "parent": 0, "thread": 3,
         "start": 2.0, "end": 7.0},
        {"id": 3, "name": "capture_sim.port_stack_response", "parent": 1, "thread": 2,
         "start": 1.5, "end": 2.5},
    ]
    own = spans.self_times(spans_)
    assert own == {0: 4.0, 1: 3.0, 2: 5.0, 3: 1.0}
    assert spans.root_covered(spans_) == 10.0
    assert spans._parallel(spans_, "pipeline.run_synthesis") == (2, 0.45)
