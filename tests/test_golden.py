"""Golden-bytes gate: every CLI output of the shipped scenarios, pinned.

Each case runs the real ``a2gs`` command table in-process on one of the
``scenarios/*.json`` documents, with only the snapshot counts shrunk, and
compares the sha256 of every file it writes against the digests below.
A refactor that keeps these digests keeps the program's behaviour byte
for byte.

Re-pinning a digest is a behaviour change. Any change that re-pins one
must say in CHANGES.md which outputs moved and why; on a mismatch the
test prints the full table of actual digests to copy from.
"""

import hashlib
import json
from pathlib import Path

import pytest

from a2gsounder.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# scenario file -> burst_count used here (the only field changed)
BURSTS = {"static": 1, "hover": 2, "route": 3}
B2B_STABILITY_SNAPSHOTS = 4

GOLDEN = {
    "static": {
        "analyze_cal_csv": "c8de2809b8c0936bd62add7005c84e3e74e637d37ceaf50f4148c71710604be2",
        "analyze_csv": "d059adae7320fca49947e189f0a99d628ee159118208cc19c0d9dfd75b3d047f",
        "analyze_json": "6bcd1c84fc86dedda6999d67ab0980c4d207f1bbe9a49e8fd559ce99b7f58934",
        "analyze_summary": "0d505685cec7c35d6f3e7929d0e79769ef6364fe006e5c4c535d94d7d4e36806",
        "b2b": "0f57311e12858768a4e2978fd6e951b75fd49368b2d35e89299ab61304c49e1f",
        "calibrate": "3cd1d5a2a00f47e6ef0fee932a365601b6b8cc7569452d49d8c48df84ea9f5e3",
        "report": "91d8d3f6bdbd61dcbab4647296ed0ce9a0b2e320438f101f52a96f42758128dc",
        "synth": "2fad6e4611bb50d9849a6ddb770bdd7b65347ceb227aba5577360829937e5fda",
    },
    "hover": {
        "analyze_cal_csv": "e772571a4274f9f6bfcb5a44f9da9bc012c34c7c5fa4277a4eb8437b0a2d5e0c",
        "analyze_csv": "712c53b5612a6560d5987844e55d640e755df0de30a6baf3656207abeeb7754c",
        "analyze_json": "c1c8d5fa0a6b7c2520a9ed4abe96b260d47055ce5a8a77ebf40ffd4c056b217c",
        "analyze_summary": "e1a0a54110f923cf15bbb781e852eb335eec126e5d1d764ffce43d3ab116a620",
        "b2b": "275704e22bd675147d9cd3ff3cc75606aa077aac311661f26f01460f9d4e849e",
        "calibrate": "a32ffb546028ce19b3d8e0ea4a52889b78ad6c5276c5da1d21bee8f633ba662c",
        "report": "479f79ee06ec017fdd9d4ed28bd4c70ab384f07763c52786de1d7745bc5a0e79",
        "synth": "76254beef4da29b47402478f4522036c059ead445e5228ea7c23ec85f46dbbd2",
    },
    "route": {
        "analyze_cal_csv": "9c73658b58d48407339c669421287e7fd2c29bbe66492f20246045e6275dd295",
        "analyze_csv": "7192306a518d7d88e380686081eff0937d7acde58e49f672740319fc0de18436",
        "analyze_json": "13f2b261d87d81fa3039ae268e2450a96cb18fb3640e42c806bcf4c238b68449",
        "analyze_summary": "d5a02a74c332834a5eb6a6c50b89be879bf8faea43a5bb0c7954f4556ae06072",
        "b2b": "437d1c7359c6ae4b84116429b130ffd8a365c0cab73d2e826ca1cffcf22383e3",
        "calibrate": "ab2a06c348b6b70a528f3487cbec3c00291361f22abc392e245497d064874b56",
        "report": "8d65561551eb41b12516ca3be01d0bfd098090808a821194ba4a8e7957a49b12",
        "synth": "4a06b6b5ab1c44a07d6794632784ec990f5e51896cb1431bb3f3361a7952579c",
    },
    "b2b-stability": {
        "b2b": "56d83d8d23105764ae57f19525e52d7d8a1dca55f59848e92a07bb9428899fe8",
        "stability": "ec89a34e3af62a19500ab3d1e378b43ca32df6f37f3c9f426e1bada90a804d93",
    },
}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _scenario(tmp_path, name, burst_count=None):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    if burst_count is not None:
        doc.setdefault("capture", {})["burst_count"] = burst_count
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(*argv):
    assert cli_main(list(argv)) == 0, argv


def _measurement_flow(tmp_path, name):
    """synth, b2b, calibrate, analyze (CSV, JSON, summary, and CSV from
    the CAL file) and report."""
    scenario = _scenario(tmp_path, name, BURSTS[name])
    out = {key: str(tmp_path / file) for key, file in (
        ("synth", "meas.bin"), ("b2b", "ref.bin"), ("calibrate", "cal.bin"),
        ("analyze_csv", "metrics.csv"), ("analyze_json", "metrics.json"),
        ("analyze_summary", "summary.json"), ("analyze_cal_csv", "metrics_cal.csv"),
        ("report", "route.csv"))}
    _run("synth", "--scenario", scenario, "--out", out["synth"])
    _run("b2b", "--scenario", scenario, "--out", out["b2b"], "--snapshots", "2")
    _run("calibrate", "--meas", out["synth"], "--ref", out["b2b"],
         "--out", out["calibrate"], "--strict-hash")
    _run("analyze", "--scenario", scenario, "--meas", out["synth"], "--ref", out["b2b"],
         "--out", out["analyze_csv"], "--summary", out["analyze_summary"])
    _run("analyze", "--scenario", scenario, "--meas", out["synth"], "--ref", out["b2b"],
         "--out", out["analyze_json"], "--format", "json")
    _run("analyze", "--scenario", scenario, "--cal", out["calibrate"],
         "--out", out["analyze_cal_csv"])
    _run("report", "--metrics", out["analyze_csv"], "--out", out["report"])
    return out


def _stability_flow(tmp_path):
    """b2b series plus stability at port 0."""
    scenario = _scenario(tmp_path, "b2b-stability")
    out = {"b2b": str(tmp_path / "ref.bin"), "stability": str(tmp_path / "stab.csv")}
    _run("b2b", "--scenario", scenario, "--out", out["b2b"],
         "--snapshots", str(B2B_STABILITY_SNAPSHOTS))
    _run("stability", "--ref", out["b2b"], "--port", "0", "--out", out["stability"])
    return out


def _check(name, outputs):
    actual = {key: _sha256(path) for key, path in outputs.items()}
    if actual != GOLDEN[name]:
        table = "\n".join(f'        "{key}": "{digest}",'
                          for key, digest in sorted(actual.items()))
        pytest.fail(f"golden digests of '{name}' changed; actual:\n{table}")


@pytest.mark.parametrize("name", sorted(BURSTS))
def test_measurement_outputs_are_pinned(tmp_path, name):
    _check(name, _measurement_flow(tmp_path, name))


def test_b2b_stability_outputs_are_pinned(tmp_path):
    _check("b2b-stability", _stability_flow(tmp_path))


def test_hover_synth_is_thread_count_invariant(tmp_path, monkeypatch):
    monkeypatch.setenv("A2GS_THREADS", "2")
    scenario = _scenario(tmp_path, "hover", BURSTS["hover"])
    meas = str(tmp_path / "meas.bin")
    _run("synth", "--scenario", scenario, "--out", meas)
    assert _sha256(meas) == GOLDEN["hover"]["synth"]


def test_route_synth_is_thread_count_invariant(tmp_path, monkeypatch):
    monkeypatch.setenv("A2GS_THREADS", "2")
    scenario = _scenario(tmp_path, "route", BURSTS["route"])
    meas = str(tmp_path / "meas.bin")
    _run("synth", "--scenario", scenario, "--out", meas)
    assert _sha256(meas) == GOLDEN["route"]["synth"]


@pytest.mark.parametrize("name", ["hover", "route"])
def test_analysis_is_thread_count_invariant(tmp_path, monkeypatch, name):
    monkeypatch.setenv("A2GS_THREADS", "2")
    scenario = _scenario(tmp_path, name, BURSTS[name])
    meas, ref = str(tmp_path / "meas.bin"), str(tmp_path / "ref.bin")
    csv_out, summary = str(tmp_path / "metrics.csv"), str(tmp_path / "summary.json")
    _run("synth", "--scenario", scenario, "--out", meas)
    _run("b2b", "--scenario", scenario, "--out", ref, "--snapshots", "2")
    _run("analyze", "--scenario", scenario, "--meas", meas, "--ref", ref,
         "--out", csv_out, "--summary", summary)
    assert _sha256(csv_out) == GOLDEN[name]["analyze_csv"]
    assert _sha256(summary) == GOLDEN[name]["analyze_summary"]
