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
        "analyze_cal_csv": "b8f15e17455f3e806dde72a49340b984898c33b56417d3f63276d4e7548c82a8",
        "analyze_csv": "dce351d2ce0aedb99f2c9e9cbc8c5be59b71dbbf4b9ff0ed63e4e15a7dc9bed0",
        "analyze_json": "3fb6b62548d47afb53dc625b5a2276ce76ab32cb862c61f74c7c092e02a4eb25",
        "analyze_summary": "00274c767f609999cab41a9543f3d8ee5abc40f9774dd441ed6b70d3fa4225bf",
        "b2b": "0f57311e12858768a4e2978fd6e951b75fd49368b2d35e89299ab61304c49e1f",
        "calibrate": "3cd1d5a2a00f47e6ef0fee932a365601b6b8cc7569452d49d8c48df84ea9f5e3",
        "report": "593f117af8dc55ecdeb758a80adea3a95380020c40f80928742a1e8760e02311",
        "report_json": "d82e2ffc3e25d2299dd59c2b90896ff371ee3645169d0fdbbbb30a7a65a3eb7a",
        "synth": "2fad6e4611bb50d9849a6ddb770bdd7b65347ceb227aba5577360829937e5fda",
    },
    "hover": {
        "analyze_cal_csv": "6dbb8451916f5da1393550f5aa0885146a7f37356a2f4eabc74d89b86d7237d1",
        "analyze_csv": "1d6840996a6adb7db01105805d6ec7aaa6601765227c3f417852897c1f4749bb",
        "analyze_json": "d05e716c370ee91a6378a82c9dd74c71315cdb4c0e7d47010f8cda1399363912",
        "analyze_summary": "2f667ca826238795cb207846ac01c551114a17dc92f94be46e803d1a593298cf",
        "b2b": "275704e22bd675147d9cd3ff3cc75606aa077aac311661f26f01460f9d4e849e",
        "calibrate": "a32ffb546028ce19b3d8e0ea4a52889b78ad6c5276c5da1d21bee8f633ba662c",
        "report": "58f4d79b113c99948c819bf6d45c53da7bf3dae3d684d647ce46c565466c769f",
        "report_json": "8725f25cb32bd7a11ea52c8c838613ab7ac43aa56185021c27ccff20200181a8",
        "synth": "76254beef4da29b47402478f4522036c059ead445e5228ea7c23ec85f46dbbd2",
    },
    "route": {
        "analyze_cal_csv": "0dec79d3a6b2da275011ca0bc1a4f1664ea5cb8119ce7d47e63f74e5e48d603b",
        "analyze_csv": "52de569e857737d7541f1a3fddba6f98e0321ddc1bfd0afcad22395cac0bb544",
        "analyze_json": "d46b1384fb00e34271eaf698554f2f4a9777c430488ac23dd3677ce260cb50a9",
        "analyze_summary": "aef9ebb262a73871f452bc2d7a5e4bf919e1d71294d3a9048407ff5cae777067",
        "b2b": "437d1c7359c6ae4b84116429b130ffd8a365c0cab73d2e826ca1cffcf22383e3",
        "calibrate": "ab2a06c348b6b70a528f3487cbec3c00291361f22abc392e245497d064874b56",
        "report": "aa13b3cb4e35966277403290dfc451a3b00ead292c96203443f5484713b96ae7",
        "report_json": "20858fdb612b675c81308329f214b577e1063aa808d35b8ac14b54e6044ee77c",
        "synth": "4a06b6b5ab1c44a07d6794632784ec990f5e51896cb1431bb3f3361a7952579c",
    },
    "b2b-stability": {
        "b2b": "56d83d8d23105764ae57f19525e52d7d8a1dca55f59848e92a07bb9428899fe8",
        "stability": "ec89a34e3af62a19500ab3d1e378b43ca32df6f37f3c9f426e1bada90a804d93",
        "stability_json": "9bee1e4f84064918840dc354edb1a3fcb367f5dc0976e592ee9d53fd9f69de21",
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
    the CAL file) and report (CSV and JSON)."""
    scenario = _scenario(tmp_path, name, BURSTS[name])
    out = {key: str(tmp_path / file) for key, file in (
        ("synth", "meas.bin"), ("b2b", "ref.bin"), ("calibrate", "cal.bin"),
        ("analyze_csv", "metrics.csv"), ("analyze_json", "metrics.json"),
        ("analyze_summary", "summary.json"), ("analyze_cal_csv", "metrics_cal.csv"),
        ("report", "route.csv"), ("report_json", "route.json"))}
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
    _run("report", "--metrics", out["analyze_csv"], "--out", out["report_json"],
         "--format", "json")
    return out


def _stability_flow(tmp_path):
    """b2b series plus stability at port 0, as CSV and JSON."""
    scenario = _scenario(tmp_path, "b2b-stability")
    out = {"b2b": str(tmp_path / "ref.bin"), "stability": str(tmp_path / "stab.csv"),
           "stability_json": str(tmp_path / "stab.json")}
    _run("b2b", "--scenario", scenario, "--out", out["b2b"],
         "--snapshots", str(B2B_STABILITY_SNAPSHOTS))
    _run("stability", "--ref", out["b2b"], "--port", "0", "--out", out["stability"])
    _run("stability", "--ref", out["b2b"], "--port", "0", "--out", out["stability_json"],
         "--format", "json")
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


@pytest.mark.parametrize("name", sorted(BURSTS))
def test_synth_is_thread_count_invariant(tmp_path, monkeypatch, name):
    monkeypatch.setenv("A2GS_THREADS", "2")
    scenario = _scenario(tmp_path, name, BURSTS[name])
    meas = str(tmp_path / "meas.bin")
    _run("synth", "--scenario", scenario, "--out", meas)
    assert _sha256(meas) == GOLDEN[name]["synth"]


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
    cal, cal_csv = str(tmp_path / "cal.bin"), str(tmp_path / "metrics_cal.csv")
    _run("calibrate", "--meas", meas, "--ref", ref, "--out", cal, "--strict-hash")
    _run("analyze", "--scenario", scenario, "--cal", cal, "--out", cal_csv)
    assert _sha256(cal) == GOLDEN[name]["calibrate"]
    assert _sha256(cal_csv) == GOLDEN[name]["analyze_cal_csv"]
