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

import host_class
import pytest

from a2gsounder.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# scenario file -> burst_count used here (the only field changed)
BURSTS = {"static": 1, "hover": 2, "route": 3}
B2B_STABILITY_SNAPSHOTS = 4

GOLDEN = {
    "static": {
        "analyze_cal_csv": "643d2faf7481244e7cc416a189ce8e7029f7fa828b7278ca8cc7d7dec8acc396",
        "analyze_csv": "22bb8b798657e397907d38609e4ff001b18735aaaec14d565b0765b5aaea2277",
        "analyze_json": "913e0f92e629f4b0d9558a302933a09dd5f5b9f63fbd8c3bf1b51e0958580ec3",
        "analyze_summary": "78829c6a564f3b3e9f6af34d56bac25d5acb0cafd645f88c67dbd35d67fd9f42",
        "b2b": "c13697066a70c87320a8b9e795edf2f68f4958cb88ff77a56baedb3c4587e6b1",
        "calibrate": "1501f334e45839e7e3a9c610e657145fd55e3337c9e65f1e64bd111c8538783a",
        "report": "62f6cd860077efe5d3443471d046c2c165ed6a40db425f085a9de66cdfcee62a",
        "report_json": "f6e2fed6960e940ab26dd6dec0b5876b0d99521b4887389b9aafda7c0c127337",
        "synth": "9fcbedcac092683d1c4b0774b05679208ea852cfb22f91648786f306e0abdd91",
    },
    "hover": {
        "analyze_cal_csv": "77acb457bd6b641f58a78a6fa3c27415c3d7b4f030ee379ac8dc7da48eaa50a4",
        "analyze_csv": "932619e3dd28d1b17e3d5c2445bf3bd9b1a2b06e28925fbb151f7950a7f06e9f",
        "analyze_json": "e70678abd3f6220fdfd9a2d025769015d0afa44bc328bc67977471f6a2ff412b",
        "analyze_summary": "02752f0d6ed4de992a43778074b8f04241d0eb68d4579a13d615d676c6674b3d",
        "b2b": "82687ac9926dfb36c21e9274db9a7fafbea21fc2e3c5b3d09ad092151ac93ff2",
        "calibrate": "19b173f6b2ca05fcc4a65c5438e4961e5ba39f36c8ae00d8e2afe35d85009eb1",
        "report": "f1def9086243f2a369cdd1c7f05adb485172738b673bafccdbe9416213c2f07e",
        "report_json": "ccece613803b2e39eceb1479ce4b6e69debb0fbd3e9d78bc0f40e62f684456f5",
        "synth": "b64234971ed40d20faa420181013f22a0747ee59fdcfc71958ee54edb4f130fa",
    },
    "route": {
        "analyze_cal_csv": "d8979b799a94a329d1bd8d87d573b67b6a7df9d5d22ff58048c2a025ff1a07ab",
        "analyze_csv": "2f0ff13e047faca31c021a3aa97b7b2ef386019c8ef0c11df3d72a391e26bafe",
        "analyze_json": "027b1b1b5352fbbdc012207f52b5fec6ddc593e902c94f09dcf8f6aceae2c57f",
        "analyze_summary": "eb19bb694d1e48722087ec63dd2d4d9d31ae27694a4a18a1ac5c0af37642322e",
        "b2b": "d7010608323abe9810002f0ef5061d1263cb6a79854f6097e54e62ba0bb3bc10",
        "calibrate": "32e0498404715c78391accb8b408749f1ebb0f435fc7fd6bb567989e5301492e",
        "report": "811f324ce233dc9361846b1a22d234330687b88c4d2a620034f621d4f82600d7",
        "report_json": "fcc2acbbba7b31000875fd989847e2ac375607dec7b74eb9d567dbdb46e463f1",
        "synth": "dc9aaaca6c2368ee8849446288dc1bcc1795227c33859d02587f88b392e89850",
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
    _run("calibrate", "--scenario", scenario, "--meas", out["synth"], "--ref", out["b2b"],
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
        pytest.fail(f"golden digests of '{name}' changed; actual:\n{table}\n"
                    f"{host_class.note()}")


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
    assert _sha256(meas) == GOLDEN[name]["synth"], host_class.note()


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
    assert _sha256(csv_out) == GOLDEN[name]["analyze_csv"], host_class.note()
    assert _sha256(summary) == GOLDEN[name]["analyze_summary"], host_class.note()
    cal, cal_csv = str(tmp_path / "cal.bin"), str(tmp_path / "metrics_cal.csv")
    _run("calibrate", "--scenario", scenario, "--meas", meas, "--ref", ref, "--out", cal,
         "--strict-hash")
    _run("analyze", "--scenario", scenario, "--cal", cal, "--out", cal_csv)
    assert _sha256(cal) == GOLDEN[name]["calibrate"], host_class.note()
    assert _sha256(cal_csv) == GOLDEN[name]["analyze_cal_csv"], host_class.note()


def test_a_failing_digest_names_the_host_class(tmp_path, monkeypatch):
    # the digests hold on the class of host they were recorded on; a
    # mismatch says which class it ran on, beside that one
    path = tmp_path / "meas.bin"
    path.write_bytes(b"not the pinned bytes")
    monkeypatch.setitem(GOLDEN, "static", {"synth": GOLDEN["static"]["synth"]})
    with pytest.raises(pytest.fail.Exception) as failed:
        _check("static", {"synth": str(path)})
    message = str(failed.value)
    assert (f"this host: OpenBLAS core {host_class.openblas_core()}, "
            f"numpy dispatch {host_class.numpy_dispatch()}") in message
    assert f"pins recorded on: {host_class.RECORDED}" in message
