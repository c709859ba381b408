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
        "analyze_cal_csv": "d3569e7aebc58e50716069f2a03002bcda742dca849a1e6efd397e0dd02a7331",
        "analyze_csv": "079fffc67dcc8d3d99f23d5f0b4306b886e8b2f711f43ad2500adfcd322f1c19",
        "analyze_json": "dde0a8c45976c61f0361aaf0e11a63e24d230c4565dc8c9e14750b852fd68623",
        "analyze_summary": "3f754c8caf6be0cd4bf16015624816f701dc399c32e996780cd6d5a5e197eba1",
        "b2b": "0f57311e12858768a4e2978fd6e951b75fd49368b2d35e89299ab61304c49e1f",
        "calibrate": "89b5e3b8ee5abcb955e08dcc137b960353c769ff36418bd1fbde155c381a907b",
        "report": "3731feafd54cac4d6b03154a3df128eff569d9b0eb45b0c28c0bd5fa436ef124",
        "report_json": "4153bd5f033e16995f25bdf920951bd409222bad3e08d867148a0bbe92caf55c",
        "synth": "ee4689609c9dd3333085c78a2e3b399333665f426c53b1523e38fc5f73bc21c6",
    },
    "hover": {
        "analyze_cal_csv": "575ef8f7994b05d730ac74876009d934f0b444ed7a3ed8cc41b264ef66f302f3",
        "analyze_csv": "d73186bf7fe443f9393aab414f14d4c995770816bee47b4c1ec10a9249a9c7c3",
        "analyze_json": "2b48c48ae2953852d2093074762e0f60b1f0a4e69611b9721f825dca21cbf87a",
        "analyze_summary": "0eb45c3166866b515c31985e02ac537683148cf8223b9400efa0dd63dd3580e0",
        "b2b": "275704e22bd675147d9cd3ff3cc75606aa077aac311661f26f01460f9d4e849e",
        "calibrate": "9254264bed230decb7959630b64882b5617ab6d9b1a107715039eaf70fa680b9",
        "report": "b51d73789fc121914f8f4aa3ac44cb22895a21de525c1dac54b88dde09bc5d66",
        "report_json": "e01a7c84b3a2eb1df3b0a187baac83b246084df0b27995a537fbc31f85c0dcd7",
        "synth": "08cb6fcf3aedaddfdd2f2b3b9461e899c37a4e2eadc1bf6393b7ce435bc469fd",
    },
    "route": {
        "analyze_cal_csv": "7a8b25a048d5b93b818366cf11891e22cda3863a19530753042ac246b8a572db",
        "analyze_csv": "8f3df7dd4357d81b07de760f2eebfaf42e4f59ba0924cff25bc6ab050d212327",
        "analyze_json": "ad3cc720d0a231c6585005d22fd3e0107262f4dda2b4ccc5b7e393f1d0070eca",
        "analyze_summary": "e8d406a0faa0e33586836de53b93696cfcfea2274056bce3882dce2e3aee7f62",
        "b2b": "437d1c7359c6ae4b84116429b130ffd8a365c0cab73d2e826ca1cffcf22383e3",
        "calibrate": "00e5010aa79e826c30cfae0fb08196ba994d4280818f2e106099d18bcccf5cfc",
        "report": "d63f9821faddbfbe48baf0ec7eb5a027ff18222b8a98af2c56ee75444689e818",
        "report_json": "04fdce6cc0f17395876e1241b04f3645017ff0345798e29d8257d0f8f92ba8c9",
        "synth": "a8e05c306a0e5d263f49cb441f3bdafb81608900ac5250b94a51c128df5b902d",
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
