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
        "analyze_cal_csv": "5032e6446d706fa34e9690c28decc82ff6da88b2ec1f8d3e5795e82ef3b2dfa4",
        "analyze_csv": "7b5832eb153b1430a1f3b39d6720a8364f5a3817479111cec6c4fe59e0a52ec3",
        "analyze_json": "01b275165254d3d1d0ddc144f69e7dc9da98a62e32d5f84aaa4c559daf2ebbad",
        "analyze_summary": "db3208bf0a3bb7c260a655ed67aa8a67cf5c741bac2063d0ad14e48c9e64a89d",
        "b2b": "0f57311e12858768a4e2978fd6e951b75fd49368b2d35e89299ab61304c49e1f",
        "calibrate": "3cd1d5a2a00f47e6ef0fee932a365601b6b8cc7569452d49d8c48df84ea9f5e3",
        "report": "660c4e06b3abed169018bee2220dbedc20f5d5b0be9b4a3f84390b83cff3023c",
        "synth": "2fad6e4611bb50d9849a6ddb770bdd7b65347ceb227aba5577360829937e5fda",
    },
    "hover": {
        "analyze_cal_csv": "1b7fb0f3f3d7af51e3d3a6ea16c6d0453db7f37b386904b5f81419f6bd5fee0f",
        "analyze_csv": "2380820aa3a2fc1b90701d727ab7a3d5bc41d391c677c4c23a5104318055c8f8",
        "analyze_json": "66c4f9894a0c7fed73726d5e0ad16ff69801ab81cd1f887df9cdeddede3b08cf",
        "analyze_summary": "4aa9d7197ef695718c77f97c8d9cbb92eebf4a3c72dcbc911a557b1ebbe328b8",
        "b2b": "275704e22bd675147d9cd3ff3cc75606aa077aac311661f26f01460f9d4e849e",
        "calibrate": "a32ffb546028ce19b3d8e0ea4a52889b78ad6c5276c5da1d21bee8f633ba662c",
        "report": "16c1b9c11874d477964d3df3738417943d4c3143f57c355d6bce4d0eef8dacbd",
        "synth": "76254beef4da29b47402478f4522036c059ead445e5228ea7c23ec85f46dbbd2",
    },
    "route": {
        "analyze_cal_csv": "a4ca8ef47eaaafddb116c9158ed67edb38efb3f39f3482b0d08ccf124704986c",
        "analyze_csv": "9dee4a21009931ddc7f8bb0c916c3040a62aff939a32f316de4520f39e5f360d",
        "analyze_json": "896b138fd4a5aac8281653c38344935194d81b9655d1d7b13d89a8aa956aecec",
        "analyze_summary": "96b402fccc01925dd8b769854d2a0e66cf130eb3d8f59611c567678f28c808ef",
        "b2b": "437d1c7359c6ae4b84116429b130ffd8a365c0cab73d2e826ca1cffcf22383e3",
        "calibrate": "ab2a06c348b6b70a528f3487cbec3c00291361f22abc392e245497d064874b56",
        "report": "833cdebcd58badd30ed05819489423b7b7b2a0c138528411ffbc11affbb2650b",
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
