"""Golden-bytes gate: every CLI output of the shipped scenarios, pinned.

Each case runs the real ``a2gs`` command table in-process on one of the
``scenarios/*.json`` documents, with only the snapshot counts shrunk, and
compares the sha256 of every file it writes against the digests below.
A refactor that keeps these digests keeps the program's behaviour byte
for byte.

Each output also has a content digest (CONTENT) that leaves out the
config hash: a capture file's payload after its header, and a text
output less its ``# config_hash:`` line or ``"config_hash"`` field. A
schema change moves the hash, and so every file digest, but a change
that keeps the content digests has moved no other byte.

Re-pinning a digest is a behaviour change. Any change that re-pins one
must say in CHANGES.md which outputs moved and why; on a mismatch the
test prints the full table of actual digests to copy from.
"""

import hashlib
import json
import struct
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
        "analyze_cal_csv": "cc8b544fb71332979399bf0375c7d37ff281714723ee37673410ac091b80b67b",
        "analyze_csv": "5be8361793e3e23e31486704da610e9aa53031d9d32e8d28ae60fd52dfa902c5",
        "analyze_json": "913e0f92e629f4b0d9558a302933a09dd5f5b9f63fbd8c3bf1b51e0958580ec3",
        "analyze_summary": "8441ff64dd5e2f21757d8ef900b1456ffaa124b35977ec1c784e60cc80e787c1",
        "b2b": "28182316f75e579a7a89d3badf758b459c821da641ba91a0a33bdff8ecbf9707",
        "calibrate": "f1e6a2962b61c61a41ad38d91886e2888f449575d506afd9298b6a7baf1e3b48",
        "report": "638d9fd65f38d3c9ff4d77d4c9435eab648015556a67b52fdbffffba4a9af551",
        "report_json": "f6e2fed6960e940ab26dd6dec0b5876b0d99521b4887389b9aafda7c0c127337",
        "synth": "654b104699228d2b8b23942c74850387fcb5408caff6192bb60f60ac2b12d639",
    },
    "hover": {
        "analyze_cal_csv": "66e205b7e16795d6b73091f7ac0477205d6f98bdd3848822b230b773933e1cfa",
        "analyze_csv": "0287f61d173ac7cc0c0b42d353607df341b6e44bafe99371c1dc422b743c5b32",
        "analyze_json": "e70678abd3f6220fdfd9a2d025769015d0afa44bc328bc67977471f6a2ff412b",
        "analyze_summary": "3c070ec23b6936640fd11c1ea27897a9c1aec345b7d9778f81966dc28795a6cf",
        "b2b": "8f56208e2b4b93cd3855a1af2ecbabfb967af7eb7f1bcaad42bd660f2a99bb29",
        "calibrate": "88efab0b144e784710874d5cb2ae5badb85ba6d8ddf8010e7a7537223cb70ec5",
        "report": "35b53a7130f80e07652a8e25e906b4ef3d53aa75165fe28df00418fe59c32a97",
        "report_json": "ccece613803b2e39eceb1479ce4b6e69debb0fbd3e9d78bc0f40e62f684456f5",
        "synth": "1c0b4d72c7b39ddb72ba53ae383d8ea414aca93efefb577c2b186d838e1a5ef1",
    },
    "route": {
        "analyze_cal_csv": "8761aededc1f62d7a81879b8e279acd7dcf35410bd74a2ee3077dae17c9f8520",
        "analyze_csv": "3c3b86eb4b4a8a939538103fc9480d7180fbdacea245d8ff354a0dba9fbd8329",
        "analyze_json": "027b1b1b5352fbbdc012207f52b5fec6ddc593e902c94f09dcf8f6aceae2c57f",
        "analyze_summary": "304ba61f53d6bdc40106210be2cb445a780bae7987825aaee285d7141bc53aaa",
        "b2b": "4e72b4313d0b26545994ed1ea5e6687773978f8eb50eb22bb8fa5bd35c13ef66",
        "calibrate": "acc4df0c1bc77cc7aa7e89398d558782fdc0432bae053d66110c615563263a6a",
        "report": "553d5753698425ba7bdb795db1692939715103dffefa8d088686fa17399c3406",
        "report_json": "fcc2acbbba7b31000875fd989847e2ac375607dec7b74eb9d567dbdb46e463f1",
        "synth": "128ffda982977442c91cdfa7e4061ff889f93a53515f79f51fdccb840fc0196a",
    },
    "b2b-stability": {
        "b2b": "d05289a6bd6deb01ac68d0075f565f79c44ee48717796c57fbf23d2bda093ff4",
        "stability": "425576ad8501605c94ed81152696429d53ea87125651f237068c63f0aed22bc2",
        "stability_json": "9bee1e4f84064918840dc354edb1a3fcb367f5dc0976e592ee9d53fd9f69de21",
    },
}

# the same outputs without the config hash (see _content_sha256)
CONTENT = {
    "static": {
        "analyze_cal_csv": "20d487dcded80f77d912f1f6664dc64c2adf90b8cbc157251c7d40c5ef567232",
        "analyze_csv": "3d9eae3238371eb37154313dd2e84845e0ed4ef248daf8e66aa676a402842a7a",
        "analyze_json": "913e0f92e629f4b0d9558a302933a09dd5f5b9f63fbd8c3bf1b51e0958580ec3",
        "analyze_summary": "e75a4f5887445f554c7ea25265bca0cbbc363a4eb73d58ff1cae7281a81d7b32",
        "b2b": "13164c1b96341c9bdbab320df813eb7ca320644223810f5a4f0e91a0fbd47648",
        "calibrate": "e57f0e230dbadcd148e830e7aa448c2b2594d40a452a3940cf1c3244ba09f8a5",
        "report": "7f7c02669f0ae6124f459e0675bf03f1f31d8121539c11b652bee3bf71f88a52",
        "report_json": "f6e2fed6960e940ab26dd6dec0b5876b0d99521b4887389b9aafda7c0c127337",
        "synth": "e3b4ef7b534ef6d92d8674b20e5e4d7c4e1772823423351ccd9dd0c1eef767d1",
    },
    "hover": {
        "analyze_cal_csv": "7e98b3c6f47278d0029631d0c38d9f0c8bfbd9c00c609044af56d0a5776d9814",
        "analyze_csv": "d0cc45e1f65fea99ef7589247002dc24076912b70eb1d34e87c9c2ae6c383fd0",
        "analyze_json": "e70678abd3f6220fdfd9a2d025769015d0afa44bc328bc67977471f6a2ff412b",
        "analyze_summary": "3c4bf0529c2225fd07bfe9957e425cc5f9215bfc868f498a2a3c0d3b9538f79e",
        "b2b": "13164c1b96341c9bdbab320df813eb7ca320644223810f5a4f0e91a0fbd47648",
        "calibrate": "ec9c3082fb8a076b5fcba8fc4197f32e6a415acd21dfa35b45bf074a4a4a0417",
        "report": "cb21746adc30da2dc0b6427d8f9ab9093d5d77b98ec00e01cfd20a611e775cc5",
        "report_json": "ccece613803b2e39eceb1479ce4b6e69debb0fbd3e9d78bc0f40e62f684456f5",
        "synth": "b08dd9505cd8476705b7918fb1a11f9996cf8d9103800f2dbce0d3946fcdefd7",
    },
    "route": {
        "analyze_cal_csv": "13e232e8b6182d0d291534c05d08bad114c00f0027f5dc34bf62d8226da08464",
        "analyze_csv": "07adbf7256ca3383a53f66c987b6cc53f76b9b8ef5fd0100bd82459e38a455c5",
        "analyze_json": "027b1b1b5352fbbdc012207f52b5fec6ddc593e902c94f09dcf8f6aceae2c57f",
        "analyze_summary": "b237a74a91a79feb5eb7f8965e93997563b7a30a14873d7f9fe862c8508cc816",
        "b2b": "13164c1b96341c9bdbab320df813eb7ca320644223810f5a4f0e91a0fbd47648",
        "calibrate": "b2268a59fe42507cd260ff6b947e1378e324233dcb0d9f7d4728e337f1098f5b",
        "report": "48ec7d96c7fcf35a8f8c02e38a670d34242d09eace5daa3f5495b9f7e5e24475",
        "report_json": "fcc2acbbba7b31000875fd989847e2ac375607dec7b74eb9d567dbdb46e463f1",
        "synth": "6bb310700fec716052d5ec841e95a4f1f44c270bd65ed9bca12a23df77fe9b0c",
    },
    "b2b-stability": {
        "b2b": "755db79bb56f97fc0fcace00d93340b39c9e61e8c954477c9ae46d2018dd8734",
        "stability": "89df4f7c2c3ea4702a244a524a7fa497891d2c4a0729e477680d84dbd1f1e4ec",
        "stability_json": "9bee1e4f84064918840dc354edb1a3fcb367f5dc0976e592ee9d53fd9f69de21",
    },
}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _content_sha256(path):
    """sha256 of a file without its config hash: a capture's payload
    after the header, or a text file less its config_hash line."""
    data = Path(path).read_bytes()
    if data.startswith(b"A2GS"):
        (length,) = struct.unpack_from("<I", data, 8)
        data = data[12 + length:]
    else:
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith((b"# config_hash:", b'"config_hash":')))
    return hashlib.sha256(data).hexdigest()


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


def _table(digests):
    return "\n".join(f'        "{key}": "{digest}",' for key, digest in sorted(digests.items()))


def _check(name, outputs):
    actual = {key: _sha256(path) for key, path in outputs.items()}
    content = {key: _content_sha256(path) for key, path in outputs.items()}
    if actual != GOLDEN[name] or content != {key: CONTENT[name][key] for key in outputs}:
        pytest.fail(f"golden digests of '{name}' changed; actual:\n{_table(actual)}\n"
                    f"content:\n{_table(content)}\n{host_class.note()}")


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
