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
        "analyze_cal_csv": "29a50434f0b580d54b43a570c5a4a955b57b05b650f87b89a746bdc0a6f80687",
        "analyze_csv": "506fbff54dd9944d7d853238bd52f9fbb7dbd09732b8433882979371bb9c0784",
        "analyze_json": "006eefc949add793f86952775a927f31df2f8f48f7669873e3b0d9d3d79af4a7",
        "analyze_summary": "9b3bffee4dd1d4be8a74d6421dfd9da3b1ed6f886d221070ca95052954f140f0",
        "b2b": "28182316f75e579a7a89d3badf758b459c821da641ba91a0a33bdff8ecbf9707",
        "calibrate": "f1e6a2962b61c61a41ad38d91886e2888f449575d506afd9298b6a7baf1e3b48",
        "report": "7fc49ce9e28ed13c2aa234ec9cfe0b7849c084030cdf1ca1f7127fe885a20cab",
        "report_json": "612103b767131a80d8ceb39daf8ba406449ec66af02cbaf50678df5c9b95e7a8",
        "synth": "654b104699228d2b8b23942c74850387fcb5408caff6192bb60f60ac2b12d639",
    },
    "hover": {
        "analyze_cal_csv": "55822b3cefe71e22c5bcc19cda6cc31240cd8b98ea515699ac932189f8bf5eb9",
        "analyze_csv": "7233a65918fa39620a32b4e6474ce0f41cd0e0eb83ab8ad6fc560625db0be600",
        "analyze_json": "e7af6afee82f4be008e918de1ca9d062955a42010439d0281035d7a3e2e7790b",
        "analyze_summary": "7bc7cac4b662a3cd16966d0567f6d6d2f89727a07adaed0a4ffd7e31cf8362ee",
        "b2b": "8f56208e2b4b93cd3855a1af2ecbabfb967af7eb7f1bcaad42bd660f2a99bb29",
        "calibrate": "88efab0b144e784710874d5cb2ae5badb85ba6d8ddf8010e7a7537223cb70ec5",
        "report": "22d634aa50b7679866b1beb72e40ee59c725e661da407e3c5d109f74da619a7d",
        "report_json": "49a6ef462bfe7702076c3511d125ab52d2fb85bec334720aeff8239664f24414",
        "synth": "1c0b4d72c7b39ddb72ba53ae383d8ea414aca93efefb577c2b186d838e1a5ef1",
    },
    "route": {
        "analyze_cal_csv": "00b44d4511b08f50ecc3f0e2b59e1736e3addef1981b2d71b231f2273ad051e6",
        "analyze_csv": "c90dbfaac0a49cb013a213a358f73698a53a97387f31034be77fb141d5099f54",
        "analyze_json": "7d63be00ad5e64fa1563b89c1f64dacfed806cc0321191c7766c45bc77a54e7d",
        "analyze_summary": "313e0792ce93ef0e98a14ca91c0929bd7faf25f05aefc3f3fa39e01fd9008d12",
        "b2b": "4e72b4313d0b26545994ed1ea5e6687773978f8eb50eb22bb8fa5bd35c13ef66",
        "calibrate": "acc4df0c1bc77cc7aa7e89398d558782fdc0432bae053d66110c615563263a6a",
        "report": "a76628ba8acab8ea40e918b35e0e8aa8f96f57ee5884da569a2b69c7100b58f2",
        "report_json": "b07473ca15f1f208ffea70913b68a84b8b50719c45f85b6493f8f9c2c72e696b",
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
        "analyze_cal_csv": "b01403d72f94801c0dab40a1ce63f83de358ae0026197e6267710e8c38b9b5a7",
        "analyze_csv": "56529915e8ff0dc92f691efc19cae967cc8dc27bd4fe02efc7fdf277a6588ff8",
        "analyze_json": "006eefc949add793f86952775a927f31df2f8f48f7669873e3b0d9d3d79af4a7",
        "analyze_summary": "04f80415bb03feace7815ea25ca960097ca0bdc176a1ea0d449f5ac7b60d8a55",
        "b2b": "13164c1b96341c9bdbab320df813eb7ca320644223810f5a4f0e91a0fbd47648",
        "calibrate": "e57f0e230dbadcd148e830e7aa448c2b2594d40a452a3940cf1c3244ba09f8a5",
        "report": "0f58582bec7b833970d218451c7dc136219a15a98969de48d5fc33e9276f2e6b",
        "report_json": "612103b767131a80d8ceb39daf8ba406449ec66af02cbaf50678df5c9b95e7a8",
        "synth": "e3b4ef7b534ef6d92d8674b20e5e4d7c4e1772823423351ccd9dd0c1eef767d1",
    },
    "hover": {
        "analyze_cal_csv": "7366a6f1ed282ca4f06d6514a2d6a614f5ce52686a58860eb562b68ac710cd6e",
        "analyze_csv": "16e042c77dfb78157f72ea2dca8bd82fc5b7f4cd8db154381942d49e5daf8d0c",
        "analyze_json": "e7af6afee82f4be008e918de1ca9d062955a42010439d0281035d7a3e2e7790b",
        "analyze_summary": "c0749dd813be7c9b71138fec600c9922f025e906d9913abfec76bb5eae09dc92",
        "b2b": "13164c1b96341c9bdbab320df813eb7ca320644223810f5a4f0e91a0fbd47648",
        "calibrate": "ec9c3082fb8a076b5fcba8fc4197f32e6a415acd21dfa35b45bf074a4a4a0417",
        "report": "f831723ba5b0257e137dc8752f4c22e0f2b8a0834f6cc01b933d33ede3ecb019",
        "report_json": "49a6ef462bfe7702076c3511d125ab52d2fb85bec334720aeff8239664f24414",
        "synth": "b08dd9505cd8476705b7918fb1a11f9996cf8d9103800f2dbce0d3946fcdefd7",
    },
    "route": {
        "analyze_cal_csv": "84d4c0a26a7236b2e99cbce245a0382226eac71f7aff60047b00859043a3179f",
        "analyze_csv": "44f800e449e952e26bbf582aeb1d7b32320fca51fc090c24c526bbc7836728be",
        "analyze_json": "7d63be00ad5e64fa1563b89c1f64dacfed806cc0321191c7766c45bc77a54e7d",
        "analyze_summary": "2db44a6e4d2d61b3a996f441b9358711b4e9b1eb133a874be424ee69f4539b27",
        "b2b": "13164c1b96341c9bdbab320df813eb7ca320644223810f5a4f0e91a0fbd47648",
        "calibrate": "b2268a59fe42507cd260ff6b947e1378e324233dcb0d9f7d4728e337f1098f5b",
        "report": "35edf4258c6e9436b121e4784e29ac37329eb6b2483413b268ae16d04085a68d",
        "report_json": "b07473ca15f1f208ffea70913b68a84b8b50719c45f85b6493f8f9c2c72e696b",
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
