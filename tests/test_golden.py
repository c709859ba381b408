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
        "analyze_cal_csv": "2d1aaab35f00836cba1ed2111960ff40125dcdabb43a78f30148e539d74be577",
        "analyze_csv": "5afc72fd82de7cfd8be13cc7b6f35b8d69d281b99e77641bc973def8611d96e1",
        "analyze_json": "54ec0bc693b784d44126ba42442c3aa7629b84423143d4645adda2d53a158f11",
        "analyze_summary": "0f74076ff45042c3536ebe7a1f2cc4d2dd12b07804e5a60658edce8b532994b4",
        "b2b": "410c70a6c33a5161ac74f956a9c7cc5c4410433851224c393258af6f223475c7",
        "calibrate": "fda7876495acd9a5c7ba98ec5c8c9ae13207019efbf589cad38437c0af9d5bf6",
        "report": "1b37c066b51ca5662331553f38763d545e741682b647867743b9be3c5f096c5c",
        "report_json": "93e199e86d1a380fe235815dea03c896d535b86e62e1565161688493068a2d20",
        "synth": "1b4781cd572c2b5be0f1388639e1a932c48d2b6d65d14bcf276f6e07e3c9055a",
    },
    "hover": {
        "analyze_cal_csv": "3fda062b31ce45d561ec4406358e92719eb76754db3596acb5da6890bff84bfa",
        "analyze_csv": "c3e1299f059b023c25753d8bb774b945fceb8d41008bac9bb295162f089f7f8a",
        "analyze_json": "383f766e3494ffe0017cddff7834a94e61a6e870f386db9ba0d5627a2240254b",
        "analyze_summary": "0fdd0ac8ba8efb0e8e3c3ccc52c0d0bbccdc95cd7183069b2a27bb0d757618fd",
        "b2b": "12811457d1b2752381df95248768d8ea0311192f5c951db1fb804bb5dda2929f",
        "calibrate": "23899e573666f48fcae56fc20c02c9154b4bde69014c4e375350ce080c01c7fa",
        "report": "cc8af9d3206e9430af5eb36bae32c98f5c5d8274852d885f7134d343360fcd47",
        "report_json": "780474f916ab1dab53afe0d7d593f38f9461eee26e7e4fc2d90499f300e4a635",
        "synth": "e3aca4f1a49d441baecb9dd72e24a5e4e5798535ecfae3d7771f8941dc56c7b5",
    },
    "route": {
        "analyze_cal_csv": "a6af780df1432fffb20fd5da0e288846c1049fffe420627c222b66814540f119",
        "analyze_csv": "853d62566e947820fde579ecad0b2a85cf94bca26d2a544126f6f287f48c8923",
        "analyze_json": "d7512284c43a2f78ae38cabe7d9c8b8d7227f5ff411ec9e01f3c9a5e761089b3",
        "analyze_summary": "00c031b7a947d2452d7ba1130de1d73f8df90d100703e8759cbe71fa383c28c8",
        "b2b": "e17806098f3e8dd8961142b45b98c9a02643e25759a58cdd23772563036e0789",
        "calibrate": "5d3e3989b5c6c66f4e08bc075ec41b6849b3c23f21d9e4919a75edc7334c75ac",
        "report": "be8f7acab737f3dad389f60b0f312da629bffcf8a4def4c31476804615cacf56",
        "report_json": "f3e6ee2587faf642ac1baffedabc3bfd9864b8e6c8bef90d33885ed83b9c631d",
        "synth": "185c35f15704963b6bb59638e2821e87543467a62d147e71e9166e225ec930cd",
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
        "analyze_cal_csv": "27918730c637b825740698f46976bb4df30af15f420cc9b976032e40288a318b",
        "analyze_csv": "c86b76e935b8ff5fb0d9732678bdd267e34e17ba7e276b05618698ff6741c957",
        "analyze_json": "54ec0bc693b784d44126ba42442c3aa7629b84423143d4645adda2d53a158f11",
        "analyze_summary": "068ad2089125f01d992c44a54c15f327cd74d92da9740552d5da8f1001503e06",
        "b2b": "963af72271e722d4541eb37e4f9906a4fc8b895ef46430632a1a5f9d4dcc2ea0",
        "calibrate": "955ab0cb69e02732287c111ee86619b9f611d10b6c66f5d4cee864e47a13e14e",
        "report": "ce2abd8799c32484309f8eb73d763e08df08944b55f13ccd0f185ba1f4d6f3c0",
        "report_json": "93e199e86d1a380fe235815dea03c896d535b86e62e1565161688493068a2d20",
        "synth": "91d2d15ad6f820726eff753fe2d8453b0a06c1be01086da1e3586ed7bd9c97c5",
    },
    "hover": {
        "analyze_cal_csv": "9ccf4f3a6ab6a147e9202b6e2e0595a50bd2265d809d003e70c3a0dd358ab5e5",
        "analyze_csv": "9bb2d2c5d790e26db34506abda1858f17d889381ab636efeb4e62f3ee1921268",
        "analyze_json": "383f766e3494ffe0017cddff7834a94e61a6e870f386db9ba0d5627a2240254b",
        "analyze_summary": "5ac9ada2aedd0ee3d23e57ae21ba2d296d1cde78f7e4a0a670403e65886b629c",
        "b2b": "963af72271e722d4541eb37e4f9906a4fc8b895ef46430632a1a5f9d4dcc2ea0",
        "calibrate": "16fc49489cdfd09e59ea1e23b46a920050d4848112cecbe345a23eb33d9955fc",
        "report": "45ea9ad4be1394e0e5f8bdf5dd1b246144738675d32ed7e125180452130c2056",
        "report_json": "780474f916ab1dab53afe0d7d593f38f9461eee26e7e4fc2d90499f300e4a635",
        "synth": "c0b91aa40cbf4596a8c641febb874d7a56719e06211af87e49d6b29ac73d243c",
    },
    "route": {
        "analyze_cal_csv": "07b962cb44cf5b23a7295f193abb5166aefdc348024e7c544cc60356aec49e2d",
        "analyze_csv": "3e475b7eaffb50cdf15a418984d3e9b30328996514b6357dc2c15474750e4135",
        "analyze_json": "d7512284c43a2f78ae38cabe7d9c8b8d7227f5ff411ec9e01f3c9a5e761089b3",
        "analyze_summary": "6dff99ec9580579335e6692ef9510da0cbda72aa1300a682f44f4ebc79c5e96f",
        "b2b": "963af72271e722d4541eb37e4f9906a4fc8b895ef46430632a1a5f9d4dcc2ea0",
        "calibrate": "915cb70cc9da2728522dfe5761c7d82ec5db79c1a5f1f45ac38965d67b5cac1c",
        "report": "a9d15439d5e5c90bb02ffa2e1fdd5de3f5d0d37a2f00b233bb05fcc2cec04ceb",
        "report_json": "f3e6ee2587faf642ac1baffedabc3bfd9864b8e6c8bef90d33885ed83b9c631d",
        "synth": "4e4ad27b98fbef6eceb8c886610839baa75a0c1882479d4e59ea8834601f19f1",
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
