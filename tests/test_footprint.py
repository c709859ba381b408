"""The libraries a command maps beyond what it computes with.

Each command runs on a tiny capture in a fresh child process, which
then lists the modules the command added to ``sys.modules``. No command
maps OpenSSL's libcrypto (~3.4 MiB): sha256 comes from the interpreter's
built-in module, and ``_rng``, the package's one import of numpy.random,
imports it with ``_hashlib`` hidden, so the ``secrets`` import of its
``bit_generator`` takes CPython's built-in digests. No command imports
``numpy.ma`` (~1.2 MiB, through ``np.median``'s NaN check), and,
at one thread, no command imports ``concurrent.futures`` or the
``logging`` that it imports (0.6 MiB): a one-thread process starts no
pool. Further children check that the hidden import leaves a process
that imports ``hashlib`` later with OpenSSL's constructors, and that no
draw depends on how numpy.random came to be imported.
"""

import hmac
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from a2gsounder._rng import stream
from a2gsounder.cli import main as cli_main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# run the command line given as arguments, then print, as a JSON list,
# the modules of WATCHED that it imported
PROBE = """
import json, sys
before = set(sys.modules)
from a2gsounder.cli import main
code = main(sys.argv[2:])
added = [name for name in json.loads(sys.argv[1]) if name in set(sys.modules) - before]
print(json.dumps(added))
sys.exit(code)
"""
NEVER = ["_hashlib", "numpy.ma"]
POOL = ["concurrent.futures", "logging"]


def run_child(code, *args, workers=1):
    """The JSON value of the last line a fresh child prints running ``code``."""
    env = dict(os.environ, A2GS_THREADS=str(workers), PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code, *args],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def added_modules(workers, *argv):
    """The modules of NEVER and POOL that one child ``a2gs`` imports."""
    return run_child(PROBE, json.dumps(NEVER + POOL), *argv, workers=workers)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Paths of a 16-port, 64-tone olin-static scenario, its one-burst
    capture, a two-snapshot reference and its metrics CSV."""
    tmp = tmp_path_factory.mktemp("tiny")
    paths = {key: str(tmp / name) for key, name in (
        ("scenario", "static.json"), ("meas", "meas.bin"), ("ref", "ref.bin"),
        ("metrics", "metrics.csv"))}
    with open(paths["scenario"], "w") as fh:
        json.dump({"preset": "olin-static", "array": {"columns": 4, "rows": 2},
                   "timing": {"ports_per_simo": 16}, "tone_plan": {"tone_count": 64},
                   "capture": {"burst_count": 1}}, fh)
    for argv in (["synth", "--scenario", paths["scenario"], "--out", paths["meas"]],
                 ["b2b", "--scenario", paths["scenario"], "--out", paths["ref"],
                  "--snapshots", "2"],
                 ["analyze", "--scenario", paths["scenario"], "--meas", paths["meas"],
                  "--ref", paths["ref"], "--out", paths["metrics"]]):
        assert cli_main(argv) == 0, argv
    return paths


# each command line with the tiny fixture's keys, and "out", in place of its paths
@pytest.mark.parametrize("workers, argv", [
    (1, ["analyze", "--scenario", "scenario", "--meas", "meas", "--ref", "ref", "--out", "out"]),
    (2, ["analyze", "--scenario", "scenario", "--meas", "meas", "--ref", "ref", "--out", "out"]),
    (1, ["calibrate", "--scenario", "scenario", "--meas", "meas", "--ref", "ref",
         "--out", "out"]),
    (1, ["report", "--metrics", "metrics", "--out", "out"]),
    (1, ["stability", "--ref", "ref", "--out", "out"]),
    (1, ["synth", "--scenario", "scenario", "--out", "out"]),
    (2, ["synth", "--scenario", "scenario", "--out", "out"]),
    (1, ["b2b", "--scenario", "scenario", "--out", "out", "--snapshots", "2"]),
    (2, ["b2b", "--scenario", "scenario", "--out", "out", "--snapshots", "2"]),
    (1, ["selftest"]),
], ids=["analyze-1", "analyze-2", "calibrate-1", "report-1", "stability-1",
        "synth-1", "synth-2", "b2b-1", "b2b-2", "selftest-1"])
def test_commands_map_no_openssl_numpy_ma_or_idle_pool(tiny, tmp_path, workers, argv):
    paths = dict(tiny, out=str(tmp_path / "out"))
    added = added_modules(workers, *[paths.get(arg, arg) for arg in argv])
    assert not set(added) & set(NEVER), added
    if workers == 1:
        assert added == [], added


def test_only_rng_names_numpy_random():
    naming = [path.name for path in sorted(Path(SRC, "a2gsounder").glob("*.py"))
              if path.name != "_rng.py"
              and re.search(r"\b(np|numpy)\.random\b", path.read_text())]
    assert naming == []


def draws(index):
    """Eight normals of one noise stream, as hex bytes."""
    return stream(20240301, 3, index).standard_normal(8).tobytes().hex()


# draw from one stream, then import hashlib and hmac as any later code would
LATER_HASHLIB = """
import json, sys
from a2gsounder._rng import stream
draw = stream(20240301, 3, 0).standard_normal(8).tobytes().hex()
hidden = "_hashlib" not in sys.modules
import _hashlib, hashlib, hmac
print(json.dumps({"draw": draw, "hidden": hidden,
                  "openssl": type(hashlib.sha256()) is _hashlib.HASH,
                  "hmac": hmac.new(b"key", b"message", "sha256").hexdigest(),
                  "none": sorted(name for name, module in sys.modules.items() if module is None)}))
"""


def test_hidden_import_leaves_hashlib_to_openssl():
    child = run_child(LATER_HASHLIB)
    assert child == {"draw": draws(0), "hidden": True, "openssl": True,
                     "hmac": hmac.new(b"key", b"message", "sha256").hexdigest(), "none": []}


def test_hashlib_imported_first_gets_the_same_draws():
    assert run_child("import hashlib, json\nfrom a2gsounder._rng import stream\n"
                     "print(json.dumps(stream(20240301, 3, 0).standard_normal(8).tobytes().hex()))"
                     ) == draws(0)


# an interpreter whose hmac cannot import without _hashlib
HMAC_NEEDS_OPENSSL = """
import json, sys
class NeedsOpenSSL:
    def find_spec(self, name, path, target=None):
        if name == "hmac" and sys.modules.get("_hashlib", 0) is None:
            raise ImportError("hmac requires _hashlib")
sys.meta_path.insert(0, NeedsOpenSSL())
from a2gsounder._rng import stream
print(json.dumps(stream(20240301, 3, 0).standard_normal(8).tobytes().hex()))
"""


def test_hmac_needing_openssl_falls_back_to_a_plain_import():
    assert run_child(HMAC_NEEDS_OPENSSL) == draws(0)


# first draws from four threads released together
THREADS = """
import json, sys, threading
from a2gsounder._rng import stream
start = threading.Barrier(4)
out = [None] * 4
def draw(index):
    start.wait()
    out[index] = stream(20240301, 3, index).standard_normal(8).tobytes().hex()
threads = [threading.Thread(target=draw, args=(index,)) for index in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(json.dumps(out + ["_hashlib" in sys.modules]))
"""


def test_first_draws_from_four_threads_equal_one_thread_draws():
    assert run_child(THREADS) == [draws(index) for index in range(4)] + [False]
