"""The libraries a command maps beyond what it computes with.

Each command runs on a tiny capture in a fresh child process, which
then lists the modules the command added to ``sys.modules``. Only
``synth`` and ``b2b`` draw from numpy.random, whose ``secrets`` import
maps OpenSSL's libcrypto through ``hashlib`` (~3.5 MiB). Every other
command takes sha256 from the interpreter's built-in module, never
imports ``numpy.ma`` (~1.2 MiB, through ``np.median``'s NaN check), and,
at one thread, never imports ``concurrent.futures`` or the ``logging``
that it imports (0.6 MiB): a one-thread process starts no pool.
"""

import json
import os
import subprocess
import sys

import pytest

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


def added_modules(workers, *argv):
    """The modules of NEVER and POOL that one child ``a2gs`` imports."""
    env = dict(os.environ, A2GS_THREADS=str(workers), PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", PROBE, json.dumps(NEVER + POOL), *argv],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


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


# each command line with the tiny fixture's keys in place of its paths
@pytest.mark.parametrize("workers, argv", [
    (1, ["analyze", "--scenario", "scenario", "--meas", "meas", "--ref", "ref"]),
    (2, ["analyze", "--scenario", "scenario", "--meas", "meas", "--ref", "ref"]),
    (1, ["calibrate", "--scenario", "scenario", "--meas", "meas", "--ref", "ref"]),
    (1, ["report", "--metrics", "metrics"]),
    (1, ["stability", "--ref", "ref"]),
], ids=["analyze-1", "analyze-2", "calibrate-1", "report-1", "stability-1"])
def test_analysis_commands_map_no_openssl_numpy_ma_or_idle_pool(tiny, tmp_path, workers, argv):
    added = added_modules(workers, *[tiny.get(arg, arg) for arg in argv],
                          "--out", str(tmp_path / "out"))
    assert not set(added) & set(NEVER), added
    if workers == 1:
        assert added == [], added
