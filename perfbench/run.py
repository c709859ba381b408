"""End-to-end benchmark of the ``a2gs`` command line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload writes a scenario from the seed, then repeats one *flow*
(the CLI commands that turn that scenario into capture files and the
capture files into metrics) until S seconds have passed. Every command
runs in a fresh child process, one at a time, so wall time, set-up time
and peak RSS are what a user of the CLI pays. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics (medians over the flows) with
``--trace 0``, the per-layer metrics of traced flows with ``--trace 1``.
See README.md beside this file for the workloads and every metric.
"""

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

COMMAND_TIMEOUT_S = 150.0  # a command that hangs is killed and failed
FLOW_START_LIMIT_S = 110.0  # no flow starts that could end past this

END_TO_END = [
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("analyze_s", "s"),
    ("snapshots_per_s", "1/s"),
    ("synth_peak_rss_mb", "MB"),
    ("analyze_peak_rss_mb", "MB"),
]

SCENARIO = "scenario.json"
MEAS_SYNTH = [
    ("synth", ["synth", "--scenario", SCENARIO, "--out", "meas.bin"]),
    ("synth", ["b2b", "--scenario", SCENARIO, "--out", "ref.bin", "--snapshots", "2"]),
]
MEAS_ANALYZE = [
    ("analyze", ["analyze", "--scenario", SCENARIO, "--meas", "meas.bin", "--ref", "ref.bin",
                 "--out", "metrics.csv", "--summary", "summary.json"]),
    ("analyze", ["report", "--metrics", "metrics.csv", "--out", "route.csv"]),
]


@dataclass(frozen=True)
class Workload:
    threads: str
    document: dict
    size: tuple  # (full, smoke) burst_count, or b2b_snapshot_count for B2B
    snapshots_per_burst: int
    commands: list = field(default_factory=lambda: MEAS_SYNTH + MEAS_ANALYZE)
    capture: str = "meas.bin"
    check: str = "rows"
    same_as_one_thread: bool = False


WORKLOADS = {
    # The cached noise-free response makes channel_synth nearly idle here.
    # This workload isolates noise generation (capture_sim), capture I/O and
    # the per-snapshot processing chain, and is the "no change" control for
    # synthesis-kernel work. Not in BENCHMARK.json (see README.md).
    "static-102": Workload(
        threads="1", document={"preset": "olin-static"},
        size=(34, 2), snapshots_per_burst=3, check="static"),
    # It runs 96 x 128 per-slot synthesize_paths and port_response_row
    # calls, so channel_synth and array_geometry dominate. The same analysis
    # cost as static-102 sits beside it.
    "route-96": Workload(
        threads="1",
        document={"preset": "paper-route",
                  "timing": {"simos_per_burst": 1, "burst_rate": 1.6}},
        size=(96, 4), snapshots_per_burst=1, check="route"),
    # It is the only workload that exercises the pipeline thread pool. It
    # also covers the partial base-response cache. The finding that analyze
    # slows at 2 threads shows only here.
    "hover-102-t2": Workload(
        threads="2", document={"preset": "olin-hover"},
        size=(34, 2), snapshots_per_burst=3, same_as_one_thread=True),
    # It writes and reads a large file but uses only one port of it. It
    # covers calibration.stability_stats and is the workload whose
    # analyze_peak_rss_mb streaming and mmap reads should move.
    "b2b-400": Workload(
        threads="1", document={"preset": "olin-static", "capture": {"b2b_snr_db": None}},
        size=(400, 8), snapshots_per_burst=1,
        commands=[("synth", ["b2b", "--scenario", SCENARIO, "--out", "b2b.bin"]),
                  ("analyze", ["stability", "--ref", "b2b.bin", "--port", "0",
                               "--out", "stability.csv"])],
        capture="b2b.bin", check="stability"),
}


def scenario(workload, seed, smoke):
    """The scenario document of a workload: every seed derives from ``seed``."""
    doc = json.loads(json.dumps(workload.document))
    count = workload.size[1 if smoke else 0]
    capture = doc.setdefault("capture", {})
    capture.update({"noise_seed": seed, "b2b_noise_seed": seed + 1})
    capture["b2b_snapshot_count" if workload.check == "stability" else "burst_count"] = count
    doc["system"] = {"seed": seed + 2}
    if doc["preset"] == "olin-hover":
        doc["trajectory"] = {"wobble": {"seed": seed + 3}}
    return doc


@dataclass
class Command:
    phase: str
    ok: bool
    wall_s: float
    setup_s: float
    rss_mb: float
    spans_file: Path = None


class Tally:
    """Operations attempted and failed: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for message in failures[:5]:
                print(f"FAILED {what}: {message}", file=sys.stderr)


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["A2GS_THREADS"] = threads
    return env


def run_child(argv, cwd, env, log):
    """Run ``argv`` to completion; returns (exit code, wall s, start, rusage)."""
    with open(log, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return proc.returncode, end - start, start, usage


def run_command(phase, args, cwd, env, tag, traced):
    ready = cwd / f"{tag}.ready"
    ready.unlink(missing_ok=True)
    spans_file = cwd / f"{tag}.spans.jsonl" if traced else None
    argv = [sys.executable, str(HERE / "launch.py"), str(ready),
            str(spans_file) if traced else "-"] + args
    code, wall, start, usage = run_child(argv, cwd, env, cwd / f"{tag}.log")
    try:
        setup = float(ready.read_text()) - start
    except (OSError, ValueError):
        setup = math.nan
    return Command(phase, code == 0, wall, setup, usage.ru_maxrss * 1024 / 1e6, spans_file)


def run_flow(steps, cwd, env, tag, traced, tally):
    """Run (phase, args) steps in order; stops at the first failing one."""
    commands = []
    for k, (phase, args) in enumerate(steps):
        name = f"{tag}-{k}-{args[0]}"
        command = run_command(phase, args, cwd, env, name, traced)
        tally.add(f"a2gs {args[0]}", [] if command.ok else [f"exit code != 0, see {name}.log"])
        commands.append(command)
        if not command.ok:
            break
    return commands


def flow_metrics(commands, snapshots):
    synth = [c for c in commands if c.phase == "synth"]
    analyze = [c for c in commands if c.phase == "analyze"]
    synth_s = sum(c.wall_s for c in synth)
    analyze_s = sum(c.wall_s for c in analyze)
    return {
        "setup_s": sum(c.setup_s for c in commands),
        "synth_s": synth_s,
        "analyze_s": analyze_s,
        "snapshots_per_s": snapshots / (synth_s + analyze_s),
        "synth_peak_rss_mb": max((c.rss_mb for c in synth), default=0.0),
        "analyze_peak_rss_mb": max((c.rss_mb for c in analyze), default=0.0),
    }


def check_outputs(workload, cwd, snapshots, seed):
    if workload.check == "static":
        failures = checks.check_static(cwd / "metrics.csv", snapshots)
    elif workload.check == "route":
        failures = checks.check_route(cwd / "metrics.csv", snapshots)
    elif workload.check == "stability":
        return checks.check_stability(cwd / "stability.csv", snapshots, seed + 2)
    else:
        failures = checks.check_rows(cwd / "metrics.csv", snapshots)
    return failures + checks.check_rows(cwd / "route.csv", snapshots)


def check_rewrite(workload, cwd, env, tally):
    """A capture file read and written back comes back byte for byte."""
    original = cwd / workload.capture
    copy = cwd / "rewritten.bin"
    code, _, _, _ = run_child([sys.executable, str(HERE / "checks.py"), "rewrite",
                               str(original), str(copy)], cwd, env, cwd / "rewrite.log")
    failures = [f"rewrite exited with {code}, see rewrite.log"] if code else \
        checks.same_bytes(original, copy)
    copy.unlink(missing_ok=True)
    tally.add("capture rewrite", failures)


def check_one_thread(workload, cwd, tally):
    """The metrics CSV does not depend on A2GS_THREADS."""
    single = cwd / "threads-1"
    single.mkdir()
    shutil.copy(cwd / SCENARIO, single / SCENARIO)
    steps = workload.commands[:3]  # synth, b2b, analyze
    commands = run_flow(steps, single, child_env("1"), "t1", False, tally)
    if len(commands) == len(steps) and commands[-1].ok:
        tally.add("metrics independent of A2GS_THREADS",
                  checks.same_bytes(cwd / "metrics.csv", single / "metrics.csv"))
    remove_captures(single)


def remove_captures(directory):
    for path in directory.glob("*.bin"):
        path.unlink()


def median_metrics(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run(workload_name, seed, seconds, trace, smoke=False):
    workload = WORKLOADS[workload_name]
    cwd = WORK / workload_name
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    env = child_env(workload.threads)
    snapshots = workload.size[1 if smoke else 0] * workload.snapshots_per_burst
    (cwd / SCENARIO).write_text(json.dumps(scenario(workload, seed, smoke), indent=2) + "\n")

    # untimed: records the machine and warms the bytecode and file caches
    code, _, _, _ = run_child([sys.executable, str(HERE / "provenance.py")], cwd, env,
                              cwd / "provenance.json")
    if code == 0:
        print("provenance " + (cwd / "provenance.json").read_text().strip())

    tally = Tally()
    plain, traced = [], []
    begin = time.monotonic()
    longest = 0.0
    for index in itertools.count():
        remove_captures(cwd)  # each flow writes new files, as a user's run would
        flow_start = time.monotonic()
        use_trace = trace and index % 2 == 1  # a traced flow follows each plain one
        commands = run_flow(workload.commands, cwd, env, f"flow{index}", use_trace, tally)
        longest = max(longest, time.monotonic() - flow_start)
        complete = len(commands) == len(workload.commands) and commands[-1].ok
        if complete:
            tally.add("output checks", check_outputs(workload, cwd, snapshots, seed))
            if use_trace:
                traced.append(spans.layer_metrics(
                    [(c.phase, c.wall_s, spans.load(c.spans_file)) for c in commands]))
            else:
                plain.append(flow_metrics(commands, snapshots))
                print(f"flow {index}: {json.dumps(plain[-1])}", file=sys.stderr)
        elapsed = time.monotonic() - begin
        if not complete or elapsed + longest > FLOW_START_LIMIT_S:
            break
        if elapsed >= seconds and (traced or not trace):
            break

    if plain or traced:
        check_rewrite(workload, cwd, env, tally)
        if workload.same_as_one_thread:
            check_one_thread(workload, cwd, tally)
    remove_captures(cwd)

    if trace:
        metrics = median_metrics(traced) if traced else {}
        if traced:
            metrics["trace.overhead_s"] = (
                statistics.median(r["trace.synth_s"] + r["trace.analyze_s"] for r in traced)
                - statistics.median(r["synth_s"] + r["analyze_s"] for r in plain))
        units = [(name, unit) for name, unit, _ in spans.LAYER_METRICS]
    else:
        metrics = median_metrics(plain) if plain else {}
        units = END_TO_END
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny snapshot counts, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the command it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "a2gsounder" / "cli.py").is_file():
        print(f"error: no a2gsounder sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
