"""Command-line surface.

Subcommands:
  synth      scenario -> measurement capture file
  b2b        scenario -> back-to-back reference file
  calibrate  meas + ref + attenuator -> calibrated (CAL) file
  analyze    meas + ref (or CAL file) -> per-snapshot metrics + summary
  stability  B2B series -> relative amplitude/phase CSV
  report     metrics CSV -> route table CSV or JSON
  selftest   run the built-in invariant suite

Exit codes: _EXIT_CODES gives a library error's code by its type, _Exit
carries the code of what the CLI checks itself; README lists them all.

Snapshots and rows stream: no command holds a series. Every output file
goes through capture_file.replacing, so a failed command leaves none.
"""

import argparse
import contextlib
import csv
import ctypes
import json
import sys
from array import array

from .calibration import CalibrationError, stability_stats
from .capture_file import (CaptureFileError, HashMismatch, read_capture,
                           replacing, write_capture)
from .capture_sim import AttenuatorModel
from .channel_synth import SceneError
from .config import SchemaError, parse_scenario
from .pipeline import (REPORT_FIELDS, SUMMARY_FIELDS, analyze_records, b2b_layout,
                       calibrate_records, calibrated_layout, report_rows,
                       run_b2b, run_synthesis, stability_rows, summarize,
                       synthesis_layout, thread_count, write_rows_csv, write_rows_json)
from .processing import AnalysisError
from .selftest import run_selftest

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_SCHEMA = 2
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_DIMENSION = 5
EXIT_HASH = 6

# Library error types and their exit codes; the first type that matches wins.
_EXIT_CODES = (
    (HashMismatch, EXIT_HASH),
    (CaptureFileError, EXIT_FORMAT),
    (SchemaError, EXIT_SCHEMA),
    (SceneError, EXIT_SCHEMA),
    (CalibrationError, EXIT_DIMENSION),
    (AnalysisError, EXIT_DIMENSION),
)


def _load_scenario(path, seed_override=None):
    try:
        with open(path) as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise _Exit(EXIT_MISSING_FILE, f"scenario file not found: {path}")
    except ValueError as exc:  # not UTF-8, or not JSON
        raise _Exit(EXIT_SCHEMA, f"scenario file is not valid JSON: {exc}")
    if seed_override is not None and isinstance(document, dict):
        seeds = {"capture": {"noise_seed": seed_override,
                             "b2b_noise_seed": seed_override + 1},
                 "system": {"seed": seed_override + 2}}
        for section, values in seeds.items():
            # a section that is not an object is left for parse_scenario to reject
            if isinstance(document.setdefault(section, {}), dict):
                document[section].update(values)
    return parse_scenario(document)


class _Exit(Exception):
    """An error whose exit code the CLI sets itself, not by its type."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path, record_type, expected_hash=None, strict=False):
    """Open a capture file whose header must carry ``record_type``; its
    snapshots are read later, as they are used."""
    try:
        records, header = read_capture(path, expected_config_hash=expected_hash,
                                       strict_hash=strict)
    except FileNotFoundError:
        raise _Exit(EXIT_MISSING_FILE, f"capture file not found: {path}")
    if header["record_type"] != record_type:
        raise CaptureFileError(f"{path} is a {header['record_type']} file, "
                               f"expected {record_type}")
    return records, header


def _keep_heap_mapped():
    """Keep freed heap memory mapped for the rest of the process.

    Each snapshot of synth, calibrate and analyze allocates and frees
    several 3.8 MB ports x tones arrays; by default glibc hands them
    back to the kernel and the next snapshot faults every page in again.
    It takes both settings: setting either one stops glibc's dynamic
    adjustment of the other, so a raised trim threshold alone leaves
    every array of 128 KiB or more to its own mmap and munmap, and a
    raised mmap threshold alone puts those arrays on the heap, whose top
    is still given back whenever more than 128 KiB of it is free. A no-op
    where the C library is not glibc. Only the CLI calls it, because it
    owns its process.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (AttributeError, OSError):  # not glibc
        return
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's documented 64-bit maximum


def _attenuator(args, config=None):
    if args.attenuator_db is None:
        return config.attenuator if config is not None else AttenuatorModel()
    try:
        return AttenuatorModel(nominal_loss_db=args.attenuator_db)
    except ValueError as exc:
        raise _Exit(EXIT_SCHEMA, f"--attenuator-db: {exc}")


def cmd_synth(args):
    _keep_heap_mapped()
    config = _load_scenario(args.scenario, args.seed)
    layout = synthesis_layout(config)
    write_capture(args.out, run_synthesis(config), config_hash=config.scenario_hash,
                  geometry_hash=config.geometry.content_hash(), layout=layout)
    print(f"wrote {len(layout.timestamps)} snapshots to {args.out}")
    return EXIT_OK


def cmd_b2b(args):
    if args.snapshots is not None and args.snapshots < 1:
        raise _Exit(EXIT_SCHEMA, f"--snapshots must be >= 1, got {args.snapshots}")
    config = _load_scenario(args.scenario, args.seed)
    layout = b2b_layout(config, snapshot_count=args.snapshots)
    write_capture(args.out, run_b2b(config, snapshot_count=args.snapshots),
                  config_hash=config.scenario_hash,
                  geometry_hash=config.geometry.content_hash(), layout=layout)
    print(f"wrote {len(layout.timestamps)} B2B snapshots to {args.out}")
    return EXIT_OK


def _calibrated(args, config=None, expected_hash=None):
    """Open --meas, then --ref against the measurement's config hash, and
    check the reference; returns (an ordered iterator of calibrated
    records, the --meas CaptureFile, its header). A measurement that
    does not fit the reference raises CalibrationError as it is taken."""
    meas, meas_header = _read(args.meas, "MEAS", expected_hash=expected_hash,
                              strict=args.strict_hash)
    ref, _ = _read(args.ref, "B2B", expected_hash=meas_header["config_hash"],
                   strict=args.strict_hash)
    return calibrate_records(meas, ref, _attenuator(args, config)), meas, meas_header


def _write_rows(args, rows, config_hash):
    if args.format == "json":
        write_rows_json(args.out, rows)
    else:
        write_rows_csv(args.out, rows, config_hash=config_hash)


def cmd_calibrate(args):
    _keep_heap_mapped()
    cal, meas, meas_header = _calibrated(args)
    write_capture(args.out, cal, config_hash=meas_header["config_hash"],
                  geometry_hash=meas_header["geometry_hash"],
                  layout=calibrated_layout(meas.layout))
    print(f"wrote {len(meas)} calibrated snapshots to {args.out}")
    return EXIT_OK


def cmd_analyze(args):
    _keep_heap_mapped()
    config = _load_scenario(args.scenario)
    expected = config.scenario_hash

    if args.cal:
        for flag in ("meas", "ref", "attenuator_db"):
            if getattr(args, flag) is not None:
                option = "--" + flag.replace("_", "-")
                raise _Exit(EXIT_SCHEMA, f"{option} cannot be used with --cal, "
                                         "whose file is already calibrated")
        cal, _ = _read(args.cal, "CAL", expected_hash=expected, strict=args.strict_hash)
    else:
        if not args.meas or not args.ref:
            raise _Exit(EXIT_SCHEMA, "analyze needs either --cal or both --meas and --ref")
        cal, _, _ = _calibrated(args, config, expected_hash=expected)

    kept = {key: array("d") for key in SUMMARY_FIELDS}  # 40 B a row, for the summary

    def rows():
        for row in analyze_records(cal, config.geometry, config.gate, window=args.window):
            for key, column in kept.items():
                column.append(row[key])
            yield row

    # the summary's file is opened first: a bad --summary path fails before any row
    with replacing(args.summary) if args.summary else contextlib.nullcontext() as fh:
        _write_rows(args, rows(), expected)
        summary = summarize((dict(zip(kept, values)) for values in zip(*kept.values())),
                            config_hash=expected)
        if fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    print(f"analyzed {summary['snapshots']} snapshots -> {args.out}")
    return EXIT_OK


def cmd_stability(args):
    records, header = _read(args.ref, "B2B", strict=args.strict_hash)
    ports = records.layout.port_count
    if not 0 <= args.port < ports:
        raise CalibrationError(f"port {args.port} out of range for {ports} ports")
    report = stability_stats(records.port_rows(args.port))
    _write_rows(args, stability_rows(report), header.get("config_hash") or None)
    print(f"amplitude std {report.amplitude_std_db:.6f} dB, "
          f"phase std {report.phase_std_deg:.6f} deg -> {args.out}")
    return EXIT_OK


def _number(cell):
    """A metrics CSV cell as the int or float that was written to it."""
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def cmd_report(args):
    name = f"metrics file {args.metrics}"
    try:
        fh = open(args.metrics, encoding="utf-8")
    except FileNotFoundError:
        raise _Exit(EXIT_MISSING_FILE, f"metrics file not found: {args.metrics}")
    count = 0

    def rows(reader):  # each row checked as the writer takes it
        nonlocal count
        for count, row in enumerate(reader, 1):
            if None in row or None in row.values():
                raise _Exit(EXIT_FORMAT, f"{name} row {count} does not have one cell per "
                                         "column")
            try:
                numbers = {key: _number(cell) for key, cell in row.items()}
            except ValueError as exc:
                raise _Exit(EXIT_FORMAT, f"{name} has a cell that is not a number: {exc}")
            yield numbers
        if not count:
            raise _Exit(EXIT_FORMAT, f"{name} has no rows")

    with fh:
        try:
            first = fh.readline()
            config_hash = None
            if first.startswith("# config_hash:"):
                config_hash = first.split(":", 1)[1].strip()
            else:
                fh.seek(0)
            reader = csv.DictReader(fh)
            missing = [key for key in REPORT_FIELDS if key not in (reader.fieldnames or ())]
            if missing:
                raise _Exit(EXIT_FORMAT, f"{name} is not a metrics table: it lacks columns "
                                         f"{missing}")
            _write_rows(args, report_rows(rows(reader)), config_hash)
        except UnicodeDecodeError as exc:
            raise _Exit(EXIT_FORMAT, f"{name} is not UTF-8: {exc}")
    print(f"wrote route table with {count} locations to {args.out}")
    return EXIT_OK


def cmd_selftest(args):
    failures = run_selftest(verbose=True)
    if failures:
        print(f"{failures} selftest check(s) failed")
        return EXIT_UNEXPECTED
    print("all selftest checks passed")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="a2gs",
        description="Virtual air-to-ground massive-MIMO channel sounder")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--strict-hash", action="store_true",
                       help="escalate provenance hash mismatches to errors")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("synth", help="simulate a measurement capture")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override scenario seeds")

    p = sub.add_parser("b2b", help="simulate a back-to-back reference")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--snapshots", type=int, default=None)

    p = sub.add_parser("calibrate", help="divide out the system response")
    p.add_argument("--meas", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--attenuator-db", type=float, default=None)
    p.add_argument("--strict-hash", action="store_true")

    p = sub.add_parser("analyze", help="compute per-snapshot metrics")
    p.add_argument("--scenario", required=True)
    p.add_argument("--meas")
    p.add_argument("--ref")
    p.add_argument("--cal")
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    p.add_argument("--attenuator-db", type=float, default=None)
    p.add_argument("--window", choices=("rect", "hann"), default="rect")
    add_common(p)

    p = sub.add_parser("stability", help="B2B stability statistics")
    p.add_argument("--ref", required=True)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--out", required=True)
    add_common(p)

    p = sub.add_parser("report", help="route table from a metrics CSV")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    add_common(p)

    sub.add_parser("selftest", help="run the invariant suite")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "b2b": cmd_b2b,
    "calibrate": cmd_calibrate,
    "analyze": cmd_analyze,
    "stability": cmd_stability,
    "report": cmd_report,
    "selftest": cmd_selftest,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        thread_count()  # a bad A2GS_THREADS stops every command before it starts
        return _COMMANDS[args.command](args)
    except Exception as exc:
        code = exc.code if isinstance(exc, _Exit) else next(
            (code for kind, code in _EXIT_CODES if isinstance(exc, kind)), None)
        if code is None:
            print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_UNEXPECTED
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
