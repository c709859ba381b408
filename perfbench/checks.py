"""Output checks of the benchmark, run outside the timed region.

Each check returns a list of failure messages; an empty list is a pass.
A missing or unreadable output file is a failure, never an exception.
The bounds come from the acceptance criteria in tests/test_acceptance.py.

Run as a script, ``python3 checks.py rewrite IN OUT`` reads a capture
file with the package's reader and writes it back with its writer (in a
process of its own, so its memory is not the benchmark's).
"""

import csv
import hashlib
import math
import statistics
import sys

COLUMNS = 16
GAMMA12_MIN_DB = 15.0
EIGEN_SPAN_DB = (40.0, 60.0)
POL_GAP_DB = (10.5, 13.5)
STD_TOLERANCE = 0.10


def read_rows(path):
    """Rows of a CSV written by the package ('#' comment lines skipped)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _rows(path, expected_rows, failures):
    try:
        rows = read_rows(path)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        failures.append(f"{path}: unreadable ({exc})")
        return []
    if len(rows) != expected_rows:
        failures.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    return rows


def _number(row, key):
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def check_static(metrics_csv, expected_rows):
    """LOS structure on every row: gamma12 >= 15 dB, eigenvalue span in
    40..60 dB, V-H column power gap at the argmax column 12 +- 1.5 dB."""
    failures = []
    for i, row in enumerate(_rows(metrics_csv, expected_rows, failures)):
        gamma12 = _number(row, "gamma12_db")
        span = _number(row, "eigen_span_db")
        column = row.get("argmax_v_column")
        gap = _number(row, f"col{column}_v_db") - _number(row, f"col{column}_h_db")
        if not gamma12 >= GAMMA12_MIN_DB:
            failures.append(f"row {i}: gamma12 {gamma12} dB")
        if not EIGEN_SPAN_DB[0] <= span <= EIGEN_SPAN_DB[1]:
            failures.append(f"row {i}: eigen span {span} dB")
        if not POL_GAP_DB[0] <= gap <= POL_GAP_DB[1]:
            failures.append(f"row {i}: V-H gap {gap} dB at column {column}")
    return failures


def check_route(metrics_csv, expected_rows):
    """The argmax V column visits all 16 columns around the square."""
    failures = []
    seen = {row.get("argmax_v_column") for row in _rows(metrics_csv, expected_rows, failures)}
    missing = sorted(set(range(COLUMNS)) - {int(c) for c in seen if c and c.isdigit()})
    if missing:
        failures.append(f"{metrics_csv}: argmax V column never visits {missing}")
    return failures


def check_rows(path, expected_rows):
    failures = []
    _rows(path, expected_rows, failures)
    return failures


def injected_drift_std(system_seed, snapshots, amplitude_db=0.0071, phase_deg=0.6):
    """Std of the B2B drift the simulator injects for ``system_seed``,
    relative to the first snapshot, as (amplitude dB, phase deg).

    Drawn independently of the package: numpy's Philox keyed on
    (seed, tag 5 = B2B drift) with the snapshot in the second counter
    word, as documented in a2gsounder/_rng.py.
    """
    import numpy as np

    amp, phase = [], []
    for s in range(snapshots):
        key = [system_seed & (2**64 - 1), 5]
        gen = np.random.Generator(np.random.Philox(key=key, counter=[0, s, 0, 0]))
        a, p = gen.standard_normal(2)
        amp.append(amplitude_db * a)
        phase.append(phase_deg * p)
    return (statistics.pstdev(a - amp[0] for a in amp),
            statistics.pstdev(p - phase[0] for p in phase))


def check_stability(stability_csv, expected_rows, system_seed):
    """Recovered amplitude and phase std within 10 % of the injected ones.

    The reference is the std of the drift actually drawn for this seed:
    the sample std of 400 draws lies within 10 % of the nominal 0.0071 dB
    and 0.6 deg for only about 98 % of seeds.
    """
    failures = []
    rows = _rows(stability_csv, expected_rows, failures)
    if len(rows) < 2:
        return failures or [f"{stability_csv}: fewer than 2 rows"]
    want_amp, want_phase = injected_drift_std(system_seed, len(rows))
    for key, want in (("rel_amp_db", want_amp), ("rel_phase_deg", want_phase)):
        got = statistics.pstdev(_number(r, key) for r in rows)
        if not abs(got - want) <= STD_TOLERANCE * want:
            failures.append(f"{stability_csv}: {key} std {got}, injected {want}")
    return failures


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def same_bytes(path_a, path_b):
    try:
        if sha256(path_a) == sha256(path_b):
            return []
    except OSError as exc:
        return [f"cannot compare {path_a} and {path_b}: {exc}"]
    return [f"{path_b} differs from {path_a}"]


def rewrite(path_in, path_out):
    from a2gsounder.capture_file import read_capture, write_capture

    records, header = read_capture(path_in)
    write_capture(path_out, records, config_hash=header["config_hash"],
                  geometry_hash=header["geometry_hash"],
                  record_type=header["record_type"])


if __name__ == "__main__":
    if sys.argv[1:2] != ["rewrite"] or len(sys.argv) != 4:
        sys.exit("usage: checks.py rewrite IN OUT")
    rewrite(sys.argv[2], sys.argv[3])
