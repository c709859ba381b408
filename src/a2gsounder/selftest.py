"""Built-in invariant suite (the `a2gs selftest` command).

Each check exercises one contract of the processing pipeline or the
file format on small seeded inputs and reports pass/fail. The suite is
intentionally independent of pytest so a deployed installation can
verify itself.
"""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np

from ._rng import numpy_random
from .capture_file import read_capture, write_capture
from .capture_sim import CaptureRecord
from .config import parse_scenario
from .pipeline import (analyze_records, calibrate_records, run_b2b,
                       run_synthesis)
from .processing import (GateConfig, GatedCIR, cir_from_tf,
                         correlation_and_eigen, rms_delay_spread, rx_power,
                         threshold_and_gate)
from .waveform import TonePlan


def _random_cal(rng, ports=8, tones=64):
    plan = TonePlan(center_frequency=3.5e9, tone_spacing=20e3, tone_count=tones)
    h = rng.standard_normal((ports, tones)) + 1j * rng.standard_normal((ports, tones))
    # add a dominant path so gating has structure
    h += 10.0 * np.exp(-2j * math.pi * plan.tone_frequencies * plan.delay_bins[3])
    return CaptureRecord(h_f=h, tone_plan=plan, record_type="CAL")


def check_gating_monotonicity(rng):
    cal = _random_cal(rng)
    raw = cir_from_tf(cal)
    gated = threshold_and_gate(raw, GateConfig(delay_gate=200e-9))
    raw_energy = float(np.sum(np.abs(raw.h) ** 2))
    return rx_power(gated) <= raw_energy + 1e-12 * raw_energy, \
        f"gated {rx_power(gated):.6g} vs raw {raw_energy:.6g}"


def check_phase_rotation_invariance(rng):
    cal = _random_cal(rng)
    p0 = rx_power(threshold_and_gate(cir_from_tf(cal)))
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, cal.h_f.shape[0]))
    rotated = replace(cal, h_f=cal.h_f * phases[:, np.newaxis])
    p1 = rx_power(threshold_and_gate(cir_from_tf(rotated)))
    return abs(p0 - p1) <= 1e-9 * p0, f"{p0:.12g} vs {p1:.12g}"


def _two_tap_gated(delays, amps):
    return GatedCIR(power=np.abs(amps)[np.newaxis, :] ** 2, delays=delays,
                    noise_floor=np.zeros(1), threshold=np.zeros(1))


def check_delay_spread_invariances(rng):
    delays = np.sort(rng.uniform(0, 1e-6, 6))
    amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base = rms_delay_spread(_two_tap_gated(delays, amps)).sigma_tau_s
    shifted = rms_delay_spread(_two_tap_gated(delays + 3.7e-7, amps)).sigma_tau_s
    scaled = rms_delay_spread(_two_tap_gated(delays, amps * 7.3)).sigma_tau_s
    ok = (abs(base - shifted) <= 1e-9 * max(base, 1e-12)
          and abs(base - scaled) <= 1e-9 * max(base, 1e-12))
    return ok, f"base {base:.6g}, shifted {shifted:.6g}, scaled {scaled:.6g}"


def check_correlation_psd_and_trace(rng):
    cal = _random_cal(rng)
    report = correlation_and_eigen(cal)
    r = report.correlation
    hermitian = np.allclose(r, r.conj().T, rtol=0, atol=1e-12 * np.abs(r).max())
    trace = float(np.real(np.trace(r)))
    direct = float(np.mean(np.sum(np.abs(cal.h_f) ** 2, axis=0)))
    trace_ok = abs(trace - direct) <= 1e-12 * direct
    eig_ok = np.all(report.eigenvalues >= -1e-9 * trace)
    return hermitian and trace_ok and eig_ok, \
        f"trace {trace:.9g} vs {direct:.9g}, min eig {report.eigenvalues[-1]:.3g}"


def check_gamma_ordering(rng):
    for _ in range(20):
        cal = _random_cal(rng, ports=6, tones=32)
        report = correlation_and_eigen(cal)
        if math.isfinite(report.gamma12_db) and math.isfinite(report.gamma14_db):
            if report.gamma12_db > report.gamma14_db + 1e-9:
                return False, f"gamma12 {report.gamma12_db} > gamma14 {report.gamma14_db}"
    return True, "gamma12 <= gamma14 on 20 random cases"


def check_parseval(rng):
    cal = _random_cal(rng)
    raw = cir_from_tf(cal)
    a = float(np.sum(np.abs(raw.h) ** 2))
    b = float(np.sum(np.abs(cal.h_f) ** 2))
    return abs(a - b) <= 1e-12 * b, f"{a:.12g} vs {b:.12g}"


def _tiny_scenario(preset="olin-static", burst_count=1):
    return parse_scenario({
        "preset": preset,
        "array": {"columns": 4, "rows": 2},
        "timing": {"ports_per_simo": 16},
        "tone_plan": {"tone_count": 64},
        "capture": {"burst_count": burst_count, "b2b_snapshot_count": 2},
    })


def check_file_round_trip(rng):
    config = _tiny_scenario()
    records = list(run_synthesis(config))
    with tempfile.TemporaryDirectory() as tmp:
        path1 = os.path.join(tmp, "a.bin")
        path2 = os.path.join(tmp, "b.bin")
        write_capture(path1, records, config_hash=config.scenario_hash,
                      geometry_hash=config.geometry.content_hash())
        back, header = read_capture(path1)
        write_capture(path2, back, config_hash=header["config_hash"],
                      geometry_hash=header["geometry_hash"],
                      record_type=header["record_type"])
        with open(path1, "rb") as f1, open(path2, "rb") as f2:
            same = f1.read() == f2.read()
    expected_payload = len(records) * records[0].h_f.size * 8
    return same, f"round trip bytes identical, payload {expected_payload} B/snapshot-set"


def check_cross_run_determinism(rng):
    config = _tiny_scenario()
    # the route runs the per-slot kernel: the TX moves between switch slots
    route = _tiny_scenario("paper-route", burst_count=2)
    first = list(run_synthesis(config))
    for name, cfg, records in (("static", config, first),
                               ("route", route, run_synthesis(route))):
        again = run_synthesis(cfg)
        if not all(np.array_equal(a.h_f, b.h_f) for a, b in zip(records, again)):
            return False, f"{name} re-run produced different samples"
    ref = run_b2b(config, snapshot_count=2)
    cal = list(calibrate_records(first, ref, config.attenuator))
    rows1 = list(analyze_records(cal, config.geometry, config.gate))
    rows2 = list(analyze_records(cal, config.geometry, config.gate))
    same = len(rows1) == len(rows2) and all(
        x.keys() == y.keys() and all(_same_value(x[k], y[k]) for k in x)
        for x, y in zip(rows1, rows2))
    if not same:
        return False, "metrics rows differ between two analyses of the same records"
    return True, "bit-identical static and route captures and metrics rows across runs"


def _same_value(a, b):
    """Equality under which NaN equals NaN."""
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


CHECKS = (
    ("gating monotonicity", check_gating_monotonicity),
    ("rx power phase-rotation invariance", check_phase_rotation_invariance),
    ("delay spread shift/scale invariance", check_delay_spread_invariances),
    ("correlation PSD and trace identity", check_correlation_psd_and_trace),
    ("gamma12 <= gamma14", check_gamma_ordering),
    ("Parseval identity", check_parseval),
    ("capture file round trip", check_file_round_trip),
    ("cross-run determinism", check_cross_run_determinism),
)


def run_selftest(verbose=True):
    """Run every invariant check, each given a fresh seeded generator
    (the file checks ignore it); returns the number of failures."""
    failures = 0
    random = numpy_random()
    for name, fn in CHECKS:
        rng = random.Generator(random.Philox(key=20240301))
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if verbose:
            print(f"[{status}] {name}: {detail}")
        if not ok:
            failures += 1
    return failures
