"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to watch them live). Tolerances
are fixed here, not calibrated elsewhere.
"""

import contextlib
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import eigvals_charpoly_bisect, transfer_function_oracle

import a2gsounder as a2g
from a2gsounder.cli import main as cli_main
from a2gsounder.processing import (cir_from_tf, los_bin_power_db,
                                   rms_delay_spread, threshold_and_gate)


@contextlib.contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {label} ({time.time() - start:.1f}s)")
        raise
    print(f"[PASS] criterion {number:2d}: {label} ({time.time() - start:.1f}s)")


def static_config(**capture):
    doc = {"preset": "olin-static"}
    if capture:
        doc["capture"] = capture
    return a2g.parse_scenario(doc)


def los_bin_series(config):
    records = a2g.run_synthesis(config)
    ref = a2g.run_b2b(config, snapshot_count=2)
    cal = a2g.calibrate_records(records, ref, config.attenuator)

    def one(c):
        gated = threshold_and_gate(cir_from_tf(c), config.gate)
        spread = rms_delay_spread(gated)
        return los_bin_power_db(gated, spread.strongest_port)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return np.array(list(pool.map(one, cal)))


def test_criterion_01_timing_identity():
    with criterion(1, "SIMO duration 6.4 ms and burst schedule at 20 Hz, exact"):
        timing = a2g.TimingPlan()
        assert timing.simo_duration == 128 * 50e-6
        assert timing.simo_duration == 0.0064
        times = a2g.snapshot_timestamps(timing, 2)
        assert times[0] == 0.0
        assert times[1] == 0.0064
        assert times[2] == 0.0128
        assert times[3] == 0.05


def test_criterion_02_calibration_oracle():
    with criterion(2, "noiseless end-to-end calibration matches path-sum oracle < 1e-10"):
        config = a2g.parse_scenario({
            "preset": "olin-static",
            "system": {"phase_drift_deg": 0.0, "amplitude_jitter_db": 0.0},
            "capture": {"burst_count": 1, "snr_db": None, "b2b_snr_db": None},
        })
        records = list(a2g.run_synthesis(config))[:1]
        ref = a2g.run_b2b(config, snapshot_count=1)
        cal = next(a2g.calibrate_records(records, ref, config.attenuator))

        from a2gsounder.pipeline import paths_for_snapshot
        paths = paths_for_snapshot(config, 0.0)
        truth = transfer_function_oracle(paths, config.geometry, config.tone_plan,
                                         config.scene.rx_mounting_rotation)
        err = np.max(np.abs(cal.h_f - truth) / np.abs(truth))
        assert err < 1e-10, f"max relative error {err:.3e}"


def test_criterion_03_stability_recovery():
    with criterion(3, "injected 0.0071 dB / 0.6 deg drift recovered within 10%"):
        config = a2g.parse_scenario({
            "preset": "olin-static",
            "capture": {"b2b_snapshot_count": 400, "b2b_snr_db": None},
        })
        report = a2g.stability_stats(r.h_f[0] for r in a2g.run_b2b(config))
        assert report.amplitude_std_db == pytest.approx(0.0071, rel=0.10), \
            f"amplitude std {report.amplitude_std_db:.5f} dB"
        assert report.phase_std_deg == pytest.approx(0.6, rel=0.10), \
            f"phase std {report.phase_std_deg:.4f} deg"


def test_criterion_04_hover_vs_static(monkeypatch):
    with criterion(4, "LOS-bin power std(hover)/std(static) >= 3 for 10 seeds"):
        monkeypatch.setenv("A2GS_THREADS", "2")
        for seed in range(10):
            static = a2g.parse_scenario({
                "preset": "olin-static",
                "capture": {"burst_count": 34, "noise_seed": 1000 + seed},
            })
            hover = a2g.parse_scenario({
                "preset": "olin-hover",
                "trajectory": {"wobble": {"seed": 3000 + seed}},
                "capture": {"burst_count": 34, "noise_seed": 2000 + seed},
            })
            std_static = np.std(los_bin_series(static)[:100])
            std_hover = np.std(los_bin_series(hover)[:100])
            ratio = std_hover / std_static
            assert ratio >= 3.0, (f"seed {seed}: ratio {ratio:.2f} "
                                  f"(hover {std_hover:.3f} dB, static {std_static:.4f} dB)")


def test_criterion_05_los_eigen_structure():
    with criterion(5, "static LOS: gamma12 >= 15 dB, gamma14 >= gamma12, span 40..60 dB"):
        config = static_config(burst_count=1)
        records = list(a2g.run_synthesis(config))[:1]
        ref = a2g.run_b2b(config, snapshot_count=2)
        cal = next(a2g.calibrate_records(records, ref, config.attenuator))
        row = a2g.snapshot_metrics(cal, config.geometry, config.gate)
        assert row["gamma12_db"] >= 15.0, f"gamma12 {row['gamma12_db']:.2f} dB"
        assert row["gamma14_db"] >= row["gamma12_db"]
        assert 40.0 <= row["eigen_span_db"] <= 60.0, \
            f"eigen span {row['eigen_span_db']:.2f} dB"


def test_criterion_06_delay_spread_oracle():
    with criterion(6, "two-tap delay spreads exact: 50 ns = -73.01 dBs, 1 ns = -90 dBs"):
        power = np.array([[1.0, 1.0]])
        g = a2g.GatedCIR(power=power, delays=np.array([0.0, 100e-9]),
                         noise_floor=np.zeros(1), threshold=np.zeros(1))
        spread = rms_delay_spread(g)
        assert abs(spread.sigma_tau_s - 50e-9) <= 1e-12 * 50e-9
        assert spread.sigma_tau_dbs == pytest.approx(10 * math.log10(50e-9), rel=1e-12)
        assert spread.sigma_tau_dbs == pytest.approx(-73.0103, abs=5e-5)

        g1 = a2g.GatedCIR(power=power, delays=np.array([0.0, 2e-9]),
                          noise_floor=np.zeros(1), threshold=np.zeros(1))
        spread1 = rms_delay_spread(g1)
        assert abs(spread1.sigma_tau_s - 1e-9) <= 1e-12 * 1e-9
        assert spread1.sigma_tau_dbs == -90.0


def test_criterion_07_polarization_gap():
    with criterion(7, "argmax-column V power exceeds H by 12 +- 1.5 dB (XPD 12 dB)"):
        config = static_config(burst_count=1)
        records = list(a2g.run_synthesis(config))[:1]
        ref = a2g.run_b2b(config, snapshot_count=2)
        cal = next(a2g.calibrate_records(records, ref, config.attenuator))
        row = a2g.snapshot_metrics(cal, config.geometry, config.gate)
        col = row["argmax_v_column"]
        gap = row[f"col{col}_v_db"] - row[f"col{col}_h_db"]
        assert 10.5 <= gap <= 13.5, f"V-H gap {gap:.2f} dB at column {col}"


def bearing_to_column(bearing, mounting_rotation, columns=16):
    """Geometric oracle: nearest column boresight to a world bearing."""
    best, best_dist = 0, math.inf
    for c in range(columns):
        boresight = mounting_rotation + 2.0 * math.pi * c / columns
        dist = abs(math.remainder(bearing - boresight, 2.0 * math.pi))
        if dist < best_dist:
            best, best_dist = c, dist
    return best, best_dist


def test_criterion_08_route_rotation(monkeypatch):
    with criterion(8, "square route sweeps the argmax column through all 16 columns"):
        monkeypatch.setenv("A2GS_THREADS", "2")
        config = a2g.parse_scenario({
            "preset": "paper-route",
            "timing": {"simos_per_burst": 1, "burst_rate": 1.6},
            "capture": {"burst_count": 96},
        })
        records = a2g.run_synthesis(config)
        ref = a2g.run_b2b(config, snapshot_count=2)
        cal = a2g.calibrate_records(records, ref, config.attenuator)
        rows = a2g.analyze_records(cal, config.geometry, config.gate)

        sector = 2.0 * math.pi / 16
        seen = set()
        for row in rows:
            bearing = math.atan2(row["tx_y"], row["tx_x"])
            expected, dist = bearing_to_column(bearing, config.scene.rx_mounting_rotation)
            seen.add(row["argmax_v_column"])
            if sector / 2 - dist < math.radians(3.0):
                continue  # too close to a sector boundary for the pattern to decide
            assert row["argmax_v_column"] == expected, (
                f"t={row['timestamp']:.1f}s bearing {math.degrees(bearing):.1f} deg: "
                f"argmax {row['argmax_v_column']}, oracle {expected}")
        assert seen == set(range(16)), f"columns seen: {sorted(seen)}"


def test_criterion_09_property_suite():
    with criterion(9, "invariant suite green via selftest"):
        assert cli_main(["selftest"]) == 0


def test_criterion_10_eigen_brute_force():
    with criterion(10, "1000 random PSD 4x4 eigen problems match char-poly oracle to 1e-9"):
        rng = np.random.default_rng(20240401)
        for trial in range(1000):
            tones = int(rng.integers(4, 9))
            h = rng.standard_normal((4, tones)) + 1j * rng.standard_normal((4, tones))
            cal = a2g.CaptureRecord(
                h_f=h, tone_plan=a2g.TonePlan(tone_count=tones))
            report = a2g.correlation_and_eigen(cal)
            r = report.correlation
            oracle = eigvals_charpoly_bisect(r)
            scale = float(np.trace(r).real)
            err = np.abs(report.eigenvalues - oracle) / np.maximum(oracle, 1e-12 * scale)
            assert np.max(err) < 1e-9, f"trial {trial}: max rel err {np.max(err):.2e}"
