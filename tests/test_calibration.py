import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from a2gsounder.calibration import (CalibrationError, Reference, _median, calibrate,
                                    stability_stats)
from a2gsounder.capture_sim import (AttenuatorModel, CaptureRecord,
                                    build_system_response,
                                    port_stack_response, simulate_b2b,
                                    simulate_snapshot)
from a2gsounder.array_geometry import build_cylindrical_array
from a2gsounder.channel_synth import Facet, Scene, synthesize_paths
from a2gsounder.waveform import TonePlan

PLAN = TonePlan(tone_count=128)


def record(h_f, plan=PLAN, record_type="MEAS"):
    return CaptureRecord(h_f=np.asarray(h_f, complex), tone_plan=plan, record_type=record_type)


class FlatAttenuator:
    """Attenuator stand-in with a constant response."""

    def __init__(self, value):
        self.value = complex(value)

    def response(self, tones):
        return np.full(tones.tone_count, self.value)


class TestCalibrate:
    def test_flat_arithmetic(self):
        meas = record(np.full((4, PLAN.tone_count), 2.0))
        ref = record(np.full((4, PLAN.tone_count), 4.0), record_type="B2B")
        cal = calibrate(meas, Reference(ref, FlatAttenuator(0.5)))
        np.testing.assert_allclose(cal.h_f, 0.25, rtol=1e-15)

    def test_returns_the_measurement_as_a_cal_record(self):
        meas = CaptureRecord(h_f=np.full((2, PLAN.tone_count), 2.0 + 0j), tone_plan=PLAN,
                             timestamp=0.25, tx_position=np.array([12.0, 1.0, 1.8]),
                             tx_tilt=np.array([0.01, -0.02]), snr_db=30.0, seed=7,
                             snapshot_index=5)
        ref = record(np.full((2, PLAN.tone_count), 4.0), record_type="B2B")
        cal = calibrate(meas, Reference(ref, FlatAttenuator(0.5)))
        assert (cal.record_type, cal.snr_db, cal.seed) == ("CAL", None, 0)
        assert (cal.timestamp, cal.snapshot_index, cal.tone_plan) == (0.25, 5, PLAN)
        assert cal.tx_position is meas.tx_position and cal.tx_tilt is meas.tx_tilt
        np.testing.assert_array_equal(cal.h_f, 0.25)
        assert meas.record_type == "MEAS"  # the measurement itself is not changed

    def test_identity(self):
        tf = np.exp(1j * np.linspace(0, 3, PLAN.tone_count))[np.newaxis, :] * np.ones((3, 1))
        cal = calibrate(record(tf), Reference(record(tf, record_type="B2B"), FlatAttenuator(1.0)))
        np.testing.assert_allclose(cal.h_f, 1.0, rtol=1e-14)

    def test_linearity_in_measurement(self):
        rng = np.random.default_rng(2)
        tf = rng.standard_normal((3, PLAN.tone_count)) + 1j * rng.standard_normal((3, PLAN.tone_count))
        ref = rng.standard_normal((3, PLAN.tone_count)) + 1j * rng.standard_normal((3, PLAN.tone_count)) + 3.0
        alpha = 2.5 - 1.5j
        reference = Reference(record(ref, record_type="B2B"), FlatAttenuator(0.7))
        one = calibrate(record(tf), reference)
        two = calibrate(record(alpha * tf), reference)
        np.testing.assert_allclose(two.h_f, alpha * one.h_f, rtol=1e-12)

    def test_b2b_self_calibration_returns_attenuator(self):
        system = build_system_response(PLAN, 8, seed=3, phase_drift_deg=0.0,
                                       amplitude_jitter_db=0.0)
        att = AttenuatorModel(nominal_loss_db=30.0, ripple_db=0.3)
        b2b = next(simulate_b2b(PLAN, system, att, snapshot_count=1))
        cal = calibrate(b2b, Reference(b2b, att))
        expected = np.broadcast_to(att.response(PLAN), cal.h_f.shape)
        np.testing.assert_allclose(cal.h_f, expected, rtol=1e-12)

    def test_zero_reference_guard_names_port_and_tone(self):
        ref = np.ones((4, PLAN.tone_count), complex)
        ref[2, 17] = 1e-9
        with pytest.raises(CalibrationError, match=r"port 2, tone 17"):
            calibrate(record(np.ones((4, PLAN.tone_count))),
                      Reference(record(ref, record_type="B2B"), FlatAttenuator(1.0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, np.inf),
                                       complex(1.0, -np.inf)],
                             ids=["nan", "inf", "nan-inf", "imag-inf"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_non_finite_reference_tone_names_port_and_tone(self, value, dtype):
        # a NaN would make the median, and so the floor, NaN and pass every
        # tone; an inf would give that tone a factor of 0
        h_f = np.ones((4, PLAN.tone_count), dtype)
        h_f[3, 40] = value
        ref = CaptureRecord(h_f=h_f, tone_plan=PLAN, record_type="B2B")
        with pytest.raises(CalibrationError, match=r"not finite at port 3, tone 40"):
            Reference(ref, FlatAttenuator(1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(CalibrationError, match="dimensions"):
            calibrate(record(np.ones((4, PLAN.tone_count))),
                      Reference(record(np.ones((3, PLAN.tone_count))), FlatAttenuator(1.0)))

    def test_noiseless_pipeline_recovers_ground_truth(self):
        # ripple-heavy chain and per-port gains divide out exactly
        geom = build_cylindrical_array(4, 2, 0.1091, 0.0429)
        scene = Scene(
            facets=(Facet(corners=[[8, -10, -10], [8, 10, -10], [8, 10, 10], [8, -10, 10]],
                          gamma_v=0.5, gamma_h=0.4, cross_pol=0.1),),
            rx_position=[0.0, 0.0, 0.0])
        paths = synthesize_paths(scene, [5.0, 1.0, 0.5], 3.5e9)
        system = build_system_response(PLAN, geom.n_ports, seed=8,
                                       phase_drift_deg=0.0, amplitude_jitter_db=0.0)
        att = AttenuatorModel(nominal_loss_db=30.0, ripple_db=0.2)
        meas = simulate_snapshot(paths, geom, PLAN, system)
        ref = next(simulate_b2b(PLAN, system, att, snapshot_count=1))
        cal = calibrate(meas, Reference(ref, att))
        truth = port_stack_response(paths, geom, PLAN)
        err = np.abs(cal.h_f - truth) / np.max(np.abs(truth))
        assert np.max(err) < 1e-10


# magnitudes drawn from a few values too, so that the middle ones tie
_MAGNITUDES = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 2.5, 7.0]),
                        st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                  elements=_MAGNITUDES))
@example(np.array([[3.0]]))
@example(np.array([[2.0, 1.0, 2.0, 1.0]]))  # even count, tied middle pair
@example(np.array([[1.0, 3.0], [3.0, 1.0], [3.0, 0.0]]))  # even count, distinct middle pair
@example(np.array([[7.0, 2.5, 2.5], [2.5, 0.0, 7.0], [1.0, 2.5, 7.0]]))  # odd count, ties
def test_reference_median_is_np_median_bit_for_bit(values):
    assert _median(values).hex() == float(np.median(values)).hex()


class TestStabilityStats:
    def test_identical_snapshots_zero_stds(self):
        tf = np.exp(1j * np.linspace(0, 1, PLAN.tone_count))[np.newaxis, :]
        series = [record(tf, record_type="B2B") for _ in range(5)]
        report = stability_stats(r.h_f[0] for r in series)
        assert report.amplitude_std_db == 0.0
        assert report.phase_std_deg == 0.0
        assert report.rel_amp_db[0] == 0.0
        assert report.rel_phase_deg[0] == 0.0

    def test_deterministic_phase_ramp(self):
        base = np.ones((1, PLAN.tone_count), complex)
        series = [record(base * np.exp(1j * math.radians(k)), record_type="B2B")
                  for k in range(5)]
        report = stability_stats(r.h_f[0] for r in series)
        np.testing.assert_allclose(report.rel_phase_deg, [0, 1, 2, 3, 4], atol=1e-9)
        np.testing.assert_allclose(report.rel_amp_db, 0.0, atol=1e-9)

    def test_recovers_injected_drift_sigma(self):
        system = build_system_response(PLAN, 4, seed=21,
                                       phase_drift_deg=0.6,
                                       amplitude_jitter_db=0.0071)
        records = list(simulate_b2b(PLAN, system, AttenuatorModel(), snapshot_count=400))
        report = stability_stats(r.h_f[0] for r in records)
        assert report.amplitude_std_db == pytest.approx(0.0071, rel=0.10)
        assert report.phase_std_deg == pytest.approx(0.6, rel=0.10)

    def test_short_series_rejected(self):
        tf = np.ones((1, PLAN.tone_count))
        with pytest.raises(CalibrationError):
            stability_stats([record(tf).h_f[0]])
