import numpy as np
import pytest

from a2gsounder.waveform import TimingPlan, TonePlan, snapshot_timestamps


class TestTonePlan:
    def test_default_grid_bandwidth_and_alias_range(self):
        plan = TonePlan(center_frequency=3.5e9, tone_spacing=20e3, tone_count=1841)
        assert plan.occupied_bandwidth == pytest.approx(36.82e6, rel=1e-12)
        assert plan.max_unambiguous_delay == pytest.approx(50e-6, rel=1e-12)
        assert plan.delay_resolution == pytest.approx(1.0 / 36.82e6, rel=1e-12)

    def test_two_tone_symmetric_case(self):
        plan = TonePlan(center_frequency=3.5e9, tone_spacing=20e3, tone_count=2)
        np.testing.assert_allclose(plan.tone_frequencies,
                                   [3.5e9 - 10e3, 3.5e9 + 10e3], rtol=0)

    def test_bandwidth_overflow_rejected(self):
        # 2301 * 20 kHz = 46.02 MHz > 46 MHz nominal
        with pytest.raises(ValueError, match="exceeds"):
            TonePlan(center_frequency=3.5e9, tone_spacing=20e3, tone_count=2301)
        # 2300 tones exactly fills it
        TonePlan(center_frequency=3.5e9, tone_spacing=20e3, tone_count=2300)

    @pytest.mark.parametrize("count", [2, 3, 7, 128, 1841])
    def test_grid_symmetric_about_center(self, count):
        plan = TonePlan(center_frequency=3.5e9, tone_spacing=20e3, tone_count=count)
        mean = plan.tone_frequencies.mean()
        assert abs(mean - 3.5e9) <= 1e-12 * 3.5e9

    @pytest.mark.parametrize("field", ["center_frequency", "tone_spacing",
                                       "tone_count", "nominal_bandwidth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TonePlan(**{field: value})

    def test_preconditions(self):
        with pytest.raises(ValueError):
            TonePlan(center_frequency=3.5e9, tone_spacing=20e3, tone_count=1)
        with pytest.raises(ValueError):
            TonePlan(center_frequency=3.5e9, tone_spacing=-20e3, tone_count=100)
        with pytest.raises(ValueError):
            TonePlan(center_frequency=3.5e9, tone_spacing=0.0, tone_count=100)
        with pytest.raises(ValueError):
            # center below half the occupied bandwidth
            TonePlan(center_frequency=5e5, tone_spacing=20e3, tone_count=100)


class TestTimingPlan:
    def test_default_simo_duration_exact(self):
        plan = TimingPlan()
        assert plan.simo_duration == 128 * 50e-6
        assert plan.simo_duration == 0.0064
        assert plan.ports_per_simo == 128

    def test_bursts_must_fit_period(self):
        # 8 * 6.4 ms = 51.2 ms > 50 ms burst period
        with pytest.raises(ValueError, match="fit"):
            TimingPlan(simos_per_burst=8)
        TimingPlan(simos_per_burst=7)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            TimingPlan(t_siso=0.0)
        with pytest.raises(ValueError):
            TimingPlan(ports_per_simo=0)
        with pytest.raises(ValueError):
            TimingPlan(burst_rate=-1.0)


class TestSnapshotTimestamps:
    def test_default_single_burst(self):
        times = snapshot_timestamps(TimingPlan(), 1)
        np.testing.assert_array_equal(times, [0.0, 0.0064, 0.0128])

    def test_second_burst_starts_at_burst_period(self):
        times = snapshot_timestamps(TimingPlan(), 2)
        assert len(times) == 6
        assert times[3] == 0.050

    def test_single_port_degenerate_schedule(self):
        timing = TimingPlan(t_siso=50e-6, ports_per_simo=1,
                            simos_per_burst=1, burst_rate=20.0)
        np.testing.assert_array_equal(snapshot_timestamps(timing, 3),
                                      [0.0, 0.05, 0.10])

    def test_strictly_increasing_and_reproducible(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            timing = TimingPlan(
                t_siso=float(rng.uniform(10e-6, 100e-6)),
                ports_per_simo=int(rng.integers(1, 64)),
                simos_per_burst=1,
                burst_rate=1.0,
            )
            times = snapshot_timestamps(timing, int(rng.integers(1, 5)))
            assert np.all(np.diff(times) > 0)
            np.testing.assert_array_equal(times, snapshot_timestamps(timing, len(times)))

    def test_burst_count_validation(self):
        with pytest.raises(ValueError):
            snapshot_timestamps(TimingPlan(), 0)
