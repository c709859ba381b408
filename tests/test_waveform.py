import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2gsounder.waveform import TimingPlan, TonePlan, smooth_length, snapshot_timestamps


def largest_prime_factor(n):
    """By trial division, apart from the library's sieve by 2..11."""
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n)


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


class TestTransformLength:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10_000))
    @example(1841)
    @example(10_000)
    def test_the_smallest_11_smooth_length_from_the_tone_count(self, count):
        plan = TonePlan(center_frequency=3.5e9, tone_spacing=1e3, tone_count=count)
        length = plan.transform_length
        assert length >= count
        assert largest_prime_factor(length) <= 11
        assert all(largest_prime_factor(m) > 11 for m in range(count, length))
        assert (length == count) == (largest_prime_factor(count) <= 11)

    @pytest.mark.parametrize("count, length", [(1841, 1848), (67, 70), (64, 64), (128, 128),
                                               (129, 132), (1024, 1024), (13, 14), (2, 2)])
    def test_known_lengths(self, count, length):
        assert smooth_length(count) == length

    def test_a_length_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            smooth_length(0)

    def test_bin_spacing_and_resolution_at_the_default_plan(self):
        plan = TonePlan()
        assert plan.transform_length == 1848
        # resolution 1/(N df) = 27.16 ns; the padded bins lie 1/(L df) = 27.06 ns apart
        assert plan.delay_resolution == pytest.approx(1.0 / (1841 * 20e3), rel=1e-12)
        assert plan.delay_bin_spacing == pytest.approx(1.0 / (1848 * 20e3), rel=1e-12)
        assert round(plan.delay_resolution * 1e9, 2) == 27.16
        assert round(plan.delay_bin_spacing * 1e9, 2) == 27.06
        bins = plan.delay_bins
        assert len(bins) == 1848 and bins[0] == 0.0
        np.testing.assert_allclose(np.diff(bins), plan.delay_bin_spacing, rtol=1e-9)
        # the same alias period 1/df
        assert len(bins) * plan.delay_bin_spacing == pytest.approx(plan.max_unambiguous_delay,
                                                                   rel=1e-12)

    def test_a_smooth_count_keeps_its_bins(self):
        plan = TonePlan(tone_count=128)
        assert plan.transform_length == 128
        assert plan.delay_bin_spacing == plan.delay_resolution
        np.testing.assert_array_equal(plan.delay_bins,
                                      np.arange(128, dtype=np.float64) * plan.delay_resolution)


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
