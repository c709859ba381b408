"""Sounding-signal frequency grid and switched-capture timing.

The simulator works entirely in the frequency domain: the channel is a
transfer function sampled on a symmetric tone grid around the carrier,
and all timing (port switching, SIMO snapshots, bursts) is derived from
the SISO signal duration. Defaults reproduce the 3.5 GHz / 20 kHz /
1841-tone sounder configuration with 50 us per port, 128 ports per SIMO
snapshot, 3 snapshots per burst at 20 Hz.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class TonePlan:
    """Symmetric RF tone grid: tone n sits at center + (n - (count-1)/2) * spacing."""

    center_frequency: float = 3.5e9
    tone_spacing: float = 20e3
    tone_count: int = 1841
    nominal_bandwidth: float = 46e6

    def __post_init__(self):
        for name in ("center_frequency", "tone_spacing", "tone_count", "nominal_bandwidth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if int(self.tone_count) != self.tone_count or self.tone_count < 2:
            raise ValueError(f"tone_count must be an integer >= 2, got {self.tone_count}")
        if self.tone_spacing <= 0:
            raise ValueError(f"tone_spacing must be positive, got {self.tone_spacing}")
        if self.occupied_bandwidth > self.nominal_bandwidth:
            raise ValueError(
                f"occupied bandwidth {self.occupied_bandwidth / 1e6:.2f} MHz exceeds "
                f"nominal bandwidth {self.nominal_bandwidth / 1e6:.2f} MHz"
            )
        if self.center_frequency <= self.tone_count * self.tone_spacing / 2:
            raise ValueError("center_frequency must exceed half the occupied bandwidth")

    @property
    def occupied_bandwidth(self):
        return self.tone_count * self.tone_spacing

    @property
    def delay_resolution(self):
        """Resolution of the delay transform, 1/(count*spacing): the width
        the occupied band gives a path's main lobe. The bins are spaced
        finer when the transform is padded (delay_bin_spacing)."""
        return 1.0 / (self.tone_count * self.tone_spacing)

    @cached_property
    def transform_length(self):
        """Points of the delay transform: smooth_length(tone_count), so
        the tones are zero-padded to a length pocketfft runs fast."""
        return smooth_length(self.tone_count)

    @property
    def delay_bin_spacing(self):
        """Spacing of the delay bins, 1/(transform_length*spacing): equal
        to delay_resolution when tone_count is 11-smooth, finer otherwise."""
        return 1.0 / (self.transform_length * self.tone_spacing)

    @property
    def max_unambiguous_delay(self):
        """Alias range of the inverse transform, 1/spacing."""
        return 1.0 / self.tone_spacing

    @cached_property
    def tone_frequencies(self):
        n = np.arange(self.tone_count, dtype=np.float64)
        return self.center_frequency + (n - (self.tone_count - 1) / 2.0) * self.tone_spacing

    @cached_property
    def delay_bins(self):
        """Delay axis of the unitary inverse DFT of the zero-padded tones:
        transform_length bins, delay_bin_spacing apart, over the same
        1/spacing period."""
        return np.arange(self.transform_length, dtype=np.float64) * self.delay_bin_spacing


def smooth_length(n):
    """The smallest length >= ``n`` whose prime factors are all <= 11:
    pocketfft has passes for those, so a transform at that length avoids
    a slow large-prime pass (1841 = 7 x 263 becomes 1848 = 2^3 3 7 11)."""
    if n < 1:
        raise ValueError(f"a transform length must be positive, got {n}")
    length = n
    while True:
        rest = length
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


@dataclass(frozen=True)
class TimingPlan:
    """Switch/burst timing. One SIMO snapshot sweeps every port once."""

    t_siso: float = 50e-6
    ports_per_simo: int = 128
    simos_per_burst: int = 3
    burst_rate: float = 20.0

    def __post_init__(self):
        if self.t_siso <= 0:
            raise ValueError("t_siso must be positive")
        if self.ports_per_simo < 1 or int(self.ports_per_simo) != self.ports_per_simo:
            raise ValueError("ports_per_simo must be a positive integer")
        if self.simos_per_burst < 1 or int(self.simos_per_burst) != self.simos_per_burst:
            raise ValueError("simos_per_burst must be a positive integer")
        if self.burst_rate <= 0:
            raise ValueError("burst_rate must be positive")
        if self.simos_per_burst * self.simo_duration > 1.0 / self.burst_rate:
            raise ValueError(
                f"{self.simos_per_burst} SIMO snapshots of {self.simo_duration * 1e3:.3f} ms "
                f"do not fit the {1e3 / self.burst_rate:.3f} ms burst period"
            )

    @property
    def simo_duration(self):
        return self.t_siso * self.ports_per_simo

    @property
    def snapshot_rate(self):
        """Nominal snapshot index rate used by the TX wobble process."""
        return self.burst_rate * self.simos_per_burst


def snapshot_timestamps(timing, burst_count):
    """Start times of every SIMO snapshot over ``burst_count`` bursts.

    Snapshot j of burst b starts at b / burst_rate + j * simo_duration;
    the result is strictly increasing.
    """
    if burst_count < 1 or int(burst_count) != burst_count:
        raise ValueError("burst_count must be a positive integer")
    times = [
        b / timing.burst_rate + j * timing.simo_duration
        for b in range(int(burst_count))
        for j in range(timing.simos_per_burst)
    ]
    return np.asarray(times, dtype=np.float64)
