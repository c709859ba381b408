"""Receiver-chain and fast-switching capture emulation.

One shared downconversion chain (a smooth random ripple over the tone
grid) feeds per-port scalar switch-path gains, mirroring a switched
single-chain architecture. A per-snapshot complex drift factor models
clock stability; additive white Gaussian noise is injected per tone in
the frequency domain. Back-to-back captures replace the antenna with an
attenuator so the same chain can be divided out later.

All randomness is counter-based (see _rng), so snapshots can be
simulated in any order or in parallel with bit-identical results.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import (TAG_CHAIN, TAG_DRIFT_B2B, TAG_DRIFT_MEAS, TAG_NOISE,
                   TAG_PORT_GAIN, stream)
from .waveform import SPEED_OF_LIGHT


@dataclass(frozen=True)
class SystemResponse:
    """Frequency response of the receiver chain plus switch paths."""

    common_chain: np.ndarray
    per_port_gain: np.ndarray
    phase_drift_deg: float = 0.6
    amplitude_jitter_db: float = 0.0071
    seed: int = 0

    def __post_init__(self):
        if np.any(np.abs(self.common_chain) <= 0.0):
            raise ValueError("common_chain must have no zeros")
        mags_db = 20.0 * np.log10(np.abs(self.per_port_gain))
        if np.any(np.abs(mags_db) > 3.0 + 1e-9):
            raise ValueError("per-port gains must stay within +-3 dB of unity")
        if self.phase_drift_deg < 0 or self.amplitude_jitter_db < 0:
            raise ValueError("drift sigmas must be non-negative")

    def drift(self, snapshot_index, kind="meas"):
        """Per-snapshot complex drift factor; exactly 1 when sigmas are zero."""
        if self.amplitude_jitter_db == 0.0 and self.phase_drift_deg == 0.0:
            return 1.0 + 0.0j
        tag = TAG_DRIFT_MEAS if kind == "meas" else TAG_DRIFT_B2B
        a_db, phi_deg = stream(self.seed, tag, snapshot_index).standard_normal(2)
        a = 10.0 ** (self.amplitude_jitter_db * a_db / 20.0)
        phi = math.radians(self.phase_drift_deg * phi_deg)
        return a * complex(math.cos(phi), math.sin(phi))


def _smooth_curve(rng, n_tones, components):
    """Random low-order Fourier series over the band, peak-normalized to 1."""
    u = np.linspace(0.0, 1.0, n_tones)
    curve = np.zeros(n_tones)
    amps = rng.standard_normal(components)
    phases = rng.uniform(0.0, 2.0 * math.pi, components)
    for m in range(components):
        curve += amps[m] * np.cos(2.0 * math.pi * (m + 1) * u + phases[m])
    peak = np.max(np.abs(curve))
    if peak == 0.0:
        return curve
    return curve / peak


def build_system_response(tones, n_ports, seed=0, ripple_db=1.5, ripple_components=4,
                          phase_span_deg=90.0, port_gain_spread_db=2.0,
                          phase_drift_deg=0.6, amplitude_jitter_db=0.0071):
    """Draw a seeded system response.

    The common chain magnitude ripples within +-ripple_db with a smooth
    random shape; its phase is a smooth curve within +-phase_span_deg.
    Port gains are uniform within +-port_gain_spread_db with random
    phases (spread must stay below the 3 dB contract).
    """
    rng = stream(seed, TAG_CHAIN)
    mag_db = ripple_db * _smooth_curve(rng, tones.tone_count, ripple_components)
    phase = np.radians(phase_span_deg) * _smooth_curve(rng, tones.tone_count, ripple_components)
    chain = 10.0 ** (mag_db / 20.0) * np.exp(1j * phase)

    prng = stream(seed, TAG_PORT_GAIN)
    gains_db = prng.uniform(-port_gain_spread_db, port_gain_spread_db, n_ports)
    gain_phase = prng.uniform(-math.pi, math.pi, n_ports)
    per_port = 10.0 ** (gains_db / 20.0) * np.exp(1j * gain_phase)

    return SystemResponse(
        common_chain=chain,
        per_port_gain=per_port,
        phase_drift_deg=phase_drift_deg,
        amplitude_jitter_db=amplitude_jitter_db,
        seed=seed,
    )


@dataclass(frozen=True)
class AttenuatorModel:
    """Characterized attenuator inserted for back-to-back runs."""

    nominal_loss_db: float = 30.0
    ripple_db: float = 0.0
    ripple_cycles: float = 1.0

    def __post_init__(self):
        if not 0 < self.nominal_loss_db < math.inf:
            raise ValueError(f"attenuator loss must be a positive finite number of dB, "
                             f"got {self.nominal_loss_db}")

    def response(self, tones):
        """Complex response on the tone grid, 10^(-loss/20) times the ripple."""
        base = 10.0 ** (-self.nominal_loss_db / 20.0)
        if self.ripple_db == 0.0:
            return np.full(tones.tone_count, base, dtype=np.complex128)
        u = np.linspace(0.0, 1.0, tones.tone_count)
        ripple = 10.0 ** (self.ripple_db * np.cos(2.0 * math.pi * self.ripple_cycles * u) / 20.0)
        return (base * ripple).astype(np.complex128)


@dataclass
class CaptureRecord:
    """One SIMO snapshot, ports x tones: a measured (MEAS) or
    back-to-back (B2B) capture, or a calibrated antenna+channel response
    (CAL). A B2B capture has no TX, so its pose stays at zeros."""

    h_f: np.ndarray
    tone_plan: object
    timestamp: float = 0.0
    tx_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tx_tilt: np.ndarray = field(default_factory=lambda: np.zeros(2))
    snr_db: float = None
    seed: int = 0
    snapshot_index: int = 0
    record_type: str = "MEAS"


def _rotate_z(vectors, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return vectors @ rot.T


def _tone_phases(effective_delays, tones):
    """exp(-j*2*pi*f_n*T) for every entry of ``effective_delays``.

    The tone grid is uniform, so the phase over n is a geometric
    sequence: one exp for the first tone and one for the per-tone step,
    then a cumulative product along the tone axis (the unit-modulus
    rounding drift over 1841 steps is ~1e-13, far below the oracle
    tolerances).
    """
    t = np.asarray(effective_delays)
    f0 = tones.tone_frequencies[0]
    base = np.exp(-2j * math.pi * f0 * t)
    step = np.exp(-2j * math.pi * tones.tone_spacing * t)
    powers = np.empty(t.shape + (tones.tone_count,), dtype=np.complex128)
    powers[..., 0] = base
    powers[..., 1:] = step[..., np.newaxis]
    np.cumprod(powers, axis=-1, out=powers)
    return powers


def _rows_shared(paths, geometry):
    """True when one row of ``paths`` is seen by every port, False when
    slot k feeds port k; any other row count is a ValueError."""
    if len(paths) not in (1, geometry.n_ports):
        raise ValueError(f"paths have {len(paths)} rows; {geometry.n_ports} ports "
                         f"take 1 shared row or one row per port")
    return len(paths) == 1


def _slot_row(paths, slot, mounting_rotation):
    """Delays, Jones amplitudes and array-frame directions of one slot's
    real paths."""
    count = paths.counts[slot]
    return (paths.delays[slot, :count], paths.jones[slot, :count],
            _rotate_z(paths.directions[slot, :count], -mounting_rotation))


def port_stack_response(paths, geometry, tones, mounting_rotation=0.0):
    """Noise-free antenna+channel transfer function, ports x tones.

    Plane-wave model: each path reaches port k with the element gain for
    its arrival direction and an extra phase 2*pi*f*(d . r_k)/c from the
    port's offset toward the source, on top of exp(-j*2*pi*f*delay).

    ``paths`` is SlotPaths, and its row count picks the contraction. One
    row (static or hover TX) is seen by every port: one advance matmul
    and one einsum over element pairs, so an element's V and H ports
    share their tone phases. One row per port (square route) is
    evaluated in one batched pass: one port_gains call over all ports,
    then, for the slots sharing a path count, stacked matmuls of the
    same shapes as port_response_row's, so every row equals
    port_response_row bit for bit. The two stay separate because the
    per-slot form computes each port's tone phases on its own, twice
    the work for a shared row, and rounds the float64 response
    differently.
    """
    if not _rows_shared(paths, geometry):
        return _slot_stack_response(paths, geometry, tones, mounting_rotation)
    delays, jones, dirs = _slot_row(paths, 0, mounting_rotation)
    gains = geometry.port_gains(dirs, jones)  # (K, P)
    if not np.all(np.isfinite(gains)):
        raise ValueError("non-finite path gains")
    # V and H ports share element positions, so phases are per element
    elem_pos = geometry.positions[0::2]
    advance = (elem_pos @ dirs.T) / SPEED_OF_LIGHT  # (K/2, P)
    phases = _tone_phases(delays[np.newaxis, :] - advance, tones)  # (K/2, P, N)
    paired = gains.reshape(elem_pos.shape[0], 2, len(delays))
    return np.einsum("eqp,epn->eqn", paired, phases).reshape(geometry.n_ports, tones.tone_count)


def _slot_stack_response(slots, geometry, tones, mounting_rotation):
    out = np.zeros((geometry.n_ports, tones.tone_count), dtype=np.complex128)
    groups = [(count, np.flatnonzero(slots.counts == count))
              for count in np.unique(slots.counts) if count > 0]
    # rotate each group as (P, 3) blocks, the shape a single slot has
    dirs = np.zeros_like(slots.directions)
    for count, ports in groups:
        dirs[ports, :count] = _rotate_z(slots.directions[ports, :count], -mounting_rotation)
    gains = geometry.port_gains(dirs, slots.jones)  # (K, P), padding has zero gain
    if not np.all(np.isfinite(gains)):
        raise ValueError("non-finite path gains")
    for count, ports in groups:
        group_dirs = dirs[ports, :count]
        advance = (geometry.positions[ports, np.newaxis, :]
                   @ group_dirs.swapaxes(1, 2))[:, 0, :] / SPEED_OF_LIGHT  # (G, P)
        phases = _tone_phases(slots.delays[ports, :count] - advance, tones)  # (G, P, N)
        out[ports] = (gains[ports, np.newaxis, :count] @ phases)[:, 0, :]
        del phases  # one group's (G, P, N) temporary at a time
    return out


def port_response_row(paths, geometry, tones, port_index, mounting_rotation=0.0):
    """Row ``port_index`` of port_stack_response, computed for that port
    alone from the row that feeds it (the reference the per-slot kernel
    reproduces)."""
    slot = 0 if _rows_shared(paths, geometry) else port_index
    delays, jones, dirs = _slot_row(paths, slot, mounting_rotation)
    gains = geometry.port_gains(dirs, jones)[port_index]  # (P,)
    if not np.all(np.isfinite(gains)):
        raise ValueError("non-finite path gains")
    advance = (geometry.positions[port_index] @ dirs.T) / SPEED_OF_LIGHT
    phases = _tone_phases(delays - advance, tones)  # (P, N)
    return gains @ phases


def _add_noise(tf, snr_db, seed, snapshot_index):
    if snr_db is None or snr_db == math.inf:
        return tf
    ref_power = float(np.max(np.mean(np.abs(tf) ** 2, axis=1)))
    sigma2 = ref_power * 10.0 ** (-snr_db / 10.0)
    scale = math.sqrt(sigma2 / 2.0)
    n_ports, n_tones = tf.shape
    # one counter block per snapshot; ports are laid out in fixed order
    draws = stream(seed, TAG_NOISE, snapshot_index).standard_normal((n_ports, 2 * n_tones))
    return tf + scale * (draws[:, :n_tones] + 1j * draws[:, n_tones:])


def simulate_snapshot(paths, geometry, tones, system, noise_snr_db=None,
                      snapshot_index=0, timestamp=0.0, mounting_rotation=0.0, seed=0,
                      base_tf=None):
    """Capture one SIMO snapshot of SlotPaths ``paths``.

    One row is shared by all ports; one row per port means the
    transmitter moves within the snapshot (square route: port k is
    captured at its own switch slot). The record's TX position is slot
    0's and its tilt the paths' tilt. Noise is scaled to
    ``noise_snr_db`` below the strongest port's mean tone power; None
    disables it. ``base_tf`` may carry the precomputed noise-free
    port_stack_response for these paths (the pipeline computes it
    once per distinct TX state).
    """
    if base_tf is None:
        base_tf = port_stack_response(paths, geometry, tones, mounting_rotation)
    tf = base_tf

    drift = system.drift(snapshot_index, kind="meas")
    tf = tf * system.common_chain[np.newaxis, :] * system.per_port_gain[:, np.newaxis] * drift
    tf = _add_noise(tf, noise_snr_db, seed, snapshot_index)

    return CaptureRecord(
        h_f=tf,
        tone_plan=tones,
        timestamp=timestamp,
        tx_position=paths.tx_position,
        tx_tilt=paths.tx_tilt,
        snr_db=noise_snr_db,
        seed=seed,
        snapshot_index=snapshot_index,
    )


def simulate_b2b(tones, system, attenuator, snapshot_count=1, seed=0,
                 noise_snr_db=None, snapshot_period=0.05):
    """Back-to-back capture series: chain and switch paths through the
    attenuator, no channel and no antenna pattern. Returns an ordered
    iterator of B2B CaptureRecords, each computed as it is taken."""
    if snapshot_count < 1:
        raise ValueError("snapshot_count must be >= 1")
    att = attenuator.response(tones)
    base = system.common_chain[np.newaxis, :] * system.per_port_gain[:, np.newaxis] * att[np.newaxis, :]

    def snapshot(s):
        tf = base * system.drift(s, kind="b2b")
        return CaptureRecord(
            h_f=_add_noise(tf, noise_snr_db, seed, s),
            tone_plan=tones,
            timestamp=s * snapshot_period,
            snr_db=noise_snr_db,
            seed=seed,
            snapshot_index=s,
            record_type="B2B",
        )

    return map(snapshot, range(int(snapshot_count)))
