"""Receiver-chain and fast-switching capture emulation.

The noise-free antenna+channel response is a path sum over the tone
grid (port_stack_response), evaluated by one block-factored kernel for
a shared path row and for one row per switch slot alike. One shared
downconversion chain (a smooth random ripple over the tone grid) feeds
per-port scalar switch-path gains, mirroring a switched single-chain
architecture. A per-snapshot complex drift factor models clock
stability; additive white Gaussian noise is injected per tone in the
frequency domain. Both are applied in place on one fresh array per
snapshot. Back-to-back captures replace the antenna with an attenuator
so the same chain can be divided out later.

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


# Tones per block of _path_sum: tone n = a * _BLOCK + b is block a, offset b.
_BLOCK = 64


def _path_sum(gains, delays, advance, tones):
    """sum_p gains[r, q, p] * exp(-j*2*pi*f_n*(delays[r, p] - advance[r, p]/c))
    for every row r, gain set q and tone n: (R, Q, N) from (R, Q, P)
    gains and (R, P) delays and advances (m, toward the source). A padded
    path, with infinite delay, must have zero gain.

    Tone n = a*B + b is at f_n = f_(aB) + b*spacing, so each phase factor
    splits into a coarse factor per block a, folded into the gains, and a
    fine factor per offset b; one batched (R, Q*A, P) @ (R, P, B) matmul
    then sums the paths for every tone. The exps cost (Q*A + B) * P per
    row instead of N * P. Returns a view into the (R, Q, A*B) block grid.
    """
    if not np.all(np.isfinite(gains)):
        raise ValueError("non-finite path gains")
    t = np.where(np.isfinite(delays), delays - advance / SPEED_OF_LIGHT, 0.0)
    rows, sets, count = gains.shape
    coarse_f = tones.tone_frequencies[::_BLOCK]  # (A,)
    coarse = gains[:, :, np.newaxis, :] * np.exp(
        -2j * math.pi * coarse_f[:, np.newaxis] * t[:, np.newaxis, :])[:, np.newaxis]
    fine = np.exp(-2j * math.pi * t[:, :, np.newaxis] * (tones.tone_spacing * np.arange(_BLOCK)))
    sums = coarse.reshape(rows, sets * len(coarse_f), count) @ fine  # (R, Q*A, B)
    return sums.reshape(rows, sets, -1)[:, :, :tones.tone_count]


def _rows_shared(paths, geometry):
    """True when one row of ``paths`` is seen by every port, False when
    slot k feeds port k; any other row count is a ValueError."""
    if len(paths) not in (1, geometry.n_ports):
        raise ValueError(f"paths have {len(paths)} rows; {geometry.n_ports} ports "
                         f"take 1 shared row or one row per port")
    return len(paths) == 1


def port_stack_response(paths, geometry, tones, mounting_rotation=0.0):
    """Noise-free antenna+channel transfer function, ports x tones.

    Plane-wave model: each path reaches port k with the element gain for
    its arrival direction and an extra phase 2*pi*f*(d . r_k)/c from the
    port's offset toward the source, on top of exp(-j*2*pi*f*delay).

    ``paths`` is SlotPaths, and both forms are one _path_sum call. One
    row (static or hover TX) is seen by every port: the sum runs per
    element, whose V and H gains share its tone phases. One row per port
    (square route) runs per port, padded paths with zero gain, and every
    row equals port_response_row bit for bit. The result is a view whose
    rows lie whole tone blocks apart.
    """
    shared = _rows_shared(paths, geometry)
    row = 0 if shared else slice(None)
    dirs = _rotate_z(paths.directions[row], -mounting_rotation)
    gains = geometry.port_gains(dirs, paths.jones[row])  # (K, P)
    if shared:  # V and H ports share element positions
        advance = geometry.positions[0::2] @ dirs.T  # (K/2, P)
    else:
        advance = (geometry.positions[:, np.newaxis, :] @ dirs.swapaxes(1, 2))[:, 0, :]
    gains = gains.reshape(len(advance), -1, gains.shape[-1])  # (K/2, 2, P) or (K, 1, P)
    tf = _path_sum(gains, paths.delays[row], advance, tones)
    return tf.reshape(geometry.n_ports, tones.tone_count)


def port_response_row(paths, geometry, tones, port_index, mounting_rotation=0.0):
    """Row ``port_index`` of port_stack_response, computed for that port
    alone from the row that feeds it (the reference the per-slot rows of
    port_stack_response reproduce bit for bit)."""
    slot = 0 if _rows_shared(paths, geometry) else port_index
    dirs = _rotate_z(paths.directions[slot], -mounting_rotation)
    gains = geometry.port_gains(dirs, paths.jones[slot])[port_index]  # (P,)
    advance = geometry.positions[port_index] @ dirs.T
    return _path_sum(gains[np.newaxis, np.newaxis], paths.delays[slot:slot + 1],
                     advance[np.newaxis], tones)[0, 0]


def _add_noise(tf, snr_db, seed, snapshot_index):
    """Add white Gaussian noise to the complex128 ``tf`` in place,
    ``snr_db`` below its strongest port's mean tone power, and return
    it; None or +inf adds none. Port k's draws are its tones' real
    parts, then their imaginary parts."""
    if snr_db is None or snr_db == math.inf:
        return tf
    ref_power = float(np.max(np.mean(np.abs(tf) ** 2, axis=1)))
    n_ports, n_tones = tf.shape
    # one counter block per snapshot; ports are laid out in fixed order
    draws = stream(seed, TAG_NOISE, snapshot_index).standard_normal((n_ports, 2, n_tones))
    draws *= math.sqrt(ref_power * 10.0 ** (-snr_db / 10.0) / 2.0)
    tf.real += draws[:, 0]
    tf.imag += draws[:, 1]
    return tf


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
    once per distinct TX state); it is read, never written. The chain,
    the per-port gain times the drift, and the noise go in place into
    one fresh array, the record's ``h_f``.
    """
    if base_tf is None:
        base_tf = port_stack_response(paths, geometry, tones, mounting_rotation)
    tf = base_tf * system.common_chain
    tf *= (system.per_port_gain * system.drift(snapshot_index, kind="meas"))[:, np.newaxis]
    _add_noise(tf, noise_snr_db, seed, snapshot_index)

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
