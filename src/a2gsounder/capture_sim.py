"""Receiver-chain and fast-switching capture emulation.

The noise-free antenna+channel response is a path sum over the tone
grid (port_stack_response), evaluated by one block-factored kernel for
a shared path row and for one row per switch slot alike. One shared
downconversion chain (a smooth random ripple over the tone grid) feeds
per-port scalar switch-path gains, mirroring a switched single-chain
architecture. A per-snapshot complex drift factor models clock
stability; circular complex Gaussian noise, a Rayleigh amplitude at a
uniform phase drawn in float32 (_add_noise), is injected per tone in
the frequency domain, at one power per capture, fixed by its first
snapshot (noise_sigma), as a receiver's noise floor does not follow
the signal. A snapshot never holds its whole noise-free
response: it is expanded from the path-sum factors (FactoredResponse)
16 ports at a time, times the chain, gains and drift, plus the noise,
through one small scratch block, and each finished block is either
copied into a given array of any complex dtype (or a fresh complex128
one) or cast to ``<c8`` and handed to a capture writer, so a snapshot
written to a file is never held whole. Back-to-back captures replace
the antenna with an attenuator so the same chain can be divided out
later; their base response is one array.

All randomness is counter-based (see _rng), so snapshots can be
simulated in any order or in parallel with bit-identical results.
"""

import math
from dataclasses import dataclass, field
from functools import partial

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
        u = np.linspace(0.0, 1.0, tones.tone_count)
        ripple = 10.0 ** (self.ripple_db * np.cos(2.0 * math.pi * self.ripple_cycles * u) / 20.0)
        return (base * ripple).astype(np.complex128)


@dataclass
class CaptureRecord:
    """One SIMO snapshot, ports x tones: a measured (MEAS) or
    back-to-back (B2B) capture, or a calibrated antenna+channel response
    (CAL). A B2B capture has no TX, so its pose stays at zeros. ``h_f``
    is None for a snapshot whose rows were streamed to a capture file
    (see _gain_and_noise)."""

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


def _path_factors(gains, delays, advance, tones, take=None):
    """The two factors of _path_sum for (R, Q, P) ``gains`` and (R, P)
    ``delays`` and ``advances``: the coarse one, one per tone block with
    the gains folded in, (R, Q*A, P), and the fine one, one per offset in
    a block, (R, P, B). Their batched matmul sums the paths for every
    tone of the (R, Q*A, B) block grid.

    Both are views, after an (R, A, P) phase scratch, of one flat
    complex128 array of the three's size, take(size) (a fresh one
    without it), written by out= ufuncs in the order of the expressions
    they replaced, so their bytes do not depend on the array.
    """
    if not np.all(np.isfinite(gains)):
        raise ValueError("non-finite path gains")
    t = np.where(np.isfinite(delays), delays - advance / SPEED_OF_LIGHT, 0.0)
    rows, sets, count = gains.shape
    coarse_f = tones.tone_frequencies[::_BLOCK]  # (A,)
    blocks = len(coarse_f)
    phase_end = rows * blocks * count
    coarse_end = phase_end * (1 + sets)
    size = coarse_end + rows * count * _BLOCK
    flat = np.empty(size, np.complex128) if take is None else take(size)
    phase, coarse, fine = np.split(flat, [phase_end, coarse_end])
    phase = np.multiply(-2j * math.pi * coarse_f[:, np.newaxis], t[:, np.newaxis, :],
                        out=phase.reshape(rows, blocks, count))
    np.exp(phase, out=phase)
    coarse = np.multiply(gains[:, :, np.newaxis, :], phase[:, np.newaxis],
                         out=coarse.reshape(rows, sets, blocks, count))
    fine = np.multiply(-2j * math.pi * t[:, :, np.newaxis],
                       tones.tone_spacing * np.arange(_BLOCK),
                       out=fine.reshape(rows, count, _BLOCK))
    np.exp(fine, out=fine)
    return coarse.reshape(rows, sets * blocks, count), fine


def _path_sum(gains, delays, advance, tones):
    """sum_p gains[r, q, p] * exp(-j*2*pi*f_n*(delays[r, p] - advance[r, p]/c))
    for every row r, gain set q and tone n: (R, Q, N) from (R, Q, P)
    gains and (R, P) delays and advances (m, toward the source). A padded
    path, with infinite delay, must have zero gain.

    Tone n = a*B + b is at f_n = f_(aB) + b*spacing, so each phase factor
    splits into a coarse factor per block a, folded into the gains, and a
    fine factor per offset b (_path_factors); one batched
    (R, Q*A, P) @ (R, P, B) matmul then sums the paths for every tone.
    The exps cost (Q*A + B) * P per row instead of N * P. Returns a view
    into the (R, Q, A*B) block grid.
    """
    coarse, fine = _path_factors(gains, delays, advance, tones)
    rows, sets = gains.shape[:2]
    return (coarse @ fine).reshape(rows, sets, -1)[:, :, :tones.tone_count]


def _rows_shared(paths, geometry):
    """True when one row of ``paths`` is seen by every port, False when
    slot k feeds port k; any other row count is a ValueError."""
    if len(paths) not in (1, geometry.n_ports):
        raise ValueError(f"paths have {len(paths)} rows; {geometry.n_ports} ports "
                         f"take 1 shared row or one row per port")
    return len(paths) == 1


def port_stack_response(paths, geometry, tones, mounting_rotation=0.0, out=None):
    """Noise-free antenna+channel transfer function, ports x tones.

    Plane-wave model: each path reaches port k with the element gain for
    its arrival direction and an extra phase 2*pi*f*(d . r_k)/c from the
    port's offset toward the source, on top of exp(-j*2*pi*f*delay).

    ``paths`` is SlotPaths, and both forms are one _path_sum call. One
    row (a TX at one waypoint) is seen by every port: the sum runs per
    element, whose V and H gains share its tone phases. One row per port
    (a moving TX) runs per port, padded paths with zero gain, and every
    row equals port_response_row bit for bit. The result is a view whose
    rows lie whole tone blocks apart.

    With ``out``, a FactoredResponse, the response is not expanded: its
    path-sum factors (_path_factors) are written into out's buffer and
    out is returned, for FactoredResponse.product to expand 16 ports at
    a time.
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
    if out is not None:
        out.coarse, out.fine = _path_factors(gains, paths.delays[row], advance, tones, out.take)
        return out
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


# Ports per block of _gain_and_noise: its temporaries are 16 ports in size.
_BLOCK_PORTS = 16


class FactoredResponse:
    """A noise-free ports x tones response times ``chain`` (the common
    chain), held as its path-sum factors ``coarse`` and ``fine`` (see
    _path_factors) in one grow-only complex128 buffer:
    port_stack_response(..., out=this) writes a TX state's factors there
    (0.50 MB for a paper-route state, 2 paths a slot, and 0.93 MB for
    an olin-hover one, 6 paths, at 128 x 1841), and product() expands
    them 16 ports at a time. A synthesis worker keeps one for every
    snapshot it takes and rewrites it only for a new state.
    """

    def __init__(self, ports, chain):
        self.shape = (ports, len(chain))
        self._chain = chain
        self._buffer = np.empty(0, np.complex128)

    def take(self, size):
        """The first ``size`` values of the buffer, grown to hold them."""
        if self._buffer.size < size:
            self._buffer = np.empty(size, np.complex128)
        return self._buffer[:size]

    def product(self, k, gain, out, work):
        """Ports k, k+1, ... of the chained response times ``gain`` (one
        per port), written into ``out``: the block's rows of the factors
        are multiplied into ``work`` (a flat float64 array of at least
        len(gain) x A*B complex values), that times the chain into
        ``out``, then ``out`` times the gains, the operations of
        (port_stack_response * chain) * gain in their order."""
        sets = self.shape[0] // len(self.coarse)
        rows = slice(k // sets, (k + len(gain)) // sets)
        coarse, fine = self.coarse[rows], self.fine[rows]
        shape = (len(coarse), coarse.shape[1], _BLOCK)
        sums = work[:2 * math.prod(shape)].view(np.complex128).reshape(shape)
        np.matmul(coarse, fine, out=sums)
        np.multiply(sums.reshape(len(gain), -1)[:, :self.shape[1]], self._chain, out=out)
        out *= gain[:, np.newaxis]
        return out


def noise_scratch(tones):
    """Scratch for _gain_and_noise on a response of ``tones`` tones, one
    float64 array: a 16-port complex128 block (0.47 MB at 1841 tones),
    then a float64 block the size of a 16-port complex128 block of whole
    64-tone blocks (0.48 MB), where FactoredResponse.product sums the
    paths, noise_sigma takes |.|^2, the noise is drawn (two float32
    uniforms a tone and one float32 cosine, 3 x 16 x tones float32, which
    fit in its 4 x 16 x whole-block tones) and a finished block is cast
    to ``<c8`` for a writer."""
    return np.empty(2 * _BLOCK_PORTS * (tones + -(-tones // _BLOCK) * _BLOCK))


def _blocks(base, shape, gain, scratch=None):
    """(k, block, work) for each 16-port block of a ``shape`` (ports x
    tones) base response times gain[:, None]: ``base(k, gain, block,
    work)`` writes ports k, k+1, ... of the base times ``gain`` (one per
    port) into ``block``, with ``work`` to spare (FactoredResponse.product,
    or a multiply of a whole array). ``block`` is the complex128 block of
    ``scratch`` (noise_scratch of the tone count; a fresh one without
    it) and ``work`` its float64 block, each free for the caller's use
    until the next block is taken."""
    tones = shape[1]
    if scratch is None:
        scratch = noise_scratch(tones)
    spare = scratch[:2 * _BLOCK_PORTS * tones].view(np.complex128).reshape(-1, tones)
    work = scratch[2 * _BLOCK_PORTS * tones:]
    for k in range(0, shape[0], _BLOCK_PORTS):
        g = gain[k:k + _BLOCK_PORTS]
        yield k, base(k, g, spare[:len(g)], work), work


def noise_sigma(snr_db, base, shape, gain, scratch=None):
    """The standard deviation of the real and the imaginary part of the
    noise of a capture whose first snapshot is ``base`` times ``gain``
    (see _blocks): the noise per tone lies ``snr_db`` below the mean
    tone power of that snapshot's strongest port, for every snapshot of
    the capture, as a receiver's noise floor does not follow the signal.
    None when ``snr_db`` is None or +inf: the capture has no noise. The
    product is formed 16 ports at a time through ``scratch``, its |.|^2
    in the float64 block."""
    if snr_db is None or snr_db == math.inf:
        return None

    def strongest(block, work):  # the largest mean tone power of the block's ports
        power = np.absolute(block, out=work[:block.size].reshape(block.shape))
        return np.max(np.mean(np.square(power, out=power), axis=1))

    ref_power = float(max(strongest(b, work) for _, b, work in _blocks(base, shape, gain, scratch)))
    return math.sqrt(ref_power * 10.0 ** (-snr_db / 10.0) / 2.0)


# 2*pi rounded to float32 once: the phase of a uniform u is this times u.
_TWO_PI = np.float32(2.0 * math.pi)

# The largest noise amplitude over sigma, up to float32 rounding: rho at
# the largest float32 uniform, 1 - 2^-24, is sqrt(48 ln 2) = 5.77 (15.2 dB).
NOISE_PEAK = math.sqrt(48.0 * math.log(2.0))


def _add_noise(block, rng, sigma, work):
    """Add circular complex Gaussian noise of standard deviation ``sigma``
    (a float32) in each part to ``block`` (ports x tones complex128), in
    place: sigma * rho * (cos phi, sin phi) per tone, a Rayleigh
    amplitude rho = sqrt(-2 ln(1 - u1)) at a uniform phase phi = 2*pi*u2
    (Box and Muller's transform), all in float32. ``rng`` fills float32
    uniforms (ports, 2, tones) in ``work``, port k's u1 for its tones,
    then its u2; a float32 uniform is a multiple of 2^-24 below 1, so
    1 - u1 is exact and rho is at most NOISE_PEAK. sigma multiplies
    after the root, so the largest float32 value is the amplitude
    sigma * rho itself (no sigma^2), within 3 dB of the larger part."""
    flat = work.view(np.float32)
    uniforms = flat[:2 * block.size].reshape(len(block), 2, -1)
    cos = flat[2 * block.size:3 * block.size].reshape(block.shape)
    rng.random(out=uniforms, dtype=np.float32)
    rho, phi = uniforms[:, 0], uniforms[:, 1]
    np.subtract(1, rho, out=rho)
    np.log(rho, out=rho)
    rho *= -2
    np.sqrt(rho, out=rho)
    rho *= sigma
    phi *= _TWO_PI
    np.cos(phi, out=cos)
    np.sin(phi, out=phi)
    cos *= rho
    phi *= rho
    block.real += cos
    block.imag += phi


def _gain_and_noise(out, base, shape, gain, sigma, seed, snapshot_index, scratch=None):
    """A ``shape`` (ports x tones) base response times gain[:, None] plus
    circular complex Gaussian noise of standard deviation ``sigma`` in
    its real and its imaginary part (noise_sigma; None adds none; see
    _add_noise), written into ``out`` (an array of that shape and any
    complex dtype, or a fresh complex128 one when None) and returned, or,
    when ``out`` is a writer ``rows(k, block)``, handed to it a finished
    block at a time, and None returned. The uniforms come from one
    counter block per snapshot, port after port, so the bytes do not
    depend on the block size.

    It takes 16 ports at a time, in one pass (see _blocks for ``base``
    and ``scratch``): it forms each block's product, adds the block's
    noise and copies the block into ``out``, or casts it to a
    C-contiguous ``<c8`` block for rows(k, block), the cast ``out``'s
    rows would make. The draws and the cast block sit in the float64
    block of ``scratch``, each free by the time the next is written.
    """
    rows = out if callable(out) else None
    if out is None:
        out = np.empty(shape, np.complex128)
    if sigma is not None:
        rng = stream(seed, TAG_NOISE, snapshot_index)
        sigma = np.float32(sigma)
    for k, b, work in _blocks(base, shape, gain, scratch):
        if sigma is not None:
            _add_noise(b, rng, sigma, work)
        if rows is None:
            out[k:k + _BLOCK_PORTS] = b
        else:
            cast = work[:b.size].view("<c8").reshape(b.shape)
            np.copyto(cast, b)
            rows(k, cast)
    return out if rows is None else None


def simulate_snapshot(paths, geometry, tones, system, noise_snr_db=None,
                      snapshot_index=0, timestamp=0.0, mounting_rotation=0.0, seed=0,
                      base_tf=None, out=None, scratch=None, sigma=None):
    """Capture one SIMO snapshot of SlotPaths ``paths``.

    One row is shared by all ports; one row per port means the
    transmitter moves within the snapshot (port k is captured at its
    own switch slot). The record's TX position is slot 0's and its tilt
    the paths' tilt. ``sigma`` is the noise of the capture the snapshot
    belongs to, noise_sigma of its first snapshot with
    ``noise_snr_db``; None takes this snapshot as that first one,
    as in a one-snapshot capture (no noise when ``noise_snr_db`` is None
    or +inf). ``base_tf`` may carry these paths' response times
    ``system.common_chain`` as a FactoredResponse, already filled by
    port_stack_response (a synthesis worker keeps one and refills it
    only for a new TX state); without it a fresh one is filled. The
    response times the per-port gain and the drift, plus the noise, is
    expanded 16 ports at a time through ``scratch`` into ``out`` (see
    _gain_and_noise), which becomes the record's ``h_f``: a ports x
    tones array of any complex dtype, or a fresh complex128 one. When
    ``out`` is a writer ``rows(k, block)``, such as a capture writer's
    rows bound to this snapshot, each block goes to it as a ``<c8``
    block and the record's ``h_f`` is None.
    """
    if base_tf is None:
        base_tf = port_stack_response(paths, geometry, tones, mounting_rotation,
                                      out=FactoredResponse(geometry.n_ports, system.common_chain))
    gain = system.per_port_gain * system.drift(snapshot_index, kind="meas")
    if sigma is None:
        sigma = noise_sigma(noise_snr_db, base_tf.product, base_tf.shape, gain, scratch)
    return CaptureRecord(
        h_f=_gain_and_noise(out, base_tf.product, base_tf.shape, gain, sigma, seed,
                            snapshot_index, scratch),
        tone_plan=tones, timestamp=timestamp, tx_position=paths.tx_position,
        tx_tilt=paths.tx_tilt, snr_db=noise_snr_db, seed=seed, snapshot_index=snapshot_index)


def simulate_b2b(tones, system, attenuator, snapshot_count=1, seed=0,
                 noise_snr_db=None, snapshot_period=0.05, rows=None):
    """Back-to-back capture series: chain and switch paths through the
    attenuator, no channel and no antenna pattern. Returns an ordered
    iterator of B2B CaptureRecords, each computed as it is taken.

    The base response, chain times port gain times attenuator, is built
    once, in place. The noise of every snapshot lies ``noise_snr_db``
    below the strongest port of snapshot 0 (noise_sigma, formed through
    the same blocks). Each snapshot is the base times its drift, plus
    the noise, made 16 ports at a time through one noise_scratch block
    (see _gain_and_noise) into a fresh complex128 array per record, or, with
    ``rows``, a capture writer's rows(s, k, block), handed to rows(s,
    ...) a ``<c8`` block at a time, its record carrying no payload
    (``h_f`` None).
    """
    if snapshot_count < 1:
        raise ValueError("snapshot_count must be >= 1")
    scratch = noise_scratch(tones.tone_count)
    base = system.common_chain[np.newaxis, :] * system.per_port_gain[:, np.newaxis]
    base *= attenuator.response(tones)  # in place: no second ports x tones array

    def product(k, gain, block, work):
        return np.multiply(base[k:k + len(gain)], gain[:, np.newaxis], out=block)

    def drift(s):
        return np.full(len(base), system.drift(s, kind="b2b"))

    sigma = noise_sigma(noise_snr_db, product, base.shape, drift(0), scratch)

    def snapshot(s):
        out = None if rows is None else partial(rows, s)
        return CaptureRecord(
            h_f=_gain_and_noise(out, product, base.shape, drift(s), sigma, seed, s, scratch),
            tone_plan=tones, timestamp=s * snapshot_period, snr_db=noise_snr_db, seed=seed,
            snapshot_index=s, record_type="B2B")

    return map(snapshot, range(int(snapshot_count)))
