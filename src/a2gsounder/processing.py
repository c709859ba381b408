"""Per-snapshot channel metrics.

Pipeline, per calibrated SIMO snapshot: the impulse response is the
unitary inverse DFT of each port's transfer function, zero-padded to
the tone plan's transform_length (the smallest 11-smooth length, 1848
for 1841 tones) and taken in complex64, whose power is taken once, in
float64; a dual noise threshold (the larger of noise floor + 6 dB and
peak - 20 dB) and a 2 us delay gate anchored at the first surviving bin
clean it; total received power adds the gated energies of all ports
non-coherently; the RMS delay spread is computed from the strongest
port's gated power delay profile; the correlation matrix is the
tone-averaged outer product of the stacked port responses, summarized
by eigenvalue ratios; and the angular picture is the mean gated energy
per column and polarization. snapshot_metrics runs every step in one
Workspace, which a caller reuses from snapshot to snapshot: one
complex128 buffer of ports x transform_length that holds, in turn, the
capture payload (after its first half), the calibrated response (its
first ports x tones), per-row Re/Im planes, the complex64 delay domain
(its first half) and the float64 power (its second half).

Delay spreads are quoted in dBs, decibels relative to one second
(-90 dBs is 1 ns).

A response the metrics cannot be computed from raises AnalysisError:
a port count that differs from the geometry's, a delay gate that
reaches the tone plan's unambiguous delay, or no port keeping a bin.
The tone grid is not checked: TonePlan builds it uniform.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .waveform import smooth_length


class AnalysisError(ValueError):
    """A calibrated response the metrics cannot be computed from."""


@dataclass(frozen=True)
class GateConfig:
    """Dual-threshold and delay-gate settings."""

    noise_margin_db: float = 6.0
    peak_margin_db: float = 20.0
    delay_gate: float = 2e-6
    noise_window_fraction: float = 0.2

    def __post_init__(self):
        if self.noise_margin_db <= 0 or self.peak_margin_db <= 0:
            raise ValueError("gate margins must be positive")
        if self.delay_gate <= 0:
            raise ValueError("delay_gate must be positive")
        if not 0.0 < self.noise_window_fraction < 1.0:
            raise ValueError("noise_window_fraction must be in (0, 1)")


@dataclass
class RawCIR:
    """Per-port impulse response before thresholding."""

    h: np.ndarray          # ports x delay bins, complex
    delays: np.ndarray     # seconds, one per bin


@dataclass
class GatedCIR:
    """Impulse response after noise thresholding and delay gating, as
    float64 power: a bin is nonzero exactly when it is kept."""

    power: np.ndarray        # ports x delay bins, float64; zeroed bins exactly zero
    delays: np.ndarray
    noise_floor: np.ndarray  # linear power per port
    threshold: np.ndarray    # applied P_lambda per port
    all_zero_ports: tuple = ()

    @property
    def n_ports(self):
        return self.power.shape[0]

    @cached_property
    def port_energy(self):
        """Gated energy per port."""
        return np.sum(self.power, axis=1)


@dataclass
class DelaySpread:
    sigma_tau_s: float
    sigma_tau_dbs: float
    strongest_port: int
    single_bin: bool = False


@dataclass
class EigenReport:
    correlation: np.ndarray
    eigenvalues: np.ndarray   # sorted descending
    gamma12_db: float
    gamma14_db: float


# Ports per block of the Workspace's in-place passes: each copies one
# block at a time through its 16-port block (or, where numpy copies an
# operand that overlaps the output, through a block-sized temporary).
_BLOCK_PORTS = 16


def cast_by_blocks(out, h_f, factor=None):
    """``out`` = ``h_f``, times ``factor`` when given, in ``out``'s dtype,
    16 ports at a time; returns ``out``.

    ``h_f`` is an array apart from ``out`` or, as a capture read leaves
    it, the payload in the second half of a Workspace's buffer with
    ``out`` its response: the blocks go in port order, so no row is
    written before it is read, and where a block of ``h_f`` overlaps the
    rows written numpy copies that one block.
    """
    for k in range(0, len(out), _BLOCK_PORTS):
        rows = slice(k, k + _BLOCK_PORTS)
        if factor is None:
            np.copyto(out[rows], h_f[rows])
        else:
            np.multiply(h_f[rows], factor[rows], out=out[rows])
    return out


class Workspace:
    """The memory one snapshot's analysis runs in, reused for every
    snapshot one thread analyzes: one C-contiguous complex128 buffer of
    ports x L, where L = smooth_length(tones) is the delay transform's
    length, the bool ports x L ``mask`` and a 16-port complex128
    ``block`` (4.49 MB at 128 x 1841, L = 1848). Views of the buffer
    take each role in turn:

    - ``payload``, the little-endian complex64 ports x tones that starts
      half-way through the buffer, receives the capture read;
    - ``response``, the complex128 ports x tones at its start, receives
      the calibrated response (calibrate's product with the payload, or
      the payload cast by cast_by_blocks), which the correlation reads
      interleaved;
    - ``re`` and ``im``, the two halves of each response row's float64
      view: the correlation de-interleaves the response into them
      (``planes``);
    - ``delay``, the complex64 ports x L first half, receives those
      planes cast to its tone columns and zeros in its pad columns
      (``delay_domain``), and the IFFT runs in place;
    - ``power``, the float64 ports x L second half, receives the gated
      power; it lies apart from ``delay``.

    Every pass goes 16 ports at a time, in port order, so no row is
    written before it is read: a response row lies over payload rows of
    at most its own index (the payload starts at byte 8 * ports * L, and
    L >= tones), and a delay row over plane rows of at most its own index
    (a delay row is 8 * L bytes and a plane row 16 * tones, and
    L < 2 * tones). The two passes that move rows within the buffer
    (``planes`` and ``delay_domain``) go through ``block``.
    """

    def __init__(self, shape):
        ports, tones = self.shape = tuple(shape)
        length = smooth_length(tones)
        size = ports * length  # complex128 elements: 2 * size complex64 or float64
        self.buffer = np.empty(size, np.complex128)
        self.mask = np.empty((ports, length), bool)
        self.block = np.empty((min(ports, _BLOCK_PORTS), tones), np.complex128)
        c8 = self.buffer.view("<c8")
        self.delay = c8[:size].reshape(ports, length)
        self.payload = c8[size:size + ports * tones].reshape(self.shape)
        self.power = self.buffer.view(np.float64)[size:].reshape(ports, length)
        self.response = self.buffer[:ports * tones].reshape(self.shape)
        self.re, self.im = np.split(self.response.view(np.float64), 2, axis=1)

    @property
    def nbytes(self):
        """Bytes of the arrays that own their memory, each counted once."""
        return sum(a.nbytes for a in vars(self).values()
                   if isinstance(a, np.ndarray) and a.base is None)

    def _blocks(self):
        """(rows, the block's first len(rows) rows) in port order."""
        ports = self.shape[0]
        for k in range(0, ports, _BLOCK_PORTS):
            yield slice(k, k + _BLOCK_PORTS), self.block[:min(_BLOCK_PORTS, ports - k)]

    def planes(self):
        """De-interleave ``response`` in place into per-row [Re | Im]
        planes; returns the views (``re``, ``im``)."""
        for rows, block in self._blocks():
            np.copyto(block, self.response[rows])
            np.copyto(self.re[rows], block.real)
            np.copyto(self.im[rows], block.imag)
        return self.re, self.im

    def delay_domain(self):
        """Cast the planes into ``delay``'s tone columns and write its pad
        columns zero; returns it. The pad lies over plane bytes, so it is
        written for every snapshot. The rows go in order, each block whole
        in ``block`` before it is written."""
        tones = self.shape[1]
        for rows, block in self._blocks():
            np.copyto(block.real, self.re[rows])
            np.copyto(block.imag, self.im[rows])
            np.copyto(self.delay[rows, :tones], block)
            self.delay[rows, tones:] = 0
        return self.delay


_WINDOWS = ("rect", "hann")


def cir_from_tf(cal, window="rect", out=None):
    """Unitary inverse DFT of each port's transfer function, zero-padded
    from tone_count N to the tone plan's transform_length L.

    L is the smallest length >= N whose prime factors are all <= 11
    (1848 for 1841 = 7 x 263; N itself when N is 11-smooth), so the
    transform takes no slow large-prime pass. The L delay bins are
    spaced 1/(L*tone_spacing) (TonePlan.delay_bin_spacing) over the
    same 1/tone_spacing period: finer samples of the same band-limited
    response, whose resolution stays 1/(N*tone_spacing). The transform
    is unitary over the L points, so the bins keep the tones' energy.
    A non-rectangular window tapers the N tones, not the pad, before the
    transform; note the usual trade: it lowers delay sidelobes but widens
    (scallops) each path's main lobe, spreading energy to neighboring
    bins.

    The transform runs in the precision of ``cal.h_f``: complex64 in,
    complex64 out; complex128 in, complex128 out. snapshot_metrics hands
    it complex64: the capture file already quantizes every sample to
    float32, and the float32 transform adds rounding about 140 dB below
    the peak, where the gate's threshold sits at most 20 dB below it.
    ``cal.h_f`` is ports x N, or ports x L with zero pad columns, as
    Workspace.delay_domain leaves it. ``out``, a ports x L array of
    ``cal.h_f``'s dtype that may be that padded ``cal.h_f`` itself,
    receives the taper and the transform in place.
    """
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}")
    plan = cal.tone_plan
    n = plan.tone_count
    h_f = cal.h_f
    if window == "hann":  # a taper of h_f's real dtype does not widen h_f
        taper = np.hanning(n).astype(h_f.real.dtype)
        if out is None:
            h_f = h_f[:, :n] * taper
        else:
            np.multiply(h_f[:, :n], taper, out=out[:, :n])
            out[:, n:] = 0  # already zero when out is h_f
            h_f = out
    # n= pads only an h_f of N tones; a padded one is transformed as it is
    h = np.fft.ifft(h_f, n=plan.transform_length, axis=1, norm="ortho", out=out)
    return RawCIR(h=h, delays=plan.delay_bins)


def threshold_and_gate(raw, gate=None, out=None, keep=None):
    """Apply the dual noise threshold and the excess-delay gate.

    Per port: the noise floor is the mean power over the tail of the
    delay axis; P_lambda is the larger of noise floor + noise margin and
    peak - peak margin; bins below P_lambda are zeroed, then bins later
    than the first surviving bin plus the delay gate are zeroed. Ports
    where nothing survives are reported, not fatal. The float64 power is
    computed once and handed on, gated, as GatedCIR.power; the complex
    values of the kept bins stay in ``raw.h``.

    ``out`` (float64) and ``keep`` (bool), arrays of ``raw.h``'s shape,
    receive the power and the keep mask in place of fresh arrays; the
    returned GatedCIR.power is then ``out``.
    """
    gate = gate or GateConfig()
    if raw.h.size == 0:
        raise ValueError("empty impulse response")
    if gate.delay_gate >= raw.delays[-1] + (raw.delays[1] - raw.delays[0] if len(raw.delays) > 1 else 0):
        raise AnalysisError("delay_gate must be below the maximum unambiguous delay")

    power = np.absolute(raw.h, out=out, dtype=np.float64)
    np.square(power, out=power)
    n_ports, n_bins = power.shape
    tail = max(1, int(math.ceil(gate.noise_window_fraction * n_bins)))
    noise_floor = np.mean(power[:, n_bins - tail:], axis=1)
    peak = np.max(power, axis=1)
    threshold = np.maximum(noise_floor * 10.0 ** (gate.noise_margin_db / 10.0),
                           peak * 10.0 ** (-gate.peak_margin_db / 10.0))

    keep = np.greater_equal(power, threshold[:, np.newaxis], out=keep)
    any_kept = keep.any(axis=1) & (peak > 0.0)
    first_delay = raw.delays[np.argmax(keep, axis=1)]  # undefined rows cut whole below
    # the delays ascend, so each port keeps a prefix: the bins up to first + gate
    cuts = np.searchsorted(raw.delays, first_delay + gate.delay_gate, "right")
    cuts[~any_kept] = 0
    for port, cut in enumerate(cuts):
        keep[port, cut:] = False
    # power is finite and non-negative, so a dropped bin becomes exactly +0.0
    np.multiply(power, keep, out=power)
    return GatedCIR(power=power, delays=raw.delays,
                    noise_floor=noise_floor, threshold=threshold,
                    all_zero_ports=tuple(np.nonzero(~any_kept)[0].tolist()))


def rx_power(gated):
    """Total received power: non-coherent sum of gated energy over all
    ports and delay bins."""
    return float(np.sum(gated.power))


def rms_delay_spread(gated):
    """RMS delay spread of the strongest port's gated power delay profile.

    The strongest port maximizes gated energy (ties break to the lowest
    port id). A single-bin profile yields sigma 0 and a -inf dBs
    sentinel, flagged via ``single_bin``.
    """
    energy = gated.port_energy  # exactly 0 at each of all_zero_ports
    if np.all(energy <= 0.0):
        raise AnalysisError("no port has surviving bins")
    strongest = int(np.argmax(energy))

    pdp = gated.power[strongest]
    nz = np.nonzero(pdp)[0]
    if nz.size == 1:
        return DelaySpread(0.0, -math.inf, strongest, single_bin=True)
    p = pdp[nz]
    tau = gated.delays[nz]
    total = np.sum(p)
    mean = np.sum(p * tau) / total
    second = np.sum(p * tau * tau) / total
    var = max(second - mean * mean, 0.0)
    sigma = math.sqrt(var)
    dbs = 10.0 * math.log10(sigma) if sigma > 0 else -math.inf
    return DelaySpread(sigma, dbs, strongest, single_bin=sigma == 0.0)


def correlation_and_eigen(cal, workspace=None):
    """Tone-averaged correlation matrix of the stacked port responses.

    R = mean over tones of H(f) H(f)^dagger (ports x ports), in complex128
    from real products at half the complex flops: Re R = X X^T of the
    float64 view X of H, Im R = C - C^T with C = Im H Re H^T, so R is
    exactly Hermitian. Eigenvalues are sorted descending; gamma12 and
    gamma14 are the dB ratios of the first to the second and fourth.
    Ratios degenerate to +inf when the divisor eigenvalue vanishes
    (rank-deficient response) and gamma14 is NaN with fewer than 4 ports.

    It runs in ``workspace`` (a Workspace of ``cal.h_f``'s shape; a
    fresh one when None). A ``cal.h_f`` other than its ``response`` (its
    ``payload``, or an array apart from it) is first copied into the
    response by cast_by_blocks and never written. X X^T reads the
    response interleaved; then it is de-interleaved in place into
    per-row [Re | Im] planes (Workspace.planes), which C reads as
    strided views (unit inner stride, row stride 2 * tones) and which
    stay there for the delay domain.
    """
    ws = workspace or Workspace(cal.h_f.shape)
    h = ws.response
    if cal.h_f is not h:
        cast_by_blocks(h, cal.h_f)
    n_ports, n_tones = h.shape
    x = h.view(np.float64)
    xx = x @ x.T
    re, im = ws.planes()
    c = im @ re.T
    r = (xx + 1j * (c - c.T)) / n_tones
    eig = np.linalg.eigvalsh(r)[::-1].copy()

    trace = float(np.sum(eig))
    tiny = max(trace, 0.0) * 1e-12

    def ratio_db(i):
        if trace <= 0.0:
            return math.nan
        if eig[i] <= tiny:
            return math.inf
        return 10.0 * math.log10(eig[0] / eig[i])

    gamma12 = ratio_db(1) if n_ports >= 2 else math.nan
    gamma14 = ratio_db(3) if n_ports >= 4 else math.nan
    return EigenReport(correlation=r, eigenvalues=eig,
                       gamma12_db=gamma12, gamma14_db=gamma14)


def column_power_profile(gated, geometry):
    """Mean gated energy per (column, polarization), in dB.

    Non-coherent: each cell is 10*log10 of the average of the column's
    per-port gated energies for one polarization (V first).
    """
    if gated.n_ports != geometry.n_ports:
        raise AnalysisError(
            f"gated CIR has {gated.n_ports} ports but geometry has {geometry.n_ports}")
    means = geometry.column_means(gated.port_energy)
    with np.errstate(divide="ignore"):
        return np.where(means > 0, 10.0 * np.log10(means), -math.inf)


def los_bin_power_db(gated, strongest_port):
    """Power of the strongest gated bin of the strongest port, dB."""
    peak = float(np.max(gated.power[strongest_port]))
    return 10.0 * math.log10(peak) if peak > 0 else -math.inf


def snapshot_metrics(cal, geometry, gate=None, window="rect", workspace=None):
    """Run the full per-snapshot pipeline on a calibrated response; returns
    the snapshot's metrics row.

    The row is a dict in column order: index, time and slot-0 TX
    position, received power (linear and dB), delay spread (s and dBs),
    strongest port, LOS bin power, the eigenvalue ratios and the span
    of the first to the last eigenvalue (+inf when either is not
    positive), the column of strongest V power, then col{c}_v_db and
    col{c}_h_db per column. CSV, JSON, the summary and the route report
    all read these rows.

    Every ports x tones step writes into ``workspace`` (a Workspace of
    ``cal.h_f``'s shape; a fresh one when None), so a caller that passes
    the same one for each snapshot allocates no large array per snapshot.
    ``cal.h_f`` may be its ``response``, which is then used as it is;
    any other ``cal.h_f`` is copied into the response and never written
    (see correlation_and_eigen). The response is then overwritten in the
    order Workspace describes.
    """
    ws = workspace or Workspace(cal.h_f.shape)
    eig = correlation_and_eigen(cal, ws)
    raw = cir_from_tf(replace(cal, h_f=ws.delay_domain()), window=window, out=ws.delay)
    gated = threshold_and_gate(raw, gate, out=ws.power, keep=ws.mask)
    spread = rms_delay_spread(gated)
    columns = column_power_profile(gated, geometry)
    p_rx = rx_power(gated)
    e = eig.eigenvalues
    row = {
        "snapshot_index": cal.snapshot_index,
        "timestamp": cal.timestamp,
        "tx_x": float(cal.tx_position[0]),
        "tx_y": float(cal.tx_position[1]),
        "tx_z": float(cal.tx_position[2]),
        "p_rx": p_rx,
        "p_rx_db": 10.0 * math.log10(p_rx) if p_rx > 0 else -math.inf,
        "sigma_tau_s": spread.sigma_tau_s,
        "sigma_tau_dbs": spread.sigma_tau_dbs,
        "strongest_port": spread.strongest_port,
        "los_bin_power_db": los_bin_power_db(gated, spread.strongest_port),
        "gamma12_db": eig.gamma12_db,
        "gamma14_db": eig.gamma14_db,
        "eigen_span_db": (math.inf if len(e) < 2 or e[0] <= 0 or e[-1] <= 0
                          else 10.0 * math.log10(e[0] / e[-1])),
        "argmax_v_column": int(np.argmax(columns[:, 0])),
    }
    for col, (v_db, h_db) in enumerate(columns):
        row[f"col{col}_v_db"] = v_db
        row[f"col{col}_h_db"] = h_db
    return row
