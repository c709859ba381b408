import hashlib
import math

import host_class
import numpy as np
import pytest
from oracles import eigvals_charpoly_bisect

import a2gsounder as a2g
from a2gsounder.capture_sim import CaptureRecord
from a2gsounder.pipeline import report_rows
from a2gsounder.processing import (AnalysisError, GateConfig, GatedCIR, cir_from_tf,
                                   column_power_profile, correlation_and_eigen,
                                   rms_delay_spread, rx_power,
                                   threshold_and_gate)
from a2gsounder.waveform import TonePlan

PLAN = TonePlan(tone_count=128)


def cal_of(h, plan=PLAN):
    return CaptureRecord(h_f=np.asarray(h, complex), tone_plan=plan)


def gated_of(amps, delays):
    power = np.abs(np.atleast_2d(np.asarray(amps, complex))) ** 2
    return GatedCIR(power=power, delays=np.asarray(delays, float),
                    noise_floor=np.zeros(power.shape[0]), threshold=np.zeros(power.shape[0]))


class TestCirFromTf:
    def test_on_grid_delay_single_bin(self):
        tau = PLAN.delay_bins[17]
        h = np.exp(-2j * math.pi * PLAN.tone_frequencies * tau)[np.newaxis, :]
        raw = cir_from_tf(cal_of(h))
        power = np.abs(raw.h[0]) ** 2
        assert int(np.argmax(power)) == 17
        others = np.delete(power, 17)
        assert np.max(others) < 1e-20 * power[17]

    def test_constant_response_impulse_at_zero(self):
        raw = cir_from_tf(cal_of(np.ones((2, PLAN.tone_count))))
        power = np.abs(raw.h) ** 2
        assert np.argmax(power[0]) == 0 and np.argmax(power[1]) == 0
        assert np.sum(power[:, 1:]) < 1e-20 * power[0, 0]

    def test_parseval_identity(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, PLAN.tone_count)) + 1j * rng.standard_normal((4, PLAN.tone_count))
        raw = cir_from_tf(cal_of(h))
        a = np.sum(np.abs(raw.h) ** 2)
        b = np.sum(np.abs(h) ** 2)
        assert abs(a - b) <= 1e-12 * b

    @pytest.mark.parametrize("window", ["rect", "hann"])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_transform_keeps_the_input_precision(self, dtype, window):
        h = np.ones((2, PLAN.tone_count), dtype)
        raw = cir_from_tf(CaptureRecord(h_f=h, tone_plan=PLAN), window=window)
        assert raw.h.dtype == dtype

    def test_parseval_identity_in_complex64(self):
        # A radix-2 FFT of n points in unit roundoff u errs in norm by at
        # most about log2(n) * eta, eta = u + gamma_4 * sqrt(2) ~ 6.7 u
        # (Higham, Accuracy and Stability of Numerical Algorithms, thm
        # 24.2); the orthonormal scale adds one rounding. Energy is the
        # squared norm, so its relative error is at most about twice that:
        # 2 * (6.7 * 7 + 1) * 2**-24 ~ 5.7e-6 at n = 128.
        n = PLAN.tone_count
        bound = 2.0 * (6.7 * math.log2(n) + 1.0) * 2.0 ** -24
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        h = h.astype(np.complex64)
        raw = cir_from_tf(CaptureRecord(h_f=h, tone_plan=PLAN))
        a = np.sum(np.abs(raw.h.astype(np.complex128)) ** 2)
        b = np.sum(np.abs(h.astype(np.complex128)) ** 2)
        assert abs(a - b) <= bound * b

    def test_hann_window_spreads_mainlobe(self):
        tau = PLAN.delay_bins[40] + 0.5 * PLAN.delay_resolution  # worst-case straddle
        h = np.exp(-2j * math.pi * PLAN.tone_frequencies * tau)[np.newaxis, :]
        rect = np.abs(cir_from_tf(cal_of(h), window="rect").h[0]) ** 2
        hann = np.abs(cir_from_tf(cal_of(h), window="hann").h[0]) ** 2
        # hann trades far sidelobes for a wider main lobe
        assert hann[45] / hann.max() < rect[45] / rect.max()

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError):
            cir_from_tf(cal_of(np.ones((1, PLAN.tone_count))), window="kaiser")

    @pytest.mark.parametrize("plan", [TonePlan(3.5e9, 0.1, 1840), TonePlan(6e9, 0.01, 1840)],
                             ids=["3.5GHz-0.1Hz", "6GHz-0.01Hz"])
    def test_fine_spacing_at_a_high_center(self, plan):
        # the absolute tone frequencies of these plans round unevenly; the
        # transform reads only the tone count and spacing
        raw = cir_from_tf(cal_of(np.ones((2, plan.tone_count)), plan))
        assert np.argmax(np.abs(raw.h[0])) == 0 and np.argmax(np.abs(raw.h[1])) == 0
        np.testing.assert_array_equal(raw.delays, plan.delay_bins)


U32 = 2.0 ** -24  # unit roundoff of float32


def prime_factors(n):
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def mixed_radix_bound(length):
    """First-order bound on the relative norm-wise error of a float32
    unitary FFT of ``length`` points taken as one pass per prime factor r.

    A pass is a set of r-point DFTs: each output sums r products of a
    sample and a rounded twiddle, so it errs by at most (u + sqrt(2)
    gamma_2 + gamma_{r-1}) times the sum of the r input magnitudes
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and
    3.6), at most (r + 2 sqrt(2)) u sqrt(r) times the input's norm. The
    r outputs have sqrt(r) times the input's norm, so the pass errs by
    (r + 2 sqrt(2)) u sqrt(r) relative to its output. Each pass is a
    scaled unitary map, so the errors add; the twiddle products between
    passes add (2 sqrt(2) + 1) u each, and the 1/sqrt(length) scale u.
    pocketfft's radix-4 pass and its paired radix-7 and radix-11
    butterflies do fewer operations than this count.
    """
    per_pass = sum((r + 2.0 * math.sqrt(2.0)) * math.sqrt(r) + 2.0 * math.sqrt(2.0) + 1.0
                   for r in prime_factors(length))
    return (per_pass + 1.0) * U32


def dirichlet(plan, bins):
    """The unitary inverse DFT over transform_length L of one path's
    N tones, the path ``bins`` bin spacings late, in closed form:
    e^{-j2pi f_0 tau} sum_{n<N} e^{j2pi n (k - bins) / L} / sqrt(L)
    = e^{-j2pi f_0 tau} e^{j pi x (N-1) / L} sin(pi x N / L) / (sqrt(L) sin(pi x / L)),
    x = k - bins, N / sqrt(L) times the phase where x = 0."""
    n, length = plan.tone_count, plan.transform_length
    tau = bins * plan.delay_bin_spacing
    x = np.arange(length) - bins
    s = np.sin(np.pi * x / length)
    ratio = np.where(s == 0.0, float(n),
                     np.sin(np.pi * x * n / length) / np.where(s == 0.0, 1.0, s))
    phase = np.exp(-2j * math.pi * plan.tone_frequencies[0] * tau
                   + 1j * math.pi * x * (n - 1) / length)
    return phase * ratio / math.sqrt(length)


class TestPaddedTransform:
    """The default 1841 tones transformed over 1848 padded points."""

    PADDED = TonePlan()

    def path(self, bins):
        tau = bins * self.PADDED.delay_bin_spacing
        return np.exp(-2j * math.pi * self.PADDED.tone_frequencies * tau)[np.newaxis, :]

    @pytest.mark.parametrize("bins", [37.0, 37.5, 1000.0, 1500.5], ids=["on-37", "half-37",
                                                                        "on-1000", "half-1500"])
    def test_one_path_gives_the_dirichlet_kernel_in_complex64(self, bins):
        plan = self.PADDED
        n, length = plan.tone_count, plan.transform_length
        assert (n, length) == (1841, 1848)
        h_f = self.path(bins).astype(np.complex64)
        raw = cir_from_tf(CaptureRecord(h_f=h_f, tone_plan=plan))
        assert raw.h.dtype == np.complex64 and raw.h.shape == (1, length)
        np.testing.assert_array_equal(raw.delays, plan.delay_bins)
        want = dirichlet(plan, bins)
        # the complex64 input is each unit tone rounded (at most u each),
        # and the transform adds mixed_radix_bound; both relative to the
        # response's norm sqrt(N), which also bounds any one bin's error
        eps = mixed_radix_bound(length) + U32
        err = raw.h[0].astype(np.complex128) - want
        assert np.linalg.norm(err) <= eps * math.sqrt(n)
        assert np.max(np.abs(err)) <= eps * math.sqrt(n)
        # N < L: even a path on the bin grid spreads over the bins
        power = np.abs(want) ** 2
        peak = int(bins)
        assert np.sum(power) - power[peak] > 1e-3 * power[peak]

    def test_parseval_between_tones_and_padded_bins_in_complex64(self):
        # energy is the squared norm: its relative error is at most
        # 2 eps + eps^2 for a norm-wise bound eps, the transform's plus,
        # under hann, u for the complex64 product with the taper
        plan = self.PADDED
        rng = np.random.default_rng(3)
        shape = (4, plan.tone_count)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
        for window in ("rect", "hann"):
            eps = mixed_radix_bound(plan.transform_length) + (U32 if window == "hann" else 0.0)
            raw = cir_from_tf(CaptureRecord(h_f=h, tone_plan=plan), window=window)
            tones = h.astype(np.complex128)
            if window == "hann":
                tones = tones * np.hanning(plan.tone_count).astype(np.float32)
            a = np.sum(np.abs(raw.h.astype(np.complex128)) ** 2)
            b = np.sum(np.abs(tones) ** 2)
            assert abs(a - b) <= (2.0 * eps + eps * eps) * b, window


class TestThresholdAndGate:
    def test_peak_margin_governs(self):
        # noise floor -80 dB, peak -50 dB: threshold = max(-74, -70) = -70
        delays = PLAN.delay_bins
        gate = GateConfig(delay_gate=20e-6)  # wide gate isolates the threshold
        h = np.full((1, PLAN.tone_count), 1e-4, complex)  # -80 dB bins
        h[0, 3] = 10 ** (-50 / 20.0)
        h[0, 10] = 10 ** (-69 / 20.0)   # above -70: survives
        h[0, 11] = 10 ** (-71 / 20.0)   # below -70: zeroed
        gated = threshold_and_gate(a2g.RawCIR(h=h, delays=delays), gate)
        assert gated.threshold[0] == pytest.approx(1e-7, rel=1e-9)
        assert gated.power[0, 3] != 0
        assert gated.power[0, 10] != 0
        assert gated.power[0, 11] == 0

    def test_noise_margin_governs(self):
        # noise floor -60 dB, peak -50 dB: threshold = max(-54, -70) = -54
        delays = PLAN.delay_bins
        h = np.full((1, PLAN.tone_count), 1e-3, complex)  # -60 dB bins
        h[0, 2] = 10 ** (-50 / 20.0)
        gated = threshold_and_gate(a2g.RawCIR(h=h, delays=delays), GateConfig())
        assert gated.threshold[0] == pytest.approx(10 ** -5.4, rel=1e-9)
        # every -60 dB bin is below -54 dB: only the peak survives
        assert np.count_nonzero(gated.power[0]) == 1

    def test_noiseless_single_path_single_bin(self):
        tau = PLAN.delay_bins[5]
        h = np.exp(-2j * math.pi * PLAN.tone_frequencies * tau)[np.newaxis, :]
        gated = threshold_and_gate(cir_from_tf(cal_of(h)), GateConfig())
        assert np.count_nonzero(gated.power[0]) == 1
        assert gated.power[0, 5] > 0

    def test_delay_gate_anchored_at_first_survivor(self):
        delays = PLAN.delay_bins
        gate = GateConfig(delay_gate=10 * PLAN.delay_resolution)
        h = np.zeros((1, PLAN.tone_count), complex)
        h[0, 20] = 1.0
        h[0, 25] = 0.5
        h[0, 31] = 0.5   # 11 bins after the first survivor: gated out
        gated = threshold_and_gate(a2g.RawCIR(h=h, delays=delays), gate)
        assert gated.power[0, 20] != 0
        assert gated.power[0, 25] != 0
        assert gated.power[0, 31] == 0

    def test_retained_bins_meet_threshold_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = rng.standard_normal((3, PLAN.tone_count)) * 0.01
            h[1, 7] = 5.0
            raw = a2g.RawCIR(h=h.astype(complex), delays=PLAN.delay_bins)
            gated = threshold_and_gate(raw, GateConfig())
            power = gated.power
            for k in range(3):
                kept = power[k][power[k] > 0]
                assert np.all(kept >= gated.threshold[k])

    def test_all_zero_port_reported_not_fatal(self):
        h = np.zeros((2, PLAN.tone_count), complex)
        h[0, 4] = 1.0
        gated = threshold_and_gate(a2g.RawCIR(h=h, delays=PLAN.delay_bins))
        assert gated.all_zero_ports == (1,)
        spread = rms_delay_spread(gated)
        assert spread.strongest_port == 0

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_carried_power_is_the_float64_power_of_the_gated_response(self, dtype):
        rng = np.random.default_rng(4)
        h = 0.01 * (rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64)))
        h[:, 5] += 3.0
        h[2] = 0.0
        raw = a2g.RawCIR(h=h.astype(dtype), delays=np.arange(64) * 1e-7)
        gated = threshold_and_gate(raw, GateConfig(delay_gate=1e-6))
        assert gated.power.dtype == np.float64
        kept = gated.power > 0
        np.testing.assert_array_equal(
            gated.power, np.where(kept, np.abs(raw.h.astype(np.complex128)) ** 2, 0.0))
        assert kept[:, 5].sum() == 5 and not kept[2].any()
        assert gated.all_zero_ports == (2,)

    def test_gate_at_the_unambiguous_delay_rejected(self):
        raw = cir_from_tf(cal_of(np.ones((1, PLAN.tone_count))))
        with pytest.raises(AnalysisError, match="unambiguous delay"):
            threshold_and_gate(raw, GateConfig(delay_gate=PLAN.max_unambiguous_delay))


class TestRxPower:
    def test_non_coherent_sum(self):
        g = gated_of(np.array([[1.0, 0.0], [math.sqrt(3.0), 0.0]]), [0.0, 1e-9])
        assert rx_power(g) == pytest.approx(4.0, rel=1e-15)

    def test_phase_rotation_invariant(self):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        g = gated_of(amps, np.arange(6) * 1e-9)
        p0 = rx_power(g)
        rotated = gated_of(amps * np.exp(1j * rng.uniform(0, 7, 4))[:, None],
                           np.arange(6) * 1e-9)
        assert rx_power(rotated) == pytest.approx(p0, rel=1e-12)

    def test_everything_gated_out_is_zero(self):
        g = gated_of(np.zeros((2, 4)), np.arange(4) * 1e-9)
        assert rx_power(g) == 0.0


class TestRmsDelaySpread:
    def test_two_equal_taps_exact(self):
        g = gated_of([1.0, 1.0], [0.0, 100e-9])
        spread = rms_delay_spread(g)
        assert spread.sigma_tau_s == pytest.approx(50e-9, rel=1e-12)
        assert spread.sigma_tau_dbs == pytest.approx(10 * math.log10(50e-9), abs=1e-10)
        assert spread.sigma_tau_dbs == pytest.approx(-73.01, abs=0.005)

    def test_one_nanosecond_is_minus_90_dbs(self):
        g = gated_of([1.0, 1.0], [0.0, 2e-9])
        spread = rms_delay_spread(g)
        assert spread.sigma_tau_s == pytest.approx(1e-9, rel=1e-12)
        assert spread.sigma_tau_dbs == pytest.approx(-90.0, abs=1e-9)

    def test_single_bin_flagged_sentinel(self):
        g = gated_of([2.0], [40e-9])
        spread = rms_delay_spread(g)
        assert spread.sigma_tau_s == 0.0
        assert spread.sigma_tau_dbs == -math.inf
        assert spread.single_bin

    def test_strongest_port_ties_break_low(self):
        h = np.zeros((3, 4), complex)
        h[1, 0] = h[1, 2] = 1.0
        h[2, 0] = h[2, 2] = 1.0  # same energy as port 1
        g = gated_of(h, np.arange(4) * 1e-9)
        assert rms_delay_spread(g).strongest_port == 1

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(9)
        delays = np.sort(rng.uniform(0, 2e-6, 8))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        base = rms_delay_spread(gated_of(amps, delays)).sigma_tau_s
        shifted = rms_delay_spread(gated_of(amps, delays + 5e-7)).sigma_tau_s
        scaled = rms_delay_spread(gated_of(amps * 0.01, delays)).sigma_tau_s
        assert shifted == pytest.approx(base, rel=1e-6)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_no_surviving_port_rejected(self):
        with pytest.raises(AnalysisError, match="no port has surviving bins"):
            rms_delay_spread(gated_of(np.zeros((2, 4)), np.arange(4) * 1e-9))


class TestCorrelationAndEigen:
    def test_frequency_flat_rank_one(self):
        a = np.array([1.0, 2.0, -1.0, 0.5j], complex)
        h = np.tile(a[:, None], (1, PLAN.tone_count))
        report = correlation_and_eigen(cal_of(h))
        assert report.eigenvalues[0] == pytest.approx(float(np.sum(np.abs(a) ** 2)), rel=1e-12)
        assert report.gamma12_db == math.inf
        assert report.gamma14_db == math.inf

    def test_diagonal_ratios(self):
        # R = diag(100, 1, 1, 1) from exactly orthogonal DFT rows
        n = PLAN.tone_count
        k = np.arange(n)
        h = np.stack([10.0 * np.ones(n, complex),
                      np.exp(2j * math.pi * k / n),
                      np.exp(4j * math.pi * k / n),
                      np.exp(6j * math.pi * k / n)])
        report = correlation_and_eigen(cal_of(h))
        assert report.gamma12_db == pytest.approx(20.0, abs=1e-9)
        assert report.gamma14_db == pytest.approx(20.0, abs=1e-9)

    def test_hermitian_trace_and_psd(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
        report = correlation_and_eigen(cal_of(h, TonePlan(tone_count=64)))
        r = report.correlation
        np.testing.assert_allclose(r, r.conj().T, atol=1e-14 * np.abs(r).max())
        trace = float(np.real(np.trace(r)))
        expected = float(np.mean(np.sum(np.abs(h) ** 2, axis=0)))
        assert trace == pytest.approx(expected, rel=1e-12)
        assert np.all(report.eigenvalues >= -1e-9 * trace)
        assert report.gamma12_db <= report.gamma14_db

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
    def test_correlation_is_hermitian_and_matches_the_complex_product(self, dtype):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((16, 96)) + 1j * rng.standard_normal((16, 96))
        h = h.astype(dtype) if dtype is not np.float64 else h.real.copy()
        r = correlation_and_eigen(CaptureRecord(h_f=h, tone_plan=TonePlan(tone_count=96))
                                  ).correlation
        assert r.dtype == np.complex128
        assert np.array_equal(r, r.conj().T)
        wide = h.astype(np.complex128)
        expected = (wide @ wide.conj().T) / 96
        assert np.max(np.abs(r - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_small_instance_charpoly_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            tones = int(rng.integers(4, 9))
            h = rng.standard_normal((4, tones)) + 1j * rng.standard_normal((4, tones))
            r = (h @ h.conj().T) / tones
            r = 0.5 * (r + r.conj().T)
            report = correlation_and_eigen(
                cal_of(h, TonePlan(tone_count=tones)))
            oracle = eigvals_charpoly_bisect(r)
            assert len(oracle) == 4
            np.testing.assert_allclose(report.eigenvalues, oracle,
                                       rtol=1e-9, atol=1e-12 * np.trace(r).real)

    def test_zero_matrix_flagged(self):
        report = correlation_and_eigen(cal_of(np.zeros((4, 8)), TonePlan(tone_count=8)))
        assert math.isnan(report.gamma12_db)
        assert math.isnan(report.gamma14_db)

    def test_gamma14_needs_four_ports(self):
        h = np.ones((3, 16), complex)
        report = correlation_and_eigen(cal_of(h, TonePlan(tone_count=16)))
        assert math.isnan(report.gamma14_db)


# (columns, rows, sha256 of column_power_profile as float64 bytes) on
# random gated energies near 1, where the dB values keep the last bits of
# each mean. The golden gate runs 16 x 4 arrays only; from 8 rows on, a
# mean over a strided view of the ports sums in another order than a mean
# over the selected ports, and the 3 x 9 digest moves.
COLUMN_PROFILE_DIGESTS = [
    (16, 4, "072c345d30064670f289fb92fbf24d190cd7a775857c9ec495bbb1407df8dde3"),
    (3, 9, "c217eb5d72161bb4a30c8943391861387c7417b8ee324a129c4e26ef2842a3e1"),
]


class TestColumnPowerProfile:
    @pytest.mark.parametrize("columns,rows,digest", COLUMN_PROFILE_DIGESTS,
                             ids=[f"{c}x{r}" for c, r, _ in COLUMN_PROFILE_DIGESTS])
    def test_profile_is_byte_identical(self, columns, rows, digest):
        geom = a2g.build_cylindrical_array(columns, rows, 0.1, 0.04)
        rng = np.random.default_rng(1000 * columns + rows)
        shape = (geom.n_ports, 32)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 8.0
        h[:, rng.random(32) < 0.5] = 0
        profile = column_power_profile(gated_of(h, np.arange(32) * 1e-9), geom)
        assert profile.shape == (columns, 2)
        got = hashlib.sha256(np.ascontiguousarray(profile, "<f8").tobytes()).hexdigest()
        assert got == digest, host_class.note()

    def test_uniform_energy(self):
        geom = a2g.build_cylindrical_array(4, 2, 0.1, 0.04)
        h = np.ones((geom.n_ports, 8), complex)  # per-port energy 8
        g = gated_of(h, np.arange(8) * 1e-9)
        profile = column_power_profile(g, geom)
        np.testing.assert_allclose(profile, 10 * math.log10(8.0), rtol=1e-12)

    def test_dimension_checked(self):
        geom = a2g.build_cylindrical_array(4, 2, 0.1, 0.04)
        g = gated_of(np.ones((4, 8)), np.arange(8) * 1e-9)
        with pytest.raises(AnalysisError, match="4 ports but geometry has 16"):
            column_power_profile(g, geom)

    def test_zero_column_is_minus_inf(self):
        geom = a2g.build_cylindrical_array(2, 1, 0.1, 0.04)
        h = np.zeros((4, 8), complex)
        h[0, 1] = 2.0
        g = gated_of(h, np.arange(8) * 1e-9)
        profile = column_power_profile(g, geom)
        assert profile[0, 0] == pytest.approx(10 * math.log10(4.0))
        assert profile[1, 0] == -math.inf


class TestMetricsRow:
    def test_eigen_columns_come_from_correlation_and_eigen(self):
        config = a2g.parse_scenario({"preset": "olin-hover",
                                     "array": {"columns": 4, "rows": 2},
                                     "timing": {"ports_per_simo": 16},
                                     "tone_plan": {"tone_count": 64},
                                     "capture": {"burst_count": 2}})
        recs = a2g.run_synthesis(config)
        ref = a2g.run_b2b(config, snapshot_count=2)
        for c in a2g.calibrate_records(recs, ref, config.attenuator):
            row = a2g.snapshot_metrics(c, config.geometry, config.gate)
            eig = correlation_and_eigen(c)
            e = eig.eigenvalues
            assert row["gamma12_db"] == eig.gamma12_db
            assert row["gamma14_db"] == eig.gamma14_db
            assert row["eigen_span_db"] == 10.0 * math.log10(e[0] / e[-1])


class TestRouteReport:
    def test_static_series_constant_argmax(self):
        config = a2g.parse_scenario({"preset": "olin-static",
                                     "capture": {"burst_count": 2}})
        recs = a2g.run_synthesis(config)
        ref = a2g.run_b2b(config, snapshot_count=2)
        cal = a2g.calibrate_records(recs, ref, config.attenuator)
        rows = list(report_rows(a2g.snapshot_metrics(c, config.geometry, config.gate)
                                for c in cal))
        argmax = {row["argmax_v_column"] for row in rows}
        assert argmax == {4}  # the east-facing column under paper mounting
        assert rows[0]["location"] == 0
        assert "col0_v_db" in rows[0]


class TestStaticScenarioDerivedValues:
    """Desk-scale static scenario against hand-computed two-path oracles."""

    def test_delay_spread_lands_in_expected_decade(self):
        config = a2g.parse_scenario({"preset": "olin-static"})
        recs = a2g.run_synthesis(config)
        ref = a2g.run_b2b(config, snapshot_count=2)
        cal = next(a2g.calibrate_records(recs, ref, config.attenuator))
        row = a2g.snapshot_metrics(cal, config.geometry, config.gate)
        # hand two-path oracle: LOS plus the facade behind the TX
        d_los = math.dist((12.0, 0.0, 1.8), (0.0, 0.0, 1.5))
        d_refl = math.dist((38.0, 0.0, 1.8), (0.0, 0.0, 1.5))  # image in x=25
        excess = (d_refl - d_los) / a2g.SPEED_OF_LIGHT
        rel_power = (d_los / d_refl * 0.3) ** 2
        p = rel_power / (1 + rel_power)
        oracle_sigma = excess * math.sqrt(p * (1 - p))
        assert -80.0 < row["sigma_tau_dbs"] < -75.0
        # straddle and sidelobe leakage add to the two-path value
        assert row["sigma_tau_s"] >= oracle_sigma
        assert row["sigma_tau_s"] < 3.5 * oracle_sigma
