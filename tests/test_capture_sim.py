import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import host_class
import numpy as np
import pytest
from oracles import ideal_system_response, port_gain, transfer_function_oracle, whole_product

from a2gsounder._rng import TAG_DRIFT_B2B, TAG_NOISE, stream
from a2gsounder.array_geometry import PatternParams, build_cylindrical_array
from a2gsounder.capture_sim import (AttenuatorModel, FactoredResponse, _gain_and_noise,
                                    build_system_response, noise_sigma, port_response_row,
                                    port_stack_response, simulate_b2b, simulate_snapshot)
from a2gsounder.channel_synth import (Scene, synthesize_paths, synthesize_slots,
                                     tx_position_at, wobble_index)
from a2gsounder.config import parse_scenario
from a2gsounder.pipeline import (calibrate_records, paths_for_snapshot, run_b2b,
                                 run_synthesis, system_for)
from a2gsounder.processing import cir_from_tf, snapshot_metrics, threshold_and_gate
from a2gsounder.waveform import SPEED_OF_LIGHT, TonePlan, snapshot_timestamps

PLAN = TonePlan(tone_count=128)


def los_paths(distance=12.0):
    scene = Scene(facets=(), rx_position=[0.0, 0.0, 0.0])
    return synthesize_paths(scene, [distance, 0.0, 0.0], 3.5e9)


@pytest.mark.parametrize("seed, tag, index", [
    (7, TAG_NOISE, None), (-3, TAG_DRIFT_B2B, 5), (11, TAG_NOISE, (1 << 64) + 9),
    (11, TAG_NOISE, (1 << 64) - 3)],
    ids=["no-index", "negative-seed", "index-past-2**64", "index-word-past-2**63"])
def test_stream_is_philox_keyed_on_seed_and_tag_counting_the_index(seed, tag, index):
    # the layout stated independently of the package: key
    # [seed mod 2**64, tag], counter [0, index mod 2**64, 0, 0], as uint64
    # words (a -3 seed is the word 2**64 - 3, not 0)
    got = stream(seed, tag) if index is None else stream(seed, tag, index)
    word = 0 if index is None else index % (1 << 64)
    want = np.random.Generator(np.random.Philox(
        key=np.array([seed % (1 << 64), tag], np.uint64),
        counter=np.array([0, word, 0, 0], np.uint64)))
    assert got.standard_normal(8).tobytes() == want.standard_normal(8).tobytes()


class TestSystemResponse:
    def test_seeded_build_contracts(self):
        sys_resp = build_system_response(PLAN, 32, seed=4)
        mags_db = 20 * np.log10(np.abs(sys_resp.common_chain))
        assert np.max(np.abs(mags_db)) <= 1.5 + 1e-9
        assert np.all(np.abs(sys_resp.common_chain) > 0)
        port_db = 20 * np.log10(np.abs(sys_resp.per_port_gain))
        assert np.max(np.abs(port_db)) <= 3.0
        again = build_system_response(PLAN, 32, seed=4)
        np.testing.assert_array_equal(sys_resp.common_chain, again.common_chain)

    def test_drift_is_identity_when_disabled(self):
        sys_resp = ideal_system_response(PLAN, 8)
        assert sys_resp.drift(0) == 1.0 + 0.0j
        assert sys_resp.drift(197) == 1.0 + 0.0j

    def test_drift_streams_differ_between_meas_and_b2b(self):
        sys_resp = build_system_response(PLAN, 8, seed=1,
                                         phase_drift_deg=1.0, amplitude_jitter_db=0.01)
        assert sys_resp.drift(3, "meas") != sys_resp.drift(3, "b2b")
        assert sys_resp.drift(3, "meas") == sys_resp.drift(3, "meas")


def chain_times_gain(ports, snr_db, seed, index):
    """The chain times the port gains of a seeded 64-tone system, plus the
    noise of a capture whose first snapshot it is."""
    system = build_system_response(TonePlan(tone_count=64), ports, seed=3)
    chain = np.broadcast_to(system.common_chain, (ports, 64))
    args = (whole_product(chain), chain.shape, system.per_port_gain)
    return _gain_and_noise(np.empty((ports, 64), np.complex128), *args,
                           noise_sigma(snr_db, *args), seed, index)


class TestSimulateSnapshot:
    def test_single_path_linear_phase_per_port(self):
        geom = build_cylindrical_array(2, 1, 0.05, 0.04)
        paths = los_paths(9.0)
        system = ideal_system_response(PLAN, geom.n_ports)
        rec = simulate_snapshot(paths, geom, PLAN, system)
        delay, jones, direction = paths.delays[0, 0], paths.jones[0, 0], paths.directions[0, 0]
        freqs = PLAN.tone_frequencies
        for k in range(geom.n_ports):
            gain = port_gain(geom, k, direction, jones)
            advance = np.dot(geom.positions[k], direction) / SPEED_OF_LIGHT
            expected = gain * np.exp(-2j * math.pi * freqs * (delay - advance))
            np.testing.assert_allclose(rec.h_f[k], expected, rtol=0, atol=5e-13 * abs(gain))

    def test_identical_ports_identical_rows(self):
        # one element, XPD 0 dB: both polarization ports respond equally
        geom = build_cylindrical_array(1, 1, 0.05, 0.04, PatternParams(xpd_db=0.0))
        rec = simulate_snapshot(los_paths(), geom, PLAN,
                                ideal_system_response(PLAN, 2))
        np.testing.assert_array_equal(rec.h_f[0], rec.h_f[1])

    def test_noise_variance_matches_snr_definition(self):
        geom = build_cylindrical_array(4, 2, 0.1091, 0.0429)
        plan = TonePlan(tone_count=1024)
        system = ideal_system_response(plan, geom.n_ports)
        clean = simulate_snapshot(los_paths(), geom, plan, system)
        noisy = simulate_snapshot(los_paths(), geom, plan, system,
                                  noise_snr_db=30.0, seed=5)
        peak_power = np.max(np.mean(np.abs(clean.h_f) ** 2, axis=1))
        noise = noisy.h_f - clean.h_f
        measured = np.mean(np.abs(noise) ** 2)
        assert measured == pytest.approx(peak_power / 1e3, rel=0.05)

    # (SNR dB, seed, snapshot index, sha256 of the noisy response as
    # complex128 bytes). Each draw of a snapshot's counter block lands on
    # a fixed (port, tone, re/im), so these bytes, and with them every
    # B2B digest of the golden gate, hold however the noise is added.
    @pytest.mark.parametrize("snr_db,seed,index,digest", [
        (20.0, 5, 7, "11fa9e15a1a0b0017c129e540f12254f8dcbffcdf46290adefa3fe3b827f1c8a"),
        (-30.0, 1, 0, "08d28b8c7c451362b257663e85a20b038fc9ddec7516f7e380fb8c08450d9f29"),
    ])
    def test_noise_bytes_are_pinned(self, snr_db, seed, index, digest):
        noisy = chain_times_gain(8, snr_db, seed, index)
        got = hashlib.sha256(np.ascontiguousarray(noisy, "<c16").tobytes()).hexdigest()
        assert got == digest, host_class.note()

    def test_noise_bytes_across_port_blocks_are_pinned(self):
        # 40 ports: two whole blocks of 16 ports and a partial one; the
        # digest was recorded from the one-array noise step
        noisy = chain_times_gain(40, 20.0, 5, 7)
        got = hashlib.sha256(np.ascontiguousarray(noisy, "<c16").tobytes()).hexdigest()
        assert got == "e9228627faec7ed65eb3d841775065cb1c2dfa9e422dbb19a067f071bf272cbc", \
            host_class.note()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_noise_makes_no_full_size_temporary(self, dtype):
        base = np.ones((128, 1841), np.complex128)
        gain = np.ones(128, np.complex128)
        out = np.empty(base.shape, dtype)
        args = (whole_product(base), base.shape, gain, 0.03, 1)  # noise sigma 0.03
        _gain_and_noise(out, *args, 1)  # one-time allocations are not the kernel's
        tracemalloc.start()
        try:
            _gain_and_noise(out, *args, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < base.nbytes / 2

    def test_noise_is_written_into_out(self):
        base = np.ones((4, 16), np.complex128)
        out = np.empty_like(base)
        args = (whole_product(base), base.shape, np.full(4, 2.0 + 0j))
        assert _gain_and_noise(out, *args, 10.0, 1, 2) is out
        assert np.all(out != 2.0)
        assert np.all(base == 1.0)
        assert _gain_and_noise(out, *args, None, 1, 2) is out
        assert np.all(out == 2.0)

    def test_deterministic_given_seeds(self):
        geom = build_cylindrical_array(2, 2, 0.1, 0.04)
        system = build_system_response(PLAN, geom.n_ports, seed=9)
        a = simulate_snapshot(los_paths(), geom, PLAN, system, noise_snr_db=20,
                              snapshot_index=3, seed=7)
        b = simulate_snapshot(los_paths(), geom, PLAN, system, noise_snr_db=20,
                              snapshot_index=3, seed=7)
        np.testing.assert_array_equal(a.h_f, b.h_f)

    def test_slot_row_count_checked(self):
        geom = build_cylindrical_array(2, 2, 0.1, 0.04)
        scene = Scene(facets=(), rx_position=[0.0, 0.0, 0.0])
        three = synthesize_slots(scene, [[12.0, 0.0, 0.0]] * 3, 3.5e9)
        system = ideal_system_response(PLAN, geom.n_ports)
        with pytest.raises(ValueError, match="paths have 3 rows; 8 ports"):
            simulate_snapshot(three, geom, PLAN, system)
        with pytest.raises(ValueError, match="paths have 3 rows; 8 ports"):
            port_response_row(three, geom, PLAN, 0)

    def test_per_port_rows_match_shared_when_static(self):
        geom = build_cylindrical_array(4, 1, 0.1, 0.04)
        scene = Scene(facets=(), rx_position=[0.0, 0.0, 0.0])
        per_port = synthesize_slots(scene, [[12.0, 0.0, 0.0]] * geom.n_ports, 3.5e9)
        system = ideal_system_response(PLAN, geom.n_ports)
        shared = simulate_snapshot(los_paths(), geom, PLAN, system)
        np.testing.assert_allclose(simulate_snapshot(per_port, geom, PLAN, system).h_f,
                                   shared.h_f, rtol=0, atol=1e-15)


class TestSimulateB2B:
    def test_no_stochastic_terms_means_identical_snapshots(self):
        system = ideal_system_response(PLAN, 8)
        records = list(simulate_b2b(PLAN, system, AttenuatorModel(), snapshot_count=4))
        for rec in records[1:]:
            np.testing.assert_array_equal(rec.h_f, records[0].h_f)
        assert all(r.record_type == "B2B" for r in records)

    def test_attenuation_arithmetic(self):
        system = ideal_system_response(PLAN, 8)
        rec = next(simulate_b2b(PLAN, system, AttenuatorModel(nominal_loss_db=30.0),
                                snapshot_count=1))
        np.testing.assert_allclose(np.abs(rec.h_f), 10 ** -1.5, rtol=1e-12)

    def test_chain_and_port_gains_enter_b2b(self):
        system = build_system_response(PLAN, 8, seed=2, phase_drift_deg=0.0,
                                       amplitude_jitter_db=0.0)
        rec = next(simulate_b2b(PLAN, system, AttenuatorModel(nominal_loss_db=20.0),
                                snapshot_count=1))
        expected = (system.common_chain[np.newaxis, :]
                    * system.per_port_gain[:, np.newaxis] * 0.1)
        np.testing.assert_allclose(rec.h_f, expected, rtol=1e-12)

    def test_snapshot_count_validated(self):
        with pytest.raises(ValueError):
            simulate_b2b(PLAN, ideal_system_response(PLAN, 4), AttenuatorModel(),
                         snapshot_count=0)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# sha256 of snapshot 0's <c8 payload (synth, b2b) of each bundled
# scenario, recorded from the per-snapshot noise reference that came
# before the per-capture one: snapshot 0 is its capture's reference, so
# the change leaves these bytes, and the operating SNR, as they were
SNAPSHOT_0_DIGESTS = {
    ("static", "synth"): "441d72f2cb10b4f3dcd8fb0946cabb427b0d10dc81798acdf96ef61686914afc",
    ("hover", "synth"): "ec161c8e5cda9b166b2694b156cc52bebe91df02c8e047e69d60b09c1e41ebca",
    ("route", "synth"): "deb63f504c5d433c7420f26537e8b6a7f19cf115df70f3f89b3da7be39367ede",
    ("static", "b2b"): "443ff452e0ec15b4617070ee0fddc9d28100cdf86aaa4ec4641ecd5db3c9f4ed",
    ("hover", "b2b"): "443ff452e0ec15b4617070ee0fddc9d28100cdf86aaa4ec4641ecd5db3c9f4ed",
    ("route", "b2b"): "443ff452e0ec15b4617070ee0fddc9d28100cdf86aaa4ec4641ecd5db3c9f4ed",
    ("b2b-stability", "b2b"): "14b242b4aa371ad6e71f039d9f03f9d9c18b0c8f5de61491fa669ac9d4e7d53e",
}


class TestCaptureNoise:
    """One noise power per capture: ``snr_db`` below the strongest port
    of its snapshot 0, whatever the later snapshots' signal does."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("preset", ["olin-static", "olin-hover", "paper-route"])
    def test_every_snapshot_takes_the_noise_of_snapshot_0(self, monkeypatch, preset, threads):
        monkeypatch.setenv("A2GS_THREADS", threads)
        config = parse_scenario({"preset": preset, "array": {"columns": 4, "rows": 2},
                                 "timing": {"ports_per_simo": 16},
                                 "tone_plan": {"tone_count": 64}, "capture": {"burst_count": 2}})
        system = system_for(config)
        times = snapshot_timestamps(config.timing, 2)
        rotation = config.scene.rx_mounting_rotation
        kwargs = dict(noise_snr_db=config.capture["snr_db"], seed=config.capture["noise_seed"],
                      mounting_rotation=rotation)

        def alone(s, **more):
            return simulate_snapshot(paths_for_snapshot(config, times[s]), config.geometry,
                                     config.tone_plan, system, snapshot_index=s,
                                     timestamp=times[s], **kwargs, **more).h_f

        records = list(run_synthesis(config))
        # snapshot 0 is the one-snapshot capture of its paths
        assert records[0].h_f.tobytes() == alone(0).tobytes()
        first = port_stack_response(paths_for_snapshot(config, 0.0), config.geometry,
                                    config.tone_plan, rotation,
                                    out=FactoredResponse(config.geometry.n_ports,
                                                         system.common_chain))
        sigma = noise_sigma(config.capture["snr_db"], first.product, first.shape,
                            system.per_port_gain * system.drift(0))
        assert len(records) == len(times) > 1
        for s, record in enumerate(records):
            assert record.h_f.tobytes() == alone(s, sigma=sigma).tobytes(), s

    def test_b2b_snapshot_0_is_a_one_snapshot_series(self):
        system = build_system_response(PLAN, 40, seed=3)
        series = [list(simulate_b2b(PLAN, system, AttenuatorModel(), snapshot_count=count,
                                    seed=7, noise_snr_db=20.0)) for count in (1, 3)]
        assert series[0][0].h_f.tobytes() == series[1][0].h_f.tobytes()
        assert series[1][1].h_f.tobytes() != series[1][0].h_f.tobytes()

    @pytest.mark.parametrize("name,command", sorted(SNAPSHOT_0_DIGESTS))
    def test_bundled_snapshot_0_payloads_are_pinned(self, name, command):
        config = parse_scenario(json.loads((SCENARIOS / f"{name}.json").read_text()))
        records = run_synthesis(config) if command == "synth" else run_b2b(config, 1)
        h_f = next(iter(records)).h_f
        got = hashlib.sha256(np.ascontiguousarray(h_f, "<c8").tobytes()).hexdigest()
        assert got == SNAPSHOT_0_DIGESTS[name, command], host_class.note()

    def test_noise_floor_holds_while_the_drone_flies_away(self):
        # a 100 m square 30..130 m east of the RX at 10 m height, no
        # facets: 31 to 140 m from the RX around the route
        config = parse_scenario({
            "preset": "paper-route", "scene": {"facets": []},
            "trajectory": {"waypoints": [[30.0, 50.0, 10.0], [130.0, 50.0, 10.0],
                                         [130.0, -50.0, 10.0], [30.0, -50.0, 10.0],
                                         [30.0, 50.0, 10.0]],
                           "speed": 25.0},
            "timing": {"simos_per_burst": 1, "burst_rate": 1.0},
            "capture": {"burst_count": 16, "snr_db": 20.0}})
        records = list(run_synthesis(config))
        distances = np.array([np.linalg.norm(r.tx_position - config.scene.rx_position)
                              for r in records])
        assert distances.max() >= 4 * distances.min()
        floors, p_rx_db = [], []
        ref = run_b2b(config, 1)
        for cal in calibrate_records(records, ref, config.attenuator):
            raw = cir_from_tf(cal, window="hann")  # rect's sidelobes reach the tail
            floors.append(np.median(threshold_and_gate(raw, config.gate).noise_floor))
            p_rx_db.append(snapshot_metrics(cal, config.geometry, config.gate, "hann")["p_rx_db"])
        # A port's floor is the mean power of its T tail bins. Every
        # snapshot is calibrated by the one B2B reference, so a port's
        # noise has the same spectrum, and its floor the same
        # expectation, in every snapshot. A bin's power has a relative
        # std of 1, and the Hann window correlates neighbouring bins
        # (|rho|^2 = 4/9 at lag 1 and 1/36 at lag 2; the reference's
        # +-1.5 dB chain ripple adds little), so the floor's relative
        # std is about sqrt(c / T), c = 1 + 2 (4/9 + 1/36). With every
        # port within 6 of those of its expectation, the median over
        # the ports stays within (1 +- e) of the median of the
        # expectations, so no two snapshots' medians differ by more
        # than (1 + e) / (1 - e): 4.1 dB here. A floor that followed
        # the signal would spread 20 log10(140 / 31) = 13 dB.
        tail = math.ceil(config.gate.noise_window_fraction * config.tone_plan.tone_count)
        e = 6.0 * math.sqrt((1.0 + 2.0 * (4.0 / 9.0 + 1.0 / 36.0)) / tail)
        assert max(floors) / min(floors) <= (1.0 + e) / (1.0 - e)
        # the received power falls as the free-space 20 log10(d) (the
        # path loss, element pattern and ground bounce give a slope of
        # -0.99 here)
        slope = np.polyfit(20.0 * np.log10(distances), p_rx_db, 1)[0]
        assert -1.2 <= slope <= -0.8


class TestAttenuator:
    def test_loss_must_be_positive(self):
        with pytest.raises(ValueError):
            AttenuatorModel(nominal_loss_db=0.0)

    def test_ripple_shape(self):
        att = AttenuatorModel(nominal_loss_db=30.0, ripple_db=0.5, ripple_cycles=2.0)
        plan = TonePlan(tone_count=129)  # grid hits the ripple extrema exactly
        db = 20 * np.log10(np.abs(att.response(plan))) + 30.0
        assert np.max(db) == pytest.approx(0.5, abs=1e-9)
        assert np.min(db) == pytest.approx(-0.5, abs=1e-9)


class TestMountingRotation:
    def test_rotation_moves_boresight_column(self):
        geom = build_cylindrical_array(8, 1, 0.1, 0.04)
        paths = los_paths()  # arrival from +x (world azimuth 0)
        plan = TonePlan(tone_count=16)
        system = ideal_system_response(plan, geom.n_ports)
        # with a -90 deg mounting, world +x maps to array azimuth +90,
        # which is column 2 of 8
        rec = simulate_snapshot(paths, geom, plan, system,
                                mounting_rotation=-math.pi / 2)
        energy = np.sum(np.abs(rec.h_f) ** 2, axis=1)
        v_ports = [geom.port_id(column, 0, "V") for column in range(geom.columns)]
        assert int(np.argmax(energy[v_ports])) == 2


def glass_route_config():
    """paper-route without the umbrella, plus a 10 m wide glass pane on
    the plane x = 25 whose reflection the route sees only on parts of
    its east and west edges."""
    base = parse_scenario({"preset": "paper-route"})
    facets = [f for f in base.resolved["scene"]["facets"] if f["name"] != "south-umbrella"]
    facets.append({"name": "glass",
                   "corners": [[25.0, -5.0, 0.0], [25.0, 5.0, 0.0],
                               [25.0, 5.0, 60.0], [25.0, -5.0, 60.0]],
                   "gamma_v": [0.5, 0.0], "gamma_h": [0.5, 0.0], "cross_pol": 0.02})
    return parse_scenario({"preset": "paper-route", "scene": {"facets": facets}})


T_SISO = 50e-6

# (label, snapshot start, path counts its slots see, sha256 of the
# noise-free ports x tones response as float64 bytes). The digests were
# recorded from the block-factored path sum, whose every row equals the
# per-slot loop (synthesize_paths + port_response_row for each of the
# 128 slots) bit for bit. They pin float64 bytes because the complex64
# capture files of the golden test round away last-bit changes; the
# oracle check beside each one holds the response to the direct path
# sum. The glass reflection appears or vanishes at t = 19, 26, 46 and
# 59 s, so the snapshots starting 64 slots earlier mix 2- and 3-path
# slots; the one before 15 s crosses the NE corner of the route.
SLOT_RESPONSE_DIGESTS = [
    ("glass-flip-19s", 19.0 - 64 * T_SISO, {2, 3},
     "f2b119c0e247738f4e36b679efb2255043f40426279386c64d297554f57b5db0"),
    ("glass-flip-26s", 26.0 - 64 * T_SISO, {2, 3},
     "2cba9a013bd2444858ab6ec32e0c9a30f036ea28e96dfb4db2914ca99ecb626a"),
    ("glass-flip-46s", 46.0 - 64 * T_SISO, {2, 3},
     "08d13ae805621772eca3ed301fe4f3a865f7899ba702fe9be87c1122a9d99eff"),
    ("glass-flip-59s", 59.0 - 64 * T_SISO, {2, 3},
     "366cfb1bd47c8b3a1875eb655e54443baad95bc901f45c3617afd2a38abba6ec"),
    ("ne-corner", 15.0 - 64 * T_SISO, {2},
     "9d8e37965b36654cf690c4d7452dac598bd3ddc3cf06f4dfad04b72cb8762f4d"),
    ("north-edge", 7.3, {2},
     "b6cf403a6dc11367fdd3b810e56458c3e1b787d693de4c0be8e6057c5543e657"),
]


# Largest |kernel - oracle| over the largest |oracle| of one response.
# Both evaluate phases of up to ~5,000 rad in float64 (2*pi*f*delay at
# 3.5 GHz and ~70 m), whose argument rounds at ~1e-12 rad; the cases
# below measure under 1e-12.
ORACLE_RTOL = 1e-11


def assert_matches_oracle(tf, paths, config):
    truth = transfer_function_oracle(paths, config.geometry, config.tone_plan,
                                     config.scene.rx_mounting_rotation)
    assert np.max(np.abs(tf - truth)) <= ORACLE_RTOL * np.max(np.abs(truth))


class TestSlotResponse:
    """The batched route response against the per-slot loop and the
    direct path sum."""

    @pytest.mark.parametrize("start,counts,digest",
                             [case[1:] for case in SLOT_RESPONSE_DIGESTS],
                             ids=[case[0] for case in SLOT_RESPONSE_DIGESTS])
    def test_batched_route_response_is_byte_identical(self, start, counts, digest):
        config = glass_route_config()
        assert config.timing.t_siso == T_SISO
        geom, plan = config.geometry, config.tone_plan
        rotation = config.scene.rx_mounting_rotation
        slots = paths_for_snapshot(config, start)
        assert len(slots) == geom.n_ports
        assert set(slots.counts.tolist()) == counts
        tf = port_stack_response(slots, geom, plan, rotation)
        got = hashlib.sha256(np.ascontiguousarray(tf, "<c16").tobytes()).hexdigest()
        assert got == digest, host_class.note()
        assert_matches_oracle(tf, slots, config)

        loop = np.stack([
            port_response_row(
                synthesize_paths(config.scene,
                                 tx_position_at(config.trajectory, start + k * T_SISO),
                                 plan.center_frequency),
                geom, plan, k, rotation)
            for k in range(geom.n_ports)])
        assert np.array_equal(tf, loop)

    def test_port_response_row_reads_the_row_of_its_port(self):
        config = glass_route_config()
        geom, plan = config.geometry, config.tone_plan
        rotation = config.scene.rx_mounting_rotation
        start = 19.0 - 64 * T_SISO
        slots = paths_for_snapshot(config, start)
        tf = port_stack_response(slots, geom, plan, rotation)
        for k in (0, 63, 64, 127):  # both sides of the glass flip
            assert np.array_equal(port_response_row(slots, geom, plan, k, rotation), tf[k])
        np.testing.assert_array_equal(slots.tx_position,
                                      tx_position_at(config.trajectory, start))
        system = ideal_system_response(plan, geom.n_ports)
        rec = simulate_snapshot(slots, geom, plan, system, mounting_rotation=rotation)
        np.testing.assert_array_equal(rec.tx_position, slots.tx_positions[0])
        np.testing.assert_array_equal(rec.tx_tilt, [0.0, 0.0])


def tiny_config(preset):
    return parse_scenario({"preset": preset, "array": {"columns": 4, "rows": 2},
                           "timing": {"ports_per_simo": 16},
                           "tone_plan": {"tone_count": 64}})


# (label, preset, snapshot time, wobble index, sha256 of the noise-free
# ports x tones response as float64 bytes) on a 4 x 2 array with 64
# tones. Static and hover share one path row between all ports (the
# path sum runs per element, V and H gains sharing its phases). The
# golden capture files are complex64 and round away last-bit float64
# changes of that sum, so these digests pin its float64 bytes; a change
# that moves them changes behaviour even when every golden digest holds.
SHARED_RESPONSE_DIGESTS = [
    ("olin-static", "olin-static", 0.0, 0,
     "4c6275f4e945d112111b698e9f4758b7d9a396dbdc898255b9fffd7fdf5e3eeb"),
    ("olin-hover-wobble-3", "olin-hover", 0.05, 3,
     "3d67b68b99883cc967a696321f039bcf74cb6cf78f945492540131c0ba2d6e6b"),
    ("olin-hover-wobble-9", "olin-hover", 0.15, 9,
     "b2ee76faef5f58a25913ced231d1e65335e572fdc0c22397f61328e3142a5a81"),
]


class TestSharedResponse:
    @pytest.mark.parametrize("preset,time,wobble,digest",
                             [case[1:] for case in SHARED_RESPONSE_DIGESTS],
                             ids=[case[0] for case in SHARED_RESPONSE_DIGESTS])
    def test_shared_response_is_byte_identical(self, preset, time, wobble, digest):
        config = tiny_config(preset)
        assert wobble_index(config.trajectory, time) == wobble
        paths = paths_for_snapshot(config, time)
        assert len(paths) == 1
        tf = port_stack_response(paths, config.geometry, config.tone_plan,
                                 config.scene.rx_mounting_rotation)
        assert tf.shape == (16, 64)
        got = hashlib.sha256(np.ascontiguousarray(tf, "<c16").tobytes()).hexdigest()
        assert got == digest, host_class.note()
        assert_matches_oracle(tf, paths, config)

    def test_full_size_static_response_matches_the_oracle(self):
        # 1841 tones: 28 whole tone blocks and a partial one
        config = parse_scenario({"preset": "olin-static"})
        paths = paths_for_snapshot(config, 0.0)
        assert_matches_oracle(port_stack_response(paths, config.geometry, config.tone_plan,
                                                  config.scene.rx_mounting_rotation),
                              paths, config)
