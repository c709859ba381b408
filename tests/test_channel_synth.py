import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import polyline_walk, square_walk

from a2gsounder.channel_synth import (WOBBLE_RHO_MAX, Facet, Scene, SceneError,
                                      Trajectory, WobbleParams, synthesize_paths,
                                      synthesize_slots, tx_position_at,
                                      tx_positions_at, tx_tilt_at,
                                      wobble_index, wobble_offset, wobble_tilt)
from a2gsounder.config import parse_scenario
from a2gsounder.waveform import SPEED_OF_LIGHT, TimingPlan, snapshot_timestamps

WAVELENGTH = SPEED_OF_LIGHT / 3.5e9


def big_wall_x(x0, gamma=1.0, span=500.0):
    return Facet(corners=[[x0, -span, -span], [x0, span, -span],
                          [x0, span, span], [x0, -span, span]],
                 gamma_v=gamma, gamma_h=gamma, name="wall")


# the paper-route square: NW, NE, SE, SW and NW again
SQUARE = [[-15.0, 15.0, 50.0], [15.0, 15.0, 50.0], [15.0, -15.0, 50.0],
          [-15.0, -15.0, 50.0], [-15.0, 15.0, 50.0]]
HOVER_POINT = [[12.0, 0.0, 1.8]]


class TestTrajectories:
    def test_route_starts_at_its_first_waypoint(self):
        traj = Trajectory(waypoints=SQUARE, speed=2.0)
        np.testing.assert_allclose(tx_position_at(traj, 0.0), [-15.0, 15.0, 50.0])

    def test_route_walks_north_edge_west_to_east(self):
        traj = Trajectory(waypoints=SQUARE, speed=2.0)
        np.testing.assert_allclose(tx_position_at(traj, 15.0), [15.0, 15.0, 50.0])
        # next edge heads south along the east side
        np.testing.assert_allclose(tx_position_at(traj, 30.0), [15.0, -15.0, 50.0])
        # full perimeter wraps
        np.testing.assert_allclose(tx_position_at(traj, 60.0),
                                   tx_position_at(traj, 0.0), atol=1e-9)

    @pytest.mark.parametrize("waypoints", [
        [[2.0, -1.0, 50.0], [17.3, 4.1, 52.5], [9.9, -20.7, 47.0], [-3.3, -8.8, 50.1],
         [2.0, -1.0, 50.0]],
        [[30.0, 0.0, 2.0], [30.0, 0.0, 120.0], [-5.5, 12.25, 80.0]],
    ], ids=["closed", "open"])
    def test_route_positions_batch_matches_single_times(self, waypoints):
        traj = Trajectory(waypoints=waypoints, speed=2.0)
        times = np.concatenate([np.random.default_rng(3).uniform(0, 500, 300),
                                15.0 - 50e-6 * np.arange(-64, 64)])
        batch = tx_positions_at(traj, times)
        for t, p in zip(times, batch):
            # the cumulative-length walk, in Python floats
            assert np.array_equal(p, polyline_walk(waypoints, 2.0, t))
            assert np.array_equal(p, tx_position_at(traj, float(t)))
        with pytest.raises(ValueError):
            tx_positions_at(traj, [1.0, -1.0])

    def test_route_preset_walks_the_square_route(self):
        # the preset's waypoints give the square walk bit for bit, at the
        # slot times of scenarios/route.json's first snapshots
        traj = parse_scenario({"preset": "paper-route"}).trajectory
        times = (np.arange(8)[:, np.newaxis] / 1.6 + 50e-6 * np.arange(128)).ravel()
        assert np.array_equal(tx_positions_at(traj, times),
                              square_walk((0.0, 0.0), 30.0, 50.0, 2.0, "NW", times))

    @settings(max_examples=200, deadline=None)
    @given(cx=st.floats(-100, 100), cy=st.floats(-100, 100), side=st.floats(1, 200),
           height=st.floats(-50, 200), speed=st.floats(0.1, 20),
           start=st.sampled_from(["NW", "NE", "SE", "SW"]),
           laps=st.lists(st.floats(0, 10), min_size=1, max_size=20))
    def test_waypoint_square_agrees_with_the_square_walk(self, cx, cy, side, height, speed,
                                                          start, laps):
        # the corners as the square walk forms them, closed; within 10
        # laps the waypoint edge lengths, |(c + h) - (c - h)| rather than
        # side, move a position by well under 1e-11 m
        h = side / 2.0
        corners = [[cx - h, cy + h, height], [cx + h, cy + h, height],
                   [cx + h, cy - h, height], [cx - h, cy - h, height]]
        k = ["NW", "NE", "SE", "SW"].index(start)
        corners = corners[k:] + corners[:k]
        traj = Trajectory(waypoints=corners + corners[:1], speed=speed)
        times = np.array(laps) * 4.0 * side / speed
        np.testing.assert_allclose(tx_positions_at(traj, times),
                                   square_walk((cx, cy), side, height, speed, start, times),
                                   rtol=0, atol=1e-11)

    def test_open_climb_reaches_the_closed_form_height_and_holds_it(self):
        # a climb from 2 to 120 m at 2 m/s: slot k of snapshot s starts
        # s / 1.6 + k * 50 us in, at height 2 + 2 t, until the walk ends
        # after 59 s
        traj = Trajectory(waypoints=[[30.0, 0.0, 2.0], [30.0, 0.0, 120.0]], speed=2.0)
        assert traj.moves
        times = (np.arange(100)[:, np.newaxis] / 1.6 + 50e-6 * np.arange(128)).ravel()
        positions = tx_positions_at(traj, times)
        np.testing.assert_allclose(positions[:, 2], np.minimum(2.0 + 2.0 * times, 120.0),
                                   rtol=0, atol=1e-12)
        ended = times >= 59.0
        assert ended.any() and np.all(positions[ended, 2] == 120.0)
        assert np.all(positions[:, :2] == [30.0, 0.0])

    def test_closed_polyline_returns_to_its_start_after_one_perimeter(self):
        waypoints = [[0.0, 0.0, 10.0], [40.0, 0.0, 10.0], [40.0, 30.0, 60.0], [0.0, 0.0, 10.0]]
        traj = Trajectory(waypoints=waypoints, speed=3.0)
        perimeter = 40.0 + math.hypot(30.0, 50.0) + math.hypot(40.0, 30.0, 50.0)
        for laps in (1, 2, 7):
            np.testing.assert_allclose(tx_position_at(traj, laps * perimeter / 3.0),
                                       waypoints[0], rtol=0, atol=1e-12)
        # an open polyline holds its last point instead
        open_walk = Trajectory(waypoints=waypoints[:3], speed=3.0)
        np.testing.assert_array_equal(tx_position_at(open_walk, perimeter / 3.0),
                                      waypoints[2])

    def test_one_waypoint_is_a_fixed_point(self):
        traj = Trajectory(waypoints=[[1.0, 2.0, 3.0]])
        assert not traj.moves
        for t in (0.0, 0.5, 100.0):
            np.testing.assert_array_equal(tx_position_at(traj, t), [1.0, 2.0, 3.0])

    def test_zero_wobble_reduces_to_static(self):
        wob = WobbleParams(sigma_pos=0.0, sigma_angle=0.0, seed=1, snapshot_rate=60.0)
        traj = Trajectory(waypoints=HOVER_POINT, wobble=wob)
        assert traj.state(5, 2.7) == 0
        for t in (0.0, 0.3, 2.7):
            np.testing.assert_array_equal(tx_position_at(traj, t), [12.0, 0.0, 1.8])
            np.testing.assert_array_equal(tx_tilt_at(traj, t), [0.0, 0.0])

    def test_hover_offsets_bounded_and_reproducible(self):
        wob = WobbleParams(sigma_pos=0.05, rho=0.9, seed=42, snapshot_rate=60.0)
        offsets = [wobble_offset(wob, i) for i in range(200)]
        norms = [np.linalg.norm(o) for o in offsets]
        assert max(norms) <= 6 * 0.05 + 1e-12
        again = [wobble_offset(wob, i) for i in range(200)]
        np.testing.assert_array_equal(np.array(offsets), np.array(again))
        # out-of-order evaluation gives identical values
        np.testing.assert_array_equal(wobble_offset(wob, 150), offsets[150])

    def test_hover_wobble_marginal_std(self):
        wob = WobbleParams(sigma_pos=0.05, rho=0.9, seed=9, snapshot_rate=60.0)
        samples = np.array([wobble_offset(wob, 7 * i) for i in range(400)])
        assert np.std(samples, axis=0) == pytest.approx(0.05, rel=0.2)

    def test_wobble_steps_stay_ar1_past_the_window_at_the_largest_rho(self):
        # past index 511 the 512-term window slides; at the largest admitted
        # rho each step still has the AR(1) rms sqrt(2 (1 - rho)) sigma
        wob = WobbleParams(sigma_pos=1.0, rho=WOBBLE_RHO_MAX, seed=1)
        states = np.array([wobble_offset(wob, i) for i in range(512, 812)])
        step_rms = math.sqrt(np.mean(np.diff(states, axis=0) ** 2))
        assert step_rms == pytest.approx(math.sqrt(2.0 * (1.0 - WOBBLE_RHO_MAX)), rel=0.1)

    def test_rho_beyond_the_window_bound_rejected(self):
        assert WOBBLE_RHO_MAX ** 511 <= 2.0 ** -53 < WOBBLE_RHO_MAX ** 510
        WobbleParams(rho=WOBBLE_RHO_MAX)
        with pytest.raises(ValueError, match="rho"):
            WobbleParams(rho=0.999)

    def test_snapshot_index_freezes_within_burst(self):
        wob = WobbleParams(sigma_pos=0.05, seed=1, snapshot_rate=60.0)
        traj = Trajectory(waypoints=HOVER_POINT, wobble=wob)
        # three SIMO snapshots of one 20 Hz burst share the wobble index
        p0 = tx_position_at(traj, 0.0)
        p1 = tx_position_at(traj, 0.0064)
        p2 = tx_position_at(traj, 0.0128)
        np.testing.assert_array_equal(p0, p1)
        np.testing.assert_array_equal(p0, p2)
        p_next = tx_position_at(traj, 0.05)
        assert not np.array_equal(p0, p_next)

    def test_every_snapshot_of_a_burst_gets_the_burst_state(self):
        timing = TimingPlan()
        traj = Trajectory(waypoints=HOVER_POINT,
                          wobble=WobbleParams(snapshot_rate=timing.snapshot_rate))
        bursts = snapshot_timestamps(timing, 5000).reshape(5000, timing.simos_per_burst)
        states = [[wobble_index(traj, t) for t in burst] for burst in bursts]
        # 2.05 s * 60 Hz rounds to 122.99999999999999: burst 41's first
        # snapshot fell one state below its other two
        assert states[41] == [123, 123, 123]
        assert [b for b, burst in enumerate(states) if burst != [3 * b] * 3] == []

    @pytest.mark.parametrize("waypoints", [
        [], [[0.0, 0.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1e308], [0.0, 0.0, -1e308]],
    ], ids=["empty", "2-vector", "zero-length-edge", "infinite-length"])
    def test_invalid_waypoints_rejected(self, waypoints):
        with pytest.raises(ValueError):
            Trajectory(waypoints=waypoints)

    def test_negative_time_rejected(self):
        traj = Trajectory(waypoints=[[0, 0, 1]])
        with pytest.raises(ValueError):
            tx_position_at(traj, -1.0)

    def test_state_key_is_the_index_the_wobble_state_or_0(self):
        wob = WobbleParams(sigma_pos=0.05, seed=1, snapshot_rate=60.0)
        tilt_only = WobbleParams(sigma_angle=0.01, snapshot_rate=60.0)
        assert Trajectory(waypoints=HOVER_POINT).state(7, 0.35) == 0
        assert Trajectory(waypoints=HOVER_POINT, wobble=wob).state(7, 0.35) == 21
        assert Trajectory(waypoints=HOVER_POINT, wobble=tilt_only).state(7, 0.35) == 21
        assert Trajectory(waypoints=SQUARE, wobble=wob).state(7, 0.35) == 7

    def test_a_moving_tx_wobbles_by_the_state_of_each_time(self):
        wob = WobbleParams(sigma_pos=0.05, sigma_angle=0.01, seed=4, snapshot_rate=60.0)
        walk, wobbling = Trajectory(waypoints=SQUARE), Trajectory(waypoints=SQUARE, wobble=wob)
        times = np.array([0.0, 0.01, 0.02, 0.5, 3.25])
        offsets = tx_positions_at(wobbling, times) - tx_positions_at(walk, times)
        for t, offset in zip(times, offsets):
            state = wobble_index(wobbling, t)
            np.testing.assert_allclose(offset, wobble_offset(wob, state), rtol=0, atol=1e-13)
            np.testing.assert_array_equal(tx_tilt_at(wobbling, t), wobble_tilt(wob, state))


class TestSynthesizePaths:
    def test_free_space_los(self):
        scene = Scene(facets=(), rx_position=[0.0, 0.0, 0.0])
        paths = synthesize_paths(scene, [12.0, 0.0, 0.0], 3.5e9)
        assert len(paths) == 1  # one row: one TX position
        assert paths.counts.tolist() == [1]
        np.testing.assert_array_equal(paths.tx_position, [12.0, 0.0, 0.0])
        delay, jones = paths.delays[0, 0], paths.jones[0, 0]
        assert delay == pytest.approx(12.0 / SPEED_OF_LIGHT, rel=1e-15)
        assert delay == pytest.approx(40.03e-9, rel=1e-3)
        assert np.linalg.norm(jones) == pytest.approx(
            WAVELENGTH / (4 * math.pi * 12.0), rel=1e-12)
        # vertical TX maps onto the V component for a horizontal link
        assert abs(jones[1]) < 1e-15
        np.testing.assert_allclose(paths.directions[0, 0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_single_mirror_image_source(self):
        # TX and RX mirror-symmetric about a perfectly reflecting wall
        scene = Scene(facets=(big_wall_x(5.0),), rx_position=[0.0, 0.0, 0.0])
        paths = synthesize_paths(scene, [4.0, 0.0, 0.0], 3.5e9)
        assert paths.counts.tolist() == [2]  # LOS, then the reflection
        d_image = 4.0 + 2 * 1.0  # image at x = 6
        assert paths.delays[0, 1] == pytest.approx(d_image / SPEED_OF_LIGHT, rel=1e-12)
        assert np.linalg.norm(paths.jones[0, 1]) == pytest.approx(
            WAVELENGTH / (4 * math.pi * d_image), rel=1e-12)

    def test_paths_sorted_by_delay(self):
        scene = Scene(facets=(big_wall_x(30.0, 0.5), big_wall_x(-10.0, 0.5)),
                      rx_position=[0.0, 0.0, 0.0])
        paths = synthesize_paths(scene, [5.0, 1.0, 0.0], 3.5e9)
        assert paths.counts.tolist() == [3]
        assert np.all(np.diff(paths.delays[0]) > 0)

    def test_power_conservation_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            gamma_v = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            gamma_h = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            facet = Facet(corners=[[8.0, -20, -20], [8.0, 20, -20],
                                   [8.0, 20, 20], [8.0, -20, 20]],
                          gamma_v=gamma_v, gamma_h=gamma_h,
                          cross_pol=float(rng.uniform(0, 0.5)))
            scene = Scene(facets=(facet,), rx_position=[0.0, 0.0, 0.0])
            tx = [rng.uniform(1, 6), rng.uniform(-3, 3), rng.uniform(-3, 3)]
            paths = synthesize_paths(scene, tx, 3.5e9)
            for delay, jones in zip(paths.delays[0], paths.jones[0]):
                d_path = delay * SPEED_OF_LIGHT
                bound = WAVELENGTH / (4 * math.pi * d_path)
                assert np.linalg.norm(jones) <= bound * (1 + 1e-12)

    def test_geometry_reciprocity_of_delays(self):
        facets = (big_wall_x(20.0, 0.6, span=100.0),
                  Facet(corners=[[-30, -40, -40], [-30, 40, -40],
                                 [-30, 40, 40], [-30, -40, 40]], gamma_v=0.4,
                        gamma_h=0.4),)
        a = np.array([6.0, 2.0, 1.0])
        b = np.array([-3.0, -1.0, 2.0])
        fwd = synthesize_paths(Scene(facets=facets, rx_position=b), a, 3.5e9)
        rev = synthesize_paths(Scene(facets=facets, rx_position=a), b, 3.5e9)
        np.testing.assert_allclose(fwd.delays, rev.delays, rtol=1e-12)

    def test_errors(self):
        scene = Scene(facets=(), rx_position=[1.0, 1.0, 1.0])
        with pytest.raises(SceneError, match="coincides"):
            synthesize_paths(scene, [1.0, 1.0, 1.0], 3.5e9)
        with pytest.raises(SceneError, match="degenerate"):
            Facet(corners=[[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(SceneError, match="coplanar"):
            Facet(corners=[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1]])
        on_plane = Scene(facets=(big_wall_x(5.0),), rx_position=[0.0, 0.0, 0.0])
        with pytest.raises(SceneError, match="plane"):
            synthesize_paths(on_plane, [5.0, 1.0, 0.0], 3.5e9)

    def test_tx_on_extended_plane_of_small_facet(self):
        # a 4 x 3 m panel on the plane y = -8, like the umbrella of the
        # paper-route scene that the route crosses 50 m above it
        panel = Facet(corners=[[4.0, -8.0, 0.0], [8.0, -8.0, 0.0],
                               [8.0, -8.0, 3.0], [4.0, -8.0, 3.0]],
                      gamma_v=0.15, gamma_h=0.15, name="panel")
        scene = Scene(facets=(panel,), rx_position=[0.0, 0.0, 1.5])
        above = synthesize_paths(scene, [15.0, -8.0, 50.0], 3.5e9)
        assert above.counts.tolist() == [1]  # LOS only
        with pytest.raises(SceneError, match="lies on the plane of facet 'panel'"):
            synthesize_paths(scene, [6.0, -8.0, 1.0], 3.5e9)

    def test_slots_match_single_position_synthesis(self):
        facets = (big_wall_x(20.0, 0.6, span=30.0),
                  Facet(corners=[[-30, -4, 0], [-30, 4, 0], [-30, 4, 40], [-30, -4, 40]],
                        gamma_v=0.4 + 0.2j, gamma_h=-0.3j, cross_pol=0.1, name="pane"))
        scene = Scene(facets=facets, rx_position=[0.0, 0.0, 1.5])
        rng = np.random.default_rng(5)
        tx = np.column_stack([rng.uniform(-25, 15, 200), rng.uniform(-40, 40, 200),
                              rng.uniform(2, 60, 200)])
        slots = synthesize_slots(scene, tx, 3.5e9, tx_tilt=(0.02, -0.01))
        assert len(set(slots.counts.tolist())) > 1
        for k in range(len(tx)):
            single = synthesize_paths(scene, tx[k], 3.5e9, tx_tilt=(0.02, -0.01))
            n = slots.counts[k]
            assert single.counts.tolist() == [n]
            assert np.array_equal(slots.delays[k, :n], single.delays[0])
            assert np.array_equal(slots.jones[k, :n], single.jones[0])
            assert np.array_equal(slots.directions[k, :n], single.directions[0])
            assert np.all(np.isinf(slots.delays[k, n:]))
            assert not np.any(slots.jones[k, n:])

    def test_tilt_rotates_polarization(self):
        scene = Scene(facets=(), rx_position=[0.0, 0.0, 0.0])
        tilted = synthesize_paths(scene, [12.0, 0.0, 0.0], 3.5e9,
                                  tx_tilt=(math.radians(10), 0.0))
        los_jones = tilted.jones[0, 0]
        np.testing.assert_array_equal(tilted.tx_tilt, [math.radians(10), 0.0])
        # tilt about x rotates the polarization plane for an x-axis link
        assert abs(los_jones[1]) > 0
        total = np.linalg.norm(los_jones)
        assert total == pytest.approx(WAVELENGTH / (4 * math.pi * 12.0), rel=1e-12)


def oracle_reflection_x_plane(tx, rx, x0, y_range, z_range):
    """Independent image-source solution for a facade on the plane x = x0.

    Returns (delay, arrival_azimuth) or None. Uses only closed-form
    scalar math: image by coordinate flip, specular point by linear
    interpolation, containment by interval tests.
    """
    image = (2 * x0 - tx[0], tx[1], tx[2])
    same_side = (tx[0] - x0) * (rx[0] - x0) > 0
    if not same_side:
        return None
    denom = image[0] - rx[0]
    if denom == 0:
        return None
    t = (x0 - rx[0]) / denom
    if not 0.0 < t < 1.0:
        return None
    py = rx[1] + t * (image[1] - rx[1])
    pz = rx[2] + t * (image[2] - rx[2])
    if not (y_range[0] <= py <= y_range[1] and z_range[0] <= pz <= z_range[1]):
        return None
    d = math.dist(image, rx)
    azimuth = math.atan2(image[1] - rx[1], image[0] - rx[0])
    return d / SPEED_OF_LIGHT, azimuth


class TestRouteFacadeOracle:
    """Image-source reflections along the square route against an
    independent closed-form oracle at 8 waypoints."""

    FACADE_X = 25.0
    Y_RANGE = (-40.0, 40.0)
    Z_RANGE = (0.0, 60.0)

    def scene(self):
        facade = Facet(corners=[[self.FACADE_X, self.Y_RANGE[0], self.Z_RANGE[0]],
                                [self.FACADE_X, self.Y_RANGE[1], self.Z_RANGE[0]],
                                [self.FACADE_X, self.Y_RANGE[1], self.Z_RANGE[1]],
                                [self.FACADE_X, self.Y_RANGE[0], self.Z_RANGE[1]]],
                       gamma_v=0.5, gamma_h=0.5, name="glass")
        return Scene(facets=(facade,), rx_position=[0.0, 0.0, 1.5])

    def test_reflections_match_oracle_at_waypoints(self):
        scene = self.scene()
        traj = Trajectory(waypoints=SQUARE, speed=2.0)
        rx = (0.0, 0.0, 1.5)
        seen = 0
        for t in np.linspace(0.0, 60.0, 8, endpoint=False):
            tx = tx_position_at(traj, float(t))
            paths = synthesize_paths(scene, tx, 3.5e9)
            bounced = list(range(1, paths.counts[0]))  # entries after the LOS
            expected = oracle_reflection_x_plane(tuple(tx), rx, self.FACADE_X,
                                                 self.Y_RANGE, self.Z_RANGE)
            if expected is None:
                assert not bounced
                continue
            seen += 1
            assert len(bounced) == 1
            delay, azimuth = expected
            assert paths.delays[0, 1] == pytest.approx(delay, rel=1e-12)
            got_az = math.atan2(paths.directions[0, 1, 1], paths.directions[0, 1, 0])
            assert got_az == pytest.approx(azimuth, abs=1e-12)
            # the reflection arrives from the facade side of the array
            assert math.cos(got_az) > 0
        assert seen >= 3  # the east-facing legs of the route see the facade
