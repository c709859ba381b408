import math

import numpy as np
import pytest
from oracles import port_gain

from a2gsounder.array_geometry import (ArrayGeometry, PatternParams,
                                       build_cylindrical_array)


def default_array(**pattern_kwargs):
    return build_cylindrical_array(16, 4, 0.1091, 0.0429,
                                   PatternParams(**pattern_kwargs))


class TestConstruction:
    def test_full_array_port_count_and_indexing(self):
        geom = default_array()
        assert geom.n_ports == 128
        assert geom.port_id(4, 0, "V") == 32
        assert geom.boresights[32] == pytest.approx(2 * math.pi * 4 / 16)  # column 4
        assert geom.positions[32][2] == pytest.approx(-1.5 * 0.0429)  # row 0
        assert geom.pol_index[32] == 0  # V

    def test_degenerate_single_element(self):
        geom = build_cylindrical_array(1, 1, 0.05, 0.04)
        assert geom.n_ports == 2
        np.testing.assert_array_equal(geom.positions[0], geom.positions[1])
        assert list(geom.pol_index) == [0, 1]  # V, then H

    def test_port0_position_and_row_stacking(self):
        geom = default_array()
        np.testing.assert_allclose(geom.positions[0],
                                   [0.1091, 0.0, -1.5 * 0.0429], atol=1e-15)
        zs = sorted({geom.positions[geom.port_id(0, r, "V")][2] for r in range(4)})
        np.testing.assert_allclose(zs, np.array([-1.5, -0.5, 0.5, 1.5]) * 0.0429,
                                   atol=1e-15)

    def test_all_ports_lie_on_cylinder(self):
        geom = default_array()
        xy = np.linalg.norm(geom.positions[:, :2], axis=1)
        assert np.max(np.abs(xy - 0.1091)) < 1e-12

    def test_boresight_per_column(self):
        geom = default_array()
        ids = []
        for column in range(16):
            for row in range(4):
                for pol, index in (("V", 0), ("H", 1)):
                    k = geom.port_id(column, row, pol)
                    assert geom.boresights[k] == pytest.approx(2 * math.pi * column / 16)
                    assert geom.pol_index[k] == index
                    ids.append(k)
        assert sorted(ids) == list(range(geom.n_ports))

    def test_port_id_uses_the_arrays_rows(self):
        geom = build_cylindrical_array(3, 9, 0.1, 0.04)
        assert geom.port_id(1, 0, "V") == 18
        assert geom.port_id(2, 8, "H") == geom.n_ports - 1

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_cylindrical_array(0, 4, 0.1, 0.04)
        with pytest.raises(ValueError):
            build_cylindrical_array(16, 4, -0.1, 0.04)

    def test_port_arrays_required(self):
        geom = build_cylindrical_array(2, 1, 0.05, 0.04)
        with pytest.raises(TypeError):
            ArrayGeometry(0.05, 0.04, 2, 1, geom.pattern)
        with pytest.raises(ValueError, match="4 rows"):
            ArrayGeometry(0.05, 0.04, 2, 1, geom.pattern, positions=None,
                          boresights=geom.boresights, pol_index=geom.pol_index)
        with pytest.raises(ValueError, match="4 rows"):
            ArrayGeometry(0.05, 0.04, 2, 1, geom.pattern, positions=geom.positions[:2],
                          boresights=geom.boresights, pol_index=geom.pol_index)


class TestPhaseCenterLookup:
    def test_indexing_examples(self):
        geom = default_array()
        assert geom.port_id(1, 0, "V") == 8
        assert geom.port_id(15, 3, "H") == 127
        np.testing.assert_array_equal(geom.positions[127], geom.positions[126])
        assert geom.positions[127][2] == pytest.approx(1.5 * 0.0429)  # row 3
        assert geom.boresights[127] == pytest.approx(2 * math.pi * 15 / 16)
        assert geom.pol_index[127] == 1

    def test_unknown_port_rejected(self):
        geom = default_array()
        for column, row, pol in ((16, 0, "V"), (0, 4, "V"), (-1, 0, "V"), (0, 0, "X")):
            with pytest.raises(KeyError):
                geom.port_id(column, row, pol)


class TestPortGain:
    def test_boresight_copol_peak_normalized(self):
        geom = default_array(xpd_db=math.inf)
        gain = port_gain(geom, 0, [1.0, 0.0, 0.0], [1.0, 0.0])
        assert gain == pytest.approx(1.0)

    def test_cross_pol_leakage_at_12db(self):
        geom = default_array(xpd_db=12.0)
        gain = port_gain(geom, 1, [1.0, 0.0, 0.0], [1.0, 0.0])  # H port, pure V wave
        assert abs(gain) ** 2 == pytest.approx(10 ** -1.2, rel=1e-12)

    def test_backlobe_floor_clamp(self):
        geom = default_array(backlobe_floor_db=-30.0, xpd_db=math.inf)
        gain = port_gain(geom, 0, [-1.0, 0.0, 0.0], [1.0, 0.0])
        assert abs(gain) ** 2 == pytest.approx(1e-3, rel=1e-12)

    def test_elevation_half_power_at_60deg(self):
        geom = default_array(xpd_db=math.inf)
        d = [math.cos(math.radians(60)), 0.0, math.sin(math.radians(60))]
        gain = port_gain(geom, 0, d, [1.0, 0.0])
        assert abs(gain) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_column_rotation_symmetry(self):
        # rotating the direction by one column pitch maps column c to c+1
        geom = default_array()
        rng = np.random.default_rng(11)
        step = 2 * math.pi / 16
        for _ in range(25):
            az = rng.uniform(0, 2 * math.pi)
            el = rng.uniform(-math.pi / 3, math.pi / 3)
            d = np.array([math.cos(el) * math.cos(az),
                          math.cos(el) * math.sin(az),
                          math.sin(el)])
            d_rot = np.array([math.cos(el) * math.cos(az + step),
                              math.cos(el) * math.sin(az + step),
                              math.sin(el)])
            jones = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            col_c = port_gain(geom, geom.port_id(3, 1, "V"), d, jones)
            col_next = port_gain(geom, geom.port_id(4, 1, "V"), d_rot, jones)
            assert col_c == pytest.approx(col_next, rel=1e-12)

    def test_per_port_directions_match_shared_rows(self):
        # port k given its own direction set gets exactly row k of the
        # shared evaluation of that set
        geom = default_array(q_azimuth=0.7, q_elevation=1.3)
        rng = np.random.default_rng(4)
        d = rng.standard_normal((geom.n_ports, 3, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        shape = (geom.n_ports, 3, 2)
        jones = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        per_port = geom.port_gains(d, jones)
        assert per_port.shape == (geom.n_ports, 3)
        for k in range(geom.n_ports):
            assert np.array_equal(per_port[k], geom.port_gains(d[k], jones[k])[k])
        with pytest.raises(ValueError, match="per-port"):
            geom.port_gains(d[:5], jones[:5])

    def test_copol_never_below_crosspol(self):
        geom = default_array(xpd_db=12.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            az = rng.uniform(0, 2 * math.pi)
            el = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
            d = np.array([math.cos(el) * math.cos(az),
                          math.cos(el) * math.sin(az),
                          math.sin(el)])
            co = abs(port_gain(geom, 0, d, [1.0, 0.0]))    # V port, V wave
            cross = abs(port_gain(geom, 1, d, [1.0, 0.0]))  # H port, V wave
            assert co >= cross

    def test_azimuth_coverage_of_column_union(self):
        # at every azimuth some column is within half the column pitch,
        # so the union response never drops below the single-element
        # response at 11.25 degrees off boresight
        geom = default_array(xpd_db=math.inf)
        worst = math.cos(math.pi / 16) ** 0.5
        for az in np.linspace(0, 2 * math.pi, 73):
            d = [math.cos(az), math.sin(az), 0.0]
            best = max(abs(port_gain(geom, geom.port_id(c, 0, "V"), d, [1.0, 0.0]))
                       for c in range(16))
            assert best >= worst - 1e-12
