"""Cylindrical dual-polarized receive array.

16 columns of 4 active dual-polarized elements on a cylinder give 128
ports with full azimuth coverage. The element pattern is a parametric
cos^q stand-in (the measured pattern is not modeled): co-polarized
amplitude cos^q_az(daz) * cos^q_el(el), clamped below by a back-lobe
floor, with cross-polarized reception attenuated by the XPD.

Column c points at azimuth 2*pi*c/columns in the array frame; mounting
the array in the world frame is a scenario concern (a rotation about z
handled by the capture simulator).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._digest import canonical_hash

_POL_INDEX = {"V": 0, "H": 1}


@dataclass(frozen=True)
class PatternParams:
    """Parametric element pattern.

    Defaults: q exponents give a 120 deg half-power elevation beamwidth
    (cos^0.5 amplitude), 12 dB cross-polarization discrimination and a
    -30 dB back-lobe floor.
    """

    q_azimuth: float = 0.5
    q_elevation: float = 0.5
    xpd_db: float = 12.0
    backlobe_floor_db: float = -30.0

    def __post_init__(self):
        if self.q_azimuth < 0 or self.q_elevation < 0:
            raise ValueError("pattern exponents must be non-negative")
        if self.xpd_db < 0:
            raise ValueError("xpd_db must be non-negative (use math.inf for no leakage)")

    @property
    def floor_amplitude(self):
        return 10.0 ** (self.backlobe_floor_db / 20.0)

    @property
    def cross_amplitude(self):
        if math.isinf(self.xpd_db):
            return 0.0
        return 10.0 ** (-self.xpd_db / 20.0)


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable port table plus pattern parameters.

    Ports are the rows of three dense arrays, indexed by port id =
    (column * rows + row) * 2 + pol with V = 0 and H = 1 (see port_id):
    ``positions`` (n_ports, 3) element phase centers in the array frame,
    meters, shared by an element's two ports; ``boresights`` (n_ports,)
    column azimuths, radians; ``pol_index`` (n_ports,) 0 for V, 1 for H.
    """

    radius: float
    vertical_spacing: float
    columns: int
    rows: int
    pattern: PatternParams
    positions: np.ndarray = field(repr=False)
    boresights: np.ndarray = field(repr=False)
    pol_index: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = 2 * self.columns * self.rows
        if (np.shape(self.positions) != (n, 3) or np.shape(self.boresights) != (n,)
                or np.shape(self.pol_index) != (n,)):
            raise ValueError(f"port arrays need {n} rows (columns*rows*2)")

    @property
    def n_ports(self):
        return len(self.positions)

    def port_id(self, column, row, polarization):
        """Port id of an element's "V" or "H" port."""
        if not (0 <= column < self.columns and 0 <= row < self.rows):
            raise KeyError(f"no element at column {column}, row {row}")
        return (column * self.rows + row) * 2 + _POL_INDEX[polarization]

    def column_means(self, values):
        """Mean of per-port ``values`` over each column's rows, (columns, 2),
        V first.

        Each mean reduces a contiguous copy of the column's rows, which
        sums them in the same order as a mean of the selected ports; a
        strided view rounds differently from 8 rows on.
        """
        by_column = np.asarray(values).reshape(self.columns, self.rows, 2).transpose(0, 2, 1)
        return np.ascontiguousarray(by_column).mean(axis=-1)

    def port_gains(self, directions, jones):
        """Vectorized port responses.

        Parameters
        ----------
        directions : (P, 3) unit vectors in the array frame (toward
            source) seen by every port, or (n_ports, P, 3) with one set
            per port.
        jones : (P, 2) or (n_ports, P, 2) complex (V, H) incident
            amplitudes, matching ``directions``.

        Returns
        -------
        (n_ports, P) complex gains, pattern amplitude included. The
        pattern is elementwise, so a port's gains do not depend on
        which form carried its directions.
        """
        d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        j = np.atleast_2d(np.asarray(jones, dtype=np.complex128))
        if d.shape[:-1] != j.shape[:-1]:
            raise ValueError("directions and jones must agree in path count")
        if d.ndim == 3 and d.shape[0] != self.n_ports:
            raise ValueError(f"per-port directions need {self.n_ports} rows, got {d.shape[0]}")

        el = np.arcsin(np.clip(d[..., 2], -1.0, 1.0))
        az = np.arctan2(d[..., 1], d[..., 0])
        daz = az - self.boresights[:, np.newaxis]

        p = self.pattern
        caz = np.maximum(np.cos(daz), 0.0)
        cel = np.maximum(np.cos(el), 0.0)
        amp = np.maximum(caz ** p.q_azimuth * cel ** p.q_elevation, p.floor_amplitude)

        v_port = self.pol_index[:, np.newaxis] == 0
        co = np.where(v_port, j[..., 0], j[..., 1])
        cross = np.where(v_port, j[..., 1], j[..., 0])
        return amp * (co + p.cross_amplitude * cross)

    def content_hash(self):
        return canonical_hash(self.to_dict())

    def to_dict(self):
        return {
            "radius": self.radius,
            "vertical_spacing": self.vertical_spacing,
            "columns": self.columns,
            "rows": self.rows,
            "pattern": asdict(self.pattern),
        }


def build_cylindrical_array(columns=16, rows=4, radius=0.1091, vertical_spacing=0.0429,
                            pattern=None):
    """Place columns*rows dual-polarized elements on a cylinder.

    Column c is centered at azimuth 2*pi*c/columns; rows stack
    symmetrically about z = 0 at ``vertical_spacing``. Both polarization
    ports of an element share its position. Default radius and spacing
    give half-wavelength inter-column arc and inter-row distances at
    3.5 GHz.
    """
    if columns < 1 or rows < 1:
        raise ValueError("columns and rows must be >= 1")
    if radius <= 0 or vertical_spacing <= 0:
        raise ValueError("radius and vertical_spacing must be positive")
    pattern = pattern or PatternParams()

    positions, boresights = [], []
    for column in range(columns):
        azimuth = 2.0 * math.pi * column / columns
        x = radius * math.cos(azimuth)
        y = radius * math.sin(azimuth)
        for row in range(rows):
            z = (row - (rows - 1) / 2.0) * vertical_spacing
            positions += [(x, y, z)] * 2  # V then H port of one element
            boresights += [azimuth] * 2
    return ArrayGeometry(
        radius=radius,
        vertical_spacing=vertical_spacing,
        columns=columns,
        rows=rows,
        pattern=pattern,
        positions=np.array(positions, dtype=np.float64),
        boresights=np.array(boresights),
        pol_index=np.tile(np.array([0, 1], dtype=np.int64), columns * rows),
    )
