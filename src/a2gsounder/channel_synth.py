"""Ground-truth multipath synthesis.

Paths are generated geometrically: a free-space line-of-sight component
plus one single-bounce specular reflection per planar facet whose image
point is visible. Each path carries a delay, an arrival direction at the
receiver and a (V, H) Jones amplitude excluding the receive element
pattern. The transmit antenna is an ideal vertically polarized omni; a
tilt rotates its polarization axis.

The geometry is evaluated as array operations over a batch of TX
positions, and every multipath result is a SlotPaths with one row per
position. A moving TX is seen from a new position at every 50 us
switch slot, so its snapshot synthesizes all of its slots in one pass
(``synthesize_slots``); a TX at one waypoint is synthesized once per TX
state, a one-row SlotPaths. ``synthesize_paths`` and ``tx_position_at``
are the one-position calls of the same code.

Drone motion is a trajectory: a polyline of 3-D waypoints walked at
constant speed by cumulative edge length, from the first waypoint at
t = 0. The polyline wraps when its last waypoint equals its first and
holds its last point otherwise; a single waypoint is a fixed point, so
a static TX, a hover and a route are the same motion. The walk gives a
position at any time, between snapshot starts too, and the TX moves
within a snapshot exactly when there is more than one waypoint.

On top of the walk a truncated AR(1) wobble offsets the position and
tilts the antenna when either of its sigmas is above 0. The wobble is
not indexed per SIMO snapshot: at any time t, a snapshot start or not,
the state is number floor(t * snapshot_rate), with snapshot_rate =
burst_rate * simos_per_burst, and the SIMO snapshots sit back to back
at the start of each burst. With the default timing (three 6.4 ms
snapshots per 50 ms burst, 60 Hz) the snapshots of a burst share one
state and only every third state is observed.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_WOBBLE_POS, TAG_WOBBLE_TILT, stream
from .waveform import SPEED_OF_LIGHT

_PLANE_EPS = 1e-9
# AR(1) wobble is evaluated as a windowed moving sum so any snapshot
# index is computable independently. Each step past index 511 swaps the
# window's oldest term (weight rho**511, error ~rho**511 sigma), which
# float64 rounding hides while rho**511 <= 2**-53: rho <= 2**(-53/511).
_WOBBLE_WINDOW = 512
WOBBLE_RHO_MAX = 2.0 ** (-53 / (_WOBBLE_WINDOW - 1))  # ~0.9306


class SceneError(ValueError):
    pass


@dataclass(frozen=True)
class Facet:
    """Planar polygonal reflector with per-polarization reflection.

    ``cross_pol`` is the amplitude fraction routed between V and H at
    the bounce (a rotation, so energy is conserved before the gammas).
    """

    corners: np.ndarray
    gamma_v: complex = -0.5 + 0.0j
    gamma_h: complex = -0.5 + 0.0j
    cross_pol: float = 0.0
    name: str = ""

    def __post_init__(self):
        corners = np.asarray(self.corners, dtype=np.float64)
        if corners.ndim != 2 or corners.shape[0] < 3 or corners.shape[1] != 3:
            raise SceneError(f"facet '{self.name}': corners must be (>=3, 3)")
        object.__setattr__(self, "corners", corners)
        if abs(self.gamma_v) > 1.0 + 1e-12 or abs(self.gamma_h) > 1.0 + 1e-12:
            raise SceneError(f"facet '{self.name}': |reflection coefficient| must be <= 1")
        if not 0.0 <= self.cross_pol < 1.0:
            raise SceneError(f"facet '{self.name}': cross_pol must be in [0, 1)")
        object.__setattr__(self, "_normal", _plane_of(corners, self.name))

    @property
    def normal(self):
        return self._normal


def _plane_of(corners, name):
    v1 = corners[1] - corners[0]
    normal = None
    for k in range(2, len(corners)):
        n = np.cross(v1, corners[k] - corners[0])
        if np.linalg.norm(n) > _PLANE_EPS:
            normal = n / np.linalg.norm(n)
            break
    if normal is None:
        raise SceneError(f"facet '{name}': degenerate (zero area)")
    # planarity and total area via fan triangulation
    area = 0.0
    for k in range(1, len(corners) - 1):
        tri = np.cross(corners[k] - corners[0], corners[k + 1] - corners[0])
        area += 0.5 * np.linalg.norm(tri)
        if abs(np.dot(corners[k + 1] - corners[0], normal)) > 1e-6:
            raise SceneError(f"facet '{name}': corners are not coplanar")
    if area <= _PLANE_EPS:
        raise SceneError(f"facet '{name}': degenerate (zero area)")
    return normal


def _dot(a, b):
    """Dot product over the last axis, broadcast over the leading ones.

    A stacked (1, 3) @ (3, 1) matmul runs the same dot kernel as
    ``np.dot`` on one pair, so every slot gets the bits a scalar call
    would; ``(a * b).sum(-1)`` and ``einsum`` round differently.
    """
    return (np.asarray(a)[..., np.newaxis, :] @ np.asarray(b)[..., :, np.newaxis])[..., 0, 0]


def _norm(v):
    return np.sqrt(_dot(v, v))


def _cross(a, b):
    """a x b over the last axis: the products and differences np.cross
    computes, without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _in_polygon(points, corners, normal):
    """Even-odd test of (S, 3) points lying on a facet's plane.

    Points and corners are projected on the two dominant axes of the
    plane; an edge toggles a point when the ray toward +x crosses it.
    """
    drop = int(np.argmax(np.abs(normal)))
    keep = [i for i in range(3) if i != drop]
    px, py = points[:, keep[0]], points[:, keep[1]]
    xs, ys = corners[:, keep[0]], corners[:, keep[1]]
    inside = np.zeros(len(points), dtype=bool)
    m = len(xs)
    for i in range(m):
        x1, y1 = xs[i], ys[i]
        x2, y2 = xs[(i + 1) % m], ys[(i + 1) % m]
        if y1 == y2:
            continue  # a horizontal edge is never crossed
        straddles = (y1 > py) != (y2 > py)
        x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= straddles & (px < x_cross)
    return inside


@dataclass(frozen=True)
class Scene:
    """Reflector set plus receiver placement.

    ``rx_mounting_rotation`` rotates the array frame into the world
    frame about z (column 0 points at world azimuth equal to the
    rotation).
    """

    facets: tuple = ()
    rx_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rx_mounting_rotation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        object.__setattr__(self, "rx_position",
                           np.asarray(self.rx_position, dtype=np.float64))


@dataclass(frozen=True)
class SlotPaths:
    """Paths of one snapshot, one row per TX position (switch slot).

    A TX at one waypoint is frozen within a snapshot, so its one row
    is seen by every port. A TX moving between switch slots has one row
    per port, and slot k feeds port k. Row k holds that slot's paths
    sorted by delay, the line of sight first: the first ``counts[k]``
    entries are real and the rest are padding (zero gain and direction,
    infinite delay). Every row was synthesized with the TX tilt
    ``tx_tilt``.
    """

    delays: np.ndarray  # (S, P)
    jones: np.ndarray  # (S, P, 2) complex (V, H) amplitude, receive pattern excluded
    directions: np.ndarray  # (S, P, 3) world-frame unit vectors, RX toward last interaction
    counts: np.ndarray  # (S,)
    tx_positions: np.ndarray  # (S, 3)
    tx_tilt: np.ndarray  # (2,)

    def __len__(self):
        return len(self.counts)

    @property
    def tx_position(self):
        """TX position at the snapshot start (slot 0)."""
        return self.tx_positions[0]


def _rx_polarization_basis(propagation):
    """(e_v, e_h) basis for waves traveling along (S, 3) ``propagation``.

    e_h = p x z normalized, e_v = e_h x p; for horizontal propagation
    e_v is vertical. Exactly vertical propagation has no V/H split.
    """
    p = propagation / _norm(propagation)[:, np.newaxis]
    e_h = _cross(p, np.array([0.0, 0.0, 1.0]))
    nh = _norm(e_h)
    if np.any(nh < 1e-12):
        raise SceneError("propagation is vertical: V/H polarization basis undefined")
    e_h = e_h / nh[:, np.newaxis]
    e_v = _cross(e_h, p)
    return e_v, e_h


def _tx_axis(tilt):
    """Antenna axis: z tilted by (tilt_x, tilt_y) rotations about x then y."""
    tx, ty = float(tilt[0]), float(tilt[1])
    axis = np.array([0.0, 0.0, 1.0])
    rot_x = np.array([[1, 0, 0],
                      [0, math.cos(tx), -math.sin(tx)],
                      [0, math.sin(tx), math.cos(tx)]])
    rot_y = np.array([[math.cos(ty), 0, math.sin(ty)],
                      [0, 1, 0],
                      [-math.sin(ty), 0, math.cos(ty)]])
    return rot_y @ rot_x @ axis


def _emitted_jones(tx_axis, propagation):
    """Unit-amplitude (V, H) of an ideal polarized omni along each of the
    (S, 3) ``propagation`` directions; returns (S, 2)."""
    e_v, e_h = _rx_polarization_basis(propagation)
    e_field = tx_axis - _dot(tx_axis, propagation)[:, np.newaxis] * propagation
    ne = _norm(e_field)
    if np.any(ne < 1e-12):
        raise SceneError("propagation parallel to the TX polarization axis")
    e_field = e_field / ne[:, np.newaxis]
    return np.stack([_dot(e_field, e_v), _dot(e_field, e_h)], axis=-1).astype(np.complex128)


def _image_sources(scene, tx, carrier_frequency, tx_tilt):
    """LOS plus one image-source reflection per visible facet, for each
    of the (S, 3) TX positions in one array pass.

    Returns (delays, jones, directions), each with one row per TX and
    one column per candidate path, sorted by delay (stable, LOS first on
    ties). Invisible paths carry an infinite delay and zero gain and
    direction.
    """
    rx = scene.rx_position
    slots = len(tx)
    d_los = _norm(tx - rx)
    if np.any(d_los < 1e-9):
        raise SceneError("TX coincides with RX")
    wavelength = SPEED_OF_LIGHT / carrier_frequency
    axis = _tx_axis(tx_tilt)

    width = 1 + len(scene.facets)
    delays = np.full((slots, width), np.inf)
    jones = np.zeros((slots, width, 2), dtype=np.complex128)
    directions = np.zeros((slots, width, 3))

    # line of sight
    prop = (rx - tx) / d_los[:, np.newaxis]
    jones[:, 0] = (_emitted_jones(axis, prop)
                   * (wavelength / (4.0 * math.pi * d_los))[:, np.newaxis])
    delays[:, 0] = d_los / SPEED_OF_LIGHT
    directions[:, 0] = (tx - rx) / d_los[:, np.newaxis]

    facets = scene.facets
    if facets:
        # every (slot, facet) pair at once; arrays below are (S, F, ...)
        normals = np.array([f.normal for f in facets])
        refs = np.array([f.corners[0] for f in facets])
        dist_tx = _dot(tx[:, np.newaxis, :] - refs, normals)
        dist_rx = _dot(rx - refs, normals)
        on_plane = np.abs(dist_tx) < _PLANE_EPS
        for f, facet in enumerate(facets):
            if (abs(dist_rx[f]) < _PLANE_EPS
                    or np.any(_in_polygon(tx[on_plane[:, f]], facet.corners, facet.normal))):
                raise SceneError(f"TX or RX lies on the plane of facet '{facet.name}'")
        # a TX on the plane but off the facet, or on the other side of
        # it from the RX, has no specular bounce
        seen = ~on_plane & ~(dist_tx * dist_rx < 0)

        image = tx[:, np.newaxis, :] - 2.0 * dist_tx[..., np.newaxis] * normals
        seg = image - rx
        seg_len = _norm(seg)
        denom = _dot(seg, normals)
        seen &= ~(np.abs(denom) < _PLANE_EPS)
        t = _dot(refs - rx, normals) / np.where(seen, denom, 1.0)
        seen &= (0.0 < t) & (t < 1.0)
        point = rx + t[..., np.newaxis] * seg
        for f, facet in enumerate(facets):
            seen[:, f] &= _in_polygon(point[:, f], facet.corners, facet.normal)

        # emitted polarization along the TX -> specular point leg
        leg1 = point - tx[:, np.newaxis, :]
        leg1_len = _norm(leg1)
        seen &= ~(leg1_len < _PLANE_EPS)
        hit, face = np.nonzero(seen)  # slot and facet index of each bounce
        jones_in = _emitted_jones(axis, leg1[hit, face] / leg1_len[hit, face, np.newaxis])

        c = np.array([f.cross_pol for f in facets])[face]
        s = np.sqrt(1.0 - c * c)
        rotated_v = s * jones_in[:, 0] + c * jones_in[:, 1]
        rotated_h = -c * jones_in[:, 0] + s * jones_in[:, 1]
        bounced = np.stack([np.array([f.gamma_v for f in facets])[face] * rotated_v,
                            np.array([f.gamma_h for f in facets])[face] * rotated_h], axis=-1)
        length = seg_len[hit, face]
        jones[hit, face + 1] = bounced * (wavelength / (4.0 * math.pi * length))[:, np.newaxis]
        delays[hit, face + 1] = length / SPEED_OF_LIGHT
        directions[hit, face + 1] = seg[hit, face] / length[:, np.newaxis]

    order = np.argsort(delays, axis=1, kind="stable")
    return (np.take_along_axis(delays, order, axis=1),
            np.take_along_axis(jones, order[..., np.newaxis], axis=1),
            np.take_along_axis(directions, order[..., np.newaxis], axis=1))


def synthesize_slots(scene, tx_positions, carrier_frequency=3.5e9, tx_tilt=(0.0, 0.0)):
    """LOS plus one image-source reflection per visible facet, for each
    of the (S, 3) TX positions; returns SlotPaths with one row per
    position, ``tx_tilt`` shared by every row.

    Free-space amplitude is wavelength/(4*pi*d) over the total path
    length; reflections multiply the per-polarization coefficients after
    routing ``cross_pol`` between V and H. A TX on a facet's plane but
    outside the facet gets no reflection from it; a TX on the facet
    itself, or an RX on its plane, is a SceneError.
    """
    tx = np.asarray(tx_positions, dtype=np.float64)
    delays, jones, directions = _image_sources(scene, tx, carrier_frequency, tx_tilt)
    counts = np.sum(np.isfinite(delays), axis=1)
    width = int(counts.max())
    return SlotPaths(delays=delays[:, :width], jones=jones[:, :width],
                     directions=directions[:, :width], counts=counts, tx_positions=tx,
                     tx_tilt=np.asarray(tx_tilt, dtype=np.float64))


def synthesize_paths(scene, tx_position, carrier_frequency=3.5e9, tx_tilt=(0.0, 0.0)):
    """Paths from one TX position: the one-row SlotPaths of synthesize_slots."""
    return synthesize_slots(scene, [tx_position], carrier_frequency, tx_tilt)


@dataclass(frozen=True)
class WobbleParams:
    """Truncated AR(1) jitter of TX position and tilt, one state per
    1/snapshot_rate seconds; none while both sigmas are 0."""

    sigma_pos: float = 0.0
    sigma_angle: float = 0.0
    rho: float = 0.9
    seed: int = 0
    snapshot_rate: float = 60.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= WOBBLE_RHO_MAX:
            raise ValueError(f"rho must be in [0, {WOBBLE_RHO_MAX}]")
        if self.sigma_pos < 0 or self.sigma_angle < 0:
            raise ValueError("wobble sigmas must be non-negative")


@functools.lru_cache(maxsize=1 << 16)
def _innovation(seed, tag, k, dims):
    xi = stream(seed, tag, k).standard_normal(dims)
    xi.setflags(write=False)
    return xi


def _ar1_at(index, rho, seed, tag, dims):
    """Stationary AR(1) sample at ``index`` from counter-based innovations.

    w_i = sum_k rho^(i-k) * sqrt(1-rho^2) * xi_k over the trailing
    window, with the oldest in-window term carrying the stationary
    weight so the marginal variance is exactly 1.
    """
    first = max(0, index - (_WOBBLE_WINDOW - 1))
    total = np.zeros(dims)
    for k in range(first, index + 1):
        xi = _innovation(seed, tag, k, dims)
        weight = rho ** (index - k)
        if k == first:
            scale = 1.0  # stationary start of the window
        else:
            scale = math.sqrt(1.0 - rho * rho)
        total += weight * scale * xi
    return total


def wobble_offset(params, snapshot_index):
    """Position offset (3,) for a snapshot, truncated to |offset| <= 6 sigma."""
    if params.sigma_pos == 0.0:
        return np.zeros(3)
    w = params.sigma_pos * _ar1_at(snapshot_index, params.rho, params.seed, TAG_WOBBLE_POS, 3)
    norm = np.linalg.norm(w)
    limit = 6.0 * params.sigma_pos
    if norm > limit:
        w = w * (limit / norm)
    return w


def wobble_tilt(params, snapshot_index):
    """TX tilt (about x, about y) in radians for a snapshot."""
    if params.sigma_angle == 0.0:
        return np.zeros(2)
    t = params.sigma_angle * _ar1_at(snapshot_index, params.rho, params.seed, TAG_WOBBLE_TILT, 2)
    return np.clip(t, -6.0 * params.sigma_angle, 6.0 * params.sigma_angle)


@dataclass(frozen=True)
class Trajectory:
    """TX motion: the polyline ``waypoints`` (N, 3) walked at ``speed``
    m/s by cumulative edge length, plus the ``wobble``.

    The walk is at the first waypoint at t = 0. It wraps when the last
    waypoint equals the first and holds the last point otherwise; one
    waypoint is a fixed point. The wobble, when either sigma is above
    0, adds the position offset and the tilt of state
    floor(t * snapshot_rate) at every time t.
    """

    waypoints: np.ndarray
    speed: float = 2.0
    wobble: WobbleParams = field(default_factory=WobbleParams)

    def __post_init__(self):
        points = np.asarray(self.waypoints, dtype=np.float64)
        if points.ndim != 2 or len(points) < 1 or points.shape[1] != 3:
            raise ValueError("waypoints must be (>=1, 3)")
        with np.errstate(over="ignore"):  # an infinite length is rejected below
            lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
            ends = np.concatenate([[0.0], np.cumsum(lengths)])  # path length at each waypoint
        if np.any(lengths == 0.0) or not math.isfinite(ends[-1]):
            raise ValueError("consecutive waypoints must differ, a finite length apart")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        object.__setattr__(self, "waypoints", points)
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_ends", ends)

    @property
    def moves(self):
        """Whether the TX moves within a snapshot: more than one waypoint."""
        return len(self.waypoints) > 1

    def state(self, index, time):
        """Key of the TX state of snapshot ``index``, which starts at
        ``time``: the index when the TX moves, the wobble state when it
        wobbles, else 0. Snapshots with one key share their paths."""
        if self.moves:
            return index
        if self.wobble.sigma_pos > 0 or self.wobble.sigma_angle > 0:
            return wobble_index(self, time)
        return 0


def wobble_index(trajectory, time):
    """Wobble state at ``time``: floor(time * snapshot_rate), with
    a 1e-9 state tolerance so that a product that rounds just below a
    boundary (2.05 * 60 = 122.99999999999999) still gets that state."""
    return int(math.floor(time * trajectory.wobble.snapshot_rate + 1e-9))


def tx_positions_at(trajectory, times):
    """TX positions (S, 3) at each of the (S,) ``times`` seconds (>= 0):
    the walk's point, plus the wobble offset of each time's state."""
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 0):
        raise ValueError("time must be >= 0")
    points, ends = trajectory.waypoints, trajectory._ends
    if len(points) == 1:
        positions = np.tile(points[0], (len(times), 1))
    else:
        s = trajectory.speed * times
        if np.array_equal(points[0], points[-1]):  # closed: wrap
            s = np.remainder(s, ends[-1])
        edge = np.minimum(np.searchsorted(ends, s, side="right") - 1, len(points) - 2)
        a, b = points[edge], points[edge + 1]
        frac = (s - ends[edge]) / trajectory._lengths[edge]
        positions = np.where((s < ends[-1])[:, np.newaxis],
                             a + frac[:, np.newaxis] * (b - a), points[-1])
    if trajectory.wobble.sigma_pos > 0:
        index = [wobble_index(trajectory, t) for t in times]
        offsets = {i: wobble_offset(trajectory.wobble, i) for i in set(index)}
        positions = positions + np.array([offsets[i] for i in index])
    return positions


def tx_position_at(trajectory, time):
    """TX position at ``time`` seconds (time >= 0)."""
    return tx_positions_at(trajectory, [time])[0]


def tx_tilt_at(trajectory, time):
    """TX antenna tilt (x, y rotations, radians) at ``time``: the wobble's."""
    return wobble_tilt(trajectory.wobble, wobble_index(trajectory, time))
