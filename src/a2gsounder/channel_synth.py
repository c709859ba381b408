"""Ground-truth multipath synthesis.

Paths are generated geometrically: a free-space line-of-sight component
plus one single-bounce specular reflection per planar facet whose image
point is visible. Each path carries a delay, an arrival direction at the
receiver and a (V, H) Jones amplitude excluding the receive element
pattern. The transmit antenna is an ideal vertically polarized omni; a
tilt rotates its polarization axis.

Drone motion is a trajectory: a fixed point, a hover with a truncated
AR(1) wobble indexed per SIMO snapshot, or a square route walked at
constant speed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_WOBBLE_POS, TAG_WOBBLE_TILT, stream
from .waveform import SPEED_OF_LIGHT

_PLANE_EPS = 1e-9
# AR(1) wobble is evaluated as a windowed moving sum so any snapshot
# index is computable independently; rho**512 < 1e-23 for rho <= 0.9.
_WOBBLE_WINDOW = 512


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
        n, area = _plane_of(corners, self.name)
        object.__setattr__(self, "_normal", n)
        object.__setattr__(self, "_area", area)

    @property
    def normal(self):
        return self._normal

    @property
    def area(self):
        return self._area

    def to_dict(self):
        return {
            "corners": self.corners.tolist(),
            "gamma_v": [self.gamma_v.real, self.gamma_v.imag],
            "gamma_h": [self.gamma_h.real, self.gamma_h.imag],
            "cross_pol": self.cross_pol,
            "name": self.name,
        }


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
    return normal, area


def _point_in_polygon(point, corners, normal):
    # project on the two dominant axes of the plane and run the even-odd rule
    drop = int(np.argmax(np.abs(normal)))
    keep = [i for i in range(3) if i != drop]
    px, py = point[keep[0]], point[keep[1]]
    xs, ys = corners[:, keep[0]], corners[:, keep[1]]
    inside = False
    m = len(xs)
    for i in range(m):
        x1, y1 = xs[i], ys[i]
        x2, y2 = xs[(i + 1) % m], ys[(i + 1) % m]
        if (y1 > py) != (y2 > py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_cross:
                inside = not inside
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

    def to_dict(self):
        return {
            "facets": [f.to_dict() for f in self.facets],
            "rx_position": self.rx_position.tolist(),
            "rx_mounting_rotation": self.rx_mounting_rotation,
        }


@dataclass(frozen=True)
class PathComponent:
    """One multipath component as seen at the receiver.

    ``jones_gain`` is the complex (V, H) amplitude excluding the receive
    element pattern; ``arrival_direction`` is a unit vector from the
    receiver toward the last interaction point (world frame).
    """

    delay: float
    jones_gain: np.ndarray
    arrival_direction: np.ndarray
    bounce_count: int = 0
    facet_name: str = ""


@dataclass(frozen=True)
class PathSet:
    components: tuple
    tx_position: np.ndarray
    rx_position: np.ndarray

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def delays(self):
        return np.array([p.delay for p in self.components])

    def jones(self):
        return np.stack([p.jones_gain for p in self.components])

    def directions(self):
        return np.stack([p.arrival_direction for p in self.components])


def _rx_polarization_basis(propagation):
    """(e_v, e_h) basis for a wave traveling along ``propagation``.

    e_h = p x z normalized, e_v = e_h x p; for horizontal propagation
    e_v is vertical. Exactly vertical propagation has no V/H split.
    """
    p = propagation / np.linalg.norm(propagation)
    e_h = np.cross(p, np.array([0.0, 0.0, 1.0]))
    nh = np.linalg.norm(e_h)
    if nh < 1e-12:
        raise SceneError("propagation is vertical: V/H polarization basis undefined")
    e_h = e_h / nh
    e_v = np.cross(e_h, p)
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
    """Unit-amplitude (V, H) of an ideal polarized omni along ``propagation``."""
    e_v, e_h = _rx_polarization_basis(propagation)
    e_field = tx_axis - np.dot(tx_axis, propagation) * propagation
    ne = np.linalg.norm(e_field)
    if ne < 1e-12:
        raise SceneError("propagation parallel to the TX polarization axis")
    e_field = e_field / ne
    return np.array([np.dot(e_field, e_v), np.dot(e_field, e_h)], dtype=np.complex128)


def synthesize_paths(scene, tx_position, carrier_frequency=3.5e9, tx_tilt=(0.0, 0.0)):
    """LOS plus one image-source reflection per visible facet.

    Free-space amplitude is wavelength/(4*pi*d) over the total path
    length; reflections multiply the per-polarization coefficients after
    routing ``cross_pol`` between V and H. Paths are sorted by delay.
    """
    tx = np.asarray(tx_position, dtype=np.float64)
    rx = scene.rx_position
    d_los = np.linalg.norm(tx - rx)
    if d_los < 1e-9:
        raise SceneError("TX coincides with RX")
    wavelength = SPEED_OF_LIGHT / carrier_frequency
    axis = _tx_axis(tx_tilt)

    components = []

    # line of sight
    prop = (rx - tx) / d_los
    jones = _emitted_jones(axis, prop) * (wavelength / (4.0 * math.pi * d_los))
    components.append(PathComponent(
        delay=d_los / SPEED_OF_LIGHT,
        jones_gain=jones,
        arrival_direction=(tx - rx) / d_los,
        bounce_count=0,
        facet_name="",
    ))

    for facet in scene.facets:
        comp = _reflection(facet, tx, rx, axis, wavelength)
        if comp is not None:
            components.append(comp)

    components.sort(key=lambda c: c.delay)
    return PathSet(components=tuple(components), tx_position=tx, rx_position=rx.copy())


def _reflection(facet, tx, rx, tx_axis, wavelength):
    n = facet.normal
    ref = facet.corners[0]
    dist_tx = np.dot(tx - ref, n)
    dist_rx = np.dot(rx - ref, n)
    if abs(dist_tx) < _PLANE_EPS or abs(dist_rx) < _PLANE_EPS:
        raise SceneError(f"TX or RX lies on the plane of facet '{facet.name}'")
    if dist_tx * dist_rx < 0:
        return None  # opposite sides: no specular bounce

    image = tx - 2.0 * dist_tx * n
    seg = image - rx
    seg_len = np.linalg.norm(seg)
    denom = np.dot(seg, n)
    if abs(denom) < _PLANE_EPS:
        return None
    t = np.dot(ref - rx, n) / denom
    if not 0.0 < t < 1.0:
        return None
    point = rx + t * seg
    if not _point_in_polygon(point, facet.corners, n):
        return None

    # emitted polarization along the TX -> specular point leg
    leg1 = point - tx
    leg1_len = np.linalg.norm(leg1)
    if leg1_len < _PLANE_EPS:
        return None
    jones_in = _emitted_jones(tx_axis, leg1 / leg1_len)

    c = facet.cross_pol
    s = math.sqrt(1.0 - c * c)
    rotated = np.array([s * jones_in[0] + c * jones_in[1],
                        -c * jones_in[0] + s * jones_in[1]])
    jones = np.array([facet.gamma_v * rotated[0], facet.gamma_h * rotated[1]])
    jones = jones * (wavelength / (4.0 * math.pi * seg_len))

    return PathComponent(
        delay=seg_len / SPEED_OF_LIGHT,
        jones_gain=jones,
        arrival_direction=seg / seg_len,
        bounce_count=1,
        facet_name=facet.name,
    )


@dataclass(frozen=True)
class WobbleParams:
    """Truncated AR(1) jitter of hover position and TX tilt, per snapshot."""

    sigma_pos: float = 0.08
    sigma_angle: float = math.radians(1.0)
    rho: float = 0.9
    seed: int = 0
    snapshot_rate: float = 60.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.sigma_pos < 0 or self.sigma_angle < 0:
            raise ValueError("wobble sigmas must be non-negative")

    def to_dict(self):
        return {
            "sigma_pos": self.sigma_pos,
            "sigma_angle": self.sigma_angle,
            "rho": self.rho,
            "seed": self.seed,
        }


_INNOVATION_CACHE = {}


def _innovation(seed, tag, k, dims):
    key = (seed, tag, k, dims)
    xi = _INNOVATION_CACHE.get(key)
    if xi is None:
        xi = stream(seed, tag, k).standard_normal(dims)
        xi.setflags(write=False)
        if len(_INNOVATION_CACHE) > 1 << 16:
            _INNOVATION_CACHE.clear()
        _INNOVATION_CACHE[key] = xi
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


_CORNER_ORDER = {"NW": 0, "NE": 1, "SE": 2, "SW": 3}


@dataclass(frozen=True)
class Trajectory:
    """TX motion: ``static_point``, ``hover`` or ``square_route``.

    The square route follows the corner order NW -> NE -> SE -> SW at
    constant speed (north edge first, west to east), wrapping. Hover
    adds the wobble offset for snapshot index floor(t * snapshot_rate)
    to the base position, frozen within a snapshot.
    """

    kind: str
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    wobble: WobbleParams = None
    center: np.ndarray = field(default_factory=lambda: np.zeros(2))
    side: float = 30.0
    height: float = 50.0
    speed: float = 2.0
    start_corner: str = "NW"

    def __post_init__(self):
        if self.kind not in ("static_point", "hover", "square_route"):
            raise ValueError(f"unknown trajectory kind '{self.kind}'")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=np.float64))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if self.kind == "hover" and self.wobble is None:
            object.__setattr__(self, "wobble", WobbleParams())
        if self.kind == "square_route":
            if self.side <= 0 or self.speed <= 0:
                raise ValueError("square_route needs positive side and speed")
            if self.start_corner not in _CORNER_ORDER:
                raise ValueError(f"start_corner must be one of {sorted(_CORNER_ORDER)}")

    def corners(self):
        cx, cy = self.center[0], self.center[1]
        h = self.side / 2.0
        base = [
            np.array([cx - h, cy + h, self.height]),  # NW
            np.array([cx + h, cy + h, self.height]),  # NE
            np.array([cx + h, cy - h, self.height]),  # SE
            np.array([cx - h, cy - h, self.height]),  # SW
        ]
        k = _CORNER_ORDER[self.start_corner]
        return base[k:] + base[:k]

    def to_dict(self):
        doc = {"kind": self.kind}
        if self.kind in ("static_point", "hover"):
            doc["position"] = self.position.tolist()
        if self.kind == "hover":
            doc["wobble"] = self.wobble.to_dict()
        if self.kind == "square_route":
            doc.update({
                "center": self.center.tolist(),
                "side": self.side,
                "height": self.height,
                "speed": self.speed,
                "start_corner": self.start_corner,
            })
        return doc


def wobble_index(trajectory, time):
    """Hover wobble state at ``time``: floor(time * snapshot_rate)."""
    return int(math.floor(time * trajectory.wobble.snapshot_rate))


def tx_position_at(trajectory, time):
    """TX position at ``time`` seconds (time >= 0)."""
    if time < 0:
        raise ValueError("time must be >= 0")
    if trajectory.kind == "static_point":
        return trajectory.position.copy()
    if trajectory.kind == "hover":
        return trajectory.position + wobble_offset(trajectory.wobble,
                                                   wobble_index(trajectory, time))
    # square_route
    corners = trajectory.corners()
    perimeter = 4.0 * trajectory.side
    s = (trajectory.speed * time) % perimeter
    edge = int(s // trajectory.side)
    frac = (s - edge * trajectory.side) / trajectory.side
    a = corners[edge]
    b = corners[(edge + 1) % 4]
    return a + frac * (b - a)


def tx_tilt_at(trajectory, time):
    """TX antenna tilt (x, y rotations, radians) at ``time``."""
    if trajectory.kind == "hover":
        return wobble_tilt(trajectory.wobble, wobble_index(trajectory, time))
    return np.zeros(2)
