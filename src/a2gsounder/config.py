"""Scenario configuration: parsing, validation, presets, hashing.

A scenario is a JSON document; unknown keys are rejected and every
error names the offending field path. SCHEMA holds each field's default
and rule once; the capture-file header is checked by the same rules. All randomness is seeded here, so
a resolved scenario describes a run completely. The resolved document
is hashed (sha256 of canonical JSON) and the hash is embedded in every
downstream artifact for provenance.

Presets (each trajectory a list of waypoints; see channel_synth):
  olin-static  courtyard geometry, TX on a pole 12 m east of the array
  olin-hover   same geometry and waypoint, drone hovering with wobble
  paper-route  closed 30 m square at 50 m height around the array, 2 m/s
"""

import copy
import json
import math
from dataclasses import dataclass

from ._digest import canonical_hash
from .array_geometry import PatternParams, build_cylindrical_array
from .capture_sim import AttenuatorModel
from .channel_synth import WOBBLE_RHO_MAX, Facet, Scene, Trajectory, WobbleParams
from .processing import GateConfig
from .waveform import TimingPlan, TonePlan


class SchemaError(ValueError):
    """Configuration document violates the scenario schema."""


# Courtyard scene: a ground plane, a glass facade behind the TX (east),
# a larger facade behind the array (west) and two small reflectors.
# Reflection coefficients are tuned stand-ins, not measured values.
_OLIN_SCENE = {
    "rx_position": [0.0, 0.0, 1.5],
    "rx_mounting_rotation_deg": -90.0,
    "facets": [
        {
            "name": "ground",
            "corners": [[-60.0, -60.0, 0.0], [60.0, -60.0, 0.0],
                        [60.0, 60.0, 0.0], [-60.0, 60.0, 0.0]],
            "gamma_v": [-0.15, 0.0],
            "gamma_h": [-0.6, 0.0],
            "cross_pol": 0.02,
        },
        {
            "name": "east-facade",
            "corners": [[25.0, -15.0, 0.0], [25.0, 15.0, 0.0],
                        [25.0, 15.0, 12.0], [25.0, -15.0, 12.0]],
            "gamma_v": [0.3, 0.0],
            "gamma_h": [0.3, 0.0],
            "cross_pol": 0.02,
        },
        {
            "name": "west-facade",
            "corners": [[-20.0, -12.0, 0.0], [-20.0, 12.0, 0.0],
                        [-20.0, 12.0, 12.0], [-20.0, -12.0, 12.0]],
            "gamma_v": [0.65, 0.0],
            "gamma_h": [0.65, 0.0],
            "cross_pol": 0.02,
        },
        {
            "name": "north-wall",
            "corners": [[-10.0, 18.0, 0.0], [10.0, 18.0, 0.0],
                        [10.0, 18.0, 6.0], [-10.0, 18.0, 6.0]],
            "gamma_v": [0.3, 0.0],
            "gamma_h": [0.3, 0.0],
            "cross_pol": 0.02,
        },
        {
            "name": "south-umbrella",
            "corners": [[4.0, -8.0, 0.0], [8.0, -8.0, 0.0],
                        [8.0, -8.0, 3.0], [4.0, -8.0, 3.0]],
            "gamma_v": [0.15, 0.0],
            "gamma_h": [0.15, 0.0],
            "cross_pol": 0.02,
        },
    ],
}

PRESETS = {
    "olin-static": {
        "scene": _OLIN_SCENE,
        "trajectory": {"waypoints": [[12.0, 0.0, 1.8]]},
    },
    "olin-hover": {
        "scene": _OLIN_SCENE,
        "trajectory": {
            "waypoints": [[12.0, 0.0, 1.8]],
            "wobble": {"sigma_pos": 0.08, "sigma_angle_deg": 1.0, "rho": 0.9, "seed": 7},
        },
    },
    "paper-route": {
        "scene": _OLIN_SCENE,
        # NW, NE, SE, SW and NW again: north edge first, west to east
        "trajectory": {
            "waypoints": [[-15.0, 15.0, 50.0], [15.0, 15.0, 50.0], [15.0, -15.0, 50.0],
                          [-15.0, -15.0, 50.0], [-15.0, 15.0, 50.0]],
            "speed": 2.0,
        },
    },
}


def _type_name(value):
    return type(value).__name__


def _number(minimum=None, above=None, maximum=None, nullable=False, infinite=False):
    """Rule: a finite JSON number, returned as float; ``above`` is an
    exclusive bound and ``infinite`` also admits +Infinity."""
    def check(value, path):
        if value is None and nullable:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}: expected a number, got {_type_name(value)}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf if value > 0 else -math.inf
        if math.isnan(value):
            raise SchemaError(f"{path}: expected a number, got NaN")
        if math.isinf(value) and not (infinite and value > 0):
            raise SchemaError(f"{path}: expected a finite number, got {value}")
        if above is not None and value <= above:
            raise SchemaError(f"{path}: must be > {above}, got {value}")
        if minimum is not None and value < minimum:
            raise SchemaError(f"{path}: must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise SchemaError(f"{path}: must be <= {maximum}, got {value}")
        return value
    return check


def _integer(minimum=None):
    """Rule: a JSON integer (booleans excluded)."""
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}: expected an integer, got {_type_name(value)}")
        if minimum is not None and value < minimum:
            raise SchemaError(f"{path}: must be >= {minimum}, got {value}")
        return value
    return check


def _vector(length, element=_number()):
    """Rule: a list of ``length`` elements, each checked by ``element``."""
    def check(value, path):
        if not isinstance(value, (list, tuple)) or len(value) != length:
            raise SchemaError(f"{path}: expected a list of {length} elements")
        return [element(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _one_of(*choices):
    """Rule: one of a fixed set of strings."""
    def check(value, path):
        if value not in choices:
            raise SchemaError(f"{path}: must be one of {list(choices)}, got {value!r}")
        return value
    return check


def _text(value, path):
    """Rule: a string."""
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {_type_name(value)}")
    return value


def _complex(value, path):
    """Rule: a real number or a [re, im] pair."""
    if isinstance(value, (list, tuple)):
        return complex(*_vector(2)(value, path))
    return complex(_number()(value, path), 0.0)


def _points(minimum):
    """Rule: a list of at least ``minimum`` 3-D points."""
    def check(value, path):
        if not isinstance(value, list) or len(value) < minimum:
            raise SchemaError(f"{path}: expected a list of >= {minimum} points")
        return [_vector(3)(c, f"{path}[{k}]") for k, c in enumerate(value)]
    return check


def _waypoints(value, path):
    """Rule: a list of >= 1 3-D points, no two consecutive ones equal
    (a zero-length edge)."""
    points = _points(1)(value, path)
    for k in range(1, len(points)):
        if points[k] == points[k - 1]:
            raise SchemaError(f"{path}[{k}]: equals the waypoint before it")
    return points


def _defaults(node):
    """The default document of a schema node."""
    return {key: _defaults(leaf) if isinstance(leaf, dict) else leaf[0]
            for key, leaf in node.items()}


# One scene.facets object: corners is required, a null name becomes
# facet<index>.
_FACET = {
    "name": (None, _text),
    "corners": (None, _points(3)),
    "gamma_v": ([-0.5, 0.0], _complex),
    "gamma_h": ([-0.5, 0.0], _complex),
    "cross_pol": (0.0, _number(minimum=0.0, maximum=0.999999)),
}


def _facets(value, path):
    """Rule: a list of facet objects, built into Facets."""
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    facets = []
    for i, doc in enumerate(value):
        item = f"{path}[{i}]"
        merged = _merge(_defaults(_FACET), doc, item)
        if merged["corners"] is None:
            raise SchemaError(f"{item}.corners: required")
        if merged["name"] is None:
            merged["name"] = f"facet{i}"
        facets.append(_section(_FACET, merged, item, Facet))
    return tuple(facets)


# Lowest SNR a capture may carry. Noise is drawn 10^(-snr_db/20) times
# the rms amplitude of the strongest port of the capture's first
# snapshot, for every snapshot, and captures are complex64, whose
# largest finite magnitude, 3.4e38, is 770 dB. A standard normal draw
# stays below 10 (20 dB). A path's gain, its free-space amplitude
# wavelength/(4*pi*d), is below 1 (0 dB) unless the TX is within
# wavelength/(4*pi), under 1 cm at 3.5 GHz, of the RX. At -300 dB every
# sample stays finite until the path, chain and switch gains together
# pass 770 - 300 - 20 = 450 dB. Lower values add nothing but, far
# enough down, overflow: at -900 dB complex64 samples are infinite, and
# at -5000 dB the float64 noise power is.
MIN_SNR_DB = -300.0

# The scenario schema: every leaf is a (default, rule) pair and every
# object a nested node. A rule checks a value at its dotted path and
# returns it typed, or raises SchemaError naming the path.
SCHEMA = {
    "tone_plan": {
        "center_frequency": (3.5e9, _number(above=0.0)),
        "tone_spacing": (20e3, _number(above=0.0)),
        "tone_count": (1841, _integer(minimum=2)),
        "nominal_bandwidth": (46e6, _number(above=0.0)),
    },
    "timing": {
        "t_siso": (50e-6, _number(above=0.0)),
        "ports_per_simo": (128, _integer(minimum=1)),
        "simos_per_burst": (3, _integer(minimum=1)),
        "burst_rate": (20.0, _number(above=0.0)),
    },
    "array": {
        "columns": (16, _integer(minimum=1)),
        "rows": (4, _integer(minimum=1)),
        "radius": (0.1091, _number(above=0.0)),
        "vertical_spacing": (0.0429, _number(above=0.0)),
        "pattern": {
            "q_azimuth": (0.5, _number(minimum=0.0)),
            "q_elevation": (0.5, _number(minimum=0.0)),
            # +Infinity: no cross-polarized leakage
            "xpd_db": (12.0, _number(minimum=0.0, infinite=True)),
            "backlobe_floor_db": (-30.0, _number()),
        },
    },
    "scene": {
        "rx_position": ([0.0, 0.0, 1.5], _vector(3)),
        "rx_mounting_rotation_deg": (-90.0, _number()),
        "facets": ([], _facets),
    },
    "trajectory": {
        "waypoints": ([[12.0, 0.0, 1.8]], _waypoints),
        "speed": (2.0, _number(above=0.0)),
        # both sigmas 0: no wobble
        "wobble": {
            "sigma_pos": (0.0, _number(minimum=0.0)),
            "sigma_angle_deg": (0.0, _number(minimum=0.0)),
            "rho": (0.9, _number(minimum=0.0, maximum=WOBBLE_RHO_MAX)),
            "seed": (7, _integer()),
        },
    },
    "system": {
        "seed": (11, _integer()),
        "ripple_db": (1.5, _number(minimum=0.0)),
        "ripple_components": (4, _integer(minimum=1)),
        "phase_span_deg": (90.0, _number(minimum=0.0)),
        "port_gain_spread_db": (2.0, _number(minimum=0.0, maximum=3.0)),
        "phase_drift_deg": (0.6, _number(minimum=0.0)),
        "amplitude_jitter_db": (0.0071, _number(minimum=0.0)),
    },
    "attenuator": {
        # the attenuator value is an engineering placeholder, not a
        # measured quantity; override per campaign
        "nominal_loss_db": (30.0, _number(above=0.0)),
        "ripple_db": (0.0, _number(minimum=0.0)),
        "ripple_cycles": (1.0, _number(minimum=0.0)),
    },
    "gate": {
        "noise_margin_db": (6.0, _number(above=0.0)),
        "peak_margin_db": (20.0, _number(above=0.0)),
        "delay_gate": (2e-6, _number(above=0.0)),
        "noise_window_fraction": (0.2, _number(above=0.0, maximum=0.999999)),
    },
    "capture": {
        "burst_count": (1, _integer(minimum=1)),
        # null: no noise
        "snr_db": (30.0, _number(minimum=MIN_SNR_DB, nullable=True)),
        "noise_seed": (3, _integer()),
        "b2b_snapshot_count": (400, _integer(minimum=1)),
        "b2b_snr_db": (60.0, _number(minimum=MIN_SNR_DB, nullable=True)),
        "b2b_noise_seed": (5, _integer()),
    },
}

DEFAULTS = _defaults(SCHEMA)


def _section(node, doc, path, build, **built):
    """Check every leaf of the object ``doc`` at ``path`` against its rule
    in the schema ``node``, then return ``build(**leaves, **built)``.

    ``built`` holds already-built subsections, which are not checked
    again. A ValueError from ``build`` becomes a SchemaError naming the
    section.
    """
    leaves = {key: node[key][1](value, f"{path}.{key}")
              for key, value in doc.items() if key not in built}
    try:
        return build(**leaves, **built)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _scene(facets, rx_position, rx_mounting_rotation_deg):
    return Scene(facets=facets, rx_position=rx_position,
                 rx_mounting_rotation=math.radians(rx_mounting_rotation_deg))


def _wobble(sigma_angle_deg, **rest):
    return WobbleParams(sigma_angle=math.radians(sigma_angle_deg), **rest)


def _merge(base, override, path="scenario"):
    """Deep merge with unknown-key rejection against the base layout."""
    if not isinstance(override, dict):
        raise SchemaError(f"{path}: expected an object")
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise SchemaError(f"{path}.{key}: unknown key")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, f"{path}.{key}")
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: typed objects plus the canonical document."""

    tone_plan: TonePlan
    timing: TimingPlan
    geometry: object
    scene: Scene
    trajectory: Trajectory
    attenuator: AttenuatorModel
    gate: GateConfig
    system: dict
    capture: dict
    resolved: dict

    @property
    def scenario_hash(self):
        return canonical_hash(self.resolved)


def parse_scenario(document):
    """Validate a scenario document and build the typed configuration.

    ``document`` is a dict or a JSON string. An optional top-level
    "preset" key applies one of the named presets before overrides.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("scenario: expected a JSON object")

    document = dict(document)
    base = DEFAULTS
    if "preset" in document:
        preset_name = _text(document.pop("preset"), "scenario.preset")
        if preset_name not in PRESETS:
            raise SchemaError(
                f"scenario.preset: unknown preset '{preset_name}' "
                f"(available: {sorted(PRESETS)})")
        base = _merge(DEFAULTS, PRESETS[preset_name])

    resolved = _merge(base, document)
    return _build(resolved)


def _build(resolved):
    def section(path, build, **built):
        doc, node = resolved, SCHEMA
        for key in path.split("."):
            doc, node = doc[key], node[key]
        return _section(node, doc, path, build, **built)

    tone_plan = section("tone_plan", TonePlan)
    timing = section("timing", TimingPlan)

    pattern = section("array.pattern", PatternParams)
    array = section("array", dict, pattern=pattern)  # counted before it is built
    n_ports = 2 * array["columns"] * array["rows"]
    if n_ports != timing.ports_per_simo:
        raise SchemaError(
            f"timing.ports_per_simo: {timing.ports_per_simo} does not match the "
            f"{n_ports}-port array (columns*rows*2)")
    geometry = build_cylindrical_array(**array)

    scene = section("scene", _scene)

    wobble = section("trajectory.wobble", _wobble, snapshot_rate=timing.snapshot_rate)
    trajectory = section("trajectory", Trajectory, wobble=wobble)

    system = section("system", dict)
    attenuator = section("attenuator", AttenuatorModel)
    gate = section("gate", GateConfig)
    if gate.delay_gate >= tone_plan.max_unambiguous_delay:
        raise SchemaError("gate.delay_gate: must be below the maximum unambiguous delay")
    capture = section("capture", dict)

    return ScenarioConfig(
        tone_plan=tone_plan,
        timing=timing,
        geometry=geometry,
        scene=scene,
        trajectory=trajectory,
        attenuator=attenuator,
        gate=gate,
        system=system,
        capture=capture,
        resolved=resolved,
    )
