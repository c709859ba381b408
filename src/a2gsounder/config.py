"""Scenario configuration: parsing, validation, presets, hashing.

A scenario is a JSON document; unknown keys are rejected and every
error names the offending field path. All randomness is seeded here, so
a resolved scenario describes a run completely. The resolved document
is hashed (sha256 of canonical JSON) and the hash is embedded in every
downstream artifact for provenance.

Presets:
  olin-static  courtyard geometry, TX on a pole 12 m east of the array
  olin-hover   same geometry, drone hovering with wobble
  paper-route  30 m square route at 50 m height around the array, 2 m/s
"""

import copy
import hashlib
import json
import math
from dataclasses import dataclass

from .array_geometry import PatternParams, build_cylindrical_array
from .capture_sim import AttenuatorModel
from .channel_synth import Facet, Scene, Trajectory, WobbleParams
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

DEFAULTS = {
    "tone_plan": {
        "center_frequency": 3.5e9,
        "tone_spacing": 20e3,
        "tone_count": 1841,
        "nominal_bandwidth": 46e6,
    },
    "timing": {
        "t_siso": 50e-6,
        "ports_per_simo": 128,
        "simos_per_burst": 3,
        "burst_rate": 20.0,
    },
    "array": {
        "columns": 16,
        "rows": 4,
        "radius": 0.1091,
        "vertical_spacing": 0.0429,
        "pattern": {
            "q_azimuth": 0.5,
            "q_elevation": 0.5,
            "xpd_db": 12.0,
            "backlobe_floor_db": -30.0,
        },
    },
    "scene": {
        "rx_position": [0.0, 0.0, 1.5],
        "rx_mounting_rotation_deg": -90.0,
        "facets": [],
    },
    "trajectory": {
        "kind": "static_point",
        "position": [12.0, 0.0, 1.8],
        "wobble": {
            "sigma_pos": 0.08,
            "sigma_angle_deg": 1.0,
            "rho": 0.9,
            "seed": 7,
        },
        "center": [0.0, 0.0],
        "side": 30.0,
        "height": 50.0,
        "speed": 2.0,
        "start_corner": "NW",
    },
    "system": {
        "seed": 11,
        "ripple_db": 1.5,
        "ripple_components": 4,
        "phase_span_deg": 90.0,
        "port_gain_spread_db": 2.0,
        "phase_drift_deg": 0.6,
        "amplitude_jitter_db": 0.0071,
    },
    "attenuator": {
        # the attenuator value is an engineering placeholder, not a
        # measured quantity; override per campaign
        "nominal_loss_db": 30.0,
        "ripple_db": 0.0,
        "ripple_cycles": 1.0,
    },
    "gate": {
        "noise_margin_db": 6.0,
        "peak_margin_db": 20.0,
        "delay_gate": 2e-6,
        "noise_window_fraction": 0.2,
    },
    "capture": {
        "burst_count": 1,
        "snr_db": 30.0,
        "noise_seed": 3,
        "b2b_snapshot_count": 400,
        "b2b_snr_db": 60.0,
        "b2b_noise_seed": 5,
    },
}

PRESETS = {
    "olin-static": {
        "scene": _OLIN_SCENE,
        "trajectory": {"kind": "static_point", "position": [12.0, 0.0, 1.8]},
    },
    "olin-hover": {
        "scene": _OLIN_SCENE,
        "trajectory": {
            "kind": "hover",
            "position": [12.0, 0.0, 1.8],
            "wobble": {"sigma_pos": 0.08, "sigma_angle_deg": 1.0, "rho": 0.9, "seed": 7},
        },
    },
    "paper-route": {
        "scene": _OLIN_SCENE,
        "trajectory": {
            "kind": "square_route",
            "center": [0.0, 0.0],
            "side": 30.0,
            "height": 50.0,
            "speed": 2.0,
            "start_corner": "NW",
        },
    },
}


def _type_name(value):
    return type(value).__name__


def _number(minimum=None, above=None, maximum=None, nullable=False):
    """Rule: a JSON number, returned as float; ``above`` is an exclusive bound."""
    def check(value, path):
        if value is None and nullable:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}: expected a number, got {_type_name(value)}")
        if math.isnan(value):
            raise SchemaError(f"{path}: expected a number, got NaN")
        if above is not None and value <= above:
            raise SchemaError(f"{path}: must be > {above}, got {value}")
        if minimum is not None and value < minimum:
            raise SchemaError(f"{path}: must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise SchemaError(f"{path}: must be <= {maximum}, got {value}")
        return float(value)
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


def _vector(length):
    """Rule: a list of ``length`` numbers, returned as floats."""
    element = _number()

    def check(value, path):
        if not isinstance(value, (list, tuple)) or len(value) != length:
            raise SchemaError(f"{path}: expected a list of {length} numbers")
        return [element(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _one_of(*choices):
    """Rule: one of a fixed set of strings."""
    def check(value, path):
        if value not in choices:
            raise SchemaError(f"{path}: must be one of {list(choices)}, got {value!r}")
        return value
    return check


def _complex(value, path):
    """Rule: a real number or a [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    re, im = _vector(2)(value, path)
    return complex(re, im)


def _points(value, path):
    """Rule: a list of at least three 3-D points."""
    if not isinstance(value, list) or len(value) < 3:
        raise SchemaError(f"{path}: expected a list of >= 3 points")
    return [_vector(3)(c, f"{path}[{k}]") for k, c in enumerate(value)]


_FACET_DEFAULTS = {"name": None, "corners": None, "gamma_v": [-0.5, 0.0],
                   "gamma_h": [-0.5, 0.0], "cross_pol": 0.0}


def _facets(value, path):
    """Rule: a list of facet objects, built into Facets."""
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    facets = []
    for i, doc in enumerate(value):
        item = f"{path}[{i}]"
        if not isinstance(doc, dict):
            raise SchemaError(f"{item}: expected an object")
        merged = _merge(_FACET_DEFAULTS, doc, item)
        if "corners" not in doc:
            raise SchemaError(f"{item}.corners: required")
        facets.append(_section(merged, item, Facet, rules="scene.facets[]",
                               name=str(doc.get("name", f"facet{i}"))))
    return tuple(facets)


# Type and bounds of every scenario leaf, keyed by dotted path; mirrors
# DEFAULTS ("scene.facets[]" covers each facet object).
RULES = {
    "tone_plan.center_frequency": _number(above=0.0),
    "tone_plan.tone_spacing": _number(above=0.0),
    "tone_plan.tone_count": _integer(minimum=2),
    "tone_plan.nominal_bandwidth": _number(above=0.0),
    "timing.t_siso": _number(above=0.0),
    "timing.ports_per_simo": _integer(minimum=1),
    "timing.simos_per_burst": _integer(minimum=1),
    "timing.burst_rate": _number(above=0.0),
    "array.columns": _integer(minimum=1),
    "array.rows": _integer(minimum=1),
    "array.radius": _number(above=0.0),
    "array.vertical_spacing": _number(above=0.0),
    "array.pattern.q_azimuth": _number(minimum=0.0),
    "array.pattern.q_elevation": _number(minimum=0.0),
    "array.pattern.xpd_db": _number(minimum=0.0),
    "array.pattern.backlobe_floor_db": _number(),
    "scene.rx_position": _vector(3),
    "scene.rx_mounting_rotation_deg": _number(),
    "scene.facets": _facets,
    "scene.facets[].corners": _points,
    "scene.facets[].gamma_v": _complex,
    "scene.facets[].gamma_h": _complex,
    "scene.facets[].cross_pol": _number(minimum=0.0, maximum=0.999999),
    "trajectory.kind": _one_of("static_point", "hover", "square_route"),
    "trajectory.position": _vector(3),
    "trajectory.wobble.sigma_pos": _number(minimum=0.0),
    "trajectory.wobble.sigma_angle_deg": _number(minimum=0.0),
    "trajectory.wobble.rho": _number(minimum=0.0, maximum=0.999999),
    "trajectory.wobble.seed": _integer(),
    "trajectory.center": _vector(2),
    "trajectory.side": _number(above=0.0),
    "trajectory.height": _number(),
    "trajectory.speed": _number(above=0.0),
    "trajectory.start_corner": _one_of("NW", "NE", "SE", "SW"),
    "system.seed": _integer(),
    "system.ripple_db": _number(minimum=0.0),
    "system.ripple_components": _integer(minimum=1),
    "system.phase_span_deg": _number(minimum=0.0),
    "system.port_gain_spread_db": _number(minimum=0.0, maximum=3.0),
    "system.phase_drift_deg": _number(minimum=0.0),
    "system.amplitude_jitter_db": _number(minimum=0.0),
    "attenuator.nominal_loss_db": _number(above=0.0),
    "attenuator.ripple_db": _number(minimum=0.0),
    "attenuator.ripple_cycles": _number(minimum=0.0),
    "gate.noise_margin_db": _number(above=0.0),
    "gate.peak_margin_db": _number(above=0.0),
    "gate.delay_gate": _number(above=0.0),
    "gate.noise_window_fraction": _number(above=0.0, maximum=0.999999),
    "capture.burst_count": _integer(minimum=1),
    "capture.snr_db": _number(nullable=True),
    "capture.noise_seed": _integer(),
    "capture.b2b_snapshot_count": _integer(minimum=1),
    "capture.b2b_snr_db": _number(nullable=True),
    "capture.b2b_noise_seed": _integer(),
}


def _section(doc, path, build, rules=None, **built):
    """Check every leaf of the section ``doc`` at ``path`` against RULES,
    then return ``build(**leaves, **built)``.

    ``built`` holds already-built subsections, which are not checked
    again; ``rules`` is the RULES prefix when it differs from ``path``.
    A ValueError from ``build`` becomes a SchemaError naming the section.
    """
    prefix = rules or path
    leaves = {key: RULES[f"{prefix}.{key}"](value, f"{path}.{key}")
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
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise SchemaError(f"{path}.{key}: unknown key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise SchemaError(f"{path}.{key}: expected an object")
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
        return config_hash(self.resolved)

    @property
    def mounting_rotation(self):
        return math.radians(self.resolved["scene"]["rx_mounting_rotation_deg"])


def config_hash(resolved):
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_scenario(document):
    """Validate a scenario document and build the typed configuration.

    ``document`` is a dict or a JSON string. An optional top-level
    "preset" key applies one of the named presets before overrides.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("scenario: expected a JSON object")

    document = dict(document)
    preset_name = document.pop("preset", None)
    base = DEFAULTS
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise SchemaError(
                f"scenario.preset: unknown preset '{preset_name}' "
                f"(available: {sorted(PRESETS)})")
        base = _merge(DEFAULTS, PRESETS[preset_name])

    resolved = _merge(base, document)
    return _build(resolved)


def _build(resolved):
    tone_plan = _section(resolved["tone_plan"], "tone_plan", TonePlan)
    timing = _section(resolved["timing"], "timing", TimingPlan)

    ar = resolved["array"]
    pattern = _section(ar["pattern"], "array.pattern", PatternParams)
    geometry = _section(ar, "array", build_cylindrical_array, pattern=pattern)
    if geometry.n_ports != timing.ports_per_simo:
        raise SchemaError(
            f"timing.ports_per_simo: {timing.ports_per_simo} does not match the "
            f"{geometry.n_ports}-port array (columns*rows*2)")

    scene = _section(resolved["scene"], "scene", _scene)

    tr = resolved["trajectory"]
    wobble = _section(tr["wobble"], "trajectory.wobble", _wobble,
                      snapshot_rate=timing.snapshot_rate)
    trajectory = _section(tr, "trajectory", Trajectory, wobble=wobble)

    system = _section(resolved["system"], "system", dict)
    attenuator = _section(resolved["attenuator"], "attenuator", AttenuatorModel)
    gate = _section(resolved["gate"], "gate", GateConfig)
    if gate.delay_gate >= tone_plan.max_unambiguous_delay:
        raise SchemaError("gate.delay_gate: must be below the maximum unambiguous delay")
    capture = _section(resolved["capture"], "capture", dict)

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
