"""Run configuration: YAML schema, validation, defaults, canonical hashing.

A config file fully determines a run. ``SCHEMA`` lists every field of every
section with its type, its default and, for a number or a list of numbers,
the interval its values must lie in, written as the error prints it. One
function checks a mapping against its table, and the typed values it returns
are the section's canonical form. Short section code adds only the rules
that span fields (a noise floor in dBm or in watts, the SNR ceiling at the
lowest sweep altitude, the leader index, custom graphs, explicit
deployments, gain stability) and builds the domain objects. A short hash of
the canonical form lets output files state exactly which configuration
produced them. The output directory is excluded from the hash: two runs of
the same experiment into different directories are still the same
experiment.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

from .benchmarks import KINDS, BenchmarkSpec
from .control import CommGraph, ControlGains, SwarmState, check_stability
from .errors import NON_NEGATIVE, POSITIVE, ConfigError, check_choice, check_interval
from .formation import DisplacementSet, FormationGeometry, build_formation
from .sensing import SensingParams, TargetEstimate
from .world import Guidance, RectObstacle, World

# Entropy-stream tag separating the initial deployment draw from the
# per-step motion noise streams (which use small step indices).
_DEPLOY_STREAM = 2**40

_DEFAULT_SEED = 12345
_DEFAULT_OUTPUT_DIR = "out"

# Field types besides float and int: a 2-vector, a nonempty list of floats or
# a raw list that section code checks. A tuple of strings lists the values.
_VEC2 = "vec2"
_FLOATS = "floats"
_RAW = "raw"
# The default of a field that must be given, as of a dataclass field without one.
# A field whose default is None has no value unless given.
_REQUIRED = MISSING


def _declared(cls: type, name: str, default: Any = MISSING) -> tuple:
    """A field with the choices or interval, and unless given the default, of ``cls``'s ``name``."""
    declared = cls.__dataclass_fields__[name]
    default = declared.default if default is MISSING else default
    if "choices" in declared.metadata:
        return (declared.metadata["choices"], default)
    return (int if type(default) is int else float, default, declared.metadata["interval"])


# A field is (type, default[, interval]). The interval bounds a number or each float of a list;
# a field that becomes a domain type's field takes the interval or choices that type declares.
SCHEMA: dict[str, dict[str, tuple]] = {
    "sensing": {
        "transmit_power_w": _declared(SensingParams, "transmit_power_w", 0.1),
        "processing_gain": _declared(SensingParams, "processing_gain", 1.0e3),
        "ref_channel_power_m4": _declared(SensingParams, "ref_channel_power_m4", 1.0e-5),
        "kappa": _declared(SensingParams, "kappa", 1.0),
        # 1e-33 to 1e27 W: past about -3000 or +3000 dBm the watts would
        # leave the normal floats, and every receiver lies far inside.
        "noise_floor_dbm": (float, -90.0, "[-300, 300]"),
        "noise_floor_w": _declared(SensingParams, "noise_floor_w", None),  # or noise_floor_dbm
        "altitude_m": _declared(SensingParams, "altitude_m", 20.0),
    },
    "formation": {
        # An isotropic ring needs at least 3 agents; there is no upper end yet.
        "agent_count": (int, 6, "[3, inf)"),
        "initial_rotation_deg": (float, 0.0),
        # Nonzero values plan the formation around an imperfect prior target
        # estimate while the CRLB is still evaluated at the true target.
        "prior_target_offset_m": (_VEC2, [0.0, 0.0]),
    },
    "world": {
        "target_m": (_VEC2, [80.0, 90.0]),
        "obstacles": (_RAW, []),
        "motion_noise_std_m": _declared(World, "motion_noise_std", 0.01),
        "dt_s": _declared(World, "dt"),
    },
    "graph": {
        "topology": (("ring", "ring_with_leader", "complete", "custom"), "ring_with_leader"),
        "leader_index": (int, 0),
        "adjacency": (_RAW, None),  # for the custom topology
    },
    "gains": {f.name: _declared(ControlGains, f.name) for f in fields(ControlGains)},
    "deployment": {
        "kind": (("random_box", "explicit"), "random_box"),
        "center_m": (_VEC2, [0.0, 0.0]),
        "side_m": (float, 50.0, POSITIVE),  # the random box needs an area
        "positions_m": (_RAW, None),  # for explicit deployment
        "initial_scale": _declared(SwarmState, "scale"),  # shrinks the ring
    },
    "guidance": {
        "mode": _declared(Guidance, "mode"),
        "velocity_mps": (_VEC2, [0.0, 0.0]),
        "max_speed_mps": _declared(Guidance, "max_speed_mps"),
        "gain_per_s": _declared(Guidance, "gain_per_s"),
        "arrival_tolerance_m": _declared(Guidance, "arrival_tolerance_m"),
    },
    "episode": {
        "max_steps": (int, 4000, NON_NEGATIVE),  # 0 writes an empty trace
        "stop_tolerance_m2": (float, 1.0e-3, POSITIVE),  # "error < 0" is never met
    },
    "sweep": {
        "altitudes_m": (  # each in the interval of sensing.altitude_m
            _FLOATS, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0], _declared(SensingParams, "altitude_m")[2]
        ),
        "benchmarks": (_RAW, [{"kind": kind} for kind in KINDS]),
    },
}

# Tables of the entries of world.obstacles and sweep.benchmarks.
_OBSTACLE = {key: (float, _REQUIRED) for key in ("x_min", "x_max", "y_min", "y_max")}
_BENCHMARK = {f.name: _declared(BenchmarkSpec, f.name) for f in fields(BenchmarkSpec)}


def dbm_to_watts(dbm: float) -> float:
    """Exact power conversion; -90 dBm maps to 1e-12 W with no rounding slack."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _expect_mapping(name: str, value: Any) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(name: str, given: dict, allowed: set[str]) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"{name}: unknown field(s) {sorted(unknown)}")


def _as_float(name: str, value: Any, interval: Optional[str] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    if interval:
        check_interval(name, out, interval, ConfigError)
    return out


def _as_int(name: str, value: Any, interval: Optional[str] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if interval:
        check_interval(name, value, interval, ConfigError)
    return value


def _as_vec2(name: str, value: Any) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name}: expected a 2-element list, got {value!r}")
    return [_as_float(f"{name}[{i}]", v) for i, v in enumerate(value)]


def _as_list(name: str, value: Any, nonempty: bool) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{name}: expected a {'nonempty ' * nonempty}list, got {value!r}")
    return value


def _as_floats(name: str, value: Any, interval: str) -> list[float]:
    return [_as_float(f"{name}[{i}]", v, interval) for i, v in enumerate(_as_list(name, value, True))]


_CONVERTERS = {float: _as_float, int: _as_int, _VEC2: _as_vec2, _FLOATS: _as_floats}


def _check_fields(name: str, value: Any, table: dict[str, tuple]) -> dict:
    """Check a mapping against its table and return its typed values.

    Unknown fields are rejected and missing ones take their default.
    """
    given = _expect_mapping(name, value)
    _reject_unknown(name, given, set(table))
    out = {}
    for key, (kind, default, *interval) in table.items():
        path = f"{name}.{key}"
        if key not in given and default is _REQUIRED:
            raise ConfigError(f"{path}: required")
        if key not in given and default is None:
            continue
        value = given.get(key, default)
        if kind in _CONVERTERS:
            value = _CONVERTERS[kind](path, value, *interval)
        elif isinstance(kind, tuple):
            check_choice(path, value, kind, ConfigError)
        out[key] = value
    return out


def _entries(name: str, value: Any, table: dict, make, nonempty: bool) -> tuple[list, tuple]:
    """Check every mapping of a list against ``table`` and build ``make(**entry)``."""
    checked, built = [], []
    for i, entry in enumerate(_as_list(name, value, nonempty)):
        checked.append(_check_fields(f"{name}[{i}]", entry, table))
        try:
            built.append(make(**checked[-1]))
        except ValueError as exc:
            raise ConfigError(f"{name}[{i}]: {exc}") from exc
    return checked, tuple(built)


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run configuration and its domain-typed pieces."""

    params: SensingParams
    target: TargetEstimate
    plan_target: TargetEstimate
    agent_count: int
    formation: FormationGeometry
    world: World
    graph: CommGraph
    gains: ControlGains
    guidance: Guidance
    initial_positions: np.ndarray
    initial_scale: float
    max_steps: int
    stop_tolerance_m2: float
    sweep_altitudes_m: tuple[float, ...]
    sweep_benchmarks: tuple[BenchmarkSpec, ...]
    seed: int
    output_dir: Path
    canonical: dict
    config_hash: str

    def build_formation(self) -> FormationGeometry:
        """The formation as planned around the prior target estimate, built at parse time."""
        return self.formation

    def displacement_set(self, formation: Optional[FormationGeometry] = None) -> DisplacementSet:
        formation = self.formation if formation is None else formation
        velocity = self.canonical["guidance"]["velocity_mps"]
        return DisplacementSet(formation.planar_positions, velocity)

    def initial_state(self) -> SwarmState:
        positions = self.initial_positions
        return SwarmState(positions, np.zeros_like(positions), self.initial_scale, step_index=0)


def _sensing(section: dict, given: Any) -> SensingParams:
    dbm = section.pop("noise_floor_dbm")
    if "noise_floor_w" not in section:
        section["noise_floor_w"] = dbm_to_watts(dbm)
    elif "noise_floor_dbm" in given:
        raise ConfigError("sensing: give noise_floor_dbm or noise_floor_w, not both")
    try:
        return SensingParams(**section)
    except ValueError as exc:
        raise ConfigError(f"sensing: {exc}") from exc


def _world(section: dict, seed: int, noise_free: bool) -> World:
    section["obstacles"], obstacles = _entries(
        "world.obstacles", section["obstacles"], _OBSTACLE, RectObstacle, nonempty=False
    )
    if noise_free:
        section["motion_noise_std_m"] = 0.0
    return World(
        target=TargetEstimate(section["target_m"]),
        obstacles=obstacles,
        motion_noise_std=section["motion_noise_std_m"],
        dt=section["dt_s"],
        rng_seed=seed,
    )


def _graph(section: dict, agent_count: int) -> CommGraph:
    topology, leader = section["topology"], section["leader_index"]
    check_interval("graph.leader_index", leader, f"[0, {agent_count - 1}]", ConfigError)
    adjacency = section.pop("adjacency", None)
    if topology == "custom" and adjacency is None:
        raise ConfigError("graph.adjacency: required for custom topology")
    try:
        if topology == "custom":
            graph = CommGraph(adjacency, leader)
            section["adjacency"] = graph.adjacency.astype(int).tolist()
        else:  # ring, ring_with_leader and complete are CommGraph constructors
            graph = getattr(CommGraph, topology)(agent_count, leader)
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc
    if graph.agent_count != agent_count:
        shape = (agent_count, agent_count)
        raise ConfigError(f"graph.adjacency: expected shape {shape}, got {graph.adjacency.shape}")
    return graph


def _initial_positions(section: dict, agent_count: int, seed: int) -> np.ndarray:
    """Validate the deployment section and place the agents it describes."""
    rows = section.pop("positions_m", None)
    if section["kind"] == "explicit":
        del section["center_m"], section["side_m"]
        if rows is None:
            raise ConfigError("deployment.positions_m: required for explicit deployment")
        if not isinstance(rows, list) or len(rows) != agent_count:
            raise ConfigError(f"deployment.positions_m: expected {agent_count} rows, got {rows!r}")
        section["positions_m"] = [
            _as_vec2(f"deployment.positions_m[{i}]", r) for i, r in enumerate(rows)
        ]
        positions = np.array(section["positions_m"], dtype=float)
    else:
        rng = np.random.default_rng([seed, _DEPLOY_STREAM])
        center = np.asarray(section["center_m"], dtype=float)
        positions = center + section["side_m"] * rng.uniform(-0.5, 0.5, size=(agent_count, 2))
    positions.setflags(write=False)
    return positions


def _sweep(section: dict, params: SensingParams) -> tuple[BenchmarkSpec, ...]:
    lowest = int(np.argmin(section["altitudes_m"]))  # where the SNR C/h^4 is largest
    try:
        replace(params, altitude_m=section["altitudes_m"][lowest])
    except ValueError as exc:
        raise ConfigError(f"sweep.altitudes_m[{lowest}]: {exc}") from exc
    section["benchmarks"], specs = _entries(
        "sweep.benchmarks", section["benchmarks"], _BENCHMARK, BenchmarkSpec, nonempty=True
    )
    return specs


def _seed(value: Any) -> int:
    seed = _as_int("seed", value)
    if seed < 0 or seed >= 2**63:
        raise ConfigError(f"seed: must lie in [0, 2^63), got {seed}")
    return seed


def _output_dir(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"output_dir: expected a nonempty string, got {value!r}")
    return value


def load_config(
    path: str | Path,
    seed: Optional[int] = None,
    noise_free: bool = False,
) -> RunConfig:
    """Parse and validate a YAML config file, applying CLI-level overrides.

    ``seed`` and ``noise_free`` change the effective configuration and its hash.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nested too deep to parse
        raise ConfigError(f"config: invalid YAML in {path}: {exc}") from exc
    raw = _expect_mapping("config", raw)
    return build_config(raw, seed=seed, noise_free=noise_free)


def build_config(
    raw: dict,
    seed: Optional[int] = None,
    noise_free: bool = False,
) -> RunConfig:
    """Resolve a raw mapping (already YAML-parsed) into a RunConfig."""
    _reject_unknown("config", raw, {*SCHEMA, "seed", "output_dir"})
    # The file's own seed is checked even when overridden.
    file_seed = _seed(raw.get("seed", _DEFAULT_SEED))
    seed = file_seed if seed is None else _seed(seed)
    canonical: dict[str, Any] = {
        name: _check_fields(name, raw.get(name), table) for name, table in SCHEMA.items()
    }
    canonical["seed"] = seed
    formation_c, episode = canonical["formation"], canonical["episode"]

    params = _sensing(canonical["sensing"], raw.get("sensing"))
    agent_count = formation_c["agent_count"]
    world = _world(canonical["world"], seed, noise_free)
    graph = _graph(canonical["graph"], agent_count)
    try:
        gains = ControlGains(**canonical["gains"])
        check_stability(gains, graph)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    initial_positions = _initial_positions(canonical["deployment"], agent_count, seed)

    rotation_rad = math.radians(formation_c["initial_rotation_deg"])
    try:
        offset = np.array(formation_c["prior_target_offset_m"])
        with np.errstate(over="ignore"):  # an infinite plan target is rejected as not finite
            plan_target = TargetEstimate(world.target.position + offset)
        formation = build_formation(params, plan_target, agent_count, rotation_rad)
    except ValueError as exc:  # e.g. a far target or rotation rounds the ring to a point
        raise ConfigError(f"formation: {exc}") from exc
    leader_offset = formation.planar_positions[graph.leader_index] - plan_target.position
    guidance_c = {k: v for k, v in canonical["guidance"].items() if k != "velocity_mps"}
    guidance = Guidance(leader_offset=leader_offset, goal_m=plan_target.position, **guidance_c)

    benchmarks = _sweep(canonical["sweep"], params)

    output_dir = _output_dir(raw.get("output_dir", _DEFAULT_OUTPUT_DIR))

    return RunConfig(
        params=params,
        target=world.target,
        plan_target=plan_target,
        agent_count=agent_count,
        formation=formation,
        world=world,
        graph=graph,
        gains=gains,
        guidance=guidance,
        initial_positions=initial_positions,
        initial_scale=canonical["deployment"]["initial_scale"],
        max_steps=episode["max_steps"],
        stop_tolerance_m2=episode["stop_tolerance_m2"],
        sweep_altitudes_m=tuple(canonical["sweep"]["altitudes_m"]),
        sweep_benchmarks=benchmarks,
        seed=seed,
        output_dir=Path(output_dir),
        canonical=canonical,
        config_hash=hash_canonical(canonical),
    )


def canonical_yaml(canonical: dict) -> str:
    """Stable text form of a resolved config; equal configs give equal text."""
    return yaml.safe_dump(canonical, sort_keys=True, default_flow_style=False)


def hash_canonical(canonical: dict) -> str:
    """Short digest identifying a resolved config."""
    return hashlib.sha256(canonical_yaml(canonical).encode()).hexdigest()[:12]
