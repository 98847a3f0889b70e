"""Run configuration: YAML schema, validation, defaults, canonical hashing.

A config file fully determines a run. ``SCHEMA`` lists every field of every
section with its type and default; one function checks a mapping against
its table, and the typed values it returns are the section's canonical
form. Short section code adds the rules that span fields (noise floors
given in dBm are stored in watts, custom graphs, deployments, stability)
and builds the domain objects. A short hash of the canonical form lets
output files state exactly which configuration produced them. The output
directory is excluded from the hash: two runs of the same experiment into
different directories are still the same experiment.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

from .benchmarks import KINDS, BenchmarkSpec
from .control import CommGraph, ControlGains, SwarmState, check_stability
from .errors import ConfigError
from .formation import FormationGeometry, build_formation, displacement_set
from .sensing import SensingParams, TargetEstimate
from .world import Guidance, RectObstacle, World

# Entropy-stream tag separating the initial deployment draw from the
# per-step motion noise streams (which use small step indices).
_DEPLOY_STREAM = 2**40

# Flight altitudes accepted, in meters. Within them h^4 neither underflows
# (1e-90 m would) nor overflows. The information weight C/h^4 + 8/h^2 also
# depends on the composite SNR C: SensingParams bounds C/h^4 at each altitude.
_ALTITUDE_RANGE_M = (1.0e-3, 1.0e6)

_DEFAULT_SEED = 12345
_DEFAULT_OUTPUT_DIR = "out"

# Field types besides float and int: a 2-vector, or a raw value (a list that
# the section code checks). A tuple of strings lists the allowed values.
_VEC2 = "vec2"
_RAW = "raw"
# The default of a field that must be given. A field whose default is None
# has no value unless given.
_REQUIRED = object()

SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "sensing": {
        "transmit_power_w": (float, 0.1),
        "processing_gain": (float, 1.0e3),
        "ref_channel_power_m4": (float, 1.0e-5),
        "kappa": (float, 1.0),
        "noise_floor_dbm": (float, -90.0),
        "noise_floor_w": (float, None),  # alternative to noise_floor_dbm
        "altitude_m": (float, 20.0),
    },
    "formation": {
        "agent_count": (int, 6),
        "initial_rotation_deg": (float, 0.0),
        # Nonzero values plan the formation around an imperfect prior target
        # estimate while the CRLB is still evaluated at the true target.
        "prior_target_offset_m": (_VEC2, [0.0, 0.0]),
    },
    "world": {
        "target_m": (_VEC2, [80.0, 90.0]),
        "obstacles": (_RAW, []),
        "motion_noise_std_m": (float, 0.01),
        "dt_s": (float, 0.1),
    },
    "graph": {
        "topology": (("ring", "ring_with_leader", "complete", "custom"), "ring_with_leader"),
        "leader_index": (int, 0),
        "adjacency": (_RAW, None),  # for the custom topology
    },
    "gains": {f.name: (float, f.default) for f in fields(ControlGains)},
    "deployment": {
        "kind": (("random_box", "explicit"), "random_box"),
        "center_m": (_VEC2, [0.0, 0.0]),
        "side_m": (float, 50.0),
        "positions_m": (_RAW, None),  # for explicit deployment
        "initial_scale": (float, 1.0),
    },
    "guidance": {
        "mode": (("constant", "goal"), "constant"),
        "velocity_mps": (_VEC2, [0.0, 0.0]),
        "max_speed_mps": (float, 1.2),
        "gain_per_s": (float, 0.5),
        "arrival_tolerance_m": (float, 0.05),
    },
    "episode": {
        "max_steps": (int, 4000),
        "stop_tolerance_m2": (float, 1.0e-3),
    },
    "sweep": {
        "altitudes_m": (_RAW, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
        "benchmarks": (_RAW, [{"kind": kind} for kind in KINDS]),
    },
}

# Tables of the entries of world.obstacles and sweep.benchmarks.
_OBSTACLE = {key: (float, _REQUIRED) for key in ("x_min", "x_max", "y_min", "y_max")}
_BENCHMARK = {
    f.name: (KINDS, _REQUIRED) if f.name == "kind" else (type(f.default), f.default)
    for f in fields(BenchmarkSpec)
}


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


def _as_float(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    return out


def _as_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _as_vec2(name: str, value: Any) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name}: expected a 2-element list, got {value!r}")
    return [_as_float(f"{name}[{i}]", v) for i, v in enumerate(value)]


def _as_list(name: str, value: Any, nonempty: bool) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{name}: expected a {'nonempty ' * nonempty}list, got {value!r}")
    return value


_CONVERTERS = {float: _as_float, int: _as_int, _VEC2: _as_vec2}


def _check_fields(name: str, value: Any, table: dict[str, tuple[Any, Any]]) -> dict:
    """Check a mapping against its table and return its typed values.

    Unknown fields are rejected and missing ones take their default.
    """
    given = _expect_mapping(name, value)
    _reject_unknown(name, given, set(table))
    out = {}
    for key, (kind, default) in table.items():
        path = f"{name}.{key}"
        if key not in given and default is _REQUIRED:
            raise ConfigError(f"{path}: required")
        if key not in given and default is None:
            continue
        value = given.get(key, default)
        if kind in _CONVERTERS:
            value = _CONVERTERS[kind](path, value)
        elif isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"{path}: expected one of {kind}, got {value!r}")
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
        """The formation as planned, i.e. around the prior target estimate.

        It is built once, when the config is parsed.
        """
        return self.formation

    def displacement_set(self, formation: Optional[FormationGeometry] = None):
        velocity = self.canonical["guidance"]["velocity_mps"]
        return displacement_set(self.formation if formation is None else formation, velocity)

    def initial_state(self) -> SwarmState:
        return SwarmState(
            positions=self.initial_positions,
            velocity_estimates=np.zeros_like(self.initial_positions),
            scale=self.initial_scale,
            step_index=0,
        )


def _check_altitude(name: str, altitude: float) -> None:
    lo, hi = _ALTITUDE_RANGE_M
    if not lo <= altitude <= hi:
        raise ConfigError(f"{name}: must lie in [{lo:g}, {hi:g}] m, got {altitude!r}")


def _sensing(section: dict, given: Any) -> SensingParams:
    _check_altitude("sensing.altitude_m", section["altitude_m"])
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
    try:
        return World(
            target=TargetEstimate(np.array(section["target_m"])),
            obstacles=obstacles,
            motion_noise_std=section["motion_noise_std_m"],
            dt=section["dt_s"],
            rng_seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"world: {exc}") from exc


def _graph(section: dict, agent_count: int) -> CommGraph:
    topology, leader = section["topology"], section["leader_index"]
    if not 0 <= leader < agent_count:
        raise ConfigError(f"graph.leader_index: must lie in [0, {agent_count - 1}], got {leader}")
    adjacency = section.pop("adjacency", None)
    if topology == "custom":
        if adjacency is None:
            raise ConfigError("graph.adjacency: required for custom topology")
        try:
            adjacency = np.asarray(adjacency, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"graph.adjacency: {exc}") from exc
        if adjacency.shape != (agent_count, agent_count):
            raise ConfigError(
                f"graph.adjacency: expected shape ({agent_count}, {agent_count}), "
                f"got {adjacency.shape}"
            )
    try:
        if topology == "custom":
            graph = CommGraph(adjacency, leader)
            section["adjacency"] = graph.adjacency.astype(int).tolist()
        else:  # ring, ring_with_leader and complete are CommGraph constructors
            graph = getattr(CommGraph, topology)(agent_count, leader)
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc
    return graph


def _initial_positions(section: dict, agent_count: int, seed: int) -> np.ndarray:
    """Validate the deployment section and place the agents it describes."""
    scale = section["initial_scale"]
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"deployment.initial_scale: must lie in (0, 1], got {scale}")
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
        side = section["side_m"]
        if side <= 0:
            raise ConfigError(f"deployment.side_m: must be > 0, got {side}")
        rng = np.random.default_rng([seed, _DEPLOY_STREAM])
        center = np.asarray(section["center_m"], dtype=float)
        positions = center + side * rng.uniform(-0.5, 0.5, size=(agent_count, 2))
    positions.setflags(write=False)
    return positions


def _sweep(section: dict, params: SensingParams) -> tuple[BenchmarkSpec, ...]:
    altitudes = _as_list("sweep.altitudes_m", section["altitudes_m"], nonempty=True)
    section["altitudes_m"] = []
    for i, value in enumerate(altitudes):
        altitude = _as_float(f"sweep.altitudes_m[{i}]", value)
        _check_altitude(f"sweep.altitudes_m[{i}]", altitude)
        section["altitudes_m"].append(altitude)
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
    out_dir: Optional[str] = None,
    noise_free: bool = False,
) -> RunConfig:
    """Parse and validate a YAML config file, applying CLI-level overrides.

    ``seed`` and ``noise_free`` change the effective configuration (and its
    hash); ``out_dir`` only redirects output and never enters the hash.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path}: {exc}") from exc
    raw = _expect_mapping("config", raw)
    return build_config(raw, seed=seed, out_dir=out_dir, noise_free=noise_free)


def build_config(
    raw: dict,
    seed: Optional[int] = None,
    out_dir: Optional[str] = None,
    noise_free: bool = False,
) -> RunConfig:
    """Resolve a raw mapping (already YAML-parsed) into a RunConfig."""
    _reject_unknown("config", raw, {*SCHEMA, "seed", "output_dir"})
    # The file's own seed and output_dir are checked even when overridden.
    file_seed = _seed(raw.get("seed", _DEFAULT_SEED))
    seed = file_seed if seed is None else _seed(seed)
    canonical: dict[str, Any] = {
        name: _check_fields(name, raw.get(name), table) for name, table in SCHEMA.items()
    }
    canonical["seed"] = seed
    formation_c, episode = canonical["formation"], canonical["episode"]

    params = _sensing(canonical["sensing"], raw.get("sensing"))
    agent_count = formation_c["agent_count"]
    if agent_count < 3:
        raise ConfigError(f"formation.agent_count: need at least 3 agents, got {agent_count}")
    world = _world(canonical["world"], seed, noise_free)
    graph = _graph(canonical["graph"], agent_count)
    try:
        gains = ControlGains(**canonical["gains"])
        check_stability(gains, graph)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    initial_positions = _initial_positions(canonical["deployment"], agent_count, seed)

    plan_target = TargetEstimate(
        world.target.position + np.array(formation_c["prior_target_offset_m"])
    )
    rotation_rad = math.radians(formation_c["initial_rotation_deg"])
    formation = build_formation(params, plan_target, agent_count, rotation_rad)
    leader_offset = formation.planar_positions[graph.leader_index] - plan_target.position
    guidance_c = {k: v for k, v in canonical["guidance"].items() if k != "velocity_mps"}
    try:
        guidance = Guidance(leader_offset=leader_offset, goal_m=plan_target.position, **guidance_c)
    except ValueError as exc:
        raise ConfigError(f"guidance: {exc}") from exc

    if episode["max_steps"] < 0:
        raise ConfigError(f"episode.max_steps: must be >= 0, got {episode['max_steps']}")
    if episode["stop_tolerance_m2"] <= 0:
        raise ConfigError(
            f"episode.stop_tolerance_m2: must be > 0, got {episode['stop_tolerance_m2']}"
        )
    benchmarks = _sweep(canonical["sweep"], params)

    output_dir = _output_dir(raw.get("output_dir", _DEFAULT_OUTPUT_DIR))
    if out_dir is not None:
        output_dir = _output_dir(out_dir)

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
