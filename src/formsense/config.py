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
from dataclasses import MISSING, dataclass, field, fields, replace
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

# PyYAML's C loader and dumper (libyaml) where the installed PyYAML has them.
_WITH_LIBYAML = yaml.__with_libyaml__
# libyaml composes nested collections by recursion in C, which a deep enough
# text overflows; deeper text goes to the pure-Python loader. Shipped configs nest 4 deep.
_LIBYAML_MAX_DEPTH = 64

# Field types besides float and int: a 2-vector, a nonempty list of floats or
# a raw list that section code checks. A tuple of strings lists the values.
_VEC2 = "vec2"
_FLOATS = "floats"
_RAW = "raw"
# The default of a field that must be given, as of a dataclass field without one.
# A field whose default is None has no value unless given.
_REQUIRED = MISSING


def _declared(cls: type, name: str, default: Any = MISSING) -> tuple:
    """``cls``'s field ``name``: its choices, (2,) shape or interval, and its default unless given."""
    declared = cls.__dataclass_fields__[name]
    default = declared.default if default is MISSING else default
    if "choices" in declared.metadata:
        return (declared.metadata["choices"], default)
    if "shape" in declared.metadata:  # a (2,) array: the one shape a config field takes
        return (_VEC2, default)
    return (int if declared.type in (int, "int") else float, default, declared.metadata["interval"])


# A field is (type, default[, interval]). The interval bounds a number or each float of a list;
# a field that becomes a domain type's field takes the interval, choices or shape that type declares.
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
    "guidance": {f.name: _declared(Guidance, f.name) for f in fields(Guidance)},
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


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A run configuration made from one mapping, and its domain-typed pieces.

    ``canonical`` is given as any mapping :func:`build_config` accepts, less
    ``output_dir``. Construction validates it, stores its canonical form and
    builds every other field from that form, so an artifact's seed and hash
    tags name the run that was made. Vary a config with :func:`build_config`
    or ``dataclasses.replace(config, canonical=...)``; replacing a built field
    raises ``ValueError``.
    """

    canonical: dict
    output_dir: Path
    params: SensingParams = field(init=False)
    formation: FormationGeometry = field(init=False)
    world: World = field(init=False)
    graph: CommGraph = field(init=False)
    gains: ControlGains = field(init=False)
    guidance: Guidance = field(init=False)
    initial_positions: np.ndarray = field(init=False)
    initial_scale: float = field(init=False)
    max_steps: int = field(init=False)
    stop_tolerance_m2: float = field(init=False)
    sweep_altitudes_m: tuple[float, ...] = field(init=False)
    sweep_benchmarks: tuple[BenchmarkSpec, ...] = field(init=False)
    seed: int = field(init=False)
    config_hash: str = field(init=False)

    def __post_init__(self) -> None:
        given = _expect_mapping("config", self.canonical)
        _reject_unknown("config", given, {*SCHEMA, "seed"})
        seed = _seed(given.get("seed", _DEFAULT_SEED))
        canonical: dict[str, Any] = {
            name: _check_fields(name, given.get(name), table) for name, table in SCHEMA.items()
        }
        canonical["seed"] = seed
        formation_c, episode = canonical["formation"], canonical["episode"]

        params = _sensing(canonical["sensing"], given.get("sensing"))
        agent_count = formation_c["agent_count"]
        world = _world(canonical["world"], seed)
        graph = _graph(canonical["graph"], agent_count)
        try:
            gains = ControlGains(**canonical["gains"])
            check_stability(gains, graph)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        deployed = _initial_positions(canonical["deployment"], given.get("deployment"), agent_count, seed)

        rotation_rad = math.radians(formation_c["initial_rotation_deg"])
        try:
            offset = np.array(formation_c["prior_target_offset_m"])
            with np.errstate(over="ignore"):  # an infinite plan target is rejected as not finite
                plan_target = TargetEstimate(world.target.position + offset)
            formation = build_formation(params, plan_target, agent_count, rotation_rad)
        except ValueError as exc:  # e.g. a far target or rotation rounds the ring to a point
            raise ConfigError(f"formation: {exc}") from exc
        benchmarks = _sweep(canonical["sweep"], params)
        vars(self).update(  # the frozen fields, set once from the canonical form
            canonical=canonical, params=params, formation=formation, world=world, graph=graph, gains=gains,
            guidance=Guidance(**canonical["guidance"]), initial_positions=deployed, seed=seed,
            initial_scale=canonical["deployment"]["initial_scale"], max_steps=episode["max_steps"],
            stop_tolerance_m2=episode["stop_tolerance_m2"], sweep_benchmarks=benchmarks,
            sweep_altitudes_m=tuple(canonical["sweep"]["altitudes_m"]), config_hash=hash_canonical(canonical),
        )

    def build_formation(self) -> FormationGeometry:
        """The formation as planned around the prior target estimate, built at parse time."""
        return self.formation

    def displacement_set(self, formation: Optional[FormationGeometry] = None) -> DisplacementSet:
        return DisplacementSet((self.formation if formation is None else formation).planar_positions)

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


def _world(section: dict, seed: int) -> World:
    section["obstacles"], obstacles = _entries(
        "world.obstacles", section["obstacles"], _OBSTACLE, RectObstacle, nonempty=False
    )
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
    if topology != "custom" and adjacency is not None:
        raise ConfigError(f"graph.adjacency: only topology custom reads it, got topology {topology}")
    try:
        if topology == "custom":
            graph = CommGraph.from_adjacency(adjacency, leader)
            section["adjacency"] = np.array(adjacency, dtype=float).astype(int).tolist()
        else:  # ring, ring_with_leader and complete are CommGraph constructors
            graph = getattr(CommGraph, topology)(agent_count, leader)
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc
    if graph.agent_count != agent_count:
        raise ConfigError(f"graph.adjacency: expected {agent_count} rows, got {graph.agent_count}")
    return graph


def _initial_positions(section: dict, given: Any, agent_count: int, seed: int) -> np.ndarray:
    """Validate the deployment section and place the agents it describes."""
    kind, rows = section["kind"], section.pop("positions_m", None)
    if kind == "explicit":
        if extra := [key for key in ("center_m", "side_m") if key in (given or {})]:
            raise ConfigError(f"deployment.{extra[0]}: only kind random_box reads it, got kind {kind}")
        del section["center_m"], section["side_m"]
        if rows is None:
            raise ConfigError("deployment.positions_m: required for explicit deployment")
        if not isinstance(rows, list) or len(rows) != agent_count:
            raise ConfigError(f"deployment.positions_m: expected {agent_count} rows, got {rows!r}")
        section["positions_m"] = [_as_vec2(f"deployment.positions_m[{i}]", r) for i, r in enumerate(rows)]
        positions = np.array(section["positions_m"], dtype=float)
    elif rows is not None:
        raise ConfigError(f"deployment.positions_m: only kind explicit reads it, got kind {kind}")
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
    return _as_int("seed", value, "[0, 2^63)")


def load_config(
    path: str | Path,
    seed: Optional[int] = None,
    noise_free: bool = False,
) -> RunConfig:
    """Parse and validate a YAML config file, applying CLI-level overrides.

    ``seed`` and ``noise_free`` change the effective configuration and its hash.
    The text is parsed with libyaml where PyYAML has it; an error is named by the
    pure-Python loader's problem, line and column (see :func:`_parse_yaml`).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = _parse_yaml(text)
    except (yaml.YAMLError, RecursionError, ValueError) as exc:  # too deep to parse; a date that is no date
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        # A ReaderError (a non-printable character) has no problem; its message has two lines.
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"config: invalid YAML in {path}: {problem}{where}") from exc
    raw = _expect_mapping("config", raw)
    return build_config(raw, seed=seed, noise_free=noise_free)


def build_config(raw: dict, seed: Optional[int] = None, noise_free: bool = False) -> RunConfig:
    """Resolve a raw mapping (already YAML-parsed) into a RunConfig.

    ``raw`` holds what a config file does: the :data:`SCHEMA` sections, ``seed``
    and ``output_dir``. ``seed`` replaces the file's seed and ``noise_free`` sets
    ``world.motion_noise_std_m`` to 0, after the values they replace are checked.
    """
    given = dict(raw)
    output_dir = given.pop("output_dir", _DEFAULT_OUTPUT_DIR)
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir: expected a nonempty string, got {output_dir!r}")
    if seed is not None:
        _seed(given.get("seed", _DEFAULT_SEED))  # the file's own seed is checked even when overridden
        given["seed"] = seed
    if noise_free:
        world = _check_fields("world", given.get("world"), SCHEMA["world"])
        given["world"] = {**world, "motion_noise_std_m": 0.0}
    return RunConfig(given, Path(output_dir))


def _parse_yaml(text: str) -> Any:
    """The document in ``text``, read by libyaml where PyYAML has it.

    Text nested deeper than :data:`_LIBYAML_MAX_DEPTH`, and text libyaml rejects, goes
    to the pure-Python loader: it raises the error a config error names (a
    ``RecursionError`` when too deep), or reads what libyaml could not.
    """
    if _WITH_LIBYAML:
        try:
            if _depth_within(text, _LIBYAML_MAX_DEPTH):
                return yaml.load(text, Loader=yaml.CSafeLoader)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


def _depth_within(text: str, limit: int) -> bool:
    """Whether no collection of ``text`` is nested deeper than ``limit``; libyaml's parser is iterative."""
    depth = 0
    for event in yaml.parse(text, Loader=yaml.CSafeLoader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > limit:
                return False
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return True


def canonical_yaml(canonical: dict) -> str:
    """Stable text form of a resolved config; equal configs give equal text.

    libyaml's emitter writes it where PyYAML has it, the pure-Python one otherwise;
    both write the same text for a canonical form, so the hash does not depend on it.
    """
    dumper = yaml.CSafeDumper if _WITH_LIBYAML else yaml.SafeDumper
    return yaml.dump(canonical, Dumper=dumper, sort_keys=True, default_flow_style=False)


def hash_canonical(canonical: dict) -> str:
    """Short digest identifying a resolved config."""
    return hashlib.sha256(canonical_yaml(canonical).encode()).hexdigest()[:12]
