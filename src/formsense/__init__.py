"""CRLB-driven formation design and control for cooperative target sensing.

The package splits into a measurement/information layer (:mod:`sensing`),
the closed-form optimal geometry (:mod:`formation`), the distributed control
stack (:mod:`control`), the simulation environment (:mod:`world`),
comparison formations (:mod:`benchmarks`), and config/CLI plumbing
(:mod:`config`, :mod:`cli`).
"""

from .benchmarks import BenchmarkSpec, benchmark_positions, sweep_rows
from .config import RunConfig, dbm_to_watts, load_config
from .control import (
    CommGraph,
    ControlGains,
    SwarmState,
    check_stability,
    consensus_velocity_step,
    control_input,
    displacement_control,
    displacement_error,
    local_cost,
    repulsion,
    scale_factor,
)
from .errors import ConfigError
from .formation import (
    DisplacementSet,
    FormationGeometry,
    build_formation,
    optimal_azimuths,
    optimal_elevation,
    theoretical_lower_bound,
)
from .sensing import SensingParams, TargetEstimate, crlb, elevation_weight
from .world import (
    EpisodeTrace,
    Guidance,
    RectObstacle,
    World,
    min_pairwise_distance,
    run_episode,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "CommGraph",
    "ConfigError",
    "ControlGains",
    "DisplacementSet",
    "EpisodeTrace",
    "FormationGeometry",
    "Guidance",
    "RectObstacle",
    "RunConfig",
    "SensingParams",
    "SwarmState",
    "TargetEstimate",
    "World",
    "benchmark_positions",
    "build_formation",
    "check_stability",
    "consensus_velocity_step",
    "control_input",
    "crlb",
    "dbm_to_watts",
    "displacement_control",
    "displacement_error",
    "elevation_weight",
    "load_config",
    "local_cost",
    "min_pairwise_distance",
    "optimal_azimuths",
    "optimal_elevation",
    "repulsion",
    "run_episode",
    "scale_factor",
    "step",
    "sweep_rows",
    "theoretical_lower_bound",
]
