"""Seeded workload definitions for the formsense benchmark.

Each workload is a list of ``formsense`` command lines plus the config file
they read. The config is generated from the workload seed into a work
directory, so the program only ever sees the YAML and the benchmark never
depends on the repository's shipped configs staying unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

NAMES = ("corridor", "fleet", "analysis")
SIZES = ("full", "tiny")

# Sizes per workload: the full ones are what the benchmark measures; the
# tiny ones let the self-check exercise every path in seconds. The tiny
# corridor keeps enough steps for the swarm to reach the gap (eta first
# dips after roughly 300 steps) so its eta check still holds.
_CORRIDOR_STEPS = {"full": 4000, "tiny": 700}
_FLEET_AGENTS = {"full": 384, "tiny": 48}
_FLEET_STEPS = {"full": 12, "tiny": 4}
_FLEET_OBSTACLES = 16
_FLEET_NEAR_GAP = 4.0
_ANALYSIS_AGENTS = 24
_ANALYSIS_ALTITUDES = {"full": 40, "tiny": 4}
_ANALYSIS_SAMPLES = {"full": 60, "tiny": 5}

_SENSING = {
    "transmit_power_w": 0.1,
    "processing_gain": 1000.0,
    "ref_channel_power_m4": 1.0e-5,
    "kappa": 1.0,
    "noise_floor_dbm": -90.0,
    "altitude_m": 20.0,
}
_GAINS = {
    "epsilon": 0.01,
    "consensus_gain": 0.2,
    "repulsion_gain": 5.0,
    "safety_radius_m": 5.0,
    "repulsion_cap": 5.0,
    "eta_min": 0.2,
}
_GOAL_GUIDANCE = {
    "mode": "goal",
    "max_speed_mps": 1.2,
    "gain_per_s": 0.5,
    "arrival_tolerance_m": 0.05,
}

# The paper's headline scenario as configs/corridor.yaml ships it: two
# rectangles leaving an 18.4 m gap for a 28.3 m formation. It is kept here,
# not read from configs/, so that an edit to the shipped file (a shorter step
# budget, say) cannot change what the benchmark measures.
CORRIDOR = {
    "sensing": _SENSING,
    "formation": {"agent_count": 6, "initial_rotation_deg": 0.0},
    "world": {
        "target_m": [80.0, 90.0],
        "obstacles": [
            {"x_min": 5.0, "x_max": 33.0, "y_min": 51.0, "y_max": 79.0},
            {"x_min": 47.0, "x_max": 75.0, "y_min": 11.0, "y_max": 39.0},
        ],
        "motion_noise_std_m": 0.01,
        "dt_s": 0.1,
    },
    "graph": {"topology": "ring_with_leader", "leader_index": 0},
    "gains": _GAINS,
    "deployment": {"kind": "random_box", "center_m": [0.0, 0.0], "side_m": 50.0, "initial_scale": 1.0},
    "guidance": _GOAL_GUIDANCE,
    "episode": {"max_steps": 4000, "stop_tolerance_m2": 1.0e-3},
    "seed": 12345,
    "output_dir": "out/corridor",
}


@dataclass(frozen=True)
class Workload:
    """A generated workload: what to run and what its outputs must show."""

    name: str
    kind: str  # "simulate" or "analysis"
    config_path: Path
    seed: int
    commands: tuple[tuple[str, ...], ...]
    agents: int
    obstacles: int
    topology: str
    steps: int  # step budget of a simulate workload, 0 for analysis


def _fleet_obstacles(rng: np.random.Generator, box_half: float) -> list[dict]:
    """Rectangles 14-40 m from the deployment centre, none overlapping the box.

    Rectangle k's nearest point lies in the k-th of K equal distance bands
    over 14-40 m, so every seed has one rectangle within 15.6 m: the centroid
    clearance then keeps eta below 1. That nearest rectangle is also less
    than 4 m from the box edge, inside the 5 m safety radius of the agents
    deployed there, so repulsion fires.
    """
    rects = []
    bands = np.linspace(14.0, 40.0, _FLEET_OBSTACLES + 1)
    for lo, hi in zip(bands[:-1], bands[1:]):
        while True:
            width, height, reach, angle = (
                float(v) for v in rng.uniform([2.0, 2.0, lo, 0.0], [8.0, 8.0, hi + 6.0, 2.0 * math.pi])
            )
            cx, cy = reach * math.cos(angle), reach * math.sin(angle)
            x_min, x_max = round(cx - width / 2.0, 6), round(cx + width / 2.0, 6)
            y_min, y_max = round(cy - height / 2.0, 6), round(cy + height / 2.0, 6)
            nearest = math.hypot(min(max(0.0, x_min), x_max), min(max(0.0, y_min), y_max))
            gap = math.hypot(
                max(0.0, x_min - box_half, -box_half - x_max),
                max(0.0, y_min - box_half, -box_half - y_max),
            )
            near_enough = lo > bands[0] or gap < _FLEET_NEAR_GAP
            if lo <= nearest <= hi and gap > 0.0 and near_enough:
                rects.append({"x_min": x_min, "x_max": x_max, "y_min": y_min, "y_max": y_max})
                break
    return rects


def _fleet_config(seed: int, size: str) -> dict:
    rng = np.random.default_rng([seed, 0xF1EE7])
    side = 20.0
    return {
        "sensing": _SENSING,
        "formation": {"agent_count": _FLEET_AGENTS[size], "initial_rotation_deg": 0.0},
        "world": {
            "target_m": [0.0, 0.0],
            "obstacles": _fleet_obstacles(rng, side / 2.0),
            "motion_noise_std_m": 0.01,
            "dt_s": 0.1,
        },
        # ring_with_leader links the leader to all M-1 others; at M=384 its
        # degree 383 breaks check_stability (epsilon * 2 * 383 >= 1).
        "graph": {"topology": "ring", "leader_index": 0},
        "gains": _GAINS,
        "deployment": {"kind": "random_box", "center_m": [0.0, 0.0], "side_m": side, "initial_scale": 1.0},
        "guidance": _GOAL_GUIDANCE,
        "episode": {"max_steps": _FLEET_STEPS[size], "stop_tolerance_m2": 1.0e-3},
        "seed": seed,
        "output_dir": "out/fleet",
    }


def _analysis_config(seed: int, size: str) -> dict:
    # The seed sets the altitude optimize plans at and the sweep's random draws.
    altitude = float(np.random.default_rng([seed, 0xA17]).uniform(10.0, 60.0))
    altitudes = np.linspace(5.0, 80.0, _ANALYSIS_ALTITUDES[size])
    return {
        "sensing": {**_SENSING, "altitude_m": round(altitude, 6)},
        "formation": {"agent_count": _ANALYSIS_AGENTS},
        "world": {"target_m": [80.0, 90.0]},
        "sweep": {
            "altitudes_m": [round(float(h), 6) for h in altitudes],
            "benchmarks": [
                {"kind": "optimal"},
                {"kind": "line", "length_m": 40.0, "lateral_offset_m": 10.0},
                {"kind": "clustered_polygon", "radius_factor": 0.25},
                {"kind": "fixed_elevation", "elevation_deg": 30.0},
                {"kind": "random_cloud", "half_width_m": 30.0, "samples": _ANALYSIS_SAMPLES[size]},
            ],
        },
        "seed": seed,
        "output_dir": "out/analysis",
    }


def generate(name: str, seed: int, size: str, work_dir: Path) -> Workload:
    """Write the workload's config into ``work_dir`` and describe its commands."""
    if name == "corridor":
        config = {**CORRIDOR, "episode": {**CORRIDOR["episode"], "max_steps": _CORRIDOR_STEPS[size]}}
    elif name == "fleet":
        config = _fleet_config(seed, size)
    else:
        config = _analysis_config(seed, size)
    path = Path(work_dir) / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True))
    common = ("--config", str(path), "--seed", str(seed))
    if name == "analysis":
        commands = (("optimize",) + common, ("sweep",) + common)
    else:
        commands = (("simulate",) + common,)
    world = config.get("world", {})
    return Workload(
        name=name,
        kind="analysis" if name == "analysis" else "simulate",
        config_path=path,
        seed=seed,
        commands=commands,
        agents=config["formation"]["agent_count"],
        obstacles=len(world.get("obstacles", [])),
        topology=config.get("graph", {}).get("topology", ""),
        steps=config["episode"]["max_steps"] if "episode" in config else 0,
    )
