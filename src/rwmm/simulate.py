"""End-to-end seeded simulation: waypoints -> paths -> locations, per node.

Seeding uses `numpy.random.SeedSequence` spawning so that every node and
every stream (waypoint draws vs. path draws) gets an independent generator,
and the whole run is reproducible from a single integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import PathAlphabet
from .location import JointTrace, LocationTrace, encode_sequence, joint_process
from .processes import (
    PathTrace,
    WaypointProcessSpec,
    WaypointTrace,
    _seed_sequence,
    sample_paths,
    sample_waypoints,
)

# Most location samples (nodes × horizon) one run may hold; the location ids
# alone take 8 bytes a sample, 0.8 GB at the limit, and io.save_locations
# also holds every node's text, about 14 bytes a sample, and the steps,
# 8 bytes a step, until the file is written.
MAX_SAMPLES = 10**8


@dataclass(frozen=True, eq=False)
class NodeRun:
    """Everything one node produced in a run, all layers aligned."""

    waypoints: WaypointTrace
    paths: PathTrace
    locations: LocationTrace


def _check_samples(node_count: int, horizon: int) -> None:
    if node_count * horizon > MAX_SAMPLES:
        raise ConfigurationError(
            f"{node_count} node(s) x {horizon} steps exceeds the limit of "
            f"{MAX_SAMPLES} samples per run"
        )


def simulate_node(
    spec: WaypointProcessSpec,
    alphabet: PathAlphabet,
    horizon: int,
    seed,
) -> NodeRun:
    """Simulate one node for ``horizon`` location steps.

    Draws ``horizon + 1`` waypoints — every path emits at least one location
    sample, so ``horizon`` paths always cover the horizon — but encodes only
    the paths that cover the horizon, then trims the encoded stream to
    exactly ``horizon`` samples. ``paths`` keeps every drawn path. A horizon
    over ``MAX_SAMPLES`` is refused with :class:`ConfigurationError` before
    any draw.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_samples(1, horizon)
    root = _seed_sequence(seed)
    wp_seed, path_seed = root.spawn(2)
    waypoints = sample_waypoints(spec, horizon + 1, np.random.default_rng(wp_seed))
    paths = sample_paths(alphabet, waypoints, np.random.default_rng(path_seed))
    covering = int(np.searchsorted(np.cumsum(paths.lengths), horizon)) + 1
    locations = encode_sequence(PathTrace(alphabet, paths.ids[:covering])).prefix(horizon)
    return NodeRun(waypoints=waypoints, paths=paths, locations=locations)


def simulate_joint(
    spec: WaypointProcessSpec,
    alphabet: PathAlphabet,
    horizon: int,
    node_count: int,
    seed,
) -> JointTrace:
    """Independent nodes under one seed, stacked into a joint trace.

    Node i's generators come from the i-th spawn of the root seed sequence,
    so runs are reproducible and nodes are pairwise independent. Runs of
    more than ``MAX_SAMPLES`` samples in all are refused with
    :class:`ConfigurationError` before any draw.
    """
    if node_count < 1:
        raise ValueError(f"node count must be >= 1, got {node_count}")
    _check_samples(node_count, horizon)
    root = _seed_sequence(seed)
    children = root.spawn(node_count)
    traces = [simulate_node(spec, alphabet, horizon, child).locations for child in children]
    return joint_process(traces)
