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
# alone take 8 bytes a sample, 0.8 GB at the limit. io.save_locations writes
# one block of rows at a time and, when a block holds fewer than every node,
# holds beside it the steps, 8 bytes a step, and their words, at most 12
# bytes a step (a traced peak of 7 and 11 bytes a sample at 4 and 2 nodes;
# 2 at one node, whose steps are spelled a block at a time). A node's
# waypoints take 8 bytes a step while it is drawn, and a Markov walk under
# 2 MB more, one block of processes._WALK_BLOCK draws, buckets, pair keys and
# states (10 bytes a step traced at 10^6 steps), beside its spec's successor,
# bucket and pair tables, each of the last two at most
# processes._TABLE_ENTRIES entries; its paths, the covering ones and less than one
# block of _PATH_BLOCK more, 8 bytes a path. Encoding them digitizes each
# distinct member once, with temporaries of up to about 50 bytes a sample
# when few paths share a member.
MAX_SAMPLES = 10**8
# waypoint pairs whose paths are drawn at once
_PATH_BLOCK = 2**15


@dataclass(frozen=True, eq=False)
class NodeRun:
    """Everything one node produced in a run, all layers aligned.

    ``paths`` are the paths that cover the run's horizon, the last of which
    may reach past it, and ``waypoints`` the waypoints they join, one more
    than the paths.
    """

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
    sample, so ``horizon`` paths always cover the horizon — then draws their
    paths ``_PATH_BLOCK`` waypoint pairs at a time, from one generator, and
    stops at the first block whose path lengths reach the horizon. A
    generator gives the same values from one ``integers`` call with array
    bounds as from consecutive calls over its parts, so the paths are those
    one draw over every pair would give. Only the covering paths are kept
    and encoded, and the encoded stream is trimmed to exactly ``horizon``
    samples. A horizon over ``MAX_SAMPLES`` is refused with
    :class:`ConfigurationError` before any draw.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_samples(1, horizon)
    root = _seed_sequence(seed)
    wp_seed, path_seed = root.spawn(2)
    waypoints = sample_waypoints(spec, horizon + 1, np.random.default_rng(wp_seed))
    rng = np.random.default_rng(path_seed)
    blocks, covered = [], 0
    for lo in range(0, horizon, _PATH_BLOCK):
        pairs = WaypointTrace(waypoints.grid, waypoints.ids[lo : lo + _PATH_BLOCK + 1])
        block = sample_paths(alphabet, pairs, rng)
        ends = np.cumsum(block.lengths) + covered
        covering = int(np.searchsorted(ends, horizon)) + 1  # past the block if not reached
        blocks.append(block.ids[:covering])
        if covering <= len(block):
            break
        covered = int(ends[-1])
    paths = PathTrace(alphabet, np.concatenate(blocks))
    locations = encode_sequence(paths).prefix(horizon)
    joined = WaypointTrace(waypoints.grid, waypoints.ids[: len(paths) + 1])
    return NodeRun(waypoints=joined, paths=paths, locations=locations)


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
