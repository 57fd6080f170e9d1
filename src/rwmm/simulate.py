"""End-to-end seeded simulation: waypoints -> paths -> locations, per node.

Seeding uses `numpy.random.SeedSequence` spawning so that every node and
every stream (waypoint draws vs. path draws) gets an independent generator,
and the whole run is reproducible from a single integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import ConfigurationError
from .geometry import PathAlphabet
from .location import JointTrace, LocationTrace, encode_sequence
from .processes import (
    PathTrace,
    WaypointProcessSpec,
    WaypointTrace,
    _seed_sequence,
    sample_paths,
    sample_waypoints,
)

# waypoint pairs whose paths are drawn at once
_PATH_BLOCK = 2**15
# location samples of the consecutive nodes that simulate_joint encodes at once
_ENCODE_SAMPLES = 2**17


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
    # A run may hold errors.MAX_SAMPLES location samples (nodes × horizon); the
    # location ids alone take 8 bytes a sample, 0.8 GB at the limit, in the one
    # array simulate_joint writes each node's row into: there is no per-node
    # stack of traces. io.save_locations writes one block of rows at a time
    # and, when a block holds fewer than every node, holds beside it the steps,
    # 8 bytes a step, and their words, at most 12 bytes a step (a traced peak
    # of 7 and 11 bytes a sample at 4 and 2 nodes; 2 at one node, whose steps
    # are spelled a block at a time). A node's waypoints take 8 bytes a step
    # while it is drawn, and a Markov walk under 2 MB more, one block of
    # processes._WALK_BLOCK draws, buckets, pair keys and states (10 bytes a
    # step traced at 10^6 steps), beside its spec's successor, bucket and pair
    # tables, each of the last two at most processes._TABLE_ENTRIES entries;
    # its paths, the covering ones and less than one block of _PATH_BLOCK
    # more, 8 bytes a path. The covering paths of a block of nodes are kept
    # until the block is encoded: at most _ENCODE_SAMPLES location samples,
    # whose cells pass it by less than one path, or one node's if its horizon
    # passes it. Encoding digitizes each distinct member once, with
    # temporaries of up to about 50 bytes a cell when few paths share a
    # member, so they are bounded per block of _ENCODE_SAMPLES samples, not by
    # the node count.
    if node_count < 1:
        raise ValueError(f"node count must be >= 1, got {node_count}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if node_count * horizon > errors.MAX_SAMPLES:
        raise ConfigurationError(
            f"{node_count} node(s) x {horizon} steps exceeds the limit of "
            f"{errors.MAX_SAMPLES} samples per run"
        )


def _covering_paths(
    spec: WaypointProcessSpec,
    alphabet: PathAlphabet,
    horizon: int,
    seed,
) -> tuple[WaypointTrace, PathTrace, int]:
    """A node's ``(waypoints, paths, cells)``: the paths that cover ``horizon`` steps.

    ``waypoints`` are those the paths join and ``cells`` the count of cells
    the paths emit, at least ``horizon``. Draws ``horizon + 1`` waypoints —
    every path emits at least one location sample, so ``horizon`` paths
    always cover the horizon — then draws their paths ``_PATH_BLOCK``
    waypoint pairs at a time, from one generator, and stops at the first
    block whose path lengths reach the horizon. A
    generator gives the same values from one ``integers`` call with array
    bounds as from consecutive calls over its parts, so the paths are those
    one draw over every pair would give.
    """
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
        covered = int(ends[:covering][-1])
        if covering <= len(block):
            break
    paths = PathTrace(alphabet, np.concatenate(blocks))
    return WaypointTrace(waypoints.grid, waypoints.ids[: len(paths) + 1]), paths, covered


def simulate_node(
    spec: WaypointProcessSpec,
    alphabet: PathAlphabet,
    horizon: int,
    seed,
) -> NodeRun:
    """Simulate one node for ``horizon`` location steps.

    The waypoints and paths are :func:`_covering_paths`'. Only the covering
    paths are encoded, and the encoded stream is trimmed to exactly
    ``horizon`` samples. A horizon over ``errors.MAX_SAMPLES`` is refused
    with :class:`ConfigurationError` before any draw.
    """
    _check_samples(1, horizon)
    waypoints, paths, _ = _covering_paths(spec, alphabet, horizon, seed)
    locations = encode_sequence(paths).prefix(horizon)
    return NodeRun(waypoints=waypoints, paths=paths, locations=locations)


def _encode_block(
    alphabet: PathAlphabet, paths: list[np.ndarray], emitted: list[int], out: np.ndarray
) -> None:
    """Write the first ``out.shape[1]`` cells of each node's covering ``paths`` into its row.

    One :func:`encode_sequence` call encodes every node's path ids; node i's
    cells start where those of the nodes before it end, ``emitted`` being
    each node's cell count.
    """
    ids = paths[0] if len(paths) == 1 else np.concatenate(paths)  # a long node is not copied
    cells = encode_sequence(PathTrace(alphabet, ids)).ids
    starts = np.cumsum(emitted) - emitted
    for row, start in zip(out, starts.tolist()):
        row[:] = cells[start : start + len(row)]


def simulate_joint(
    spec: WaypointProcessSpec,
    alphabet: PathAlphabet,
    horizon: int,
    node_count: int,
    seed,
) -> JointTrace:
    """Independent nodes under one seed, as one joint trace.

    Node i's waypoints and paths are :func:`simulate_node`'s under the i-th
    spawn of the root seed sequence, so runs are reproducible and nodes are
    pairwise independent. The covering paths of consecutive nodes are
    encoded together, straight into their rows of the joint ids, in blocks
    of at most ``_ENCODE_SAMPLES`` location samples: a block is encoded, and
    freed, as soon as the cells it emits leave no room for another node's
    horizon, so they pass the budget by less than one path. A node whose
    horizon passes it is a block of its own. Runs of more than
    ``errors.MAX_SAMPLES`` samples in all are refused with
    :class:`ConfigurationError` before any draw.
    """
    _check_samples(node_count, horizon)
    ids = np.empty((node_count, horizon), dtype=np.int64)
    block, emitted, total, first = [], [], 0, 0
    for node, child in enumerate(_seed_sequence(seed).spawn(node_count), 1):
        paths, cells = _covering_paths(spec, alphabet, horizon, child)[1:]
        block.append(paths.ids)
        emitted.append(cells)
        total += cells
        if total + horizon > _ENCODE_SAMPLES or node == node_count:
            _encode_block(alphabet, block, emitted, ids[first:node])
            block, emitted, total, first = [], [], 0, node
    return JointTrace(alphabet.grid, ids)
