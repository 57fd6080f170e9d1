"""Turning path sequences into per-step location sequences.

Each path of length l contributes its first l cells to the location stream;
the path's final cell is the first emission of the next path, so trips chain
without duplicated samples. Trip start times are the running sums of path
lengths, which makes the waypoint sequence recoverable from the locations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Cell, GridSpec, _ids_below
from .processes import PathTrace

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class LocationTrace:
    """Per-step cell occupancy of one node (cell ids, one per time step)."""

    grid: GridSpec
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def cell(self, index: int) -> Cell:
        if not 0 <= index < len(self.ids):
            raise ValueError(f"index {index} outside [0, {len(self.ids)}) for this trace")
        return self.grid.cell_at(int(self.ids[index]))

    def prefix(self, count: int) -> "LocationTrace":
        if not 0 <= count <= len(self.ids):
            raise ValueError(f"prefix of {count} from trace of length {len(self.ids)}")
        return LocationTrace(self.grid, self.ids[:count])


@dataclass(frozen=True, eq=False)
class JointTrace:
    """Synchronized locations of several nodes: one row per node, one column per step."""

    grid: GridSpec
    ids: np.ndarray  # shape (nodes, steps)

    @property
    def node_count(self) -> int:
        return int(self.ids.shape[0])

    def __len__(self) -> int:
        return int(self.ids.shape[1])

    def node(self, node_id: int) -> LocationTrace:
        within = f"[0, {self.node_count}) for this trace"
        node = int(_ids_below(self.node_count, node_id, "node", within))
        return LocationTrace(self.grid, self.ids[node])


def encode_sequence(trace: PathTrace) -> LocationTrace:
    """Vectorized encoding of a sampled path sequence into locations.

    Gathers every path's emitted cells from the alphabet in one pass.
    """
    alphabet = trace.alphabet
    return LocationTrace(alphabet.grid, alphabet.emitted_cells(trace.ids))


def trip_times(lengths: Sequence[int] | np.ndarray) -> np.ndarray:
    """Start times of each trip: t(0)=0, t(k) = sum of the first k path lengths.

    Returns an array of len(lengths)+1 entries; the waypoint w_k is occupied
    at step t(k) of the location stream.
    """
    arr = np.asarray(lengths, dtype=np.int64)
    out = np.empty(len(arr) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(arr, out=out[1:])
    return out


def complete_trips(lengths: Sequence[int] | np.ndarray, steps: int) -> int:
    """How many whole trips fit in the first ``steps`` location samples.

    The largest k with t(k) <= steps; the location prefix of that many steps
    contains exactly this many finished trips.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    times = trip_times(lengths)
    return int(np.searchsorted(times, steps, side="right") - 1)


def variable_length_shift(trace: PathTrace, count: int) -> tuple[PathTrace, int]:
    """Drop the first ``count`` paths; report the matching location-step shift.

    Advancing the path sequence by ``count`` symbols advances the encoded
    location sequence by t(count) steps (the summed lengths of the dropped
    paths), so the returned step count realigns any location-level view.
    """
    if not 0 <= count <= len(trace.ids):
        raise ValueError(f"cannot shift {count} of {len(trace.ids)} paths")
    dropped = int(trace.alphabet.lengths(trace.ids[:count]).sum())
    shifted = PathTrace(trace.alphabet, trace.ids[count:])
    return shifted, dropped


def joint_process(traces: Sequence[LocationTrace]) -> JointTrace:
    """Stack per-node location traces into one synchronized joint trace.

    All traces must share a grid. Unequal lengths are truncated to the
    shortest (with a log warning), since the joint state at step n needs
    every node's location at n.
    """
    if not traces:
        raise ValueError("joint process needs at least one node trace")
    grid = traces[0].grid
    if any(t.grid != grid for t in traces):
        raise ValueError("all node traces must share one grid")
    horizon = min(len(t) for t in traces)
    longest = max(len(t) for t in traces)
    if longest != horizon:
        logger.warning(
            "joint process truncating node traces from up to %d to %d steps",
            longest,
            horizon,
        )
    stacked = np.stack([t.ids[:horizon] for t in traces])
    return JointTrace(grid, stacked)
