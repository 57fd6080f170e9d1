"""Trace files, movement-script export, and CSV reports.

All writers are deterministic: same inputs, byte-identical output (no
timestamps, fixed float formats). Trace files carry a header of ``#`` lines —
format version, trace kind, seed, the digest of the generating config, and a
digest of the body — followed by a CSV body. Loaders recompute the body
digest and refuse silently corrupted files.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from hashlib import sha256
from itertools import count
from pathlib import Path as FsPath
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .continuous import ContinuousTrace
from .errors import ConfigurationError, VerificationError
from .geometry import GridSpec
from .location import JointTrace, LocationTrace

FORMAT_TAG = "rwmm-trace v1"
KIND_LOCATIONS = "grid-locations"
KIND_POSITIONS = "continuous-positions"


def _format_float(value: float) -> str:
    return format(float(value), ".9g")


def _write_trace(path: FsPath | str, header: dict[str, str], parts: list[str]) -> None:
    """Write the ``#`` header, ending with the body's digest, then the body parts.

    The parts are hashed and written one by one, so no joined copy of the
    body is ever built.
    """
    digest = sha256()
    for part in parts:
        digest.update(part.encode())
    lines = [f"# {FORMAT_TAG}", *(f"# {key}: {value}" for key, value in header.items())]
    lines.append(f"# body: {digest.hexdigest()}")
    with FsPath(path).open("w") as out:
        out.write("\n".join(lines) + "\n")
        out.writelines(parts)


@contextmanager
def _open_trace(path: FsPath | str) -> Iterator[tuple[dict[str, str], TextIO]]:
    """Open a trace file; yield its header and the file positioned at the body.

    The body digest is checked before anything is yielded. The body is read
    in chunks for it, so no copy of the whole file is held.
    """
    with FsPath(path).open() as fh:
        if fh.readline().strip() != f"# {FORMAT_TAG}":
            raise ConfigurationError(f"not a trace file (expected '# {FORMAT_TAG}' first)")
        header: dict[str, str] = {}
        for lineno in count(2):
            body_start = fh.tell()
            line = fh.readline()
            if not line.startswith("#"):
                break
            stripped = line[1:].strip()
            if ":" not in stripped:
                raise ConfigurationError(f"malformed header line {lineno}: {line.strip()!r}")
            key, value = (part.strip() for part in stripped.split(":", 1))
            header[key] = value
        expected = header.get("body")
        if expected is None:
            raise ConfigurationError("trace header missing body digest")
        fh.seek(body_start)
        digest = sha256()
        for chunk in iter(partial(fh.read, 1 << 20), ""):
            digest.update(chunk.encode())
        actual = digest.hexdigest()
        if actual != expected:
            raise VerificationError(
                f"trace body digest mismatch: header says {expected[:12]}.., "
                f"content is {actual[:12]}.."
            )
        fh.seek(body_start)
        yield header, fh


def _load_rows(body: TextIO, kind: str, columns: str, dtype) -> tuple[np.ndarray, int, int]:
    """Parse a body's CSV rows, after its ``columns`` line, in one pass.

    Rows have four finite columns, the first a node id, which is never
    negative. They come node-major, nodes 0, 1, ... in turn, the same
    number of rows per node. Returns ``(rows, nodes, steps)``.

    A row must follow the ``columns`` line at once. It is looked for before
    ``np.loadtxt`` runs, which would warn on a body with no rows; ``#``
    lines are not comments in a body, so any other line is a malformed row.
    """
    if body.readline().rstrip("\n") != columns:
        raise ConfigurationError(f"{kind} trace body must start with {columns}")
    start = body.tell()
    if body.readline() in ("", "\n"):
        raise ConfigurationError(f"empty {kind} trace: no row after the {columns} line")
    body.seek(start)
    try:
        data = np.loadtxt(body, delimiter=",", dtype=dtype, ndmin=2, comments=None)
    except ValueError as exc:
        raise ConfigurationError(f"malformed {kind} trace row: {exc}") from None
    if data.shape[1] != 4:
        raise ConfigurationError(f"{kind} trace rows must have 4 columns: {columns}")
    if not np.isfinite(data).all():
        raise ConfigurationError(f"non-finite value in {kind} trace")
    if data[:, 0].min() < 0:
        raise ConfigurationError(f"negative node id {data[:, 0].min():g}")
    nodes = int(data[:, 0].max()) + 1
    steps = len(data) // nodes
    if steps * nodes != len(data):
        raise ConfigurationError(f"ragged {kind} trace: unequal steps per node")
    if not (data[:, 0].reshape(nodes, steps) == np.arange(nodes)[:, None]).all():
        raise ConfigurationError(f"{kind} trace rows must be node-major, nodes 0, 1, ... in turn")
    return data, nodes, steps


def save_locations(
    path: FsPath | str,
    trace: LocationTrace | JointTrace,
    seed: int | None = None,
    config_digest: str | None = None,
) -> None:
    """Write a grid location trace (single node or joint) as node,step,x,y rows.

    Rows are built in bulk from one ``step,`` string per step and one
    ``x,y`` label (with its newline) per cell, shared by every node. A
    trace with no samples or with a cell id outside the grid is refused
    with ``ValueError`` before the file is opened, since the loader could
    not read it back.
    """
    if isinstance(trace, LocationTrace):
        joint = JointTrace(trace.grid, trace.ids[None, :])
    else:
        joint = trace
    grid = joint.grid
    if joint.ids.size == 0:
        raise ValueError("cannot write an empty location trace")
    outside = (joint.ids < 0) | (joint.ids >= grid.size)
    if outside.any():
        raise ValueError(f"cell id {joint.ids[outside][0]} outside {grid}")
    steps = [f"{step}," for step in range(len(joint))]
    labels = [f"{c % grid.width},{c // grid.width}\n" for c in range(grid.size)]
    # one string per node: the row strings are freed node by node, which
    # keeps the peak memory of a large trace down
    parts = ["node,step,x,y\n"]
    for node in range(joint.node_count):
        head = f"{node},"
        cells = map(labels.__getitem__, joint.ids[node].tolist())
        parts.append(head + head.join(map(operator.add, steps, cells)))
    header = {
        "kind": KIND_LOCATIONS,
        "grid": f"{grid.width}x{grid.height}",
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }
    _write_trace(path, header, parts)


def load_locations(path: FsPath | str) -> tuple[JointTrace, dict[str, str]]:
    """Read a grid location trace; verifies the body digest.

    Rows must be node-major, and each node's rows must read steps
    0 .. steps-1 in turn, the layout ``save_locations`` writes. Every cell
    must lie in the grid; of several cells outside it, the first in file
    order is named, which is the lowest faulty node's first bad step.
    """
    with _open_trace(path) as (header, body):
        if header.get("kind") != KIND_LOCATIONS:
            raise ConfigurationError(
                f"expected a {KIND_LOCATIONS} trace, got {header.get('kind')!r}"
            )
        match = re.fullmatch(r"(\d+)x(\d+)", header.get("grid", ""))
        if not match:
            raise ConfigurationError(f"bad grid header: {header.get('grid')!r}")
        grid = GridSpec(int(match.group(1)), int(match.group(2)))
        data, nodes, steps = _load_rows(body, "location", "node,step,x,y", np.int64)
    _, step, x, y = data.T
    misplaced = (step.reshape(nodes, steps) != np.arange(steps)).any(axis=1)
    if misplaced.any():
        raise ConfigurationError(
            f"node {np.argmax(misplaced)} is missing steps or holds them out of order "
            f"(its rows must read steps 0 .. {steps - 1} in turn)"
        )
    outside = (x < 0) | (x >= grid.width) | (y < 0) | (y >= grid.height)
    if outside.any():
        row = np.argmax(outside)
        raise ConfigurationError(f"cell ({x[row]}, {y[row]}) outside {grid}")
    return JointTrace(grid, (y * grid.width + x).reshape(nodes, steps)), header


def save_positions(
    path: FsPath | str,
    trace: ContinuousTrace,
    seed: int | None = None,
    config_digest: str | None = None,
) -> None:
    """Write sampled continuous positions as node,time,x,y rows (%.9g).

    Rows are built from one ``,time,%.9g,%.9g`` template per step, shared
    by every node: each node's part is the templates joined by its id,
    filled by a single ``%`` with the node's positions. A trace with no
    samples, with positions not shaped ``(nodes, len(times), 2)``, with a
    time step that is not finite and positive, or with a non-finite time or
    position, is refused with ``ValueError`` before the file is opened,
    since the loader could not read it back.
    """
    if trace.positions.size == 0:
        raise ValueError("cannot write an empty position trace")
    if trace.positions.shape != (trace.node_count, len(trace.times), 2):
        raise ValueError(
            f"positions of shape {trace.positions.shape} do not match "
            f"{len(trace.times)} times (expected (nodes, {len(trace.times)}, 2))"
        )
    if not 0 < trace.time_step < math.inf:
        raise ValueError(f"time step must be finite and > 0, got {trace.time_step}")
    if not (np.isfinite(trace.times).all() and np.isfinite(trace.positions).all()):
        raise ValueError("cannot write non-finite times or positions")
    rows = [f",{_format_float(t)},%.9g,%.9g\n" for t in trace.times.tolist()]
    parts = ["node,time,x,y\n"]  # one string per node, as in save_locations
    for node in range(trace.node_count):
        head = str(node)
        parts.append((head + head.join(rows)) % tuple(trace.positions[node].ravel().tolist()))
    header = {
        "kind": KIND_POSITIONS,
        "area": f"{_format_float(trace.area.width)}x{_format_float(trace.area.height)}",
        "time-step": _format_float(trace.time_step),
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }
    _write_trace(path, header, parts)


def load_positions(
    path: FsPath | str,
) -> tuple[np.ndarray, np.ndarray, dict[str, str]]:
    """Read sampled positions back as (times, positions[nodes, steps, 2], header).

    The time-step header must be a finite number > 0. Rows must be
    node-major and time-sorted, and sample k of every node must lie at time
    ``k * time-step`` (to the 9 significant digits written).
    """
    with _open_trace(path) as (header, body):
        if header.get("kind") != KIND_POSITIONS:
            raise ConfigurationError(
                f"expected a {KIND_POSITIONS} trace, got {header.get('kind')!r}"
            )
        try:
            time_step = float(header["time-step"])
        except (KeyError, ValueError):
            time_step = math.nan
        if not 0 < time_step < math.inf:
            raise ConfigurationError(
                f"bad time-step header: {header.get('time-step')!r} "
                "(must be a finite number > 0)"
            )
        data, nodes, steps = _load_rows(body, "position", "node,time,x,y", np.float64)
    times = data[:, 1].reshape(nodes, steps)
    if np.any(np.diff(times, axis=1) <= 0):
        raise ConfigurationError("position trace rows must be sorted by time within each node")
    expected = np.arange(steps) * time_step
    off_grid = np.abs(times - expected) > 1e-7 * np.maximum(expected, time_step)
    if off_grid.any():
        node, step = np.argwhere(off_grid)[0]
        raise ConfigurationError(
            f"node {node} sample {step} at time {_format_float(times[node, step])} "
            f"is off the time grid of step {_format_float(time_step)}"
        )
    positions = data[:, 2:].reshape(nodes, steps, 2)
    return times[0], positions, header


def export_ns2(path: FsPath | str, trace: ContinuousTrace) -> None:
    """Write an ns-2 movement script (initial X_/Y_/Z_, then setdest lines).

    Pause legs produce no command — the node simply has no pending
    destination until the next travel leg's start time. All numbers use
    %.6f, matching the classic generator's output.
    """
    out: list[str] = []
    for node, legs in enumerate(trace.legs):
        first = legs[0]
        out.append(f"$node_({node}) set X_ {first.x0:.6f}")
        out.append(f"$node_({node}) set Y_ {first.y0:.6f}")
        out.append(f"$node_({node}) set Z_ 0.000000")
    for node, legs in enumerate(trace.legs):
        for leg in legs:
            if leg.speed == 0.0:
                continue
            out.append(
                f'$ns_ at {leg.start_time:.6f} "$node_({node}) setdest '
                f'{leg.x1:.6f} {leg.y1:.6f} {leg.speed:.6f}"'
            )
    FsPath(path).write_text("\n".join(out) + "\n")


_NUM = r"(-?\d+(?:\.\d+)?)"
_NS2_INITIAL = re.compile(rf"^\$node_\((\d+)\) set ([XYZ])_ {_NUM}$")
_NS2_MOVE = re.compile(rf'^\$ns_ at {_NUM} "\$node_\((\d+)\) setdest {_NUM} {_NUM} {_NUM}"$')


@dataclass(frozen=True)
class Ns2Script:
    """Parsed movement script: initial positions and timed setdest commands."""

    initial: dict[int, tuple[float, float]]
    moves: tuple[tuple[float, int, float, float, float], ...]  # (t, node, x, y, speed)


def parse_ns2(text: str) -> Ns2Script:
    initial: dict[int, dict[str, float]] = {}
    moves: list[tuple[float, int, float, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _NS2_INITIAL.match(line)
        if m:
            node, axis, value = int(m.group(1)), m.group(2), float(m.group(3))
            initial.setdefault(node, {})[axis] = value
            continue
        m = _NS2_MOVE.match(line)
        if m:
            moves.append(
                (
                    float(m.group(1)),
                    int(m.group(2)),
                    float(m.group(3)),
                    float(m.group(4)),
                    float(m.group(5)),
                )
            )
            continue
        raise ConfigurationError(f"unrecognized movement line {lineno}: {raw!r}")
    positions = {
        node: (axes.get("X", 0.0), axes.get("Y", 0.0)) for node, axes in initial.items()
    }
    return Ns2Script(initial=positions, moves=tuple(moves))


def export_csv_report(
    path: FsPath | str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    """Write a CSV report: floats at %.9g, everything else via str()."""
    out = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row!r} does not match columns {columns!r}")
        out.append(
            ",".join(
                _format_float(v) if isinstance(v, float) else str(v) for v in row
            )
        )
    FsPath(path).write_text("\n".join(out) + "\n")
