"""Trace files, movement-script export, and CSV reports.

All writers are deterministic: same inputs, byte-identical output (no
timestamps, fixed float formats). Trace files carry a header of ``#`` lines —
format version, trace kind, seed, the digest of the generating config, and a
digest of the body — followed by a CSV body. Loaders recompute the body
digest and refuse silently corrupted files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from hashlib import sha256
from itertools import repeat
from pathlib import Path as FsPath
from typing import Iterable, Sequence

import numpy as np

from .continuous import ContinuousTrace, Leg
from .errors import ConfigurationError, VerificationError
from .geometry import GridSpec
from .location import JointTrace, LocationTrace

FORMAT_TAG = "rwmm-trace v1"
KIND_LOCATIONS = "grid-locations"
KIND_POSITIONS = "continuous-positions"


def _format_float(value: float) -> str:
    return format(float(value), ".9g")


def _body_digest(body: str) -> str:
    return sha256(body.encode()).hexdigest()


def _render(header: dict[str, str], body: str) -> str:
    lines = [f"# {FORMAT_TAG}"]
    for key, value in header.items():
        lines.append(f"# {key}: {value}")
    lines.append(f"# body: {_body_digest(body)}")
    return "\n".join(lines) + "\n" + body


def _split_trace_text(text: str) -> tuple[dict[str, str], str]:
    lines = text.splitlines(keepends=True)
    if not lines or lines[0].strip() != f"# {FORMAT_TAG}":
        raise ConfigurationError(f"not a trace file (expected '# {FORMAT_TAG}' first)")
    header: dict[str, str] = {}
    body_start = len(lines)
    for i, line in enumerate(lines[1:], start=1):
        if not line.startswith("#"):
            body_start = i
            break
        stripped = line[1:].strip()
        if ":" not in stripped:
            raise ConfigurationError(f"malformed header line {i + 1}: {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split(":", 1))
        header[key] = value
    body = "".join(lines[body_start:])
    expected = header.get("body")
    if expected is None:
        raise ConfigurationError("trace header missing body digest")
    actual = _body_digest(body)
    if actual != expected:
        raise VerificationError(
            f"trace body digest mismatch: header says {expected[:12]}.., "
            f"content is {actual[:12]}.."
        )
    return header, body


def save_locations(
    path: FsPath | str,
    trace: LocationTrace | JointTrace,
    seed: int | None = None,
    config_digest: str | None = None,
) -> None:
    """Write a grid location trace (single node or joint) as node,step,x,y rows."""
    if isinstance(trace, LocationTrace):
        joint = JointTrace(trace.grid, trace.ids[None, :])
    else:
        joint = trace
    grid = joint.grid
    labels = [f"{c % grid.width},{c // grid.width}" for c in range(grid.size)]
    # one string per node: the row strings are freed node by node, which
    # keeps the peak memory of a large trace down
    parts = ["node,step,x,y\n"]
    for node in range(joint.node_count):
        parts.append(
            "".join(
                f"{node},{step},{labels[c]}\n"
                for step, c in enumerate(joint.ids[node].tolist())
            )
        )
    body = "".join(parts)
    header = {
        "kind": KIND_LOCATIONS,
        "grid": f"{grid.width}x{grid.height}",
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }
    FsPath(path).write_text(_render(header, body))


def load_locations(path: FsPath | str) -> tuple[JointTrace, dict[str, str]]:
    """Read a grid location trace; verifies the body digest."""
    header, body = _split_trace_text(FsPath(path).read_text())
    if header.get("kind") != KIND_LOCATIONS:
        raise ConfigurationError(
            f"expected a {KIND_LOCATIONS} trace, got {header.get('kind')!r}"
        )
    match = re.fullmatch(r"(\d+)x(\d+)", header.get("grid", ""))
    if not match:
        raise ConfigurationError(f"bad grid header: {header.get('grid')!r}")
    grid = GridSpec(int(match.group(1)), int(match.group(2)))
    lines = body.splitlines()
    if not lines or lines[0] != "node,step,x,y":
        raise ConfigurationError("location trace body must start with node,step,x,y")
    data = np.loadtxt(lines[1:], delimiter=",", dtype=np.int64, ndmin=2)
    if data.size == 0:
        raise ConfigurationError("empty location trace")
    nodes = int(data[:, 0].max()) + 1
    steps = len(data) // nodes
    if steps * nodes != len(data):
        raise ConfigurationError("ragged location trace: unequal steps per node")
    ids = np.empty((nodes, steps), dtype=np.int64)
    for node in range(nodes):
        chunk = data[data[:, 0] == node]
        order = np.argsort(chunk[:, 1])
        chunk = chunk[order]
        if not np.array_equal(chunk[:, 1], np.arange(steps)):
            raise ConfigurationError(f"node {node} is missing steps")
        for x, y in chunk[:, 2:]:
            if not (0 <= x < grid.width and 0 <= y < grid.height):
                raise ConfigurationError(f"cell ({x}, {y}) outside {grid}")
        ids[node] = chunk[:, 3] * grid.width + chunk[:, 2]
    return JointTrace(grid, ids), header


def save_positions(
    path: FsPath | str,
    trace: ContinuousTrace,
    seed: int | None = None,
    config_digest: str | None = None,
) -> None:
    """Write sampled continuous positions as node,time,x,y rows (%.9g)."""
    times = [_format_float(t) for t in trace.times.tolist()]
    parts = ["node,time,x,y\n"]  # one string per node, as in save_locations
    for node in range(trace.node_count):
        xs, ys = (
            map(format, column, repeat(".9g"))
            for column in trace.positions[node].T.tolist()
        )
        parts.append(
            "".join(f"{node},{t},{x},{y}\n" for t, x, y in zip(times, xs, ys))
        )
    body = "".join(parts)
    header = {
        "kind": KIND_POSITIONS,
        "area": f"{_format_float(trace.area.width)}x{_format_float(trace.area.height)}",
        "time-step": _format_float(trace.time_step),
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }
    FsPath(path).write_text(_render(header, body))


def load_positions(
    path: FsPath | str,
) -> tuple[np.ndarray, np.ndarray, dict[str, str]]:
    """Read sampled positions back as (times, positions[nodes, steps, 2], header).

    Rows must be node-major and time-sorted, and sample k of every node must
    lie at time ``k * time-step`` (to the 9 significant digits written).
    """
    header, body = _split_trace_text(FsPath(path).read_text())
    if header.get("kind") != KIND_POSITIONS:
        raise ConfigurationError(
            f"expected a {KIND_POSITIONS} trace, got {header.get('kind')!r}"
        )
    lines = body.splitlines()
    if not lines or lines[0] != "node,time,x,y":
        raise ConfigurationError("position trace body must start with node,time,x,y")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.size == 0:
        raise ConfigurationError("empty position trace")
    nodes = int(data[:, 0].max()) + 1
    steps = len(data) // nodes
    if steps * nodes != len(data):
        raise ConfigurationError("ragged position trace: unequal steps per node")
    if not np.array_equal(data[:, 0], np.repeat(np.arange(nodes), steps)):
        raise ConfigurationError("position trace rows must be node-major, nodes 0, 1, ... in turn")
    times = data[:, 1].reshape(nodes, steps)
    if np.any(np.diff(times, axis=1) <= 0):
        raise ConfigurationError("position trace rows must be sorted by time within each node")
    try:
        time_step = float(header["time-step"])
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"bad time-step header: {header.get('time-step')!r}"
        ) from None
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


_NS2_INITIAL = re.compile(r"^\$node_\((\d+)\) set ([XYZ])_ (-?[\d.]+)$")
_NS2_MOVE = re.compile(
    r'^\$ns_ at (-?[\d.]+) "\$node_\((\d+)\) setdest (-?[\d.]+) (-?[\d.]+) (-?[\d.]+)"$'
)


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
