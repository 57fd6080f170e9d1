"""Trace files, movement-script export, and CSV reports.

All writers are deterministic: same inputs, byte-identical output (no
timestamps, fixed float formats). Trace files carry a header of ``#`` lines —
format version, trace kind, seed, the digest of the generating config, and a
digest of the body — followed by a CSV body. Loaders recompute the body
digest and refuse silently corrupted files.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from hashlib import sha256
from itertools import chain, count
from pathlib import Path as FsPath
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .continuous import SPEED, START, X0, X1, Y0, Y1, ContinuousTrace
from .errors import ConfigurationError, VerificationError
from .geometry import GridSpec
from .location import JointTrace, LocationTrace

FORMAT_TAG = "rwmm-trace v1"
KIND_LOCATIONS = "grid-locations"
KIND_POSITIONS = "continuous-positions"
# bytes read at a time, to hash a body and to parse location rows: a block's
# parser temporaries take about 10 times its size, which at 256 KiB fit a
# 2 MiB per-core L2 cache and at 1 MiB do not (the parser took 15-23 ms on a
# 4.75 MB trace in 256 KiB blocks against 23-32 ms in 1 MiB ones)
_BLOCK_BYTES = 1 << 18


def _format_float(value: float) -> str:
    return format(float(value), ".9g")


@cache
def _digit_words() -> np.ndarray:
    """The 4-byte words that numbers are spelled with, as one uint32 table.

    The table holds, in turn, each 4-digit group ``0000`` .. ``9999`` in
    full (at 0), with its leading zeros NUL (``_LEAD``), with its
    leading zeros NUL but a lone ``0`` kept (``_LEAD_ZERO``), and with its
    trailing zeros NUL (``_TRAIL``); then ``,`` NUL NUL and one digit, NUL
    for 0 (``_COMMA_DIGIT``); then four NUL and NUL NUL NUL ``.``
    (``_DOT``). The words are built from bytes and only ever copied, never
    computed with, so they spell the same text on any byte order. The
    table is built on first use, so a command that writes no trace never
    builds it, and is read-only, since every caller shares it.
    """
    words = np.zeros((_DOT + 2, 4), np.uint8)
    full, lead, lead_zero, trail = words[:_COMMA_DIGIT].reshape(4, _GROUP, 4)
    # int16 temporaries of 80 KB each: the table costs little memory to build
    group = np.arange(_GROUP, dtype=np.int16)[:, None]
    places = np.array([1000, 100, 10, 1], np.int16)
    full[:] = group // places % 10 + ord("0")
    np.copyto(lead, full, where=group >= places)
    lead_zero[:] = lead
    lead_zero[0, 3] = ord("0")
    np.copyto(trail, full, where=group % (10 * places) != 0)
    comma_digit = words[_COMMA_DIGIT:_DOT]
    comma_digit[:, 0] = ord(",")
    comma_digit[1:, 3] = full[1:10, 3]
    words[_DOT + 1, 3] = ord(".")
    table = words.view(np.uint32).ravel()
    table.flags.writeable = False
    return table


# offsets of the groups of _digit_words()
_GROUP = 10**4
_LEAD, _LEAD_ZERO, _TRAIL = (k * _GROUP for k in (1, 2, 3))
_COMMA_DIGIT = 4 * _GROUP
_DOT = _COMMA_DIGIT + 10
# indexed by e + 5 for e = floor(log10 v) clamped to [-5, 9]: 10**(8 - e) and
# 10**(4 + e) for e in [-4, 8], the exponents a value in [1e-4, 1e9) has
_SCALE = np.array([1.0, *(float(10 ** (8 - e)) for e in range(-4, 9)), 1.0])
_FRACTION_SCALE = np.array([1.0, *(float(10 ** (4 + e)) for e in range(-4, 9)), 1.0])
_NEWLINE_WORD = np.frombuffer(b"\0\0\0\n", np.uint32)
_BLOCK_ROWS = 2**12  # trace rows built at once: their words and temporaries take about 1 MB


def _value_words(values: np.ndarray) -> np.ndarray:
    """Each value as ``,`` and its ``format(v, ".9g")`` text, in 7 NUL-padded words.

    Returns a uint32 array of shape ``(7, *values.shape)``: word ``j`` of
    every value in row ``j``, so that deleting the NUL bytes of the
    value-major words leaves the text. A value v in [1e-4, 1e9) has the
    exponent e = floor(log10 v), and its 9 significant digits are
    N = rint(v * 10**(8 - e)), since 10**(8 - e) is exact and the product
    is off by less than 1.2e-7. The digits are split into a whole part
    of three 4-digit groups, the first of one digit, and a fraction of
    three, looked up in ``_digit_words()`` with the whole part's leading
    zeros and the fraction's trailing zeros NUL, and the ``.`` NUL if the
    fraction is 0. Every other value goes through ``format`` into its 28
    bytes: 0, negatives, values that print in exponent form, non-finite
    values, a product within 1e-6 of a .5 tie (where its error could flip
    the rounding), and an N outside [1e8, 1e9) (where log10 was off by one
    or the rounding carried into a tenth digit).
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # e + 5, with e clamped to [-5, 9]: fmax takes -5 over the nan of a negative
        k = np.fmin(np.fmax(np.floor(np.log10(v)), -5), 9).astype(np.intp) + 5
        scale = _SCALE.take(k)
        exact = v * scale
        n = np.rint(exact)
        fast = np.abs(exact - n) < 0.5 - 1e-6
        fast &= (n >= 1e8) & (n < 1e9)
    n[~fast] = 1e8  # any in-range N: these slots are overwritten below
    # n = whole * scale + part, and the fraction's 12 digits are
    # part * 10**(12 - (8 - e)); every value below is an integer under 2**53,
    # and each quotient of two of them is floored exactly. The index rows are
    # filled in place: built from separate temporaries and np.stack, they
    # raised the continuous benchmark's peak RSS by 1 to 8 MB in 4 of 14 runs.
    whole = n / scale
    np.floor(whole, out=whole)
    fraction = n - whole * scale
    fraction *= _FRACTION_SCALE.take(k)
    index = np.empty((7, v.size))
    _whole_index(whole.astype(np.int64), index)
    np.add(fraction != 0, _DOT, out=index[3])
    first = np.floor(fraction / 1e8)
    rest = fraction - first * 1e8
    second = np.floor(rest / _GROUP)
    third = rest - second * _GROUP
    np.multiply(rest == 0, _TRAIL, out=index[4])
    index[4] += first
    np.multiply(third == 0, _TRAIL, out=index[5])
    index[5] += second
    np.add(third, _TRAIL, out=index[6])
    words = _digit_words().take(index.astype(np.intp))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([f",{value:.9g}" for value in v[slow].tolist()], dtype="S28")
        words[:, slow] = text.view(np.uint32).reshape(-1, 7).T
    return words.reshape(7, *np.shape(values))


def _whole_index(whole: np.ndarray, index: np.ndarray) -> None:
    """Fill ``index[:3]`` with the ``_digit_words()`` offsets of ``,`` and each of ``whole``.

    ``whole`` is an integer array of values in [0, 1e9), whose words both
    ``_value_words`` and ``_stamp_words`` take from here. Row 0 is ``,``
    and the digit above 1e8, NUL if it is 0; rows 1 and 2 are the two
    4-digit groups below it, with the leading zeros of the number NUL and
    a lone ``0`` kept.
    """
    top = whole // 10**8
    np.add(top, _COMMA_DIGIT, out=index[0])
    low = whole - top * 10**8
    middle = low // _GROUP
    np.multiply(top == 0, _LEAD, out=index[1])
    index[1] += middle
    np.multiply(whole < _GROUP, _LEAD_ZERO, out=index[2])
    index[2] += low
    index[2] -= middle * _GROUP


def _stamp_words(stamps: np.ndarray) -> np.ndarray:
    """The rows of words that spell ``stamps``, less any row that is NUL in every stamp.

    Integer stamps, which must lie in [0, 1e9), are spelled by the three
    whole-part rows of ``_whole_index`` alone, as ``str`` spells them,
    with no log10, scaling, rounding or fraction pass; float stamps go
    through ``_value_words``.
    """
    if stamps.dtype.kind != "i":
        return _nonblank(_value_words(stamps))
    index = np.empty((3, stamps.size), np.intp)
    _whole_index(stamps, index)
    return _nonblank(_digit_words().take(index))


def _nonblank(words: np.ndarray) -> np.ndarray:
    """The rows of ``_value_words`` output that hold a byte other than NUL in some value."""
    return words[words.reshape(len(words), -1).any(axis=1)]


def _text_words(texts: list[str]) -> np.ndarray:
    """Each ASCII text as one row of NUL-padded uint32 words, as many as the longest takes."""
    size = -(-max(map(len, texts)) // 4) * 4
    return np.array(texts, f"S{size}").view(np.uint32).reshape(len(texts), -1)


def _node_major_rows(
    stamps: np.ndarray | range, nodes: int, values: Callable[[slice, slice], Sequence[np.ndarray]]
) -> Iterator[bytes]:
    """Every node's rows, node-major, as parts of a trace body in body order.

    The rows are built as uint32 words, a block at a time: every step of
    ``_BLOCK_ROWS`` // steps whole nodes if a node's steps fit in a block,
    and else ``_BLOCK_ROWS`` steps of one node. A row is the node's id, the
    words ``_stamp_words`` spells the step's stamp in, and the word columns
    ``values(nodes, steps)`` gives for the block's nodes and steps, each
    broadcast to ``(nodes, steps, words)``; the last column ends the row
    with its newline. The stamps, an array or a ``range`` of integers,
    are spelled once per run of ``_BLOCK_ROWS`` steps: each run as its
    block is built when one group of nodes holds every node, and else all
    up front from one array, kept for every group. The words are padded
    with NUL bytes, which one ``bytes.translate`` a block deletes. The
    words are built from bytes and only copied, so the text is the same on
    any byte order.
    """
    steps = len(stamps)
    block_steps = min(steps, _BLOCK_ROWS)  # the steps a block holds
    runs = range(0, steps, block_steps)
    group = _BLOCK_ROWS // block_steps  # the nodes a block holds

    def array(part: np.ndarray | range) -> np.ndarray:
        return np.arange(part.start, part.stop) if isinstance(part, range) else part

    if nodes <= group:
        spelled = (_stamp_words(array(stamps[lo : lo + block_steps])).T for lo in runs)
    else:
        # from one array: per-run aranges here left the walk-exact benchmark's
        # peak RSS 1.1 MB higher, through the allocator's history
        whole = array(stamps)
        spelled = [_stamp_words(whole[lo : lo + block_steps]).T for lo in runs]
    # numpy casts an integer to bytes as str spells it, with no str per node
    size = -(-len(str(nodes - 1)) // 4) * 4
    heads = np.arange(nodes).astype(f"S{size}").view(np.uint32).reshape(nodes, 1, -1)
    for first in range(0, nodes, group):
        members = slice(first, first + group)
        head = heads[members]
        for lo, stamp in zip(runs, spelled):
            columns = (head, stamp, *values(members, slice(lo, lo + block_steps)))
            shape = (len(head), len(stamp), sum(c.shape[-1] for c in columns))
            rows = np.empty(shape, np.uint32)
            at = 0
            for column in columns:
                rows[..., at : at + column.shape[-1]] = column
                at += column.shape[-1]
            yield rows.tobytes().translate(None, b"\0")


def _write_trace(
    path: FsPath | str, header: dict[str, str], columns: str, body: Iterable[bytes]
) -> None:
    """Write the ``#`` header, ending with the body's digest, then the body.

    The body is the ``columns`` line, then the parts of ``body`` in turn,
    each hashed and written as it arrives, so no more of the body than one
    part is held. The header goes first with 64 zeros for the digest and is
    rewritten in place once the body is written: a hex sha256 always has
    64 digits, so the header keeps its length. A write stopped partway
    leaves the zeros, which the loaders refuse as a digest mismatch. A path
    that cannot seek, such as a pipe, is refused with
    :class:`ConfigurationError` before a byte is written.
    """
    lines = [f"# {FORMAT_TAG}", *(f"# {key}: {value}" for key, value in header.items())]
    head = "".join(f"{line}\n" for line in lines) + "# body: "
    digest = sha256()
    with FsPath(path).open("wb") as out:
        if not out.seekable():
            raise ConfigurationError(
                f"cannot write a trace to {path}: it cannot seek, and the body digest "
                "in the header is written after the body"
            )
        out.write(f"{head}{'0' * 64}\n".encode())
        for part in chain([f"{columns}\n".encode()], body):
            digest.update(part)
            out.write(part)
        out.seek(0)
        out.write(f"{head}{digest.hexdigest()}\n".encode())


@contextmanager
def _open_trace(path: FsPath | str, kind: str) -> Iterator[tuple[dict[str, str], BinaryIO]]:
    """Open a trace file of ``kind``; yield its header and the file positioned at the body.

    The file is read in binary mode, so the digest covers the body's bytes as
    stored. A header key may appear once. The body digest, then the kind, is
    checked before anything is yielded. The body is read in chunks, so no
    copy of the whole file is held.
    """
    with FsPath(path).open("rb") as fh:
        if fh.readline().strip() != f"# {FORMAT_TAG}".encode():
            raise ConfigurationError(f"not a trace file (expected '# {FORMAT_TAG}' first)")
        header: dict[str, str] = {}
        for lineno in count(2):
            body_start = fh.tell()
            line = fh.readline()
            if not line.startswith(b"#"):
                break
            try:
                stripped = line[1:].decode().strip()
            except UnicodeDecodeError:
                stripped = ""
            if ":" not in stripped:
                raise ConfigurationError(f"malformed header line {lineno}: {line.strip()!r}")
            key, value = (part.strip() for part in stripped.split(":", 1))
            if key in header:
                raise ConfigurationError(f"duplicate header key {key!r} on line {lineno}")
            header[key] = value
        expected = header.get("body")
        if expected is None:
            raise ConfigurationError("trace header missing body digest")
        fh.seek(body_start)
        digest = sha256()
        for chunk in iter(partial(fh.read, _BLOCK_BYTES), b""):
            digest.update(chunk)
        actual = digest.hexdigest()
        if actual != expected:
            raise VerificationError(
                f"trace body digest mismatch: header says {expected[:12]}.., "
                f"content is {actual[:12]}.."
            )
        if header.get("kind") != kind:
            raise ConfigurationError(f"expected a {kind} trace, got {header.get('kind')!r}")
        fh.seek(body_start)
        yield header, fh


def _start_body(body: BinaryIO, kind: str, columns: str) -> None:
    """Read the body's ``columns`` line and check that a row follows it.

    ``#`` lines are not comments in a body, so any line but a row there is
    a malformed row.
    """
    if body.readline().rstrip(b"\n") != columns.encode():
        raise ConfigurationError(f"{kind} trace body must start with {columns}")
    start = body.tell()
    if body.readline() in (b"", b"\n"):
        raise ConfigurationError(f"empty {kind} trace: no row after the {columns} line")
    body.seek(start)


def _node_layout(node: np.ndarray, kind: str) -> tuple[int, int]:
    """Check a body's node column; returns ``(nodes, steps)``.

    Node ids are never negative, and rows come node-major, nodes 0, 1, ...
    in turn, the same number of rows per node.
    """
    if node.min() < 0:
        raise ConfigurationError(f"negative node id {node.min():g}")
    nodes = int(node.max()) + 1
    steps = len(node) // nodes
    if steps * nodes != len(node):
        raise ConfigurationError(f"ragged {kind} trace: unequal steps per node")
    if not (node.reshape(nodes, steps) == np.arange(nodes)[:, None]).all():
        raise ConfigurationError(f"{kind} trace rows must be node-major, nodes 0, 1, ... in turn")
    return nodes, steps


# byte - ord("0") as uint8: a digit reads 0 .. 9, and every other byte wraps above 9
_COMMA, _NEWLINE = ((ord(c) - ord("0")) % 256 for c in ",\n")
_ROW_MARKS = np.array([_COMMA, _COMMA, _COMMA, _NEWLINE], dtype=np.uint8)
# one row per digit place: a (1,) array, not a scalar, keeps the product
# of uint8 digits and a place value int32 under any numpy casting rules
_PLACE_VALUES = 10 ** np.arange(9, dtype=np.int32).reshape(9, 1)


def _parse_location_rows(block: bytes, first_row: int) -> np.ndarray:
    """The ``(4, rows)`` int32 values of ``block``, whole rows ending in a newline.

    A row is four fields ``[0-9]{1,9}``, comma-separated, ending in
    ``\\n``. The bytes are parsed by whole-array passes: one finds every
    non-digit byte, whose kinds, gathered by ``take``, must repeat
    ``,,,\\n`` row after row; the field lengths are the gaps between them;
    and each column is summed with one gather per digit place, its field
    ends and lengths read from the ``(rows, 4)`` views of both, not copied.
    ``first_row`` is the number of rows before the block, for error messages.
    """
    codes = np.frombuffer(block, np.uint8) - np.uint8(ord("0"))
    marks = np.flatnonzero(codes > 9).astype(np.int32)
    kinds = codes.take(marks)
    lengths = np.empty_like(marks)
    lengths[0] = marks[0]
    np.subtract(marks[1:], marks[:-1], out=lengths[1:])
    lengths[1:] -= 1
    rows, extra = divmod(marks.size, 4)
    if (
        extra
        or not (kinds.view(np.uint32) == _ROW_MARKS.view(np.uint32)).all()
        or lengths.min() < 1
        or lengths.max() > 9
    ):
        raise _malformed_row(block, first_row, marks, kinds, lengths)
    values = np.empty((4, rows), dtype=np.int32)
    ends, widths = marks.reshape(rows, 4), lengths.reshape(rows, 4)
    for k, column in enumerate(values):
        end, length = ends[:, k] - 1, widths[:, k]
        column[:] = codes.take(end)
        shortest = length.min()
        for place in range(1, length.max()):
            end -= 1
            digits = codes.take(end, mode="clip")  # clip: the block's first field
            if place >= shortest:  # some fields have no digit at this place
                digits = np.where(length > place, digits, np.uint8(0))
            column += digits * _PLACE_VALUES[place]
    return values


def _malformed_row(
    block: bytes, first_row: int, marks: np.ndarray, kinds: np.ndarray, lengths: np.ndarray
) -> ConfigurationError:
    """The error naming the first row of ``block`` that breaks the row grammar.

    ``marks`` are the separators' offsets, ``kinds`` their bytes less
    ``ord("0")`` and ``lengths`` the field lengths they end.
    """
    pattern = np.resize(_ROW_MARKS, kinds.size)
    at = marks[(kinds != pattern) | (lengths < 1) | (lengths > 9)].min()
    start = block.rfind(b"\n", 0, at) + 1
    row = first_row + block.count(b"\n", 0, start) + 1
    line = block[start : block.index(b"\n", at)]
    if row == 1 and line.count(b",") != 3:
        return ConfigurationError("location trace rows must have 4 columns: node,step,x,y")
    return ConfigurationError(f"malformed location trace row {row}: {line!r}")


def _read_location_rows(body: BinaryIO) -> np.ndarray:
    """The ``(4, rows)`` int32 values of a location body's rows, read in blocks.

    Each block of about ``_BLOCK_BYTES`` is cut at its last newline; the
    rest starts the next block. Every row, the last included, must end in
    a newline.
    """
    # every row holds at least 8 bytes, so the body's size bounds the row
    # count; the pages past the rows read are never touched
    values = np.empty((4, (os.fstat(body.fileno()).st_size - body.tell()) // 8), np.int32)
    rows, rest = 0, b""
    for chunk in iter(partial(body.read, _BLOCK_BYTES), b""):
        block = rest + chunk
        cut = block.rfind(b"\n") + 1
        rest = block[cut:]
        if not cut:
            break
        parsed = _parse_location_rows(block[:cut], rows)
        values[:, rows : rows + parsed.shape[1]] = parsed
        rows += parsed.shape[1]
    if rest:
        raise ConfigurationError(
            f"malformed location trace row {rows + 1}: {rest[:40]!r} does not end in a newline"
        )
    return values[:, :rows]


def save_locations(
    path: FsPath | str,
    trace: LocationTrace | JointTrace,
    seed: int | None = None,
    config_digest: str | None = None,
) -> None:
    """Write a grid location trace (single node or joint) as node,step,x,y rows.

    The rows come from ``_node_major_rows``, stamped with the steps, and
    their value columns are each sample's cell as ``,x`` and ``,y`` with the
    row's newline: gathers, through ``GridSpec.xy``, from two tables of
    NUL-padded words, one row per grid column and one per grid row, so the
    tables grow with the grid's sides, not with its cells or the trace. A
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
    ids = joint.ids
    x_labels = _text_words([f",{x}" for x in range(grid.width)])
    y_labels = _text_words([f",{y}\n" for y in range(grid.height)])
    header = {
        "kind": KIND_LOCATIONS,
        "grid": f"{grid.width}x{grid.height}",
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }

    def cells(members: slice, block: slice) -> list[np.ndarray]:
        x, y = grid.xy(ids[members, block])
        return [x_labels.take(x, axis=0), y_labels.take(y, axis=0)]

    rows = _node_major_rows(range(len(joint)), joint.node_count, cells)
    _write_trace(path, header, "node,step,x,y", rows)


def load_locations(path: FsPath | str) -> tuple[JointTrace, dict[str, str]]:
    """Read a grid location trace; verifies the body digest.

    Rows must be node-major, and each node's rows must read steps
    0 .. steps-1 in turn, the layout ``save_locations`` writes. Every cell
    must lie in the grid; of several cells outside it, the first in file
    order is named, which is the lowest faulty node's first bad step.
    """
    with _open_trace(path, KIND_LOCATIONS) as (header, body):
        match = re.fullmatch(r"(\d+)x(\d+)", header.get("grid", ""))
        if not match:
            raise ConfigurationError(f"bad grid header: {header.get('grid')!r}")
        grid = GridSpec(int(match.group(1)), int(match.group(2)))
        _start_body(body, "location", "node,step,x,y")
        node, step, x, y = _read_location_rows(body)
    nodes, steps = _node_layout(node, "location")
    misplaced = (step.reshape(nodes, steps) != np.arange(steps)).any(axis=1)
    if misplaced.any():
        raise ConfigurationError(
            f"node {np.argmax(misplaced)} is missing steps or holds them out of order "
            f"(its rows must read steps 0 .. {steps - 1} in turn)"
        )
    outside = (x >= grid.width) | (y >= grid.height)  # the parser reads digits only
    if outside.any():
        row = np.argmax(outside)
        raise ConfigurationError(f"cell ({x[row]}, {y[row]}) outside {grid}")
    ids = grid.ids(x, y)  # int64, as in every trace
    return JointTrace(grid, ids.reshape(nodes, steps)), header


def save_positions(
    path: FsPath | str,
    trace: ContinuousTrace,
    seed: int | None = None,
    config_digest: str | None = None,
) -> None:
    """Write sampled continuous positions as node,time,x,y rows (%.9g).

    Every number is written as ``format(value, ".9g")`` spells it; the
    times are the trace's ``k * time_step``. The rows come from
    ``_node_major_rows``, stamped with the times, and their value columns
    are the words ``_value_words`` spells x and y in, a word that is NUL in
    every value of the block left out, and the row's newline. A trace with no samples, with a time
    step that is not finite and positive, or with a non-finite time or
    position, is refused with ``ValueError`` before the file is opened,
    since the loader could not read it back. The positions are sampled
    from the legs only once the time step and the times have passed.
    """
    if not trace.node_count * trace.step_count:
        raise ValueError("cannot write an empty position trace")
    if not 0 < trace.time_step < math.inf:
        raise ValueError(f"time step must be finite and > 0, got {trace.time_step}")
    times = trace.times
    if not (np.isfinite(times).all() and np.isfinite(trace.positions).all()):
        raise ValueError("cannot write non-finite times or positions")
    header = {
        "kind": KIND_POSITIONS,
        "area": f"{_format_float(trace.area.width)}x{_format_float(trace.area.height)}",
        "time-step": _format_float(trace.time_step),
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }

    def xy(members: slice, block: slice) -> list[np.ndarray]:
        words = _value_words(trace.positions[members, block])
        x, y = (np.moveaxis(_nonblank(words[..., axis]), 0, -1) for axis in (0, 1))
        return [x, y, _NEWLINE_WORD]

    rows = _node_major_rows(times, trace.node_count, xy)
    _write_trace(path, header, "node,time,x,y", rows)


def load_positions(
    path: FsPath | str,
) -> tuple[np.ndarray, np.ndarray, dict[str, str]]:
    """Read sampled positions back as (times, positions[nodes, steps, 2], header).

    The time-step header must be a finite number > 0. Rows must be
    node-major and time-sorted, and sample k of every node must lie at time
    ``k * time-step`` (to the 9 significant digits written).
    """
    with _open_trace(path, KIND_POSITIONS) as (header, body):
        try:
            time_step = float(header["time-step"])
        except (KeyError, ValueError):
            time_step = math.nan
        if not 0 < time_step < math.inf:
            raise ConfigurationError(
                f"bad time-step header: {header.get('time-step')!r} "
                "(must be a finite number > 0)"
            )
        _start_body(body, "position", "node,time,x,y")
        try:
            data = np.loadtxt(body, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        except ValueError as exc:
            raise ConfigurationError(f"malformed position trace row: {exc}") from None
    if data.shape[1] != 4:
        raise ConfigurationError("position trace rows must have 4 columns: node,time,x,y")
    if not np.isfinite(data).all():
        raise ConfigurationError("non-finite value in position trace")
    nodes, steps = _node_layout(data[:, 0], "position")
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
        out.append(f"$node_({node}) set X_ {legs[0, X0]:.6f}")
        out.append(f"$node_({node}) set Y_ {legs[0, Y0]:.6f}")
        out.append(f"$node_({node}) set Z_ 0.000000")
    for node, legs in enumerate(trace.legs):
        moves = legs[legs[:, SPEED] != 0.0][:, [START, X1, Y1, SPEED]]
        out.extend(
            f'$ns_ at {start:.6f} "$node_({node}) setdest {x:.6f} {y:.6f} {speed:.6f}"'
            for start, x, y, speed in moves.tolist()
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
            moves.append((float(m.group(1)), int(m.group(2)), *map(float, m.group(3, 4, 5))))
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
