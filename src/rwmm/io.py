"""Trace files, movement-script export, and CSV reports.

All writers are deterministic: same inputs, byte-identical output (no
timestamps, fixed float formats). Trace files carry a header of ``#`` lines —
format version, trace kind, seed, the digest of the generating config, and a
digest of the body — followed by a CSV body. Loaders recompute the body
digest and refuse silently corrupted files. Trace bodies and the ns-2
movement script are spelled from one table of 4-byte digit words, a block
of rows at a time, and written as each block is built; the script, which
has no digest, is never sought, so it may go to a pipe. A trace number's
comma and dot share words with its digits, so a position row of the
continuous benchmark takes 10.7 words on average for its 29.4 bytes, and
a location row from step 10^4 on takes 5.
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
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

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
    full (at 0), with its leading zeros NUL (``_LEAD``), with its leading
    zeros NUL but a lone ``0`` kept (``_LEAD_ZERO``), and with its trailing
    zeros NUL (``_TRAIL``); then ``,`` glued to each 3-digit group ``0`` ..
    ``999`` with its leading zeros NUL, 0 spelled ``,`` alone
    (``_COMMA_LEAD``) or ``,0`` (``_COMMA_LEAD_ZERO``); then ``.`` glued
    to each 3-digit group in full (``_DOT_FULL``) and with its trailing
    zeros NUL, 0 spelled four NUL (``_DOT_TRAIL``); then NUL, ``.`` and
    each 2-digit group ``00`` .. ``99`` (``_DOT_PAIR``). A word of four
    NUL, such as ``_BLANK``, spells nothing. The words are built from bytes
    and only ever copied, never computed with, so they spell the same text
    on any byte order. The table is built on first use, so a command that
    writes no trace never builds it, and is read-only, since every caller
    shares it.
    """
    words = np.zeros((_DOT_PAIR + 100, 4), np.uint8)
    full, lead, lead_zero, trail = words[:_COMMA_LEAD].reshape(4, _GROUP, 4)
    # int16 temporaries of 80 KB each: the table costs little memory to build
    group = np.arange(_GROUP, dtype=np.int16)[:, None]
    places = np.array([1000, 100, 10, 1], np.int16)
    full[:] = group // places % 10 + ord("0")
    np.copyto(lead, full, where=group >= places)
    lead_zero[:] = lead
    lead_zero[0, 3] = ord("0")
    np.copyto(trail, full, where=group % (10 * places) != 0)
    comma_lead, comma_lead_zero, dot_full, dot_trail = words[_COMMA_LEAD:_DOT_PAIR].reshape(
        4, 1000, 4
    )
    comma_lead[:] = lead[:1000]
    comma_lead_zero[:] = lead_zero[:1000]
    comma_lead[:, 0] = comma_lead_zero[:, 0] = ord(",")
    dot_full[:, 0] = ord(".")
    dot_full[:, 1:] = full[:1000, 1:]
    dot_trail[1:, 0] = ord(".")
    dot_trail[:, 1:] = trail[::10, :3]
    dot_pair = words[_DOT_PAIR:]
    dot_pair[:, 1] = ord(".")
    dot_pair[:, 2:] = full[:100, 2:]
    table = words.view(np.uint32).ravel()
    table.flags.writeable = False
    return table


# offsets of the groups of _digit_words()
_GROUP = 10**4
_LEAD, _LEAD_ZERO, _TRAIL = (k * _GROUP for k in (1, 2, 3))
_COMMA_LEAD = 4 * _GROUP
_COMMA_LEAD_ZERO, _DOT_FULL, _DOT_TRAIL, _DOT_PAIR = (_COMMA_LEAD + k * 1000 for k in (1, 2, 3, 4))
_BLANK = _TRAIL
# the offsets the three words of a whole part below 1e9 add to its groups,
# one row a word and one column a class: below 1000, below 1e7, and above
_WHOLE_OFFSETS = np.array(
    [[_BLANK, _BLANK, _COMMA_LEAD], [_BLANK, _COMMA_LEAD, 0], [_COMMA_LEAD_ZERO, 0, 0]]
)
# the offset of each word of _value_index where it spells nothing; the third
# word spells the last digit of the whole part
_VALUE_BLANKS = np.array([_BLANK, _BLANK, -1, _DOT_TRAIL, _BLANK, _BLANK, _BLANK])[:, None, None]
# indexed by e + 5 for e = floor(log10 v) clamped to [-5, 9]: 10**(8 - e) and
# 10**(4 + e) for e in [-4, 8], the exponents a value in [1e-4, 1e9) has
_SCALE = np.array([1.0, *(float(10 ** (8 - e)) for e in range(-4, 9)), 1.0])
_FRACTION_SCALE = np.array([1.0, *(float(10 ** (4 + e)) for e in range(-4, 9)), 1.0])
_NEWLINE_WORD = np.frombuffer(b"\0\0\0\n", np.uint32)
# the fixed words of an ns-2 setdest line
_NS_AT = np.frombuffer(b"$ns_ at ", np.uint32)
_SPACE_WORD = np.frombuffer(b"\0\0\0 ", np.uint32)
_QUOTE_NEWLINE = np.frombuffer(b'\0\0"\n', np.uint32)
# trace rows or ns-2 setdest lines built at once: their words and temporaries
# take about 1 MB for trace rows and 2.6 MB for setdest lines
_BLOCK_ROWS = 2**12


def _value_index(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_digit_words()`` offsets of ``,`` and each value's ``format(v, ".9g")`` text.

    Returns an int64 array of shape ``(7, values.size)``, word ``j`` of
    every value in row ``j``, and the flat positions of the values whose
    text the words do not spell, which go through ``_format_float``. A
    value v in [1e-4, 1e9) has the exponent e = floor(log10 v), and its 9
    significant digits are N = rint(v * 10**(8 - e)), since 10**(8 - e)
    is exact. N is taken only where the float product lies less than 0.5
    from it. This strict test is exact: every product with N in [1e8, 1e9)
    is below 2**52, where each k + 1/2 is a float, and round-to-nearest is
    monotone, so it cannot carry the exact product across k + 1/2; a
    product that lands on k + 1/2 goes to ``format``. N splits into a
    whole part below 1e9 and a fraction of 12 digits, each cast once to
    int64, and every offset is computed from them in int64: the whole part
    takes the three words of ``_whole_index``, and the fraction ``.`` and
    its first three digits, then four, four and one, its trailing zeros
    NUL, and the ``.`` NUL too if the fraction is 0. Every other value,
    whose words are the ``_whole_index`` words of 0, goes through
    ``format``: 0, negatives, values that print in exponent form,
    non-finite values, ties, and an N outside [1e8, 1e9) (where log10 was
    off by one or the rounding carried into a tenth digit).
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # e + 5, with e clamped to [-5, 9]: fmax takes 0 over the nan of a
        # negative, and the cast truncates a number that is not negative
        k = np.log10(v)
        k += 5
        np.fmax(k, 0, out=k)
        np.fmin(k, 14, out=k)
        k = k.astype(np.intp)
        scale = _SCALE.take(k)
        exact = v * scale
        n = np.rint(exact)
        fast = np.abs(exact - n) < 0.5
        fast &= (n >= 1e8) & (n < 1e9)
    slow = np.flatnonzero(~fast)
    n[slow] = 0
    # n = whole * scale + part, and the fraction's 12 digits are
    # part * 10**(12 - (8 - e)): every value here is an integer below
    # 2**53, and each quotient of two of them is floored exactly
    parts = np.empty((2, v.size))
    whole, fraction = parts
    np.divide(n, scale, out=whole)
    np.floor(whole, out=whole)
    np.multiply(whole, scale, out=fraction)
    np.subtract(n, fraction, out=fraction)
    fraction *= _FRACTION_SCALE.take(k)
    whole, fraction = parts.astype(np.int64)
    index = np.empty((7, v.size), np.int64)
    _whole_index(whole, index)
    # the fraction's digits 1-3, 4-7, 8-11 and 12, and what follows each
    first = fraction // 10**9
    fraction -= first * 10**9
    second = fraction // 10**5
    rest = fraction - second * 10**5
    third = rest // 10
    last = rest - third * 10
    np.multiply(fraction == 0, _DOT_TRAIL - _DOT_FULL, out=index[3])
    index[3] += first
    index[3] += _DOT_FULL
    np.multiply(rest == 0, _TRAIL, out=index[4])
    index[4] += second
    np.multiply(last == 0, _TRAIL, out=index[5])
    index[5] += third
    np.multiply(last, 1000, out=index[6])
    index[6] += _TRAIL
    return index, slow


def _whole_index(whole: np.ndarray, index: np.ndarray) -> int:
    """Fill ``index[:3]`` with the ``_digit_words()`` offsets of ``,`` and each of ``whole``.

    ``whole`` is an int64 array of values in [0, 1e9), whose words both
    ``_value_index`` and ``_stamp_words`` take from here. The comma is
    glued to the leading digit group when it has room: a number below 1000
    is one word, ``,`` and its digits; below 1e7 it is ``,`` and the 0 to
    3 digits above the last four, then those four; from 1e7 on it is ``,``
    and the digit above 1e8, NUL if it is 0, then two 4-digit groups. The
    words a number does not need are NUL. Returns how many of the first
    words are NUL in every number: 2 where all are below 1000, 1 where all
    are below 1e7, and else 0.
    """
    largest = whole.max(initial=0)
    if largest < 1000:
        index[:2] = _BLANK
        np.add(whole, _COMMA_LEAD_ZERO, out=index[2])
        return 2
    top = whole // 10**8
    high = whole // _GROUP
    kind = np.add(whole >= 1000, whole >= 10**7, dtype=np.intp)
    _WHOLE_OFFSETS.take(kind, axis=1, out=index[:3], mode="clip")
    index[0] += top
    index[1] += high
    index[1] -= top * _GROUP
    index[2] += whole
    index[2] -= high * _GROUP
    return 1 if largest < 10**7 else 0


def _value_columns(values: np.ndarray) -> list[np.ndarray]:
    """The word columns that spell ``values``, shape ``(nodes, steps, columns)``.

    Returns one ``(nodes, steps, words)`` uint32 array a column: each value
    as ``,`` and its ``format(v, ".9g")`` text in NUL-padded words, so that
    deleting the NUL bytes of a value's words leaves the text. The words
    are those of ``_value_index``, less each word that is NUL in every
    value of the column: a word whose offset is its NUL one in every value
    is never gathered. A value that ``_value_index`` does not spell has
    ``,`` and its ``_format_float`` text in its slot, and its column keeps
    as many words as the longest such text takes.
    """
    columns = np.moveaxis(values, -1, 0)  # each column's values side by side
    index, slow = _value_index(columns)
    count, size = len(columns), columns[0].size
    index = index.reshape(7, count, size)
    kept = (index != _VALUE_BLANKS).any(axis=2)
    spelled = []
    for c, column in enumerate(columns):
        own = slow[slow // size == c] - c * size
        keep = kept[:, c]
        if own.size:
            texts = [f",{_format_float(value)}" for value in column.ravel()[own].tolist()]
            spare = -(-max(map(len, texts)) // 4) - keep.sum()  # words beyond those kept
            keep = keep.copy()
            keep[np.flatnonzero(~keep)[: max(spare, 0)]] = True
        words = _digit_words().take(index[keep, c])
        if own.size:
            slots = np.array(texts, f"S{4 * len(words)}").view(np.uint32)
            words[:, own] = slots.reshape(own.size, -1).T
        spelled.append(words.reshape(-1, *column.shape).transpose(1, 2, 0))
    return spelled


def _fixed_words(values: np.ndarray) -> np.ndarray:
    """Each value's ``format(v, ".6f")`` text as NUL-padded words, shape ``(*values.shape, w)``.

    A value v whose sign bit is clear, and whose n = rint(v * 10**6) is
    below 10**14, is spelled from ``_digit_words()`` in 4 words: the whole
    part's two 4-digit groups, its leading zeros NUL and a lone ``0``
    kept, then ``.`` and the first two fraction digits, then the last
    four. n is taken only where the float product lies less than 0.5 from
    it. This strict test is exact: every such product is below 2**52,
    where each k + 1/2 is a float, and round-to-nearest is monotone, so it
    cannot carry the exact product across k + 1/2; a product that lands
    on k + 1/2 goes to ``format``. Every other value goes through
    ``format``: −0.0 and negatives, n of 10**14 and above, non-finite
    values and ties; the slots are then ``w`` words wide, as wide as the
    longest such text, and else ``w`` is 4.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = v * 1e6
        n = np.rint(scaled)
        fast = np.abs(scaled - n) < 0.5
        fast &= n < 1e14
    fast &= ~np.signbit(v)
    n[~fast] = 0  # any n in range: these slots are overwritten below
    parts = np.empty((2, v.size))
    whole, fraction = parts
    np.divide(n, 1e6, out=whole)
    np.floor(whole, out=whole)
    np.multiply(whole, 1e6, out=fraction)
    np.subtract(n, fraction, out=fraction)
    whole, fraction = parts.astype(np.int64)
    high, low = whole // _GROUP, fraction // _GROUP
    index = np.empty((v.size, 4), np.int64)  # a value's 4 offsets side by side
    np.add(high, _LEAD, out=index[:, 0])
    np.multiply(whole < _GROUP, _LEAD_ZERO, out=index[:, 1])
    index[:, 1] += whole
    index[:, 1] -= high * _GROUP
    np.add(low, _DOT_PAIR, out=index[:, 2])
    np.subtract(fraction, low * _GROUP, out=index[:, 3])
    words = _digit_words().take(index)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [format(value, ".6f") for value in v[slow].tolist()]
        slot = max(4, -(-max(map(len, texts)) // 4))  # words
        words = np.pad(words, [(0, 0), (0, slot - 4)])
        words[slow] = np.array(texts, f"S{4 * slot}").view(np.uint32).reshape(slow.size, slot)
    return words.reshape(*np.shape(values), -1)


def _stamp_words(stamps: np.ndarray) -> np.ndarray:
    """The rows of words that spell ``stamps``, less any row that is NUL in every stamp.

    Integer stamps, which must lie in [0, 1e9), are spelled by the
    whole-part words of ``_whole_index`` alone, as ``str`` spells them,
    with no log10, scaling, rounding or fraction pass; float stamps go
    through ``_value_columns``.
    """
    if stamps.dtype.kind != "i":
        return _value_columns(stamps[None, :, None])[0][0].T
    index = np.empty((3, stamps.size), np.int64)
    blank = _whole_index(stamps, index)
    return _digit_words().take(index[blank:])


def _text_words(texts: list[str]) -> np.ndarray:
    """Each ASCII text as one row of NUL-padded uint32 words, as many as the longest takes."""
    size = -(-max(map(len, texts)) // 4) * 4
    return np.array(texts, f"S{size}").view(np.uint32).reshape(len(texts), -1)


def _node_major_rows(
    stamps: np.ndarray | range, nodes: int, values: Callable[[slice], np.ndarray],
    spell: Callable[[np.ndarray], list[np.ndarray]],
) -> Iterator[bytes]:
    """Every node's rows, node-major, as parts of a trace body in body order.

    The rows are built as uint32 words, a block at a time: every step of
    ``_BLOCK_ROWS`` // steps whole nodes if a node's steps fit in a block,
    and else ``_BLOCK_ROWS`` steps of one node. ``values(nodes)`` gives the
    values of that group of nodes once, a row a node. A row is the node's
    id, the words ``_stamp_words`` spells the step's stamp in, and the word
    columns ``spell(block)`` gives for the block's values, each broadcast
    to ``(nodes, steps, words)``; the last column ends the row with its
    newline. The stamps, an array or a ``range`` of integers, are spelled
    once per run of ``_BLOCK_ROWS`` steps: each run as its block is built
    when one group holds every node, and else all up front from one array,
    kept for every group. ``_joined_rows`` lays the columns side by side
    and deletes their NUL padding, once a block. The words are built from
    bytes and only copied, so the text is the same on any byte order.
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
        head, own = heads[members], values(members)
        for lo, stamp in zip(runs, spelled):
            yield _joined_rows([head, stamp, *spell(own[:, lo : lo + block_steps])])
        del own  # else the next group's values are made while these are held


def _joined_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The text of rows whose words are ``columns`` side by side, NUL bytes deleted.

    Each column holds its words on its last axis, and its other axes
    broadcast to the rows' shape, so a column of one row of words is the
    same in every row.
    """
    shape = np.broadcast_shapes(*(column.shape[:-1] for column in columns))
    rows = np.empty((*shape, sum(column.shape[-1] for column in columns)), np.uint32)
    at = 0
    for column in columns:
        rows[..., at : at + column.shape[-1]] = column
        at += column.shape[-1]
    return rows.tobytes().translate(None, b"\0")


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
# the longest row: four 9-digit fields, three commas and the newline
_MAX_ROW_BYTES = 4 * 9 + 3 + 1
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
    rest starts the next block, and a block with no newline is carried on
    whole. Every row, the last included, must end in a newline, and a rest
    of ``_MAX_ROW_BYTES`` or more with no newline is refused at once as a
    malformed row, so no rest is carried and copied without bound.
    """
    # every row holds at least 8 bytes, so the body's size bounds the row
    # count; the pages past the rows read are never touched
    values = np.empty((4, (os.fstat(body.fileno()).st_size - body.tell()) // 8), np.int32)
    rows, rest = 0, b""
    for chunk in iter(partial(body.read, _BLOCK_BYTES), b""):
        block = rest + chunk
        cut = block.rfind(b"\n") + 1
        rest = block[cut:]
        if cut:
            parsed = _parse_location_rows(block[:cut], rows)
            values[:, rows : rows + parsed.shape[1]] = parsed
            rows += parsed.shape[1]
        if len(rest) >= _MAX_ROW_BYTES:
            raise ConfigurationError(
                f"malformed location trace row {rows + 1}: {rest[:_MAX_ROW_BYTES]!r}.. is "
                f"longer than a row can be ({_MAX_ROW_BYTES} bytes with its newline)"
            )
    if rest:
        raise ConfigurationError(
            f"malformed location trace row {rows + 1}: {rest!r} does not end in a newline"
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
    trace with no samples, or with an id that ``GridSpec.check_ids``
    refuses, is refused with ``ValueError`` before the file is opened,
    since the loader could not read it back.
    """
    if isinstance(trace, LocationTrace):
        joint = JointTrace(trace.grid, trace.ids[None, :])
    else:
        joint = trace
    grid = joint.grid
    if joint.ids.size == 0:
        raise ValueError("cannot write an empty location trace")
    ids = grid.check_ids(joint.ids)
    x_labels = _text_words([f",{x}" for x in range(grid.width)])
    y_labels = _text_words([f",{y}\n" for y in range(grid.height)])
    header = {
        "kind": KIND_LOCATIONS,
        "grid": f"{grid.width}x{grid.height}",
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }

    def cells(block: np.ndarray) -> list[np.ndarray]:
        x, y = grid.xy(block)
        return [x_labels.take(x, axis=0), y_labels.take(y, axis=0)]

    rows = _node_major_rows(range(len(joint)), joint.node_count, ids.__getitem__, cells)
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

    Every number is written as ``format(value, ".9g")`` spells it. The rows
    come from ``_node_major_rows``, stamped with the times ``k * time_step``,
    made once; each group of nodes is sampled at them when it is reached
    and kept no longer. A row's value columns are the words
    ``_value_columns`` spells x and y in (a word NUL in every value of the
    block left out) and the newline. ``ContinuousTrace`` keeps every time
    and position finite, so the loader reads back every trace this writes.
    """
    header = {
        "kind": KIND_POSITIONS,
        "area": f"{_format_float(trace.area.width)}x{_format_float(trace.area.height)}",
        "time-step": _format_float(trace.time_step),
        "seed": "none" if seed is None else str(seed),
        "config": config_digest or "none",
    }
    nodes, times = range(trace.node_count), trace.times

    def xy(block: np.ndarray) -> list[np.ndarray]:
        return [*_value_columns(block), _NEWLINE_WORD]

    rows = _node_major_rows(times, len(nodes), lambda g: trace._sample_at(nodes[g], times), xy)
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
    destination until the next travel leg's start time. All numbers read
    as ``%.6f`` spells them, matching the classic generator's output, and
    are spelled by ``_fixed_words``. Every node's ``X_``, ``Y_`` and
    ``Z_`` lines come first, then every node's setdest lines in turn, in
    blocks of ``_BLOCK_ROWS`` lines built as columns of words and written
    as each is built, so no more of the script than one block is held.
    The file is written in order and never sought, so ``path`` may be a
    pipe.
    """
    nodes = trace.node_count
    setdest = _text_words([f' "$node_({node}) setdest ' for node in range(nodes)])
    with FsPath(path).open("wb") as out:
        for first in range(0, nodes, _BLOCK_ROWS):
            group = range(first, min(first + _BLOCK_ROWS, nodes))
            heads = [f"$node_({node}) set {axis}_ " for node in group for axis in "XYZ"]
            start = np.zeros((len(group), 3))  # each node's first x, y and z
            start[:, :2] = [trace.legs[node][0, [X0, Y0]] for node in group]
            words = _fixed_words(start.ravel())
            out.write(_joined_rows([_text_words(heads), words, _NEWLINE_WORD]))
        for ids, moves in _travel_blocks(trace):
            numbers = _fixed_words(moves)
            columns = [
                _NS_AT, numbers[:, 0], setdest.take(ids, axis=0), numbers[:, 1],
                _SPACE_WORD, numbers[:, 2], _SPACE_WORD, numbers[:, 3], _QUOTE_NEWLINE,
            ]
            out.write(_joined_rows(columns))


def _travel_blocks(trace: ContinuousTrace) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every travel leg's node and its start, end point and speed, ``_BLOCK_ROWS`` legs a block.

    The legs come node-major, each node's in leg order, gathered into one
    pair of arrays that every block reuses: a block is spent once the
    next is asked for.
    """
    ids = np.empty(_BLOCK_ROWS, np.intp)
    moves = np.empty((_BLOCK_ROWS, 4))
    filled = 0
    for node, legs in enumerate(trace.legs):
        travel = np.flatnonzero(legs[:, SPEED] != 0.0)
        while travel.size:
            part, travel = travel[: _BLOCK_ROWS - filled], travel[_BLOCK_ROWS - filled :]
            rows = slice(filled, filled + part.size)
            ids[rows] = node
            moves[rows] = legs[part[:, None], [START, X1, Y1, SPEED]]
            filled += part.size
            if filled == _BLOCK_ROWS:
                yield ids, moves
                filled = 0
    if filled:
        yield ids[:filled], moves[:filled]


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


def export_csv_report(path: FsPath | str, columns: Mapping[str, np.ndarray]) -> None:
    """Write named 1-D columns as a CSV report, a line at a time: floats at %.9g, others by str().

    A bool reads ``True`` or ``False``. Columns of unequal lengths are refused with ``ValueError``.
    """
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"report columns have unequal lengths: {lengths}")
    fields = [
        map(_format_float if c.dtype.kind == "f" else str, c.tolist()) for c in columns.values()
    ]
    with open(path, "w") as out:
        out.write(",".join(columns) + "\n")
        out.writelines(",".join(row) + "\n" for row in zip(*fields))
