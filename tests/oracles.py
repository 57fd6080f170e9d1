"""Independent reference computations used to freeze expected test values.

Nine deliberately separate routes from first principles:

* a symbolic digitizer built on sympy's exact radicals, to check the
  integer-arithmetic digitizer in ``rwmm.geometry``;
* a per-pair path alphabet that digitizes every ordered cell pair on its
  own, translating the digitized displacement to the pair, and interns the
  paths one by one, with its own pair-major ids, to check the
  displacement-keyed tables and id ranges of
  ``rwmm.geometry.build_alphabet`` (the digitizer itself is checked by the
  symbolic route above);
* a dense lazy-walk matrix whose neighbors are the cells at Manhattan
  distance 1, to check the sparse rows of
  ``rwmm.processes.WaypointProcessSpec.lazy_walk``;
* a forward sum over waypoint states that marginalizes the path channel over
  every waypoint prefix, to check the closed form of
  ``rwmm.processes.path_process_prob`` (it never reads a path's endpoints);
* cylinder-by-cylinder enumerations of the channel's stationarity gap and
  total mass over products of path families, each cylinder's probability
  taken from the family id sets here, to check the per-coordinate closed
  forms of ``rwmm.processes.check_channel_stationarity`` and
  ``channel_total_mass``;
* an explicit finite Markov chain on (path, within-path offset) states,
  solved exactly with GTH elimination over ``Fraction``, giving the
  stationary cell-occupancy distribution that long-run simulated frequencies
  must approach;
* a per-sample resampler of continuous legs, one ``Leg.position_at`` call
  per sample time, to check the vectorized interpolation in
  ``rwmm.continuous``;
* a location stream that concatenates every drawn path's cells but its
  last, to check that ``rwmm.simulate.simulate_node`` encodes only the
  paths covering its horizon;
* a per-row formatter of location trace bodies, one f-string per
  ``(node, step)``, to check the bulk row writer of
  ``rwmm.io.save_locations``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import sympy as sp

from rwmm.geometry import (
    Cell,
    GridSpec,
    Path,
    PathAlphabet,
    _displacement_family,
    normalize_speeds,
)
from rwmm.processes import IID_UNIFORM, WaypointProcessSpec


def sympy_digitize(source: Cell, dest: Cell, speed: Fraction) -> list[Cell]:
    """Reference digitizer: exact symbolic arithmetic, no custom sign tests.

    Sample the segment at arc-length multiples of ``speed`` (final sample
    forced onto the destination) and round each coordinate to the nearest
    integer, ties toward the smaller value.
    """
    if source == dest:
        return [source, dest]
    sx, sy = sp.Integer(source.x), sp.Integer(source.y)
    dx, dy = sp.Integer(dest.x) - sx, sp.Integer(dest.y) - sy
    dist = sp.sqrt(dx * dx + dy * dy)
    v = sp.Rational(speed.numerator, speed.denominator)
    steps = sp.ceiling(dist / v)
    cells = [source]
    for k in range(1, int(steps)):
        t = k * v / dist
        cells.append(Cell(_round_half_down(sx + t * dx), _round_half_down(sy + t * dy)))
    cells.append(dest)
    return cells


def _round_half_down(value: sp.Expr) -> int:
    """Nearest integer, exact ties toward the smaller integer."""
    f = sp.floor(value)
    frac = sp.simplify(value - f)
    return int(f) + (1 if frac > sp.Rational(1, 2) else 0)


def per_pair_alphabet(grid: GridSpec, speeds) -> SimpleNamespace:
    """Path-alphabet tables built pair by pair, with no displacement sharing.

    Every ordered cell pair, in pair-id order, is digitized at each speed on
    its own: the pair's displacement is digitized from the origin and
    translated to the pair's source. The distinct paths are sorted by
    (length, cells) here and interned in that order. Returns
    the path tuple, ``max_path_length``, the per-pair member ids
    (``family_members`` flattened, located by ``family_offsets`` and
    ``family_sizes``) and the per-path tables.
    """
    speed_set = normalize_speeds(speeds)
    index: dict[Path, int] = {}
    sizes: list[int] = []
    offsets: list[int] = []
    members: list[int] = []
    for src in grid.cells():
        for dst in grid.cells():
            distinct = {
                Path(tuple(Cell(src.x + ox, src.y + oy) for ox, oy in offsets))
                for v in speed_set
                for offsets in _displacement_family(dst.x - src.x, dst.y - src.y, (v,))
            }
            family = sorted(distinct, key=lambda p: (p.length, [(c.x, c.y) for c in p.cells]))
            offsets.append(len(members))
            sizes.append(len(family))
            for path in family:
                members.append(index.setdefault(path, len(index)))
    paths = tuple(index)
    emit_offsets: list[int] = []
    emit_cells: list[int] = []
    for path in paths:
        emit_offsets.append(len(emit_cells))
        emit_cells.extend(grid.cell_id(c) for c in path.cells[:-1])

    def table(values) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    return SimpleNamespace(
        all_paths=paths,
        max_path_length=max(p.length for p in paths),
        family_sizes=table(sizes),
        family_offsets=table(offsets),
        family_members=table(members),
        path_lengths=table([p.length for p in paths]),
        path_sources=table([grid.cell_id(p.source) for p in paths]),
        path_dests=table([grid.cell_id(p.dest) for p in paths]),
        emit_offsets=table(emit_offsets),
        emit_cells=table(emit_cells),
    )


def dense_transition(spec: WaypointProcessSpec) -> list[list[Fraction]]:
    """A markov spec's sparse transition rows expanded to an n×n matrix."""
    assert spec.transition is not None
    n = spec.grid.size
    return [[row.get(j, Fraction(0)) for j in range(n)] for row in spec.transition]


def dense_lazy_walk(grid: GridSpec, stay: Fraction) -> list[list[Fraction]]:
    """The lazy walk's n×n matrix, neighbors found as cells at Manhattan distance 1.

    A single cell stays put with probability 1; otherwise each cell keeps
    ``stay`` and splits the rest evenly over its neighbors.
    """
    cells = list(grid.cells())
    if len(cells) == 1:
        return [[Fraction(1)]]
    stay = Fraction(stay)
    matrix = []
    for a in cells:
        near = [abs(a.x - b.x) + abs(a.y - b.y) == 1 for b in cells]
        share = (1 - stay) / sum(near)
        matrix.append(
            [stay if a == b else share * is_near for b, is_near in zip(cells, near)]
        )
    return matrix


def dense_markov_distribution(spec: WaypointProcessSpec, index: int) -> list[Fraction]:
    """Markov waypoint distribution at ``index``: the initial row times P^index."""
    assert spec.initial is not None
    n = spec.grid.size
    step = dense_transition(spec)
    dist = list(spec.initial)
    for _ in range(index):
        dist = [sum((dist[i] * step[i][j] for i in range(n)), Fraction(0)) for j in range(n)]
    return dist


def marginal_path_prob(
    spec: WaypointProcessSpec, grid: GridSpec, speeds, event, span: int
) -> Fraction:
    """Probability of a path cylinder, marginalized over every waypoint prefix.

    ``event`` fixes path ids ``event.symbols`` from index ``event.start``,
    numbered as in :func:`per_pair_alphabet`, not as in the library;
    ``span`` waypoints (at least ``event.end + 2``) are summed out by a
    forward pass over waypoint states,
    ``a_{i+1}(w') = sum_w a_i(w) P(w -> w') [p_i in F(w, w')] / |F(w, w')|``,
    where the bracket is 1 at unconstrained indices. This is the sum over
    all ``|S|^span`` prefixes of waypoint weight times channel probability,
    in O(span·|S|²) steps; families come from :func:`per_pair_alphabet`.
    """
    if span < event.end + 2:
        raise ValueError(f"span {span} shorter than the {event.end + 2} waypoints needed")
    n = grid.size
    tables = per_pair_alphabet(grid, speeds)
    families = [
        frozenset(tables.family_members[start : start + size].tolist())
        for start, size in zip(tables.family_offsets.tolist(), tables.family_sizes.tolist())
    ]
    if spec.kind == IID_UNIFORM:
        step = [[Fraction(1, n)] * n for _ in range(n)]
        weights = [Fraction(1, n)] * n
    else:
        assert spec.initial is not None
        step = dense_transition(spec)
        weights = list(spec.initial)
    fixed = {event.start + k: pid for k, pid in enumerate(event.symbols)}
    for index in range(span - 1):
        nxt = [Fraction(0)] * n
        for w, mass in enumerate(weights):
            if not mass:
                continue
            for v in range(n):
                factor = mass * step[w][v]
                if index in fixed:
                    family = families[w * n + v]
                    factor = factor / len(family) if fixed[index] in family else Fraction(0)
                nxt[v] += factor
        weights = nxt
    return sum(weights, Fraction(0))


def _families(alphabet: PathAlphabet, waypoints, start: int, horizon: int) -> list[frozenset]:
    """The path family of each waypoint pair ``(w[start + i], w[start + i + 1])``."""
    return [
        alphabet.family_id_set(waypoints[start + i], waypoints[start + i + 1])
        for i in range(horizon)
    ]


def _cylinder_prob(families, combo) -> Fraction:
    """Channel probability of fixing path ``combo[i]`` at coordinate i.

    The channel draws coordinate i uniformly from ``families[i]``: the
    product of ``1/|families[i]|`` when every path lies in its family, else 0.
    """
    prob = Fraction(1)
    for pid, family in zip(combo, families):
        if pid not in family:
            return Fraction(0)
        prob /= len(family)
    return prob


def enumerated_stationarity_gap(alphabet: PathAlphabet, waypoints, horizon: int) -> Fraction:
    """Stationarity gap, one path cylinder at a time.

    The shifted-input measure fixes ``[p_0..p_{n-1}]`` on the prefix
    ``w[1:]`` from index 0; its shift preimage fixes the same symbols on
    ``w`` from index 1. Both vanish outside their per-coordinate families,
    so the maximum over the whole cylinder space is attained on the product
    of the per-coordinate family unions, which is enumerated.
    """
    shifted = _families(alphabet, waypoints[1:], 0, horizon)
    original = _families(alphabet, waypoints, 1, horizon)
    return enumerated_product_gap(list(zip(shifted, original)))


def enumerated_total_mass(alphabet: PathAlphabet, waypoints, horizon: int) -> Fraction:
    """Channel measure summed over the product of the per-coordinate families."""
    families = _families(alphabet, waypoints, 0, horizon)
    total = Fraction(0)
    for combo in itertools.product(*(sorted(family) for family in families)):
        total += _cylinder_prob(families, combo)
    return total


def enumerated_product_gap(pairs) -> Fraction:
    """Max of ``|prod a_i(p_i) - prod b_i(p_i)|`` over every tuple of ids.

    ``pairs[i] = (A_i, B_i)`` are two id sets at coordinate i; ``a_i(p)`` is
    ``1/|A_i|`` for p in ``A_i`` and 0 otherwise, ``b_i`` likewise. Tuples run
    over the product of the unions ``A_i | B_i``; the gap is 0 off them.
    """
    sides_a = [side_a for side_a, _ in pairs]
    sides_b = [side_b for _, side_b in pairs]
    worst = Fraction(0)
    for combo in itertools.product(*(sorted(a | b) for a, b in pairs)):
        gap = abs(_cylinder_prob(sides_a, combo) - _cylinder_prob(sides_b, combo))
        worst = max(worst, gap)
    return worst


def gth_stationary(rows: list[dict[int, Fraction]], size: int) -> list[Fraction]:
    """Stationary vector of a row-stochastic chain via GTH elimination.

    Exact over Fractions; no subtraction of probabilities, so no cancellation
    issues. ``rows[i]`` maps j -> P(i -> j).
    """
    t = [[Fraction(0)] * size for _ in range(size)]
    for i, row in enumerate(rows):
        for j, p in row.items():
            t[i][j] = Fraction(p)
    # Eliminate states size-1 .. 1; scale column n by the departure mass so
    # back-substitution is a plain weighted sum.
    for n in range(size - 1, 0, -1):
        denom = sum(t[n][j] for j in range(n))
        if denom == 0:
            raise ValueError("chain is reducible: nothing leaves the eliminated block")
        for i in range(n):
            t[i][n] /= denom
        for i in range(n):
            if t[i][n]:
                w = t[i][n]
                for j in range(n):
                    if t[n][j]:
                        t[i][j] += w * t[n][j]
    pi = [Fraction(0)] * size
    pi[0] = Fraction(1)
    for n in range(1, size):
        pi[n] = sum(pi[i] * t[i][n] for i in range(n))
    total = sum(pi)
    return [p / total for p in pi]


def build_location_chain(
    spec: WaypointProcessSpec, alphabet: PathAlphabet
) -> tuple[list[tuple[int, int]], list[dict[int, Fraction]]]:
    """Explicit chain whose marginal is the per-step location process.

    States are (path id, offset) with offset < path length; the emitted cell
    at a state is the path's cell at that offset. Inside a path the offset
    advances deterministically; at the last offset the next waypoint is drawn
    (uniformly, or by the waypoint chain's transition row from the current
    path's destination) and the next path uniformly from its family.
    """
    grid = alphabet.grid
    states: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    for pid, path in alphabet.all_paths.items():
        for off in range(path.length):
            index[(pid, off)] = len(states)
            states.append((pid, off))
    rows: list[dict[int, Fraction]] = []
    n_cells = grid.size
    step = None if spec.kind == IID_UNIFORM else dense_transition(spec)
    for pid, off in states:
        path = alphabet.all_paths[pid]
        if off + 1 < path.length:
            rows.append({index[(pid, off + 1)]: Fraction(1)})
            continue
        here = path.dest
        row: dict[int, Fraction] = {}
        for nxt in grid.cells():
            if step is None:
                w_prob = Fraction(1, n_cells)
            else:
                w_prob = step[grid.cell_id(here)][grid.cell_id(nxt)]
            if not w_prob:
                continue
            members = sorted(alphabet.family_id_set(here, nxt))
            share = w_prob / len(members)
            for qid in members:
                key = index[(qid, 0)]
                row[key] = row.get(key, Fraction(0)) + share
        rows.append(row)
    return states, rows


def stationary_cell_distribution(
    spec: WaypointProcessSpec, alphabet: PathAlphabet
) -> dict[int, Fraction]:
    """Exact long-run fraction of time spent in each cell."""
    states, rows = build_location_chain(spec, alphabet)
    pi = gth_stationary(rows, len(states))
    out: dict[int, Fraction] = {}
    grid = alphabet.grid
    for weight, (pid, off) in zip(pi, states):
        cell = alphabet.all_paths[pid].cells[off]
        cid = grid.cell_id(cell)
        out[cid] = out.get(cid, Fraction(0)) + weight
    return out


def sample_legs_per_step(legs, times) -> np.ndarray:
    """Positions of one node's legs at ascending ``times``, one sample at a time.

    Each time goes to the first leg whose end is at or after it (so a time at
    a leg's end stays on that leg), or to the last leg once the legs run out,
    and that leg's own ``position_at`` gives the position.
    """
    out = np.empty((len(times), 2))
    i = 0
    for k, t in enumerate(np.asarray(times, dtype=float).tolist()):
        while i < len(legs) - 1 and legs[i].end_time < t:
            i += 1
        out[k] = legs[i].position_at(t)
    return out


def concatenated_locations(alphabet: PathAlphabet, path_ids, horizon: int) -> list[Cell]:
    """The first ``horizon`` cells of every listed path's cells but its last, in turn."""
    cells = [cell for pid in path_ids for cell in alphabet.all_paths[int(pid)].cells[:-1]]
    return cells[:horizon]


def per_row_location_body(joint) -> str:
    """A location trace body: the column line, then one row per (node, step)."""
    width = joint.grid.width
    rows = (
        f"{node},{step},{c % width},{c // width}\n"
        for node in range(joint.ids.shape[0])
        for step, c in enumerate(joint.ids[node].tolist())
    )
    return "node,step,x,y\n" + "".join(rows)
