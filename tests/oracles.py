"""Independent reference computations used to freeze expected test values.

Seventeen deliberately separate routes from first principles:

* a symbolic digitizer built on sympy's exact radicals, to check the
  integer-arithmetic digitizer in ``rwmm.geometry``;
* a scalar integer digitizer, one ``math.isqrt`` call per sample and one
  Python loop per displacement and speed, whose displacement families and
  tables are the vectorized build's of ``rwmm.geometry.build_alphabet``
  computed the slow way, to check that build table by table (the symbolic
  route above checks the library's families directly), and whose cells of
  each path id, id after id, check ``PathAlphabet.emitted_cells``;
* a per-pair path alphabet that digitizes every ordered cell pair on its
  own with the scalar digitizer, translating the digitized displacement to
  the pair, and interns the paths one by one, with its own pair-major ids,
  to check the displacement-keyed tables and id ranges of
  ``rwmm.geometry.build_alphabet``;
* a dense lazy-walk matrix whose neighbors are the cells at Manhattan
  distance 1, to check the integer rows of
  ``rwmm.processes.WaypointProcessSpec.lazy_walk``;
* a markov waypoint walk that bisects one row's running sums a step, its
  rows rebuilt from the spec's probabilities over their own lcm and its
  draws taken in one call,
  to check the blocked successor-table walk of
  ``rwmm.processes.sample_waypoints``;
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
* a per-trip leg drawer that draws each trip's waypoint and speed with
  three scalar ``uniform`` calls and appends its legs one by one, to check
  the block draws of ``rwmm.continuous.simulate_continuous``;
* a per-sample resampler of continuous legs, one scalar interpolation on a
  leg-table row per sample time, to check the vectorized interpolation in
  ``rwmm.continuous``;
* a per-sample discretizer of continuous legs, leg after leg, that maps
  each sample to its cell on its own, to check the one-pass sampling of
  ``rwmm.continuous.discretize``;
* a per-path encoder that concatenates every path's cells but its last,
  path after path, to check the vectorized ``rwmm.location.encode_sequence``
  and the cells ``rwmm.continuous.discretize`` emits, and, over drawn path
  ids, that ``rwmm.simulate.simulate_node`` encodes only the paths
  covering its horizon;
* a per-row formatter of location trace bodies, one f-string per
  ``(node, step)``, to check the bulk row writer of
  ``rwmm.io.save_locations``;
* a per-row formatter of position trace bodies, one f-string per
  ``(node, step)`` with each float formatted on its own, to check the
  digit-table rows of ``rwmm.io.save_positions``;
* a per-line writer of ns-2 movement scripts, one f-string per line with
  each number formatted ``%.6f`` on its own and one join at the end, to
  check the digit-table blocks of ``rwmm.io.export_ns2``;
* a location trace body reader built on ``np.loadtxt``, followed by the
  layout checks written out one by one, to check the block parser of
  ``rwmm.io.load_locations``;
* the convergence checkpoints as first written, rounded ``geomspace``
  counts made distinct and sorted by ``np.unique`` with ``total`` appended
  when missing, to check ``rwmm.analysis._geometric_checkpoints``.
"""

from __future__ import annotations

import io
import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import sympy as sp

from rwmm.continuous import SPEED, START, X0, X1, Y0, Y1
from rwmm.geometry import (
    Cell,
    GridSpec,
    Path,
    PathAlphabet,
    normalize_speeds,
)
from rwmm.errors import ConfigurationError
from rwmm.processes import WaypointProcessSpec


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


def _ceil_sqrt(n: int, d: int) -> int:
    """Exact ``ceil(sqrt(n / d))`` for integers ``n > 0`` and ``d > 0``."""
    return math.isqrt((n - 1) // d) + 1


def _nearest(a: int, b: int) -> int:
    """Nearest integer to ``a / (2 * sqrt(b))``, ties to the smaller one.

    That is ``ceil(a / sqrt(b)) // 2``: the smallest n with ``2n + 1 >= a / sqrt(b)``.
    """
    return (_ceil_sqrt(a * a, b) if a > 0 else -math.isqrt(a * a // b)) // 2


def displacement_family(dx: int, dy: int, speeds) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Distinct digitized paths of the trip from (0, 0) to (dx, dy), sample by sample.

    Every speed contributes one path, as ``(ox, oy)`` offsets; a zero
    displacement yields the single pause path. Paths are ordered by
    (length, cell sequence).
    """
    if dx == 0 and dy == 0:
        return (((0, 0), (0, 0)),)
    distinct = {}
    for speed in normalize_speeds(speeds):
        p, q = speed.numerator, speed.denominator
        # at speed p/q the trip covers sqrt(dx^2 + dy^2) = sqrt(scaled) / q
        scaled = q * q * (dx * dx + dy * dy)
        steps = _ceil_sqrt(scaled, p * p)
        cells = [(0, 0)]
        for k in range(1, steps):
            cells.append((_nearest(2 * k * p * dx, scaled), _nearest(2 * k * p * dy, scaled)))
        cells.append((dx, dy))
        distinct.setdefault(tuple(cells))
    return tuple(sorted(distinct, key=lambda cells: (len(cells), cells)))


def scalar_alphabet_tables(grid: GridSpec, speeds) -> SimpleNamespace:
    """``PathAlphabet``'s family sizes, member lengths and emitted offsets, built
    one displacement at a time by :func:`displacement_family`.

    Displacements run in ``(dy, dx)`` order; a member's emitted cells are
    all its cells but the last, as offsets ``ox + oy * width``.
    """
    sizes, lengths, emits = [], [], []
    for dy in range(1 - grid.height, grid.height):
        for dx in range(1 - grid.width, grid.width):
            members = displacement_family(dx, dy, speeds)
            sizes.append(len(members))
            for cells in members:
                lengths.append(len(cells) - 1)
                emits.extend(ox + oy * grid.width for ox, oy in cells[:-1])
    return SimpleNamespace(
        family_sizes=np.array(sizes, dtype=np.int64),
        lengths=np.array(lengths, dtype=np.int64),
        emits=np.array(emits, dtype=np.int64),
    )


def scalar_emitted_cells(alphabet: PathAlphabet, speeds, ids) -> list[int]:
    """The emitted cell ids of each path id, id after id, by :func:`displacement_family`.

    Only the id's endpoints and its family's first id are read from the
    alphabet: the id's member is its offset in the family's id range.
    """
    grid = alphabet.grid
    cells = []
    for pid in ids:
        (source,), (dest,) = alphabet.endpoints([pid])
        first, _ = alphabet.family_ranges(source, dest)
        (sx, sy), (tx, ty) = grid.xy(int(source)), grid.xy(int(dest))
        member = displacement_family(tx - sx, ty - sy, speeds)[pid - int(first)]
        cells.extend((sy + oy) * grid.width + sx + ox for ox, oy in member[:-1])
    return cells


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
                for offsets in displacement_family(dst.x - src.x, dst.y - src.y, (v,))
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
    """A markov spec's integer rows over its denominator expanded to an n×n matrix."""
    assert spec.denominator is not None
    n = spec.grid.size
    matrix = [[Fraction(0)] * n for _ in range(n)]
    bounds = spec.indptr.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for j, weight in zip(spec.targets[lo:hi].tolist(), spec.weights[lo:hi].tolist()):
            matrix[i][j] = Fraction(weight, spec.denominator)
    return matrix


def dense_initial(spec: WaypointProcessSpec) -> list[Fraction]:
    """A markov spec's initial weights over its denominator, as probabilities."""
    assert spec.denominator is not None
    return [Fraction(weight, spec.denominator) for weight in spec.initial.tolist()]


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
    n = spec.grid.size
    step = dense_transition(spec)
    dist = dense_initial(spec)
    for _ in range(index):
        dist = [sum((dist[i] * step[i][j] for i in range(n)), Fraction(0)) for j in range(n)]
    return dist


def bisect_walk(spec: WaypointProcessSpec, count: int, seed) -> list[int]:
    """``count`` waypoints of a markov spec, one bisection a step.

    The initial distribution and the transition rows, as the ``Fraction``s
    of :func:`dense_initial` and :func:`dense_transition`, get integer
    weights ``p·D`` over their common denominator ``D``, and ``count`` draws
    uniform on ``[0, D)`` come from one ``integers`` call. Draw k selects
    step k's state from the row of the state before it, the initial row
    first, by bisecting the row's running sums.
    """
    dense = [*dense_transition(spec), dense_initial(spec)]
    rows = [{j: p for j, p in enumerate(row) if p} for row in dense]
    denominator = math.lcm(*(p.denominator for row in rows for p in row.values()))
    succ = [list(row) for row in rows]
    cum = [
        list(itertools.accumulate(int(p * denominator) for p in row.values()))[:-1]
        for row in rows
    ]
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, denominator, size=count, dtype=np.int64).tolist()
    state = len(rows) - 1
    return [state := succ[state][bisect_right(cum[state], u)] for u in draws]


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
    if spec.denominator is None:
        step = [[Fraction(1, n)] * n for _ in range(n)]
        weights = [Fraction(1, n)] * n
    else:
        step = dense_transition(spec)
        weights = dense_initial(spec)
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
    step = None if spec.denominator is None else dense_transition(spec)
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


def draw_legs_per_trip(area, node_count: int, duration: float, seed) -> list[np.ndarray]:
    """Each node's leg table, drawn trip by trip with scalar draws.

    A node draws its start point, then per trip a waypoint and a speed; the
    trip takes ``math.hypot`` of the displacement over the speed, and is
    followed by the pause if ``area.pause_time > 0``. The node stops after
    the first leg that ends past ``duration``.
    """
    tables = []
    for child in np.random.SeedSequence(seed).spawn(node_count):
        rng = np.random.default_rng(child)
        x = rng.uniform(0.0, area.width)
        y = rng.uniform(0.0, area.height)
        clock = 0.0
        legs = []
        while clock <= duration:
            nx = rng.uniform(0.0, area.width)
            ny = rng.uniform(0.0, area.height)
            speed = rng.uniform(area.min_speed, area.max_speed)
            travel = math.hypot(nx - x, ny - y) / speed
            legs.append((clock, travel, x, y, nx, ny, speed))
            clock += travel
            if area.pause_time > 0 and clock <= duration:
                legs.append((clock, area.pause_time, nx, ny, nx, ny, 0.0))
                clock += area.pause_time
            x, y = nx, ny
        tables.append(np.array(legs))
    return tables


def position_on_leg(row, t: float) -> tuple[float, float]:
    """Position at time ``t`` on one leg-table row, clamped to the leg.

    A row is ``(start, duration, x0, y0, x1, y1, speed)``; a zero-duration
    leg is at its end point.
    """
    start, duration, x0, y0, x1, y1, _ = row
    if duration == 0:
        return x1, y1
    a = min(max((t - start) / duration, 0.0), 1.0)
    return x0 + a * (x1 - x0), y0 + a * (y1 - y0)


def sample_legs_per_step(legs, times) -> np.ndarray:
    """Positions on one node's leg table at ascending ``times``, one at a time.

    Each time goes to the first leg whose end is at or after it (so a time at
    a leg's end stays on that leg), or to the last leg once the legs run out.
    """
    rows = np.asarray(legs, dtype=float).tolist()
    out = np.empty((len(times), 2))
    i = 0
    for k, t in enumerate(np.asarray(times, dtype=float).tolist()):
        while i < len(rows) - 1 and rows[i][0] + rows[i][1] < t:
            i += 1
        out[k] = position_on_leg(rows[i], t)
    return out


def discretize_per_sample(legs, grid: GridSpec, cell_size: float, dt: float):
    """One node's legs resampled onto ``grid`` every ``dt``, sample by sample.

    A leg of duration d takes ``max(1, ceil(d / dt * (1 - 1e-12)))`` samples,
    sample k at ``start + k * dt``; the 1e-12 keeps a duration that is a
    whole number of steps from gaining one. A travel leg becomes one path:
    its start point's cell, the cells of samples 1 and on, then its end
    point's cell. A pause becomes one ``(end, end)`` path per sample. A
    point's cell is ``floor(coordinate / cell_size)`` clamped into the
    grid. Returns the paths and the cell ids of every path's cells but its
    last.
    """

    def containing(x: float, y: float) -> Cell:
        cx = min(max(math.floor(x / cell_size), 0), grid.width - 1)
        cy = min(max(math.floor(y / cell_size), 0), grid.height - 1)
        return Cell(cx, cy)

    paths = []
    for row in np.asarray(legs, dtype=float).tolist():
        start, duration, x0, y0, x1, y1, speed = row
        samples = max(1, math.ceil(duration / dt * (1 - 1e-12)))
        end = containing(x1, y1)
        if speed == 0:
            paths.extend(Path((end, end)) for _ in range(samples))
            continue
        cells = [containing(x0, y0)]
        for k in range(1, samples):
            cells.append(containing(*position_on_leg(row, start + k * dt)))
        paths.append(Path((*cells, end)))
    ids = [cell.y * grid.width + cell.x for cell in encode_paths(paths)]
    return paths, ids


def encode_paths(paths) -> list[Cell]:
    """Every cell of each path but its last, path after path."""
    return [cell for path in paths for cell in path.cells[:-1]]


def concatenated_locations(alphabet: PathAlphabet, path_ids, horizon: int) -> list[Cell]:
    """The first ``horizon`` cells of the listed paths' encoding."""
    return encode_paths(alphabet.all_paths[int(pid)] for pid in path_ids)[:horizon]


def per_row_location_body(joint) -> str:
    """A location trace body: the column line, then one row per (node, step)."""
    width = joint.grid.width
    rows = (
        f"{node},{step},{c % width},{c // width}\n"
        for node in range(joint.ids.shape[0])
        for step, c in enumerate(joint.ids[node].tolist())
    )
    return "node,step,x,y\n" + "".join(rows)


def per_row_position_body(trace) -> str:
    """A position trace body: the column line, then one row per (node, step)."""
    rows = (
        f"{node},{format(t, '.9g')},{format(x, '.9g')},{format(y, '.9g')}\n"
        for node in range(trace.node_count)
        for t, (x, y) in zip(trace.times.tolist(), trace.positions([node])[0].tolist())
    )
    return "node,time,x,y\n" + "".join(rows)


def per_line_ns2_script(trace) -> str:
    """An ns-2 movement script: every node's X_, Y_ and Z_ lines, then its setdest lines."""
    lines = []
    for node, legs in enumerate(trace.legs):
        lines.append(f"$node_({node}) set X_ {legs[0, X0]:.6f}")
        lines.append(f"$node_({node}) set Y_ {legs[0, Y0]:.6f}")
        lines.append(f"$node_({node}) set Z_ 0.000000")
    for node, legs in enumerate(trace.legs):
        moves = legs[legs[:, SPEED] != 0.0][:, [START, X1, Y1, SPEED]]
        lines.extend(
            f'$ns_ at {start:.6f} "$node_({node}) setdest {x:.6f} {y:.6f} {speed:.6f}"'
            for start, x, y, speed in moves.tolist()
        )
    return "\n".join(lines) + "\n"


def loadtxt_location_ids(body: bytes, grid: GridSpec) -> np.ndarray:
    """The ``(nodes, steps)`` cell ids of a location trace body, read by ``np.loadtxt``.

    ``body`` is the column line and the rows. ``np.loadtxt`` reads the rows
    as int64 and is more lenient than the block parser: it takes ``+1``,
    `` 1``, blank lines and a last row with no newline. The layout checks
    follow: node ids not negative, the same number of rows per node, rows
    node-major, each node's steps 0 .. steps-1 in turn, every cell on the
    grid. Raises ``ConfigurationError``.
    """
    columns, _, rows = body.decode().partition("\n")
    if columns != "node,step,x,y":
        raise ConfigurationError("location trace body must start with node,step,x,y")
    if rows[:1] in ("", "\n"):
        raise ConfigurationError("empty location trace: no row after the node,step,x,y line")
    try:
        data = np.loadtxt(io.StringIO(rows), delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except ValueError as exc:
        raise ConfigurationError(f"malformed location trace row: {exc}") from None
    if data.shape[1] != 4:
        raise ConfigurationError("location trace rows must have 4 columns: node,step,x,y")
    node, step, x, y = (column.tolist() for column in data.T)
    if min(node) < 0:
        raise ConfigurationError(f"negative node id {min(node)}")
    nodes = max(node) + 1
    steps = len(node) // nodes
    if steps * nodes != len(node):
        raise ConfigurationError("ragged location trace: unequal steps per node")
    for row in range(len(node)):
        if node[row] != row // steps:
            raise ConfigurationError(
                "location trace rows must be node-major, nodes 0, 1, ... in turn"
            )
    for row in range(len(node)):
        if step[row] != row % steps:
            raise ConfigurationError(
                f"node {node[row]} is missing steps or holds them out of order"
            )
    for row in range(len(node)):
        if not (0 <= x[row] < grid.width and 0 <= y[row] < grid.height):
            raise ConfigurationError(f"cell ({x[row]}, {y[row]}) outside {grid}")
    return (data[:, 3] * grid.width + data[:, 2]).reshape(nodes, steps)


def unique_geometric_checkpoints(total: int, count: int = 20) -> np.ndarray:
    """``count`` rounded geometric sample counts from ``total // 100`` to ``total``, distinct."""
    count = min(count, total)
    raw = np.unique(
        np.rint(np.geomspace(max(1, total // 100), total, num=count)).astype(np.int64)
    )
    if raw[-1] != total:
        raw = np.append(raw, total)
    return raw
