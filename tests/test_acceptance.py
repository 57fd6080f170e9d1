"""Acceptance suite: ten exit criteria, one printed pass/fail line each.

Each criterion prints ``criterion N (<name>): PASS|FAIL`` directly to the
real stdout (bypassing capture) and then asserts. Exact-arithmetic criteria
demand equality; statistical criteria pin the tolerances stated below and
run on fixed seeds, so every run is reproducible.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np

from rwmm.analysis import (
    CellIndicator,
    CylinderIndicator,
    cesaro_measure,
    ergodicity_check,
    location_histogram,
    time_average,
)
from rwmm.cli import main
from rwmm.continuous import (
    ContinuousAreaSpec,
    discretize,
    mean_speeds,
    simulate_continuous,
    traffic_proxy,
)
from rwmm.geometry import Cell, GridSpec, build_alphabet
from rwmm.location import encode_sequence, trip_times, variable_length_shift, complete_trips
from rwmm.processes import (
    WaypointProcessSpec,
    channel_total_mass,
    check_channel_stationarity,
    check_output_mixing,
    sample_paths,
    sample_waypoints,
    uniform_prefix,
)
from rwmm.simulate import simulate_node

HORIZON = 100_000
CONVERGENCE_TOL = 3 / np.sqrt(HORIZON)  # trailing Cauchy spread bound
SEED_SPREAD_TOL = 0.02  # max - min of settled averages across 10 seeds
CESARO_TOL = 0.02  # |Cesàro ensemble limit - single-run time average|
EXACT_TIME_LIMIT = 60.0  # seconds, criteria 1 and 2
CONVERGENCE_TIME_LIMIT = 300.0  # seconds, criterion 4
PREFIX_COUNT = 20

EXACT_GRIDS = (GridSpec(2, 2), GridSpec(2, 3), GridSpec(3, 3))
EXACT_SPEED_SETS = ((Fraction(1),), (Fraction(1), Fraction(2)))


def _run_criterion(number: int, name: str, body, capsys) -> None:
    failures: list[str] = []
    try:
        body(failures)
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    with capsys.disabled():
        print(
            f"criterion {number:2d} ({name}): {'PASS' if not failures else 'FAIL'}",
            flush=True,
        )
    assert not failures, "; ".join(failures)


def _sticky_uniform(grid: GridSpec, stay: Fraction) -> WaypointProcessSpec:
    """Markov waypoints: keep the current cell with prob ``stay``, else uniform."""
    n = grid.size
    rows = [
        [stay * (1 if i == j else 0) + (1 - stay) * Fraction(1, n) for j in range(n)]
        for i in range(n)
    ]
    return WaypointProcessSpec.markov(grid, rows, [Fraction(1, n)] * n)


def test_criterion_01_channel_stationarity(capsys):
    def body(failures):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        for grid, speeds in product(EXACT_GRIDS, EXACT_SPEED_SETS):
            alphabet = build_alphabet(grid, speeds)
            for horizon in (1, 2, 3):
                for _ in range(PREFIX_COUNT):
                    prefix = uniform_prefix(grid, horizon + 2, rng)
                    gap = check_channel_stationarity(alphabet, prefix, horizon)
                    if gap != 0:
                        failures.append(
                            f"gap {gap} on {grid} speeds {speeds} "
                            f"horizon {horizon} prefix {prefix}"
                        )
        elapsed = time.monotonic() - start
        if elapsed >= EXACT_TIME_LIMIT:
            failures.append(f"took {elapsed:.1f}s, limit {EXACT_TIME_LIMIT}s")

    _run_criterion(1, "exact channel stationarity", body, capsys)


def test_criterion_02_output_mixing(capsys):
    def body(failures):
        start = time.monotonic()
        grid = GridSpec(3, 3)
        alphabet = build_alphabet(grid, (Fraction(1), Fraction(2)))
        rng = np.random.default_rng(1002)
        span = 2  # second event pins path symbols 0..1
        for _ in range(PREFIX_COUNT):
            prefix = uniform_prefix(grid, span + 3 + 1, rng)
            b0 = sorted(alphabet.family_id_set(prefix[0], prefix[1]))[0]
            b1 = sorted(alphabet.family_id_set(prefix[1], prefix[2]))[0]
            for shift in range(span, span + 3):
                a0 = sorted(alphabet.family_id_set(prefix[shift], prefix[shift + 1]))[0]
                check = check_output_mixing(alphabet, prefix, [a0], [b0, b1], shift)
                if not check.premise_met:
                    failures.append(f"premise unexpectedly unmet at shift {shift}")
                if check.discrepancy != 0:
                    failures.append(
                        f"nonzero decoupling gap {check.discrepancy} at shift {shift}"
                    )
        # below the event span the factorization genuinely breaks: a frozen
        # two-path instance where both events pin the same overlapping symbol
        g13 = GridSpec(1, 3)
        a13 = build_alphabet(g13, (Fraction(1), Fraction(2)))
        s, d = 0, 2  # cells (0, 0) and (0, 2)
        w = [s, d, s, d, s]
        sd = sorted(a13.family_id_set(s, d))
        ds = sorted(a13.family_id_set(d, s))
        below = check_output_mixing(a13, w, [ds[0]], [sd[0], ds[0]], shift=1)
        if below.premise_met:
            failures.append("shift below the event span was not flagged")
        if below.discrepancy != Fraction(1, 8):
            failures.append(
                f"expected gap 1/8 below the span, got {below.discrepancy}"
            )
        elapsed = time.monotonic() - start
        if elapsed >= EXACT_TIME_LIMIT:
            failures.append(f"took {elapsed:.1f}s, limit {EXACT_TIME_LIMIT}s")

    _run_criterion(2, "output decoupling at/below event span", body, capsys)


def test_criterion_03_channel_normalization(capsys):
    def body(failures):
        rng = np.random.default_rng(1003)
        for grid, speeds in product(EXACT_GRIDS, EXACT_SPEED_SETS):
            alphabet = build_alphabet(grid, speeds)
            for horizon in (1, 2, 3):
                for _ in range(PREFIX_COUNT):
                    prefix = uniform_prefix(grid, horizon + 1, rng)
                    mass = channel_total_mass(alphabet, prefix, horizon)
                    if mass != 1:
                        failures.append(
                            f"mass {mass} on {grid} speeds {speeds} prefix {prefix}"
                        )

    _run_criterion(3, "channel normalization", body, capsys)


CONVERGENCE_GRID = GridSpec(5, 5)
CONVERGENCE_CELLS = (Cell(0, 0), Cell(4, 4), Cell(2, 2), Cell(1, 3), Cell(3, 0))


def _convergence_body(spec: WaypointProcessSpec, failures: list[str]) -> None:
    alphabet = build_alphabet(CONVERGENCE_GRID, (Fraction(1), Fraction(2)))

    def run(seed):
        return simulate_node(spec, alphabet, HORIZON, seed).locations

    for cell in CONVERGENCE_CELLS:
        report = ergodicity_check(
            CellIndicator(CONVERGENCE_GRID, cell), run, seeds=range(10)
        )
        for seed, rep in enumerate(report.reports):
            if not rep.converged:
                failures.append(
                    f"cell {cell} seed {seed}: Cauchy width {rep.cauchy_width:.5f} "
                    f"> {rep.tolerance:.5f}"
                )
        if report.spread > SEED_SPREAD_TOL:
            failures.append(
                f"cell {cell}: cross-seed spread {report.spread:.5f} > {SEED_SPREAD_TOL}"
            )


def test_criterion_04_time_average_convergence_iid(capsys):
    def body(failures):
        start = time.monotonic()
        _convergence_body(WaypointProcessSpec.iid_uniform(CONVERGENCE_GRID), failures)
        elapsed = time.monotonic() - start
        if elapsed >= CONVERGENCE_TIME_LIMIT:
            failures.append(f"took {elapsed:.1f}s, limit {CONVERGENCE_TIME_LIMIT}s")

    _run_criterion(4, "time-average convergence, independent waypoints", body, capsys)


def test_criterion_05_exact_chain_oracle_agreement(capsys):
    def body(failures):
        from oracles import stationary_cell_distribution

        grid = GridSpec(3, 3)
        alphabet = build_alphabet(grid, (Fraction(1),))
        spec = WaypointProcessSpec.iid_uniform(grid)
        exact = stationary_cell_distribution(spec, alphabet)
        # frozen values from the explicit 149-state (path, offset) chain
        expected = {
            (0, 0): Fraction(12, 149), (2, 0): Fraction(12, 149),
            (0, 2): Fraction(12, 149), (2, 2): Fraction(12, 149),
            (1, 0): Fraction(17, 149), (0, 1): Fraction(17, 149),
            (2, 1): Fraction(17, 149), (1, 2): Fraction(17, 149),
            (1, 1): Fraction(33, 149),
        }
        for (x, y), value in expected.items():
            if exact[grid.cell_id(Cell(x, y))] != value:
                failures.append(f"oracle drifted at cell ({x}, {y})")
        for seed in (101, 202, 303):
            trace = simulate_node(spec, alphabet, HORIZON, seed).locations
            freq = location_histogram(trace).frequencies
            for cid in range(grid.size):
                diff = abs(freq[cid] - float(exact[cid]))
                if diff > CONVERGENCE_TOL:
                    failures.append(
                        f"seed {seed} cell id {cid}: |{freq[cid]:.5f} - "
                        f"{float(exact[cid]):.5f}| > {CONVERGENCE_TOL:.5f}"
                    )

    _run_criterion(5, "simulated frequencies match the exact chain", body, capsys)


def test_criterion_06_time_average_convergence_markov(capsys):
    def body(failures):
        _convergence_body(_sticky_uniform(CONVERGENCE_GRID, Fraction(1, 4)), failures)

    _run_criterion(6, "time-average convergence, Markov waypoints", body, capsys)


def test_criterion_07_cesaro_matches_time_average(capsys):
    def body(failures):
        grid = GridSpec(2, 2)
        alphabet = build_alphabet(grid, (Fraction(1),))
        spec = WaypointProcessSpec.iid_uniform(grid)

        def run(seed):
            return simulate_node(spec, alphabet, 10_000, seed).locations

        long_trace = simulate_node(spec, alphabet, HORIZON, 999).locations
        events = (
            CellIndicator(grid, Cell(0, 0)),
            CylinderIndicator(grid, (Cell(0, 0), Cell(1, 1))),
        )
        for event in events:
            ensemble = cesaro_measure(event, run, seeds=range(200))
            single = time_average(event, long_trace)
            diff = abs(ensemble.final_value - single.final_value)
            if diff > CESARO_TOL:
                failures.append(
                    f"{type(event).__name__}: |{ensemble.final_value:.5f} - "
                    f"{single.final_value:.5f}| = {diff:.5f} > {CESARO_TOL}"
                )

    _run_criterion(7, "Cesàro ensemble average matches time average", body, capsys)


def test_criterion_08_encoder_identities(capsys):
    def body(failures):
        grid = GridSpec(5, 5)
        alphabet = build_alphabet(grid, (Fraction(1), Fraction(2)))
        spec = WaypointProcessSpec.iid_uniform(grid)
        trips = 10_000
        for seed in (1, 2, 3):
            waypoints = sample_waypoints(spec, trips + 1, seed=seed)
            paths = sample_paths(alphabet, waypoints, seed=seed + 100)
            trace = encode_sequence(paths)
            times = trip_times(paths.lengths)
            if times[-1] != len(trace):
                failures.append(f"seed {seed}: length {len(trace)} != {times[-1]}")
                continue
            starts_ok = bool(
                np.array_equal(trace.ids[times[:-1]], waypoints.ids[:-1])
            )
            if not starts_ok:
                failures.append(f"seed {seed}: waypoint not at some trip start")
            for count in (1, 17, 4_000, trips):
                shifted, steps = variable_length_shift(paths, count)
                if steps != int(times[count]):
                    failures.append(f"seed {seed}: shift {count} misreported steps")
                    break
                if not np.array_equal(encode_sequence(shifted).ids, trace.ids[steps:]):
                    failures.append(f"seed {seed}: shift {count} misaligned")
                    break
            step_rng = np.random.default_rng(seed)
            for step in step_rng.integers(0, len(trace), size=50):
                k = complete_trips(paths.lengths, int(step))
                if not (times[k] <= step and (k == trips or step < times[k + 1])):
                    failures.append(f"seed {seed}: trip count wrong at step {step}")
                    break

    _run_criterion(8, "encoder and trip-time identities", body, capsys)


def test_criterion_09_continuous_traffic_and_occupancy(capsys):
    def body(failures):
        # ten-node constant-bitrate flows over disk links: delivery must be
        # bursty (on/off as nodes drift through range), under a flat rate and
        # under a ramp
        area = ContinuousAreaSpec(500, 500, min_speed=1, max_speed=10)
        trace = simulate_continuous(area, 10, duration=500, time_step=0.25, seed=42)
        flows = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        steps = trace.step_count
        for label, rate in (
            ("flat", 8.0),
            ("ramp", np.linspace(0.0, 16.0, steps)),
        ):
            report = traffic_proxy(trace, flows, bitrate=rate, reach=100.0)
            delivered_some = bool((report.delivered > 0).any())
            silent_some = bool((report.delivered == 0).any())
            if not (delivered_some and silent_some):
                failures.append(f"{label}: delivery is not bursty")
            if not 0.0 < report.burst_fraction < 1.0:
                failures.append(
                    f"{label}: burst fraction {report.burst_fraction:.3f} not in (0, 1)"
                )
            if not 0.0 < report.delivery_ratio < 1.0:
                failures.append(
                    f"{label}: delivery ratio {report.delivery_ratio:.3f} not in (0, 1)"
                )
        # discretized occupancy shows the center bias
        area2 = ContinuousAreaSpec(500, 500, min_speed=2, max_speed=10)
        trace2 = simulate_continuous(area2, 10, duration=2000, time_step=0.5, seed=7)
        grid = GridSpec(5, 5)
        counts = np.zeros(grid.size)
        for node in range(10):
            locations = discretize(trace2, grid, node_id=node)
            counts += location_histogram(locations).counts
        freq = counts / counts.sum()
        center = freq[grid.cell_id(Cell(2, 2))]
        for x, y in ((0, 0), (4, 0), (0, 4), (4, 4)):
            corner = freq[grid.cell_id(Cell(x, y))]
            if center <= corner:
                failures.append(
                    f"center {center:.4f} not above corner ({x},{y}) {corner:.4f}"
                )
        arithmetic, weighted = mean_speeds(trace2)
        if not weighted < arithmetic:
            failures.append(
                f"time-weighted speed {weighted:.3f} not below mean draw {arithmetic:.3f}"
            )

    _run_criterion(9, "continuous traffic burstiness and center bias", body, capsys)


def test_criterion_10_byte_identical_outputs(tmp_path, capsys):
    def body(failures):
        discrete_cfg = tmp_path / "d.cfg"
        discrete_cfg.write_text(
            "grid_width = 3\ngrid_height = 3\nspeeds = 1, 2\n"
            "horizon = 2000\nnodes = 2\n"
        )
        continuous_cfg = tmp_path / "c.cfg"
        continuous_cfg.write_text(
            "area_width = 200\narea_height = 200\nmin_speed = 1\n"
            "max_speed = 8\nduration = 60\ntime_step = 0.5\nnodes = 3\n"
        )

        def run_twice(name, args_for):
            out_a = tmp_path / f"{name}-a.out"
            out_b = tmp_path / f"{name}-b.out"
            for out in (out_a, out_b):
                code = main(args_for(out))
                if code != 0:
                    failures.append(f"exit {code} from {args_for(out)}")
                    return None, None
            return out_a.read_bytes(), out_b.read_bytes()

        a, b = run_twice(
            "trace",
            lambda out: [
                "simulate-discrete", "--config", str(discrete_cfg),
                "--seed", "31", "--out", str(out),
            ],
        )
        if a is not None and a != b:
            failures.append("discrete traces differ across reruns")
        trace_path = tmp_path / "trace-a.out"
        a, b = run_twice(
            "report",
            lambda out: ["analyze", "--trace", str(trace_path), "--out", str(out)],
        )
        if a is not None and a != b:
            failures.append("analysis reports differ across reruns")
        a, b = run_twice(
            "positions",
            lambda out: [
                "simulate-continuous", "--config", str(continuous_cfg),
                "--seed", "31", "--out", str(out),
            ],
        )
        if a is not None and a != b:
            failures.append("continuous traces differ across reruns")
        a, b = run_twice(
            "movement",
            lambda out: [
                "export", "--config", str(continuous_cfg),
                "--seed", "31", "--format", "ns2", "--out", str(out),
            ],
        )
        if a is not None and a != b:
            failures.append("movement exports differ across reruns")
        # and the seed genuinely matters
        other = tmp_path / "other.out"
        main(
            [
                "simulate-discrete", "--config", str(discrete_cfg),
                "--seed", "32", "--out", str(other),
            ]
        )
        if other.read_bytes() == trace_path.read_bytes():
            failures.append("different seeds produced identical traces")

    _run_criterion(10, "byte-identical reruns", body, capsys)
