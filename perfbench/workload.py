"""Run one benchmark workload in this process and print one JSON line.

``perfbench/run.py`` starts this script in a fresh process with the OpenMP,
OpenBLAS and MKL thread counts set to 1, and reads the last line it prints.
Every step drives the ``rwmm`` CLI through ``rwmm.cli.main(argv)`` with the
argv a user would type, except the exact path-cylinder step, which the CLI
has no command for. Every output is checked; a nonzero exit code or a failed
check counts as one failed operation.

Between the timed steps the run times a fixed calibration loop, and the
end-to-end times are scaled by it to a reference machine speed (see
``CALIBRATION_REFERENCE_S``). The measured times go to the context line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rwmm import cli, config, geometry, processes  # noqa: E402
from rwmm import io as trace_io  # noqa: E402
from rwmm.processes import CylinderEvent  # noqa: E402

import layers  # noqa: E402


@dataclass(frozen=True)
class Workload:
    kind: str  # "discrete" or "continuous"
    config: str  # config file text
    setups: int  # set-up repetitions; setup_s is their median
    verify: tuple[str, ...] = ()  # verify-channel options; empty means no such step
    events: int = 0  # exact path-cylinder events
    neighbour_moves: bool = False  # every location move is a stay or a 4-neighbour step


WORKLOADS = {
    # The alphabet build dominates; iid waypoints are one numpy call, and
    # there is no exact step. 100 cells per node in the analyze report.
    "grid-iid": Workload(
        kind="discrete",
        config=(
            "grid_width = 10\ngrid_height = 10\nspeeds = 1, 3/2, 2\n"
            "horizon = 100000\nnodes = 4\nwaypoints = iid-uniform\n"
        ),
        setups=2,
    ),
    # A small alphabet, the Markov sampler's per-step loop, and the exact
    # layer, which reads the alphabet through per-pair family lookups. The
    # stationarity horizon is short enough that the cylinder count, which
    # depends on the random prefixes, varies little from seed to seed.
    "walk-exact": Workload(
        kind="discrete",
        config=(
            "grid_width = 6\ngrid_height = 6\nspeeds = 1, 4/3, 3/2, 2, 5/2, 3\n"
            "horizon = 100000\nnodes = 4\nwaypoints = lazy-walk\n"
        ),
        setups=5,
        verify=("--horizon", "3", "--prefixes", "200"),
        events=10,
        neighbour_moves=True,
    ),
    # No grid, alphabet or exact layer: per-sample leg interpolation and
    # write-only text formatting. Set-up is config parsing alone, so it is
    # repeated many times.
    "continuous": Workload(
        kind="continuous",
        config=(
            "area_width = 1000\narea_height = 1000\nmin_speed = 1\nmax_speed = 20\n"
            "pause_time = 5\nnodes = 10\nduration = 30000\ntime_step = 1\n"
        ),
        setups=2001,
    ),
}

# workload -> seed -> output -> sha256, taken from the CLI at the commit that
# added the benchmark. The Markov workload is not pinned: fixing the Markov
# sampler's float rounding changes its random streams on purpose.
PINNED_SHA256: dict[str, dict[str, dict[str, str]]] = json.loads(
    (Path(__file__).parent / "pinned_sha256.json").read_text()
)

CHECKS_PER_PREFIX = 4  # stationarity plus mass, and three decoupling shifts
# analyze takes about a second, so each repetition runs it several times and
# post_samples_per_s is the median over all of them
ANALYZE_RUNS = 3


# Times are reported at a reference machine speed: measured seconds times
# CALIBRATION_REFERENCE_S over the median time of the calibration samples
# taken within NEAR_S seconds of the interval. On a shared 2-vCPU virtual
# machine (Xeon, 2.1 GHz) the same work took up to twice as long from one
# minute to the next.
CALIBRATION_REFERENCE_S = 0.05
NEAR_S = 3.0


def calibrate() -> float:
    """Seconds taken by a fixed mix of work that uses no rwmm code.

    The mix mirrors the program's: Fraction arithmetic, tuple-keyed dicts,
    text formatting and parsing, numpy calls from a Python loop, and one
    vector pass.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i, i + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(40000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
    text = "\n".join(f"{i},{i * 7},{x:.9g}" for i, x in enumerate(np.arange(15000) * 0.37))
    values = np.loadtxt(text.splitlines(), delimiter=",")
    ramp = np.arange(2000)
    for k in range(2000):
        np.searchsorted(ramp, k)
    np.cumsum(np.tile(values[:, 2], 20))
    return time.perf_counter() - start


@dataclass
class Interval:
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Run:
    """One process's run of a workload: timings, outputs and the failure ledger."""

    def __init__(self, name: str, seed: int, workdir: Path, tracer):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config_path = workdir / "workload.cfg"
        self.config_path.write_text(self.workload.config)
        if self.workload.kind == "discrete":
            self.cfg = config.load_discrete_config(self.workload.config)
            self.samples = self.cfg.nodes * self.cfg.horizon
        else:
            self.cfg = config.load_continuous_config(self.workload.config)
            self.samples = self.cfg.nodes * continuous_steps(self.cfg)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.calibration: list[tuple[float, float]] = []  # (taken at, seconds)

    def calibrate(self, samples: int = 3) -> None:
        for _ in range(samples):
            seconds = calibrate()
            self.calibration.append((time.perf_counter() - seconds / 2, seconds))

    def at_reference(self, interval: Interval) -> float:
        """The interval's seconds at the reference speed, from the samples next to it."""
        near = [
            seconds
            for at, seconds in self.calibration
            if interval.start - NEAR_S <= at <= interval.end + NEAR_S
        ]
        typical = statistics.median(near or [seconds for _, seconds in self.calibration])
        return interval.seconds * CALIBRATION_REFERENCE_S / typical

    @contextlib.contextmanager
    def timed(self, step: str):
        """Time a step; in a traced run, trace it under the span ``step.<step>``."""
        interval = Interval()
        traced = self.tracer.active(f"step.{step}") if self.tracer else contextlib.nullcontext()
        with traced:
            interval.start = time.perf_counter()
            try:
                yield interval
            finally:
                interval.end = time.perf_counter()

    def command(self, *argv) -> tuple[int, str, Interval]:
        """Run one CLI command in this process: (exit code, its output, its interval)."""
        argv = [str(a) for a in argv]
        output = io.StringIO()
        with self.timed(argv[0]) as interval:
            try:
                with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = -1
                output.write(traceback.format_exc())
        return code, output.getvalue(), interval

    def record(self, op: str, code: int, output: str, check: Callable[[], list[str]]) -> None:
        """Count one operation; it fails on a nonzero exit code or any problem found."""
        self.attempted += 1
        if code != 0:
            tail = output.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {code}: {tail[0]}"]
        else:
            try:
                problems = check()
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems))

    def same_bytes(self, output: str, path: Path) -> list[str]:
        """The file repeats its first repetition's bytes, and a pinned digest."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        problems = []
        if self.digests.setdefault(output, digest) != digest:
            problems.append(f"{output} differs between repetitions")
        pinned = PINNED_SHA256.get(self.name, {}).get(str(self.seed), {}).get(output)
        if pinned is not None and pinned != digest:
            problems.append(f"{output} sha256 {digest[:12]}.. is not the pinned {pinned[:12]}..")
        return problems


def continuous_steps(cfg) -> int:
    return math.floor(cfg.duration / cfg.time_step + 1e-9) + 1


def check_locations(run: Run, path: Path) -> list[str]:
    joint, header = trace_io.load_locations(path)  # verifies the body digest
    cfg, grid = run.cfg, run.cfg.grid()
    problems = []
    if joint.ids.shape != (cfg.nodes, cfg.horizon):
        problems.append(f"trace shape {joint.ids.shape}, expected {(cfg.nodes, cfg.horizon)}")
    if joint.ids.min() < 0 or joint.ids.max() >= grid.size:
        problems.append("a cell lies outside the grid")
    if header.get("seed") != str(run.seed) or header.get("config") != cfg.digest:
        problems.append("trace header names another seed or config")
    if run.workload.neighbour_moves:
        xs, ys = joint.ids % grid.width, joint.ids // grid.width
        moves = np.abs(np.diff(xs, axis=1)) + np.abs(np.diff(ys, axis=1))
        jumps = int((moves > 1).sum())
        if jumps:
            problems.append(f"{jumps} location moves are neither a stay nor a 4-neighbour step")
    return problems + run.same_bytes("trace", path)


def check_report(run: Run, path: Path) -> list[str]:
    cfg, grid = run.cfg, run.cfg.grid()
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "node,x,y,visits,frequency,cauchy_width,converged":
        return ["report header is not node,x,y,visits,frequency,cauchy_width,converged"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    keys = {(int(r[0]), int(r[1]), int(r[2])) for r in rows}
    expected = {(n, c.x, c.y) for n in range(cfg.nodes) for c in grid.cells()}
    if len(rows) != len(expected) or keys != expected:
        problems.append(f"{len(rows)} report rows, expected one per node and cell ({len(expected)})")
    visits = [0] * cfg.nodes
    for row in rows:
        if 0 <= int(row[0]) < cfg.nodes:
            visits[int(row[0])] += int(row[3])
    if any(v != cfg.horizon for v in visits):
        problems.append(f"visits per node {visits}, expected {cfg.horizon} each")
    return problems


def inside_area(cfg, xs, ys) -> bool:
    xs, ys = np.asarray(xs), np.asarray(ys)
    return bool(
        ((xs >= 0) & (xs <= cfg.area_width) & (ys >= 0) & (ys <= cfg.area_height)).all()
    )


def check_positions(run: Run, path: Path) -> list[str]:
    times, positions, header = trace_io.load_positions(path)  # verifies the body digest
    cfg = run.cfg
    problems = []
    shape = (cfg.nodes, continuous_steps(cfg), 2)
    if positions.shape != shape:
        problems.append(f"positions shape {positions.shape}, expected {shape}")
    if not inside_area(cfg, positions[..., 0], positions[..., 1]):
        problems.append("a position lies outside the area")
    if header.get("seed") != str(run.seed) or header.get("config") != cfg.digest:
        problems.append("trace header names another seed or config")
    return problems + run.same_bytes("positions", path)


def check_ns2(run: Run, path: Path) -> list[str]:
    text = path.read_text()
    script = trace_io.parse_ns2(text)
    cfg = run.cfg
    problems = []
    x_lines = sum(1 for line in text.splitlines() if " set X_ " in line)
    if x_lines != cfg.nodes or sorted(script.initial) != list(range(cfg.nodes)):
        problems.append(f"{x_lines} initial positions, expected one per node ({cfg.nodes})")
    initial = np.array(list(script.initial.values())).reshape(-1, 2)
    if not inside_area(cfg, initial[:, 0], initial[:, 1]):
        problems.append("an initial position lies outside the area")
    moves = np.array(script.moves).reshape(-1, 5)  # time, node, x, y, speed
    if not ((moves[:, 1] >= 0) & (moves[:, 1] < cfg.nodes)).all():
        problems.append("a setdest names a missing node")
    if not inside_area(cfg, moves[:, 2], moves[:, 3]):
        problems.append("a destination lies outside the area")
    if not ((moves[:, 4] >= cfg.min_speed) & (moves[:, 4] <= cfg.max_speed)).all():
        problems.append("a speed lies outside [min_speed, max_speed]")
    return problems + run.same_bytes("ns2", path)


def closed_form_prob(spec, alphabet, event: CylinderEvent) -> Fraction:
    """The path cylinder's probability without enumerating waypoint prefixes.

    Each path fixes its own source and destination, so the event has the
    probability of the waypoint cylinder through the chained endpoints,
    times 1/|family| for every path, or 0 when the paths do not chain.
    """
    paths = [alphabet.all_paths[pid] for pid in event.symbols]
    if any(a.dest != b.source for a, b in zip(paths, paths[1:])):
        return Fraction(0)
    cells = (paths[0].source,) + tuple(p.dest for p in paths)
    prob = processes.waypoint_cylinder_prob(spec, CylinderEvent(event.start, cells))
    for path in paths:
        prob /= len(alphabet.family_id_set(path.source, path.dest))
    return prob


def sample_events(run: Run, spec, alphabet) -> list[CylinderEvent]:
    """Length-2 events at index 0: consecutive pairs of a path trace from the seed."""
    rng = np.random.default_rng(run.seed)
    waypoints = processes.sample_waypoints(spec, run.workload.events + 2, rng)
    paths = processes.sample_paths(alphabet, waypoints, rng)
    return [CylinderEvent(0, (int(a), int(b))) for a, b in zip(paths.ids[:-1], paths.ids[1:])]


def exact_step(run: Run) -> tuple[Interval, list[Interval]]:
    """Exact probabilities of the events: (alphabet set-up interval, one interval per event)."""
    run.calibrate()
    with run.timed("exact-setup") as setup_interval:
        cfg = config.load_discrete_config(run.config_path.read_text())
        alphabet = geometry.build_alphabet(cfg.grid(), cfg.speeds)
    spec = cfg.waypoint_spec()
    events = []
    for event in sample_events(run, spec, alphabet):
        code, output, value = 0, "", None
        with run.timed("path-process-prob") as interval:
            try:
                value = processes.path_process_prob(spec, alphabet, event)
            except Exception:
                code, output = -1, traceback.format_exc()
        events.append(interval)

        def check(event=event, value=value) -> list[str]:
            expected = closed_form_prob(spec, alphabet, event)
            return [] if value == expected else [f"{event}: {value} != closed form {expected}"]

        run.record("path_process_prob", code, output, check)
    return setup_interval, events


def discrete_rep(run: Run) -> dict[str, list[Interval]]:
    """One pass of the discrete command sequence: step name -> its intervals."""
    work = run.workload
    trace, report = run.workdir / "trace.txt", run.workdir / "report.csv"
    trace.unlink(missing_ok=True)  # a check must never pass on an earlier run's file
    run.calibrate()
    code, output, simulate = run.command(
        "simulate-discrete", "--config", run.config_path, "--seed", run.seed, "--out", trace
    )
    run.record("simulate-discrete", code, output, lambda: check_locations(run, trace))
    steps = {"simulate": [simulate], "post": []}
    for _ in range(ANALYZE_RUNS):
        report.unlink(missing_ok=True)
        run.calibrate()
        code, output, post = run.command(
            "analyze", "--trace", trace, "--out", report, "--config", run.config_path
        )
        run.record("analyze", code, output, lambda: check_report(run, report))
        steps["post"].append(post)
    if work.verify:
        run.calibrate()
        code, output, verify = run.command(
            "verify-channel", "--config", run.config_path, "--seed", run.seed, *work.verify
        )
        run.record(
            "verify-channel",
            code,
            output,
            lambda: [] if "all checks passed" in output else ["no 'all checks passed' line"],
        )
        steps["verify"] = [verify]
    if work.events:
        setup_interval, steps["events"] = exact_step(run)
        steps["exact-setup"] = [setup_interval]
    run.calibrate()
    return steps


def continuous_rep(run: Run) -> dict[str, list[Interval]]:
    """One pass of the continuous command sequence: step name -> its intervals."""
    positions, script = run.workdir / "positions.txt", run.workdir / "movement.tcl"
    for stale in (positions, script):
        stale.unlink(missing_ok=True)
    run.calibrate()
    code, output, simulate = run.command(
        "simulate-continuous", "--config", run.config_path, "--seed", run.seed, "--out", positions
    )
    run.record("simulate-continuous", code, output, lambda: check_positions(run, positions))
    run.calibrate()
    code, output, post = run.command(
        "export", "--config", run.config_path, "--seed", run.seed,
        "--format", "ns2", "--out", script,
    )
    run.record("export", code, output, lambda: check_ns2(run, script))
    run.calibrate()
    return {"simulate": [simulate], "post": [post]}


def setup(run: Run) -> dict:
    """Time the fixed cost before a command's first sample, several times."""
    discrete = run.workload.kind == "discrete"
    intervals, sizes = [], {}
    run.calibrate()
    for _ in range(run.workload.setups):
        with run.timed("set-up") as interval:
            if discrete:
                cfg = config.load_discrete_config(run.config_path.read_text())
                alphabet = geometry.build_alphabet(cfg.grid(), cfg.speeds)
            else:
                config.load_continuous_config(run.config_path.read_text())
        intervals.append(interval)
        if discrete:
            sizes = {
                "alphabet_paths": len(alphabet.all_paths),
                "alphabet_max_path_length": alphabet.max_path_length,
            }
            del alphabet  # one alphabet alive at a time, as in a command
            run.calibrate()
    run.calibrate()
    run.record("set-up", 0, "", lambda: [])
    return {
        "setup_s": statistics.median(run.at_reference(i) for i in intervals),
        "stages": {"setup_s_measured": statistics.median(i.seconds for i in intervals)},
        "sizes": sizes,
    }


def measure(run: Run, seconds: float) -> dict:
    """Repeat the command sequence until ``seconds`` have passed; medians over repetitions."""
    work = run.workload
    rep = discrete_rep if work.kind == "discrete" else continuous_rep
    reps: list[dict[str, list[Interval]]] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(rep(run))

    def measured(interval: Interval) -> float:
        return interval.seconds

    def median_step(step: str, seconds: Callable[[Interval], float]) -> float:
        """Median over every run of the step, in every repetition."""
        return statistics.median(seconds(i) for r in reps for i in r[step])

    def median_wall(seconds: Callable[[Interval], float]) -> float:
        return statistics.median(sum(seconds(i) for step in r.values() for i in step) for r in reps)

    post_name = "analyze_rows_per_s" if work.kind == "discrete" else "export_samples_per_s"
    stages = {  # as measured, not scaled
        "sim_samples_per_s_measured": run.samples / median_step("simulate", measured),
        post_name: run.samples / median_step("post", measured),
        "wall_s_measured": median_wall(measured),
    }
    sizes = {}
    if work.verify:
        prefixes = int(work.verify[work.verify.index("--prefixes") + 1])
        stages["verify_checks_per_s"] = CHECKS_PER_PREFIX * prefixes / median_step(
            "verify", measured
        )
    if work.events:
        stages["exact_events_per_s"] = 1 / median_step("events", measured)
        sizes["path_process_prob_prefixes_per_event"] = run.cfg.grid().size ** 3
    return {
        "reps": len(reps),
        "sim_samples_per_s": run.samples / median_step("simulate", run.at_reference),
        "post_samples_per_s": run.samples / median_step("post", run.at_reference),
        "wall_s": median_wall(run.at_reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stages": stages,
        "sizes": sizes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup", action="store_true",
                        help="only time the set-up, as often as the workload says")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat the command sequence until this much time has passed")
    parser.add_argument("--spans", type=Path, help="trace the layers; write the spans here")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = layers.tracer() if args.spans else None
    run = Run(args.workload, args.seed, args.workdir, tracer)
    result = setup(run) if args.setup else measure(run, args.seconds)
    if tracer is not None:
        result["per_layer"] = layers.per_layer_metrics(tracer)
        result["sizes"].update(layers.enumeration_sizes(tracer))
        tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    result.update(
        attempted=run.attempted,
        failures=run.failures,
        numpy=np.__version__,
        calibration_s=statistics.median(seconds for _, seconds in run.calibration),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
