"""Batch command-line front end.

Subcommands: ``simulate-discrete``, ``simulate-continuous``,
``verify-channel``, ``analyze``, ``export``. Every run is a pure function of
config file + seed; outputs are byte-identical across repeats. Exit codes:
0 success, 2 bad configuration or arguments (including a run past its
sample or leg limit, and a file that cannot be read or written), 3 the
path-alphabet build would digitize more than the enumeration cap's worth
of paths, (2W-1)(2H-1)·|speeds| (the build is the only step that
enumerates; ``verify-channel`` works at any horizon whose prefixes fit in
``errors.MAX_SAMPLES``), 4 a verification check failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, errors, io
from .config import load_continuous_config, load_discrete_config
from .continuous import simulate_continuous
from .errors import CapacityError, ConfigurationError, VerificationError
from .geometry import build_alphabet
from .processes import (
    channel_total_mass,
    check_channel_stationarity,
    check_output_mixing,
    uniform_prefix,
)
from .simulate import simulate_joint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VERIFICATION = 4


def _read_config(path: str) -> str:
    try:  # a missing file or a directory raises OSError, which main() reports
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc}") from None


def _check_out(args: argparse.Namespace, written: str, *inputs: str) -> None:
    """Refuse an ``--out`` that is, by device and inode, stdout's file or a file the command reads.

    The writers open their own file description, so the command's closing
    line, printed through stdout, would land over the file's start, or,
    through a pipe, after its end; an input opened to write is truncated.
    ``inputs`` names the options read, ``written`` what is written.
    """
    try:
        out = os.stat(args.out)
    except OSError:  # no such path yet
        return
    for name in ("stdout", *inputs):
        file = 1 if name == "stdout" else getattr(args, name)
        try:
            same = file is not None and os.path.samestat(os.stat(file), out)
        except OSError:  # stdout closed, or an input missing: its reader reports that
            continue
        if same and name == "stdout":
            raise ConfigurationError(
                f"--out {args.out} is the file stdout writes to, and the command's output "
                f"would overwrite the {written}"
            )
        if same:
            raise ConfigurationError(
                f"--out {args.out} is the --{name} file, which the {written} would overwrite"
            )


def _cmd_simulate_discrete(args: argparse.Namespace) -> int:
    _check_out(args, "trace", "config")
    text = _read_config(args.config)
    cfg = load_discrete_config(text)
    alphabet = build_alphabet(cfg.grid(), cfg.speeds)
    trace = simulate_joint(cfg.waypoint_spec(), alphabet, cfg.horizon, cfg.nodes, args.seed)
    io.save_locations(args.out, trace, seed=args.seed, config_digest=cfg.digest)
    print(f"wrote {cfg.nodes} node(s) x {cfg.horizon} steps to {args.out}")
    return EXIT_OK


def _cmd_simulate_continuous(args: argparse.Namespace) -> int:
    _check_out(args, "trace", "config")
    cfg = load_continuous_config(_read_config(args.config))
    trace = simulate_continuous(cfg.area(), cfg.nodes, cfg.duration, cfg.time_step, args.seed)
    io.save_positions(args.out, trace, seed=args.seed, config_digest=cfg.digest)
    print(f"wrote {cfg.nodes} node(s) x {trace.step_count} samples to {args.out}")
    return EXIT_OK


def _cmd_verify_channel(args: argparse.Namespace) -> int:
    if args.horizon < 1 or args.prefixes < 1:
        raise ConfigurationError(
            f"--horizon and --prefixes must be >= 1, got {args.horizon} and {args.prefixes}"
        )
    horizon = args.horizon
    # long enough for the stationarity window and the largest decoupling shift
    prefix_len = max(horizon + 2, 6)
    if prefix_len > errors.MAX_SAMPLES:
        raise ConfigurationError(
            f"--horizon {horizon} needs prefixes of {prefix_len} waypoints, over the "
            f"limit of {errors.MAX_SAMPLES} samples per run"
        )
    cfg = load_discrete_config(_read_config(args.config))
    grid = cfg.grid()
    alphabet = build_alphabet(grid, cfg.speeds)
    rng = np.random.default_rng(args.seed)
    failures = 0
    for k in range(args.prefixes):
        prefix = uniform_prefix(grid, prefix_len, rng)
        gap = check_channel_stationarity(alphabet, prefix, horizon)
        mass = channel_total_mass(alphabet, prefix, horizon)
        ok = gap == 0 and mass == 1
        print(
            f"prefix {k}: stationarity gap = {gap}, total mass = {mass} "
            f"-> {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures += 1
        # decoupling at and beyond the second event's span, with the first
        # path of each family: first[i] is the first id of prefix[i] -> prefix[i+1]
        first = alphabet.family_ranges(prefix[:-1], prefix[1:])[0].tolist()
        event_b = first[:2]
        span = len(event_b)
        for shift in range(span, span + 3):
            check = check_output_mixing(alphabet, prefix, [first[shift]], event_b, shift)
            tag = "ok" if check.discrepancy == 0 else "FAIL"
            print(
                f"prefix {k}: decoupling at shift {shift} = {check.discrepancy} -> {tag}"
            )
            if check.discrepancy != 0:
                failures += 1
    if failures:
        raise VerificationError(f"{failures} channel check(s) failed")
    print(f"all checks passed on {args.prefixes} random prefixes")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    _check_out(args, "report", "trace", "config")
    if not Path(args.trace).is_file():
        raise ConfigurationError(f"trace file not found: {args.trace}")
    trace, header = io.load_locations(args.trace)
    if args.config is not None:
        cfg = load_discrete_config(_read_config(args.config))
        stored = header.get("config", "none")
        if stored not in ("none", cfg.digest):
            raise ConfigurationError(
                f"trace was produced by config {stored[:12]}.., "
                f"given config digests to {cfg.digest[:12]}.."
            )
        if trace.grid != cfg.grid():
            raise ConfigurationError(
                f"trace is on a {trace.grid.width}x{trace.grid.height} grid, "
                f"the config's grid is {cfg.grid_width}x{cfg.grid_height}"
            )
    averages = analysis.cell_time_averages(trace)
    node, cell = np.divmod(np.arange(averages.visits.size), trace.grid.size)
    columns = (
        node,
        *trace.grid.xy(cell),
        averages.visits,
        averages.final_values,
        averages.cauchy_widths,
        averages.converged,
    )
    names = ("node", "x", "y", "visits", "frequency", "cauchy_width", "converged")
    io.export_csv_report(args.out, {n: c.ravel() for n, c in zip(names, columns)})
    steps = len(trace)
    print(
        f"analyzed {trace.node_count} node(s) x {steps} steps; "
        f"wrote per-cell report to {args.out}"
    )
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    _check_out(args, "script", "config")
    cfg = load_continuous_config(_read_config(args.config))
    trace = simulate_continuous(cfg.area(), cfg.nodes, cfg.duration, cfg.time_step, args.seed)
    io.export_ns2(args.out, trace)
    print(f"exported {args.format} movement for {cfg.nodes} node(s) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwmm",
        description="Random-waypoint mobility: simulate, verify, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim_d = sub.add_parser(
        "simulate-discrete", help="simulate grid-model nodes and write a trace"
    )
    sim_d.add_argument("--config", required=True, help="key=value config file")
    sim_d.add_argument("--seed", type=int, required=True)
    sim_d.add_argument("--out", required=True, help="output trace path")
    sim_d.set_defaults(func=_cmd_simulate_discrete)

    sim_c = sub.add_parser(
        "simulate-continuous",
        help="simulate continuous-space nodes and write sampled positions",
    )
    sim_c.add_argument("--config", required=True)
    sim_c.add_argument("--seed", type=int, required=True)
    sim_c.add_argument("--out", required=True)
    sim_c.set_defaults(func=_cmd_simulate_continuous)

    verify = sub.add_parser(
        "verify-channel",
        help="exact stationarity / normalization / decoupling checks",
    )
    verify.add_argument("--config", required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--horizon", type=int, default=2)
    verify.add_argument("--prefixes", type=int, default=20)
    verify.set_defaults(func=_cmd_verify_channel)

    analyze = sub.add_parser(
        "analyze", help="per-cell occupancy and convergence report for a trace"
    )
    analyze.add_argument("--trace", required=True)
    analyze.add_argument("--out", required=True)
    analyze.add_argument(
        "--config", help="cross-check the trace against this config's digest and grid"
    )
    analyze.set_defaults(func=_cmd_analyze)

    export = sub.add_parser(
        "export", help="regenerate a continuous run and export it"
    )
    export.add_argument("--config", required=True)
    export.add_argument("--seed", type=int, required=True)
    export.add_argument("--format", choices=("ns2",), default="ns2")
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:  # its text names the path, as open() raises it
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
