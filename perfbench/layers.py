"""The traced layers of rwmm and the per-layer metrics computed from their spans.

Each layer is one module of the package. Counts are computed by the
benchmark at the layer boundary, from the arguments and return values and
through the public API; they are not read from inside the library.
"""

from __future__ import annotations

import os

from rwmm import analysis, cli, config, continuous, geometry, io, location, processes, simulate
from rwmm.errors import enumeration_cap

from tracing import Target, Tracer


def _alphabet_sizes(tracer: Tracer, args: dict, alphabet) -> None:
    tracer.counts["geometry.alphabet.paths"] = len(alphabet.all_paths)
    tracer.counts["geometry.alphabet.max_path_length"] = alphabet.max_path_length


def _waypoint_count(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["processes.sample_waypoints.count"] += args["count"]


def _encoded(tracer: Tracer, args: dict, trace) -> None:
    tracer.counts["location.encode.locations"] += len(trace)


def _kept(tracer: Tracer, args: dict, joint) -> None:
    tracer.counts["location.encode.kept"] += joint.ids.size


def _file_bytes(metric: str):
    def hook(tracer: Tracer, args: dict, result) -> None:
        tracer.counts[metric] += os.path.getsize(args["path"])

    return hook


def _calls(metric: str):
    def hook(tracer: Tracer, args: dict, result) -> None:
        tracer.counts[metric] += 1

    return hook


def _cylinders(metric: str, offset: int):
    """Products of the per-coordinate support sizes that a check enumerates.

    The stationarity check's two supports at coordinate i are both the
    family of ``(w[i+1], w[i+2])``; the mass check's is that of
    ``(w[i], w[i+1])``. The largest product is reported next to the cap.
    """

    def hook(tracer: Tracer, args: dict, result) -> None:
        alphabet, waypoints = args["alphabet"], args["waypoints"]
        product = 1
        for i in range(offset, offset + args["horizon"]):
            product *= len(alphabet.family_id_set(waypoints[i], waypoints[i + 1]))
        tracer.counts[metric] += product
        largest = metric + ".max"
        tracer.counts[largest] = max(tracer.counts[largest], product)

    return hook


def _prefixes(tracer: Tracer, args: dict, prob) -> None:
    event = args["event"]
    needed = event.end + 2
    span = needed if args["horizon"] is None else args["horizon"]
    if event.start != 0 or span != needed:
        raise ValueError("useful prefixes are counted only for events that fix every waypoint")
    tracer.counts["processes.path_process_prob.prefixes"] += args["spec"].grid.size ** span
    # every waypoint is fixed by the event, so at most one prefix contributes
    tracer.counts["processes.path_process_prob.useful"] += int(prob != 0)


def _legs(tracer: Tracer, args: dict, trace) -> None:
    tracer.counts["continuous.simulate_continuous.legs"] += sum(len(legs) for legs in trace.legs)
    tracer.counts["continuous.simulate_continuous.samples"] += trace.node_count * trace.step_count


TARGETS = [
    Target(config, "load_discrete_config", "config.load"),
    Target(config, "load_continuous_config", "config.load"),
    Target(geometry, "build_alphabet", "geometry.build_alphabet", _alphabet_sizes),
    Target(processes, "sample_waypoints", "processes.sample_waypoints", _waypoint_count),
    Target(processes, "sample_paths", "processes.sample_paths"),
    Target(
        processes,
        "check_channel_stationarity",
        "processes.check_channel_stationarity",
        _cylinders("processes.check_channel_stationarity.cylinders", 1),
    ),
    Target(
        processes,
        "channel_total_mass",
        "processes.channel_total_mass",
        _cylinders("processes.channel_total_mass.cylinders", 0),
    ),
    Target(processes, "check_output_mixing", "processes.check_output_mixing"),
    Target(processes, "path_process_prob", "processes.path_process_prob", _prefixes),
    Target(location, "encode_sequence", "location.encode_sequence", _encoded),
    Target(location, "joint_process", "location.joint_process", _kept),
    Target(simulate, "simulate_joint", "simulate.simulate_joint"),
    Target(analysis, "time_average", "analysis.time_average", _calls("analysis.time_average.calls")),
    Target(analysis, "location_histogram", "analysis.location_histogram"),
    Target(continuous, "simulate_continuous", "continuous.simulate_continuous", _legs),
    Target(io, "save_locations", "io.save_locations", _file_bytes("io.save_locations.bytes")),
    Target(io, "load_locations", "io.load_locations"),
    Target(io, "export_csv_report", "io.export_csv_report"),
    Target(io, "save_positions", "io.save_positions", _file_bytes("io.save_positions.bytes")),
    Target(io, "export_ns2", "io.export_ns2", _file_bytes("io.export_ns2.bytes")),
    Target(cli, "_cmd_simulate_discrete", "cli.simulate_discrete"),
    Target(cli, "_cmd_simulate_continuous", "cli.simulate_continuous"),
    Target(cli, "_cmd_analyze", "cli.analyze"),
    Target(cli, "_cmd_verify_channel", "cli.verify_channel"),
    Target(cli, "_cmd_export", "cli.export"),
]

# per-layer metric -> span name; every time is a self time in seconds
SELF_TIMES = {
    "config.load.s": "config.load",
    "geometry.build_alphabet.s": "geometry.build_alphabet",
    "processes.sample_waypoints.s": "processes.sample_waypoints",
    "processes.sample_paths.s": "processes.sample_paths",
    "location.encode_sequence.s": "location.encode_sequence",
    "location.joint_process.s": "location.joint_process",
    "simulate.simulate_joint.self_s": "simulate.simulate_joint",
    "io.save_locations.s": "io.save_locations",
    "io.load_locations.s": "io.load_locations",
    "io.export_csv_report.s": "io.export_csv_report",
    "analysis.time_average.s": "analysis.time_average",
    "analysis.location_histogram.s": "analysis.location_histogram",
    "cli.analyze.self_s": "cli.analyze",
    "processes.check_channel_stationarity.s": "processes.check_channel_stationarity",
    "processes.channel_total_mass.s": "processes.channel_total_mass",
    "processes.check_output_mixing.s": "processes.check_output_mixing",
    "cli.verify_channel.self_s": "cli.verify_channel",
    "processes.path_process_prob.s": "processes.path_process_prob",
    "continuous.simulate_continuous.s": "continuous.simulate_continuous",
    "io.save_positions.s": "io.save_positions",
    "io.export_ns2.s": "io.export_ns2",
}

# per-layer metric -> unit, for the counts the hooks record
COUNTS = {
    "geometry.alphabet.paths": "count",
    "geometry.alphabet.max_path_length": "steps",
    "processes.sample_waypoints.count": "count",
    "io.save_locations.bytes": "bytes",
    "analysis.time_average.calls": "count",
    "processes.check_channel_stationarity.cylinders": "count",
    "processes.channel_total_mass.cylinders": "count",
    "processes.path_process_prob.prefixes": "count",
    "continuous.simulate_continuous.legs": "count",
    "continuous.simulate_continuous.samples": "count",
    "io.save_positions.bytes": "bytes",
    "io.export_ns2.bytes": "bytes",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tracer() -> Tracer:
    return Tracer("rwmm", TARGETS)


def per_layer_metrics(t: Tracer) -> dict[str, dict]:
    """Every per-layer metric except ``trace.overhead_s``; 0 where a layer did not run."""
    times = t.self_times()
    metrics = {
        name: {"value": times.get(span, 0.0), "unit": "s"}
        for name, span in SELF_TIMES.items()
    }
    for name, unit in COUNTS.items():
        metrics[name] = {"value": t.counts.get(name, 0), "unit": unit}
    metrics["location.encode.kept_ratio"] = {
        "value": _ratio(t.counts["location.encode.kept"], t.counts["location.encode.locations"]),
        "unit": "ratio",
    }
    metrics["processes.path_process_prob.useful_ratio"] = {
        "value": _ratio(
            t.counts["processes.path_process_prob.useful"],
            t.counts["processes.path_process_prob.prefixes"],
        ),
        "unit": "ratio",
    }
    return metrics


def enumeration_sizes(t: Tracer) -> dict[str, float]:
    """The largest single enumerations next to the cap, for the run's context."""
    keys = (
        "processes.check_channel_stationarity.cylinders.max",
        "processes.channel_total_mass.cylinders.max",
    )
    sizes = {key: t.counts.get(key, 0) for key in keys}
    sizes["enumeration_cap"] = enumeration_cap()
    return sizes

