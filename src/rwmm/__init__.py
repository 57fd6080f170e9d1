"""Discrete random-waypoint mobility: exact measures, simulation, diagnostics.

Layers, bottom to top:

* :mod:`rwmm.geometry` — grid, exact segment digitization, path alphabet;
* :mod:`rwmm.processes` — waypoint randomness, the waypoint->path channel,
  exact cylinder measures, stationarity/decoupling checks, seeded samplers;
* :mod:`rwmm.location` — paths encoded into per-step locations, trip timing,
  joint multi-node view;
* :mod:`rwmm.simulate` — end-to-end seeded runs;
* :mod:`rwmm.analysis` — time averages, Cesàro ensemble estimates,
  cross-seed ergodicity diagnostics, occupancy histograms;
* :mod:`rwmm.continuous` — continuous-space motion, grid bridge, traffic proxy;
* :mod:`rwmm.config` / :mod:`rwmm.io` / :mod:`rwmm.cli` — batch tooling.
"""

from .errors import CapacityError, ConfigurationError, VerificationError
from .geometry import Cell, GridSpec, Path, PathAlphabet, build_alphabet
from .location import JointTrace, LocationTrace, encode_sequence
from .processes import (
    CylinderEvent,
    WaypointProcessSpec,
    channel_cylinder_prob,
    channel_total_mass,
    check_channel_stationarity,
    check_output_mixing,
    path_process_prob,
    waypoint_cylinder_prob,
)
from .simulate import simulate_joint, simulate_node

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Cell",
    "ConfigurationError",
    "CylinderEvent",
    "GridSpec",
    "JointTrace",
    "LocationTrace",
    "Path",
    "PathAlphabet",
    "VerificationError",
    "WaypointProcessSpec",
    "build_alphabet",
    "channel_cylinder_prob",
    "channel_total_mass",
    "check_channel_stationarity",
    "check_output_mixing",
    "encode_sequence",
    "path_process_prob",
    "simulate_joint",
    "simulate_node",
    "waypoint_cylinder_prob",
]
