"""Plain key=value run configuration: strict parsing with full error reports.

A config file is lines of ``key = value`` with ``#`` comments. Parsing never
stops at the first problem: every unknown key, duplicate, missing key, and
unparsable value is collected with its line number and reported in one
:class:`~rwmm.errors.ConfigurationError`, so a config can be fixed in one
pass. The digest of a config is over its canonical form (sorted key=value
pairs), so reordering lines or editing comments does not change identity.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .continuous import ContinuousAreaSpec
from .errors import ConfigurationError
from .geometry import GridSpec, normalize_speeds
from .processes import WaypointProcessSpec

DISCRETE = "discrete"
CONTINUOUS = "continuous"


def config_digest(text: str) -> str:
    """sha256 of the canonical key=value form (comments and order ignored)."""
    entries, errors = _scan(text)
    if errors:
        raise ConfigurationError("; ".join(errors))
    return _digest(entries)


def _digest(entries: dict[str, tuple[str, int]]) -> str:
    canonical = "\n".join(f"{k}={v}" for k, (v, _) in sorted(entries.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _scan(text: str) -> tuple[dict[str, tuple[str, int]], list[str]]:
    entries: dict[str, tuple[str, int]] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in entries:
            first_line = entries[key][1]
            errors.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {first_line})"
            )
            continue
        entries[key] = (value, lineno)
    return entries, errors


def _parse_speeds(value: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in value.split(",")]
    if not any(parts):
        raise ValueError("empty speed list")
    return normalize_speeds(tuple(Fraction(p) for p in parts if p))


def _parse_finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {value!r}")
    return number


def _parse_waypoints(value: str) -> tuple[str, Fraction | None]:
    if value == "iid-uniform":
        return ("iid-uniform", None)
    if value == "lazy-walk":
        return ("lazy-walk", None)
    if value.startswith("lazy-walk:"):
        return ("lazy-walk", Fraction(value.split(":", 1)[1]))
    raise ValueError(
        f"expected 'iid-uniform', 'lazy-walk', or 'lazy-walk:<stay>', got {value!r}"
    )


@dataclass(frozen=True)
class DiscreteConfig:
    """Validated parameters for a grid-model run."""

    grid_width: int
    grid_height: int
    speeds: tuple[Fraction, ...]
    horizon: int
    nodes: int
    waypoints: str
    stay: Fraction | None
    digest: str

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_width, self.grid_height)

    def waypoint_spec(self) -> WaypointProcessSpec:
        if self.waypoints == "iid-uniform":
            return WaypointProcessSpec.iid_uniform(self.grid())
        if self.stay is None:
            return WaypointProcessSpec.lazy_walk(self.grid())
        return WaypointProcessSpec.lazy_walk(self.grid(), stay=self.stay)


@dataclass(frozen=True)
class ContinuousConfig:
    """Validated parameters for a continuous-space run."""

    area_width: float
    area_height: float
    min_speed: float
    max_speed: float
    duration: float
    time_step: float
    nodes: int
    pause_time: float
    digest: str

    def area(self) -> ContinuousAreaSpec:
        return ContinuousAreaSpec(
            width=self.area_width,
            height=self.area_height,
            min_speed=self.min_speed,
            max_speed=self.max_speed,
            pause_time=self.pause_time,
        )


_DISCRETE_FIELDS: dict[str, tuple[Callable, bool]] = {
    # key -> (parser, required)
    "grid_width": (int, True),
    "grid_height": (int, True),
    "speeds": (_parse_speeds, True),
    "horizon": (int, True),
    "nodes": (int, False),
    "waypoints": (_parse_waypoints, False),
}

_CONTINUOUS_FIELDS: dict[str, tuple[Callable, bool]] = {
    "area_width": (_parse_finite, True),
    "area_height": (_parse_finite, True),
    "min_speed": (_parse_finite, True),
    "max_speed": (_parse_finite, True),
    "duration": (_parse_finite, True),
    "time_step": (_parse_finite, True),
    "nodes": (int, False),
    "pause_time": (_parse_finite, False),
}


def _validate(
    text: str, fields: dict[str, tuple[Callable, bool]]
) -> tuple[dict[str, object], str]:
    entries, errors = _scan(text)
    values: dict[str, object] = {}
    for key, (value, lineno) in entries.items():
        if key not in fields:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        parser, _ = fields[key]
        try:
            values[key] = parser(value)
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    for key, (_, required) in fields.items():
        if required and key not in entries:
            errors.append(f"missing required key {key!r}")
    if errors:
        raise ConfigurationError("; ".join(errors))
    return values, _digest(entries)


def load_discrete_config(text: str) -> DiscreteConfig:
    values, digest = _validate(text, _DISCRETE_FIELDS)
    extra: list[str] = []
    grid_width = int(values["grid_width"])  # type: ignore[arg-type]
    grid_height = int(values["grid_height"])  # type: ignore[arg-type]
    horizon = int(values["horizon"])  # type: ignore[arg-type]
    nodes = int(values.get("nodes", 1))  # type: ignore[arg-type]
    if grid_width < 1 or grid_height < 1:
        extra.append(f"grid must be at least 1x1, got {grid_width}x{grid_height}")
    if horizon < 1:
        extra.append(f"horizon must be >= 1, got {horizon}")
    if nodes < 1:
        extra.append(f"nodes must be >= 1, got {nodes}")
    kind, stay = values.get("waypoints", ("iid-uniform", None))  # type: ignore[misc]
    if stay is not None and not 0 <= stay < 1:
        extra.append(f"lazy-walk stay probability must be in [0, 1), got {stay}")
    if extra:
        raise ConfigurationError("; ".join(extra))
    return DiscreteConfig(
        grid_width=grid_width,
        grid_height=grid_height,
        speeds=values["speeds"],  # type: ignore[arg-type]
        horizon=horizon,
        nodes=nodes,
        waypoints=kind,
        stay=stay,
        digest=digest,
    )


def load_continuous_config(text: str) -> ContinuousConfig:
    values, digest = _validate(text, _CONTINUOUS_FIELDS)
    cfg = ContinuousConfig(
        area_width=float(values["area_width"]),  # type: ignore[arg-type]
        area_height=float(values["area_height"]),  # type: ignore[arg-type]
        min_speed=float(values["min_speed"]),  # type: ignore[arg-type]
        max_speed=float(values["max_speed"]),  # type: ignore[arg-type]
        duration=float(values["duration"]),  # type: ignore[arg-type]
        time_step=float(values["time_step"]),  # type: ignore[arg-type]
        nodes=int(values.get("nodes", 1)),  # type: ignore[arg-type]
        pause_time=float(values.get("pause_time", 0.0)),  # type: ignore[arg-type]
        digest=digest,
    )
    if cfg.nodes < 1:
        raise ConfigurationError(f"nodes must be >= 1, got {cfg.nodes}")
    cfg.area()  # surface range/degeneracy problems as ConfigurationError now
    if cfg.duration <= 0 or cfg.time_step <= 0:
        raise ConfigurationError("duration and time_step must be > 0")
    return cfg
