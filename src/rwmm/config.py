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
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import cache
from typing import Any, Callable

from .continuous import ContinuousAreaSpec
from .errors import ConfigurationError
from .geometry import GridSpec, normalize_speeds
from .processes import WaypointProcessSpec


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


def _key(parse: Callable[[str], Any], default: Any = MISSING) -> Any:
    """A config key: a field read from the file by ``parse``, required without a default."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class DiscreteConfig:
    """Validated parameters for a grid-model run."""

    grid_width: int = _key(int)
    grid_height: int = _key(int)
    speeds: tuple[Fraction, ...] = _key(_parse_speeds)
    horizon: int = _key(int)
    digest: str
    nodes: int = _key(int, default=1)
    waypoints: str = _key(_parse_waypoints, default="iid-uniform")  # parsed as (kind, stay)
    stay: Fraction | None = None

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

    area_width: float = _key(_parse_finite)
    area_height: float = _key(_parse_finite)
    min_speed: float = _key(_parse_finite)
    max_speed: float = _key(_parse_finite)
    duration: float = _key(_parse_finite)
    time_step: float = _key(_parse_finite)
    digest: str
    nodes: int = _key(int, default=1)
    pause_time: float = _key(_parse_finite, default=0.0)

    def area(self) -> ContinuousAreaSpec:
        return ContinuousAreaSpec(
            width=self.area_width,
            height=self.area_height,
            min_speed=self.min_speed,
            max_speed=self.max_speed,
            pause_time=self.pause_time,
        )


@cache
def _keys(cls: type) -> dict[str, tuple[Callable[[str], Any], bool]]:
    """Each config key of ``cls``, in field order: its parser and whether it is required."""
    keys = (f for f in fields(cls) if "parse" in f.metadata)
    return {f.name: (f.metadata["parse"], f.default is MISSING) for f in keys}


def _validate(text: str, cls: type) -> tuple[dict[str, Any], str]:
    keys = _keys(cls)
    entries, errors = _scan(text)
    values: dict[str, Any] = {}
    for key, (value, lineno) in entries.items():
        if key not in keys:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        parser, _ = keys[key]
        try:
            values[key] = parser(value)
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    for key, (_, required) in keys.items():
        if required and key not in entries:
            errors.append(f"missing required key {key!r}")
    if errors:
        raise ConfigurationError("; ".join(errors))
    return values, _digest(entries)


def load_discrete_config(text: str) -> DiscreteConfig:
    values, digest = _validate(text, DiscreteConfig)
    if "waypoints" in values:
        values["waypoints"], values["stay"] = values["waypoints"]
    cfg = DiscreteConfig(**values, digest=digest)
    errors: list[str] = []
    if cfg.grid_width < 1 or cfg.grid_height < 1:
        errors.append(f"grid must be at least 1x1, got {cfg.grid_width}x{cfg.grid_height}")
    if cfg.horizon < 1:
        errors.append(f"horizon must be >= 1, got {cfg.horizon}")
    if cfg.nodes < 1:
        errors.append(f"nodes must be >= 1, got {cfg.nodes}")
    if cfg.stay is not None and not 0 <= cfg.stay < 1:
        errors.append(f"lazy-walk stay probability must be in [0, 1), got {cfg.stay}")
    if errors:
        raise ConfigurationError("; ".join(errors))
    return cfg


def load_continuous_config(text: str) -> ContinuousConfig:
    values, digest = _validate(text, ContinuousConfig)
    cfg = ContinuousConfig(**values, digest=digest)
    errors: list[str] = []
    if cfg.nodes < 1:
        errors.append(f"nodes must be >= 1, got {cfg.nodes}")
    try:
        cfg.area()  # surface range/degeneracy problems as ConfigurationError now
    except ConfigurationError as exc:
        errors.append(str(exc))
    if cfg.duration <= 0 or cfg.time_step <= 0:
        errors.append("duration and time_step must be > 0")
    if errors:
        raise ConfigurationError("; ".join(errors))
    return cfg
