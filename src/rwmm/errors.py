"""Error types shared across the toolkit, plus the sample limit and the exact-enumeration cap."""

import os

MAX_SAMPLES = 10**8  # samples (nodes × steps) one run may hold; checks read it when they run
DEFAULT_ENUMERATION_CAP = 10**6
ENUMERATION_CAP_ENV = "RWMM_ENUM_CAP"


class ConfigurationError(ValueError):
    """Invalid configuration or parameter values (CLI exit code 2)."""


class CapacityError(RuntimeError):
    """An exact enumeration would exceed the configured cap (CLI exit code 3)."""


class VerificationError(RuntimeError):
    """An exact identity check produced a nonzero discrepancy (CLI exit code 4)."""


def enumeration_cap() -> int:
    """Current enumeration cap; the RWMM_ENUM_CAP env var overrides the default.

    Only the path-alphabet build enumerates: it fails loudly with
    :class:`CapacityError`, before digitizing anything, when the paths it
    would digitize, one per displacement and speed, (2W-1)(2H-1)·|speeds|,
    exceed this many. It raises the same error, whatever the cap, for a
    speed whose integer arithmetic could pass 2^62, the int64 range of its
    numpy digitizer (see :func:`~rwmm.geometry.build_alphabet`). The exact
    channel and path-process measures are closed forms and never consult
    the cap.
    """
    raw = os.environ.get(ENUMERATION_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENUMERATION_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ConfigurationError(f"{ENUMERATION_CAP_ENV} must be positive, got {cap}")
    return cap
