"""Shared pytest settings.

Property tests run a fixed, reproducible set of examples with no per-example
time limit, so a slow or busy machine neither fails them nor changes them.
"""

from hypothesis import settings

settings.register_profile("rwmm", deadline=None, derandomize=True)
settings.load_profile("rwmm")
