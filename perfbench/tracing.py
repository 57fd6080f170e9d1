"""In-memory spans around library functions, installed by rebinding attributes.

`Tracer.active()` replaces each target function with a wrapper in every
already-imported module of the package that holds a reference to it, so
calls between modules (``cli`` -> ``simulate`` -> ``processes``) go through
the wrappers; the originals are restored on exit. No source file is edited.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or None. Spans stay in memory until `dump()` writes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

# hook(tracer, bound arguments, return value), run after the call's span ends
Hook = Callable[["Tracer", dict, object], None]

HOOK_SPAN = "trace.hook"


class Target(NamedTuple):
    """One function to trace: ``module.attr`` recorded under ``span``."""

    module: ModuleType
    attr: str
    span: str
    hook: Hook | None = None


class Tracer:
    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = targets
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.span):
                result = fn(*args, **kwargs)
            if target.hook is not None:
                # hooks get their own span so that their cost is not
                # charged to the caller's self time
                with self.span(HOOK_SPAN):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    target.hook(self, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def active(self, name: str):
        """Trace every target for the duration, all under one span ``name``."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]
        patched: list[tuple[ModuleType, str, Callable]] = []
        try:
            for target in self.targets:
                original = getattr(target.module, target.attr)
                wrapper = self._wrap(original, target)
                for module in modules:
                    if module.__dict__.get(target.attr) is original:
                        setattr(module, target.attr, wrapper)
                        patched.append((module, target.attr, original))
            with self.span(name):
                yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed durations minus the durations of direct children."""
        totals: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)

    def dump(self, path: Path, meta: dict) -> None:
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": spans}) + "\n")
