"""Spans and call hooks around roadcost's public functions, applied from outside.

A probe replaces a function at every binding inside the ``roadcost`` package
that refers to it: the defining module, each module that imported it by
name, and the package namespace. Calls the pipeline makes through any of
those names then pass through one wrapper, which records a span (name,
start, end, parent) when tracing is on and then runs the function's hook, if
it has one. Hooks see the call's arguments and result; they check outputs
and take counts. Bindings are restored when the probe is uninstalled.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable

Hook = Callable[[tuple, dict, object], None]


class Probe:
    """Span recorder plus hook dispatcher for one run of a job.

    ``hook_s`` accumulates the time spent inside hooks, so callers can take
    it out of a wall-clock measurement that surrounds the hooked calls.
    """

    def __init__(self, trace: bool, hooks: dict[str, Hook], origin: float):
        self.trace = trace
        self.hooks = hooks
        self.origin = origin
        self.spans: list[dict] = []
        self.hook_s = 0.0
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter() - self.origin,
                "end": None,
            }
        )
        self._open.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter() - self.origin
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself (for example a job)."""
        if not self.trace:
            yield
            return
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = self.hooks.get(name)
        trace = self.trace

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace:
                sid = self._begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._end(sid)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                started = time.perf_counter()
                hook(args, kwargs, result)
                self.hook_s += time.perf_counter() - started
            return result

        return wrapper

    @contextmanager
    def installed(self, package: str, names: Iterable[str]):
        """Wrap ``<package>.<module>.<function>`` for each ``module.function``."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        patches = []
        try:
            for name in names:
                module_name, attr = name.rsplit(".", 1)
                original = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    out: dict[str, dict] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        kids = [(c["start"], c["end"]) for c in children.get(span["id"], [])]
        entry = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(kids)
    return out
