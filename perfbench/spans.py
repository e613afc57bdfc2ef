"""Spans recorded around the public functions of grambounds, from outside.

A :class:`Tracer` replaces every public function of the traced modules with
a wrapper that records one span per call: name, start, end and the span
that was open when the call began (its parent).  A function is rebound in
every module namespace that holds it, because callers look names up in
their own module: ``bounds.span_bound`` calls ``seq_pnorm`` through
``bounds.seq_pnorm``, not through ``norms.seq_pnorm``.  Leaving the
``installed()`` block puts every original back.

Spans live in flat arrays (32 bytes each) so that a traced scan of half a
million cells fits in memory; they are aggregated after the run.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from contextlib import contextmanager
from typing import Callable, Mapping, NamedTuple

import numpy as np

TRACED_MODULES = ("verify", "core", "norms", "bounds", "compare", "cli")


class LayerStats(NamedTuple):
    """Totals over every span of one name."""

    calls: int
    total_s: float
    self_s: float


def public_functions(package) -> dict[str, types.FunctionType]:
    """``{"<module>.<name>": function}`` for every public function defined in a traced module."""
    found = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"{package.__name__}.{short}")
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
            ):
                found[f"{short}.{attr}"] = obj
    return found


def namespaces(package) -> list[types.ModuleType]:
    """The package and its traced modules: every namespace a wrapper is bound into."""
    return [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in TRACED_MODULES]


class Tracer:
    """Records spans while installed; keeps them across installs."""

    def __init__(self, package):
        self._package = package
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    @contextmanager
    def installed(self, after: Mapping[str, Callable] | None = None):
        """Wrap every public function for the duration of the block.

        ``after`` maps a span name to a callback that receives the wrapped
        function's result once its span has closed; the callback's own
        calls are recorded as siblings of that span.
        """
        after = after or {}
        spaces = namespaces(self._package)
        restore = []
        try:
            for name, fn in public_functions(self._package).items():
                wrapper = self._wrap(name, fn, after.get(name))
                for ns in spaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            restore.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, fn in reversed(restore):
                setattr(ns, attr, fn)

    def stats(self) -> dict[str, LayerStats]:
        """Calls, total time and self time (total minus direct children) per span name."""
        n = len(self.name_id)
        if n == 0:
            return {}
        # Copies, so that no buffer export pins the arrays against growing.
        ids = np.frombuffer(self.name_id, dtype=np.int64).copy()
        parents = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        return {
            name: LayerStats(int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def __len__(self) -> int:
        return len(self.name_id)
