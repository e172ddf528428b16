"""In-memory spans around calls into ptinertia, recorded from benchmark code.

A span holds a name, start, end and the span open when it began. Public
functions are traced by temporarily replacing their module attributes with
wrappers, so calls the library makes between its own modules (for example
``tables.inertia_table`` calling ``catalog.verify``) are traced too and nest
under their caller. Nothing in the library itself is changed.

Layers called once per sample are summed instead (see ``LayerSums``): a span
per call would cost about as much as the smaller of those calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import time
from contextlib import contextmanager, nullcontext
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    enabled = False

    def span(self, name):
        return nullcontext()

    @contextmanager
    def patched(self, targets):
        yield


class LayerSums:
    """Summed duration and call count per layer, inside one scope function.

    Only calls made while the scope function runs are counted. When it
    returns, its process adds its sums to shared memory, so pool workers
    forked while the wrappers are in place report theirs too.
    """

    def __init__(self, names):
        self.names = list(names)
        self._shared = multiprocessing.Array("d", 2 * len(self.names))
        self._local = [0.0] * (2 * len(self.names))

    def timed(self, fn, name):
        k = 2 * self.names.index(name)
        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                local[k] += time.perf_counter() - t0
                local[k + 1] += 1
        return timed

    def scope(self, fn):
        local = self._local

        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            local[:] = [0.0] * len(local)
            try:
                return fn(*args, **kwargs)
            finally:
                with self._shared.get_lock():
                    for i, v in enumerate(local):
                        self._shared[i] += v
        return scoped

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per layer name: (total seconds, number of calls)."""
        return {name: (self._shared[2 * k], int(self._shared[2 * k + 1]))
                for k, name in enumerate(self.names)}


class Tracer:
    enabled = True

    def __init__(self, summed, scope):
        """Summed layers are ``(module, attribute, name)``; only their calls
        inside the ``(module, attribute)`` function ``scope`` count."""
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0
        self.summed = list(summed)
        self.scope = scope
        self.sums = LayerSums(name for _, _, name in self.summed)

    @contextmanager
    def span(self, name):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Trace each ``(module, attribute, span name)`` while the block runs.

        The summed layers and their scope are wrapped for the same time.
        """
        wrappers = [(module, attr, lambda fn, name=name: self.wrap(fn, name))
                    for module, attr, name in targets]
        wrappers += [(module, attr, lambda fn, name=name: self.sums.timed(fn, name))
                     for module, attr, name in self.summed]
        wrappers.append((*self.scope, self.sums.scope))
        saved = []
        try:
            for module_name, attr, make in wrappers:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, make(fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, number of spans).

        A span's self time is its duration minus the durations of its direct
        children, which never overlap because calls nest.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        out: dict[str, tuple[float, int]] = {}
        for s in self.spans:
            total, count = out.get(s.name, (0.0, 0))
            out[s.name] = (total + s.end - s.start - child_time.get(s.id, 0.0), count + 1)
        return out

    def dump(self, path) -> None:
        """Write every span as an ``[id, name, start, end, parent]`` row, and
        each summed layer as ``name: [seconds, calls]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [list(s) for s in self.spans],
                       "sums": self.sums.totals()}, fh)
