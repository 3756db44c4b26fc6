"""Span recorder for the cosserat_weyl package, installed from outside.

`Tracer.install` wraps every public module-level function of each
layer (one layer per package module) and rebinds the wrapper wherever
the package holds the original: in every package module, because the
modules import names with ``from .x import f``, and in module-level
dicts such as ``suites.VERIFIERS``. Nothing under ``src/`` changes.

A span is ``(id, parent_id, name, start, end, nbytes)``. Spans stay in
memory until `summary` turns them into per-name totals. A span's self
time is its duration minus the part of it that its child spans cover.

A `ModelError` is counted at the layer whose code constructs it, the
raise site, whether or not a caller catches it later (``cli.main``
turns every one into exit code 2).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "cosserat_weyl"
LAYERS = ("geometry", "spinor", "weyl", "cosserat", "correspondence",
          "sampling", "suites", "cli", "cwf", "minilang")

# Root spans opened by the benchmark itself; not a layer of the package.
ROOT_PREFIX = "bench."


def _array_bytes(args, kwargs, result):
    values = kwargs.get("values", args[0] if args else None)
    return getattr(values, "nbytes", 0) + getattr(result, "nbytes", 0)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[0]))


def _el_residual_name(args, kwargs):
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "analytic")
    return "weyl.el_residual_fd" if mode == "fd" else "weyl.el_residual"


# Byte counts: spectral_partial's are computed from array sizes (input
# plus output); the cwf ones are the sizes of the files on disk.
BYTE_COUNTERS = {
    "geometry.spectral_partial": _array_bytes,
    "cwf.write_field": _file_bytes,
    "cwf.write_scalar_csv": _file_bytes,
    "cwf.read_field": _file_bytes,
}
SPAN_NAMERS = {"weyl.el_residual": _el_residual_name}


class Tracer:
    """Records one span per call of a wrapped function while enabled."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self.enabled = True
        self._current = 0
        self._next_id = 1
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS + ("errors",)}
        wrappers = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        holders = [importlib.import_module(PACKAGE)] + list(modules.values())
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(vars(module), attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._rebind(obj, key, wrappers[value])
        model_error = modules["errors"].ModelError
        self._undo.append((model_error, "__init__", vars(model_error).get("__init__")))
        model_error.__init__ = self._counting_init(model_error.__init__)

    def _counting_init(self, init):
        tracer = self
        layers = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}

        @functools.wraps(init)
        def counted(error, *args, **kwargs):
            if tracer.enabled:
                layer = layers.get(sys._getframe(1).f_globals.get("__name__"))
                if layer is not None:
                    tracer.errors[layer] += 1
            init(error, *args, **kwargs)

        return counted

    def _rebind(self, namespace: dict, key, wrapper) -> None:
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            if isinstance(namespace, dict):
                namespace[key] = original
            elif original is None:
                delattr(namespace, key)   # ModelError inherits __init__ again
            else:
                setattr(namespace, key, original)

    def _wrap(self, name, fn):
        namer = SPAN_NAMERS.get(name)
        count_bytes = BYTE_COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = namer(args, kwargs) if namer else name
            parent = tracer._current
            span_id = tracer._next_id
            tracer._next_id += 1
            tracer._current = span_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._current = parent
                tracer.spans.append((span_id, parent, span_name, start, end, 0))
            if count_bytes:
                tracer.spans[-1] = tracer.spans[-1][:5] + (count_bytes(args, kwargs, result),)
            return result

        return traced

    # -- benchmark-side spans -------------------------------------------

    def root(self, name: str, fn, *args, on_end):
        """Run ``fn(*args)`` under a root span; ``on_end`` gets the span's
        duration, also when ``fn`` raises."""
        span_id = self._next_id
        self._next_id += 1
        parent, self._current = self._current, span_id
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._current = parent
            self.spans.append((span_id, parent, ROOT_PREFIX + name, start, end, 0))
            on_end(end - start)

    @contextmanager
    def suspended(self):
        """Calls made inside (the benchmark's own checks) record no span."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals over all recorded spans: ``calls``, ``self_s``
        and ``bytes`` for each span name."""
        children = defaultdict(list)
        for span_id, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "bytes": 0})
        for span_id, parent, name, start, end, nbytes in self.spans:
            stats = by_name[name]
            stats["calls"] += 1
            stats["self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
            stats["bytes"] += nbytes
        return dict(by_name)


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
