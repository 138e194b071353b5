"""Per-layer tracing from outside the package.

A traced op replaces the public functions at each module boundary of
``opaa`` with wrappers that record a span (layer, start, end, count, tag),
and restores them afterwards, so untraced ops run the unmodified code.
Names imported into other modules (``from .quadrature import
gauss_hermite``) are found by identity and patched too. Spans are kept in
memory; self time of a layer is its span length minus the part of that
interval covered by spans of other layers, from any thread.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

import opaa
import opaa.cli

# (layer, module, public function) at each boundary the benchmark measures
FUNCTION_BOUNDARIES = (
    ("core.solve", "opaa.core", "run_opaa"),
    ("quadrature.rule", "opaa.quadrature", "gauss_hermite"),
    ("hermite.table", "opaa.hermite", "build_table"),
    ("hermite.table", "opaa.hermite", "extend_table"),
    ("hermite.psi", "opaa.hermite", "psi_table"),
    ("multiindex.enumerate", "opaa.multiindex", "enumerate_shell"),
    ("cli.load", "opaa.cli", "load_coefficients"),
    ("cli.main", "opaa.cli", "main"),
)


def _point_count(args, kwargs):
    return int(np.atleast_2d(np.asarray(args[1], dtype=float)).shape[0])


# (layer, class, method, count of work items in one call)
METHOD_BOUNDARIES = (
    ("core.reconstruct", opaa.ApproxDensity, "__call__", _point_count),
    ("core.mass", opaa.ApproxDensity, "mass", None),
)


class Tracer:
    """Collects spans while its boundaries are patched in."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def record(self, layer, start, end, count=1, tag=None):
        # list.append is atomic, so worker threads may record concurrently
        self.spans.append((layer, start, end, count, tag))

    def wrap(self, layer, fn, count=None, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = self._local.__dict__.setdefault("active", set())
            if layer in active:
                # a layer calling itself is one span, not two
                return fn(*args, **kwargs)
            active.add(layer)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active.discard(layer)
                n = count(args, kwargs) if count is not None else 1
                self.record(layer, start, end, n, tag)

        return traced

    def open_for_cli(self, file, mode="r", *args, **kwargs):
        """``open`` as seen by opaa.cli: writes and closes become cli.write spans."""
        fh = open(file, mode, *args, **kwargs)
        if any(flag in mode for flag in "wax+"):
            return _TimedFile(self, fh)
        return fh

    def patched(self):
        return _Patch(self)

    def layer_stats(self):
        """Per-layer busy time, call count, summed counts and self time."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        self_time = defaultdict(float)
        spans = sorted(self.spans, key=lambda s: s[1])
        for i, (layer, start, end, n, _) in enumerate(spans):
            busy[layer] += end - start
            calls[layer] += 1
            counts[layer] += n
            inner = []
            for other, s2, e2, _, _ in spans[i + 1 :]:
                if s2 >= end:
                    break
                if other != layer and e2 <= end:
                    inner.append((s2, e2))
            self_time[layer] += (end - start) - _union_length(inner)
        return busy, calls, counts, self_time

    def counts_by_tag(self, layer):
        out = defaultdict(int)
        for name, _, _, n, tag in self.spans:
            if name == layer:
                out[tag] += n
        return dict(out)


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _TimedFile:
    def __init__(self, tracer, fh):
        self._tracer = tracer
        self._fh = fh

    def write(self, data):
        start = perf_counter()
        try:
            return self._fh.write(data)
        finally:
            self._tracer.record("cli.write", start, perf_counter())

    def close(self):
        start = perf_counter()
        try:
            self._fh.close()
        finally:
            self._tracer.record("cli.write", start, perf_counter())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _Patch:
    """Context manager that installs a tracer's wrappers and removes them."""

    def __init__(self, tracer):
        self._tracer = tracer
        self._undo = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "opaa"]
        for layer, module_name, attr in FUNCTION_BOUNDARIES:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._tracer.wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)
        for layer, cls, attr, count in METHOD_BOUNDARIES:
            self._set(cls, attr, self._tracer.wrap(layer, getattr(cls, attr), count))
        self._set(opaa.cli, "open", self._tracer.open_for_cli)
        return self._tracer

    def _set(self, owner, name, value):
        missing = name not in vars(owner)
        self._undo.append((owner, name, None if missing else vars(owner)[name], missing))
        setattr(owner, name, value)

    def __exit__(self, *exc):
        for owner, name, value, missing in reversed(self._undo):
            if missing:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        self._undo.clear()


class TracedTarget(opaa.TargetDensity):
    """Wraps a target so each batch evaluation is a models.eval span."""

    def __init__(self, target, tracer, tag):
        self.dim = target.dim
        self._target = target
        self._tracer = tracer
        self._tag = tag

    def log_density(self, theta):
        start = perf_counter()
        try:
            return self._target.log_density(theta)
        finally:
            self._tracer.record("models.eval", start, perf_counter(), 1, self._tag)

    def log_density_batch(self, points):
        start = perf_counter()
        try:
            return self._target.log_density_batch(points)
        finally:
            n = int(np.shape(points)[0])
            self._tracer.record("models.eval", start, perf_counter(), n, self._tag)
