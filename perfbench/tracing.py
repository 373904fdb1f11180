"""Span recording around mepsim's public functions, without editing mepsim.

Each traced function is replaced, for the duration of ``Tracer.installed()``,
at every module attribute that refers to it (``mepsim.cli.simulate`` and
``mepsim.engine.simulate`` alike).  mepsim looks module globals up at call
time, so calls from inside a module are caught too.  Spans live in memory as
``[name, start, end, parent, op, attrs]`` lists; the caller writes them out.
"""

import contextlib
import functools
import importlib
import os
import time

MODULES = ("cli", "analysis", "engine", "trace", "topology", "timing")

# "<defining module>.<function>"; the prefix is the layer a span counts for.
TRACED = (
    "cli.cmd_run", "cli.cmd_analyze",
    "cli.load_config", "cli.resolve_config", "cli.build_metrics",
    "topology.parse_topology", "topology.topology_stats",
    "timing.derive_params",
    "engine.simulate",
    "trace.write_trace", "trace.read_trace",
    "analysis.detect_stabilization", "analysis.series_metrics",
    "analysis.extract_propagation", "analysis.classify_patterns",
    "analysis.check_pattern_properties", "analysis.association_classes",
)


def _simulate_counts(args, result):
    # Keep the arrival list; outcomes are counted after the op, outside spans.
    return {"triggers": len(result.triggers), "arrivals": result.arrivals}


def _write_counts(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _read_counts(args, result):
    return {"rows": len(result.triggers) + len(result.arrivals)}


def _stabilization_counts(args, result):
    return {"rounds": len(result.segments)}


# Counts taken where the work happens; each must be O(1).
COUNTERS = {
    "engine.simulate": _simulate_counts,
    "trace.write_trace": _write_counts,
    "trace.read_trace": _read_counts,
    "analysis.detect_stabilization": _stabilization_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][5] = counter(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function in place; restore them on exit."""
        modules = {m: importlib.import_module(f"mepsim.{m}") for m in MODULES}
        saved = []
        try:
            for name in TRACED:
                layer, attr = name.split(".")
                original = getattr(modules[layer], attr)
                wrapper = self._wrap(original, name)
                for module in modules.values():
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]
