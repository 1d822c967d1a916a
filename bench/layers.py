"""Per-layer self time for the benchmark's traced pass.

:class:`SpanRecorder` wraps one public method per layer boundary at
class level, records a span ``(name, parent, start, end)`` for every
call made while the recorder is on, and keeps the spans in memory
until :meth:`SpanRecorder.write_jsonl` is called at the end of the
run.  A layer's self time is the duration of its spans minus the part
covered by their direct child spans, so nested layers (the farm tick
calling the load balancer, the kernel resuming every process) are
never counted twice.

Only public names are wrapped.  A class or method that no longer
resolves is listed in :attr:`SpanRecorder.absent` instead of raising,
so the benchmark keeps running across refactors that move or delete a
boundary; the time spent there then shows up in the caller's layer or
in ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

__all__ = ["LAYERS", "BOUNDARIES", "SpanRecorder", "layer_metrics"]

#: ``(layer, module, class, method)`` for every wrapped boundary.
BOUNDARIES = (
    ("sim", "repro.sim", "Environment", "run"),
    ("cluster", "repro.cluster", "LoadBalancer", "dispatch"),
    ("control", "repro.control", "ServerFarm", "step"),
    ("control", "repro.control", "CoordinatedController", "decide"),
    ("core", "repro.core", "MacroResourceManager", "decide"),
    ("power", "repro.power", "PowerCapper", "evaluate"),
    ("cooling", "repro.cooling", "MachineRoom", "step_once"),
    ("datacenter", "repro.datacenter", "DataCenter", "sync_physical"),
    ("controlplane", "repro.controlplane", "ControlPlane", "publish_tick"),
    ("controlplane", "repro.controlplane", "ControlPlane",
     "publish_physical"),
    ("federation", "repro.federation", "GlobalRouter", "decide"),
)

#: Layers in report order (each appears in :data:`BOUNDARIES`).
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in BOUNDARIES))


class SpanRecorder:
    """Wraps the layer boundaries and records spans while :attr:`on`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``(layer index, parent span index or -1, start, end)``.
        self.spans: list[tuple[int, int, float, float]] = []
        self.on = False
        #: ``module.Class.method`` names that did not resolve.
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[type, str, object]] = []

    def install(self) -> None:
        """Wrap every boundary that resolves; record the rest as absent."""
        for layer, module_name, class_name, method in BOUNDARIES:
            label = f"{module_name}.{class_name}.{method}"
            try:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                original = getattr(cls, method)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            self._patched.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method,
                    self._wrap(original, LAYERS.index(layer)))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for cls, method, own in reversed(self._patched):
            if own is None:  # inherited: drop the shadowing wrapper
                delattr(cls, method)
            else:
                setattr(cls, method, own)
        self._patched.clear()

    def _wrap(self, fn, layer: int):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((layer, parent, 0.0, 0.0))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, parent, start, end)

        return traced

    def write_jsonl(self, path, origin: float = 0.0) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        with open(path, "w") as out:
            for layer, parent, start, end in self.spans:
                out.write(json.dumps({
                    "name": LAYERS[layer], "parent": parent,
                    "start": start - origin, "end": end - origin}) + "\n")


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """``<layer>.self_s`` / ``.calls`` / ``.share`` plus ``unattributed_s``.

    A call is a span whose parent belongs to another layer (or that
    has no parent), so a layer re-entering itself counts once.
    """
    child_s = [0.0] * len(spans)
    for layer, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s = [0.0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    for i, (layer, parent, start, end) in enumerate(spans):
        self_s[layer] += (end - start) - child_s[i]
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] += 1
    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = self_s[i]
        out[f"{layer}.calls"] = calls[i]
        out[f"{layer}.share"] = self_s[i] / wall_s if wall_s > 0 else 0.0
    out["unattributed_s"] = wall_s - sum(self_s)
    return out
