"""Span tracing from outside the program: wrap layer entry points, keep spans.

The benchmark measures each layer without touching ``src/``: :class:`Tracer`
replaces the public functions and methods the layers call into with thin
wrappers that record one span per call (name, start, end, parent) in memory.
Module-level functions are patched at *every* ``repro.*`` module that holds a
binding to them, because the engine from-imports them; function-local imports
read the source module's attribute, which is patched too.  ``restore()`` puts
every original back and :meth:`Tracer.unrestored` proves it by identity.

Spans are written out as a Chrome-trace JSON file (``chrome://tracing`` /
Perfetto) and folded into per-name self times: a span's duration minus the
part of its interval covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name): functions wrapped at every repro.* binding.
FUNCTION_TARGETS = (
    ("repro.slam.losses", "photometric_geometric_loss", "slam.loss"),
    ("repro.gaussians.projection", "shared_preprocess", "gaussians.step1"),
    ("repro.gaussians.projection", "project_gaussians", "gaussians.step1"),
    ("repro.gaussians.sorting", "build_tile_lists", "gaussians.step2"),
    ("repro.gaussians.fast_raster", "build_flat_fragments", "gaussians.step2"),
    ("repro.gaussians.fast_raster", "rasterize_flat_into", "gaussians.step3"),
    ("repro.gaussians.fast_raster", "rasterize_backward_flat", "gaussians.step4"),
    ("repro.gaussians.backward", "preprocess_backward", "gaussians.step5"),
    ("repro.gaussians.backward", "preprocess_backward_batch", "gaussians.step5"),
)

# (module, class, method, span name): methods wrapped on the class.
METHOD_TARGETS = (
    ("repro.slam.tracking", "GradientTracker", "track", "slam.track"),
    ("repro.slam.mapping", "StreamingMapper", "map", "slam.map"),
    ("repro.slam.optimizer", "Adam", "step", "slam.optimizer"),
    ("repro.engine.engine", "RenderEngine", "render", "engine.render"),
    ("repro.engine.engine", "RenderEngine", "backward", "engine.backward"),
    ("repro.engine.engine", "RenderEngine", "render_batch", "engine.render_batch"),
    ("repro.engine.engine", "RenderEngine", "backward_batch", "engine.backward_batch"),
    ("repro.core.pruning", "AdaptiveGaussianPruner", "begin_frame", "core.prune"),
    ("repro.core.pruning", "AdaptiveGaussianPruner", "after_backward", "core.prune"),
    ("repro.core.pruning", "AdaptiveGaussianPruner", "end_frame", "core.prune"),
    ("repro.service.service", "RenderService", "run_round", "service.round"),
)

# (module, attribute, span name): wrapped at that one module binding only.
# The service executes cache-on units itself through its own ``execute_view``
# binding; the flat backend reaches the same function through batch.py, which
# engine.render_batch already covers.
LOCAL_TARGETS = (("repro.service.service", "execute_view", "service.cached_unit"),)

# Span names whose results carry rendered pixels and fragments.
RENDERING_SPANS = ("engine.render", "engine.render_batch", "service.cached_unit")


def _views(result) -> list:
    views = getattr(result, "views", None)
    return list(views) if views is not None else [result]


class Tracer:
    """Installs span-recording wrappers; accumulates spans and render counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.pixels = 0
        self.fragments = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # owner, attr, original
        self._wrappers: list[object] = []

    # -- install / restore ----------------------------------------------------
    def _wrap(self, original, name: str):
        spans = self.spans
        stack = self._stack
        counts_renders = name in RENDERING_SPANS
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counts_renders:
                for view in _views(result):
                    self.pixels += int(view.image.shape[0] * view.image.shape[1])
                    self.fragments += int(view.n_fragments)
            return result

        return wrapper

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        self._wrappers.append(wrapper)

    def install(self) -> None:
        """Wrap every target; raises if a target is missing (API drift)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, span)
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                if vars(module).get(attr) is original:
                    self._patch(module, attr, original, wrapper)
        for module_name, cls_name, attr, span in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[attr]
            self._patch(cls, attr, original, self._wrap(original, span))
        for module_name, attr, span in LOCAL_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patch(module, attr, original, self._wrap(original, span))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Sites not holding their original again, by identity.

        Also catches a wrapper that a module imported while tracing was on
        bound under its own name.
        """
        wrappers = {id(wrapper) for wrapper in self._wrappers}
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                stale += [f"{name}.{k}" for k, v in vars(module).items() if id(v) in wrappers]
        return stale

    @property
    def n_sites(self) -> int:
        return len(self._patched)

    # -- analysis -------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms_p50 and self-time busy_s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += (end - start) - child_time[index]
            durations[name].append(end - start)
        return {
            name: {
                "calls": calls[name],
                "busy_s": busy[name],
                "ms_p50": 1e3 * statistics.median(durations[name]),
            }
            for name in calls
        }

    def write_chrome_trace(self, path, metadata: dict | None = None) -> None:
        """Complete ("X") events in microseconds, parent index in ``args``."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": 1e6 * (start - origin),
                "dur": 1e6 * (end - start),
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "otherData": metadata or {}}, handle)
