"""Span recording around specscan's public functions, installed from outside.

:meth:`Tracer.install` rebinds every public function in each specscan module's
namespace (for example ``specscan.pipeline.stretch_cube`` or
``specscan.cli.load_cube``) to a wrapper that records a span: name (the
defining module and function), start, end, parent span, operation id and
thread. Calls made from a worker thread with no open span are parented to the
span that was open in the thread that started the operation. Spans stay in
memory until :meth:`Tracer.dump`.

With ``memory=True`` the functions in :data:`MEMORY_SPANS` (which do not nest
in one another on the pipeline path) also record their ``tracemalloc`` peak
above the allocation level at entry; tracing must then be started by the
caller, and only one thread may run at a time for the peaks to mean anything.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cube", "preprocess", "labeling", "detectors", "pipeline", "cli", "evaluation")

MEMORY_SPANS = (
    "cube.load_cube",
    "preprocess.stretch_cube",
    "detectors.compute_scene_stats",
    "detectors.detect_map",
)

# Counts recorded at a span's boundary from its arguments and result.
_COUNTERS = {
    "detectors.detect_map": lambda args, result: {
        "flagged_px": 0 if result.flags is None else int(result.flags.sum())
    },
    "detectors.compute_scene_stats": lambda args, result: {"ridge_fired": int(result.ridge > 0.0)},
    "labeling.otsu_threshold": lambda args, result: {"otsu_degenerate": int(result.degenerate)},
    "pipeline.run_pipeline": lambda args, result: {"scene_id": args[1].scene_id},
}


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.op = None  # operation id stamped on every span
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_parent = None  # open span of the thread that started the operation
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"specscan.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("specscan."):
                    continue
                name = f"{fn.__module__.removeprefix('specscan.')}.{fn.__name__}"
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        track_memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._op_parent
            if not stack and threading.current_thread() is threading.main_thread():
                self._op_parent = span_id
            stack.append(span_id)
            if track_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = {
                    "id": span_id, "name": name, "start": start, "end": time.perf_counter(),
                    "parent": parent, "op": self.op, "thread": threading.get_ident(),
                }
                stack.pop()
                if track_memory:
                    span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.spans.append(span)
            if counter is not None:
                span.update(counter(args, result))
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out
