"""Span recording around the program's public layer functions.

The benchmark traces from its own files: :func:`install` replaces each
layer entry point named in :data:`TARGETS` with a wrapper that records
one span per call (name, start, end, parent, run id, attributes) into a
:class:`Recorder`.  Every module that bound the original function with
``from ... import`` gets the wrapper too, so calls are seen whichever
name the caller uses.  Nothing under ``src/`` changes.

Spans stay in memory; :meth:`Recorder.dump` writes them once, at the
end of the run.  Calls made inside pool workers are not recorded (the
worker's memory dies with it); the ``procpool`` span in the parent
covers them, and the layer metrics that need per-task times come from
the sequential run instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
import time
from typing import Any, Callable

#: ``(module, attribute, span name)`` of every wrapped function.  A
#: dotted attribute (``Class.method``) wraps a method on its class.
TARGETS = (
    ("repro.datasets.scenarios", "build_residence_study", "traffic"),
    ("repro.datasets.scenarios", "build_census", "crawler"),
    ("repro.core.cloudstats", "attribute_domains", "core.cloud"),
    ("repro.core.deps", "analyze_dependencies", "core.deps"),
    ("repro.observatory.rounds", "run_observatory", "observatory"),
    ("repro.sentinel.scan", "run_sentinel", "sentinel"),
    ("repro.api.registry", "run", "api"),
    ("repro.whatif.sweep", "run_sweep", "whatif.sweep"),
    ("repro.whatif.sweep", "scenario_block", "whatif.scenario"),
    ("repro.util.procpool", "map_in_pool", "procpool"),
    ("repro.store.warehouse", "ArtifactStore.save_layer", "store.save"),
    ("repro.store.warehouse", "ArtifactStore.save_artifact", "store.save"),
    ("repro.store.warehouse", "ArtifactStore.load_layer", "store.load"),
    ("repro.store.warehouse", "ArtifactStore.load_artifact", "store.load"),
    ("repro.serve.service", "ArtifactService.handle", "serve"),
)

#: Modules imported before patching, so that every ``from X import f``
#: binding of a target already exists when the wrappers go in.
_BINDERS = (
    "repro.api.session",
    "repro.api.artifacts",
    "repro.traffic.generate",
    "repro.whatif.overlay",
)

#: Span names whose time counts as the caller's own work: a pool map
#: runs the calling layer's tasks, so it is not subtracted from the
#: caller's self time.
TRANSPARENT = frozenset({"procpool"})


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _attrs(name: str, args: tuple, kwargs: dict, result: Any) -> dict:
    """The per-call attributes each span kind records."""
    if name == "api":
        return {"artifact": args[1] if len(args) > 1 else kwargs.get("name")}
    if name == "whatif.scenario":
        scenario = args[2] if len(args) > 2 else kwargs["scenario"]
        return {"spec": scenario.spec()}
    if name == "procpool":
        tasks = args[1] if len(args) > 1 else kwargs["tasks"]
        workers = args[2] if len(args) > 2 else kwargs["workers"]
        return {"tasks": len(tasks), "workers": int(workers), "fallback": result is None}
    if name == "store.load":
        return {"hit": result is not None}
    if name == "serve":
        target = args[2] if len(args) > 2 else kwargs["target"]
        hot_only = kwargs.get("hot_only", args[4] if len(args) > 4 else False)
        return {"target": target, "hot_only": bool(hot_only), "answered": result is not None}
    return {}


class Recorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            with recorder._lock:
                recorder._next_id += 1
                span_id = recorder._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0 = _children_cpu_s() if name == "procpool" else 0.0
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = _attrs(name, args, kwargs, result)
                if name == "procpool":
                    attrs["child_cpu_s"] = _children_cpu_s() - cpu0
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "run": recorder.run_id,
                    **attrs,
                }
                with recorder._lock:
                    recorder.spans.append(record)

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str, **extra: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans, **extra}, handle)


def install(recorder: Recorder) -> None:
    """Wrap every target, in its defining module and wherever it is bound."""
    for module_name in _BINDERS:
        importlib.import_module(module_name)
    for module_name, attribute, name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            owner_name, method = attribute.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, recorder.wrap(getattr(owner, method), name))
            continue
        original = getattr(module, attribute)
        wrapper = recorder.wrap(original, name)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for bound, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, bound, wrapper)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its non-transparent children cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None and span["name"] not in TRANSPARENT:
            covered[span["parent"]] = (
                covered.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    return {
        span["id"]: span["end"] - span["start"] - covered.get(span["id"], 0.0)
        for span in spans
    }
