"""Span tracing of loadcast's layers, from outside the package.

The benchmark wraps each timed operation (a ``training.train`` call or one
``loadcast.cli.main`` command) in an *op* span.  With tracing on,
:func:`install` also wraps the public functions listed in ``LAYERS``, so
every call into them inside an op records a span: name, start, end and the
index of the span that caused it.  Calls made outside an op, such as the
benchmark's own output checks, pass straight through and record nothing.

A function is rebound at every module of the package that binds its name:
``cli`` imports ``load_csv``, ``train`` and ``evaluate`` by name and
``explain`` imports ``forecast_rollout``, so wrapping only the defining
module would miss those calls.  Methods are wrapped on their class.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute; "Class.method" for methods)
LAYERS = (
    ("autodiff.backward", "loadcast.autodiff", "backward"),
    ("autodiff.RngStream.draw", "loadcast.autodiff", "RngStream.draw"),
    ("model.forward", "loadcast.model", "Model.forward"),
    ("model.forward_batch", "loadcast.model", "Model.forward_batch"),
    ("model.encode", "loadcast.model", "Model.encode"),
    ("model.decode", "loadcast.model", "Model.decode"),
    ("model.head", "loadcast.model", "Model.head"),
    ("lags.build_batch", "loadcast.lags", "build_batch"),
    ("training.adamw_step", "loadcast.training", "adamw_step"),
    ("training.save_checkpoint", "loadcast.training", "save_checkpoint"),
    ("training.load_checkpoint", "loadcast.training", "load_checkpoint"),
    ("evaluation.forecast_rollout", "loadcast.evaluation", "forecast_rollout"),
    ("evaluation.evaluation_anchors", "loadcast.evaluation", "evaluation_anchors"),
    ("frames.apply_scaler", "loadcast.frames", "apply_scaler"),
    ("frames.inject_noise", "loadcast.frames", "inject_noise"),
    ("frames.load_csv", "loadcast.frames", "load_csv"),
    ("frames.write_csv", "loadcast.frames", "write_csv"),
    ("calendars.derive_calendar_views", "loadcast.calendars", "derive_calendar_views"),
    ("explain.isolation_panels", "loadcast.explain", "isolation_panels"),
    ("explain.svd_embeddings", "loadcast.explain", "svd_embeddings"),
)

OP_PREFIX = "op."


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent]`` lists.

    ``parent`` is the index of the enclosing span, or -1 for an op.
    ``quantities`` collects per-call numbers that are not times (bytes
    written, rows parsed, graph nodes), keyed by metric name.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.quantities: dict[str, list[float]] = defaultdict(list)
        self._counted_graph = False

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def op(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a timed op; returns ``(result, seconds)``."""
        self._counted_graph = False
        rec = self.open(OP_PREFIX + name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.close(rec)
        return out, rec[2] - rec[1]

    def op_seconds(self, name: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n == OP_PREFIX + name]


def _graph_nodes(loss) -> int:
    """Nodes reachable from ``loss`` through the tape's parent links."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def _measure(tracer: Tracer, name: str, args, out) -> None:
    """Record the non-time quantities of one finished call."""
    if name == "autodiff.backward" and not tracer._counted_graph:
        # every full training batch builds a graph of the same size, so the
        # first one of each op stands for all of them
        tracer._counted_graph = True
        tracer.quantities["autodiff.graph_nodes_per_batch"].append(_graph_nodes(args[0]))
    elif name == "training.save_checkpoint":
        path = os.fspath(args[0])
        if not os.path.exists(path):
            path += ".npz"  # np.savez appends the suffix when it is missing
        tracer.quantities["training.save_checkpoint.bytes"].append(os.path.getsize(path))
    elif name == "frames.load_csv":
        tracer.quantities["frames.load_csv.rows"].append(out.n_rows)


_MEASURED = {"autodiff.backward", "training.save_checkpoint", "frames.load_csv"}


def _wrap(tracer: Tracer, name: str, fn):
    measured = name in _MEASURED

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack:  # outside any op: not part of the timed phase
            return fn(*args, **kwargs)
        rec = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if measured:
            _measure(tracer, name, args, out)
        return out

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer in ``LAYERS``; returns the undo list for :func:`uninstall`.

    Raises ``LookupError`` when a listed function no longer exists, so a
    renamed layer fails the traced run instead of reading zero.
    """
    importlib.import_module("loadcast.cli")  # loads every module of the package
    modules = [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == "loadcast" or n.startswith("loadcast."))
    ]
    undo = []
    for name, module_name, attr in LAYERS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or method not in vars(cls):
                raise LookupError(f"layer {name}: {module_name}.{attr} not found")
            undo.append((cls, method, vars(cls)[method]))
            setattr(cls, method, _wrap(tracer, name, vars(cls)[method]))
            continue
        fn = getattr(owner, attr, None)
        if fn is None:
            raise LookupError(f"layer {name}: {module_name}.{attr} not found")
        wrapped = _wrap(tracer, name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, key, fn))
                    setattr(module, key, wrapped)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread), so this is the part
    of the span's interval that no child covers.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds and self seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
    return dict(totals)


def unclaimed_seconds(spans) -> float:
    """Time inside ops that no layer span covers: the ops' own self time."""
    return sum(
        own
        for (name, *_), own in zip(spans, self_times(spans))
        if name.startswith(OP_PREFIX)
    )
