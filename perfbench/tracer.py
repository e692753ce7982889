"""In-memory span tracer that wraps module functions from the outside.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of
the enclosing span in the same list, or -1 for a root.  Spans stay in
memory until the pass ends; :func:`summarize` then reduces them to
per-name call counts, total time and self time.
"""

from __future__ import annotations

import functools
import inspect
import resource
from time import perf_counter

class Tracer:
    """Records spans and counters for one single-threaded pass."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.rss_hwm_mb: dict[str, float] = {}
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, hook=None, **kwargs):
        """Run ``fn`` inside a span; ``hook(self, args, kwargs, result)`` counts work."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        if hook is not None:
            try:
                hook(self, args, kwargs, result)
            except Exception:  # a changed signature must not stop the pass
                if f"{name} (counter)" not in self.absent:
                    self.absent.append(f"{name} (counter)")
        if parent == -1:
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.rss_hwm_mb[name] = maxrss_kb / 1024.0
        return result

    def count(self, key, amount=1.0, how="sum"):
        if how == "max":
            self.counters[key] = max(self.counters.get(key, 0.0), float(amount))
        else:
            self.counters[key] = self.counters.get(key, 0.0) + float(amount)

    def wrap(self, name, fn, hook=None):
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)

        return traced

    def install(self, layers, methods, hooks, namespaces):
        """Replace functions and methods by traced wrappers.

        ``layers`` maps a layer name to its module; every public function
        the module defines is wrapped as ``<layer>.<function>``.
        ``methods`` lists ``(layer, class name, method name)`` triples.
        Every name in ``namespaces`` (module dicts) that is bound to a
        wrapped function is rebound to the same wrapper, so calls through
        imported names are traced once.  A listed method that no longer
        exists is recorded in :attr:`absent`.
        """
        replaced = {}
        for layer, module in layers.items():
            for fname, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not fname.startswith("_")
                ):
                    name = f"{layer}.{fname}"
                    replaced[obj] = self.wrap(name, obj, hooks.get(name))
                    setattr(module, fname, replaced[obj])
        for ns in namespaces:
            for key, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in replaced:
                    ns[key] = replaced[obj]
        for layer, cls_name, meth in methods:
            name = f"{layer}.{cls_name}.{meth}"
            cls = getattr(layers.get(layer), cls_name, None)
            raw = inspect.getattr_static(cls, meth, None) if cls is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__, hooks.get(name)))
            else:
                wrapped = self.wrap(name, raw, hooks.get(name))
            setattr(cls, meth, wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(end - start - covered, 0.0))
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent), self_s in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return out
