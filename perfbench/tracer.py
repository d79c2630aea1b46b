"""In-memory call tracer that wraps a package's functions from outside.

Every wrapped call becomes a span ``(name, layer, start, end, parent)``.  A
span's self time is its duration minus the part of its interval covered by
its child spans; a layer's self time is the sum over its spans.  Nothing in
the traced package is edited: ``instrument`` rebinds names in the package's
already-imported modules.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, layer, start, end, parent index or None]
        self.work = defaultdict(int)  # name -> units summed by a size hook
        self._stack = []

    def wrap(self, fn, name: str, layer: str, size=None):
        """Return ``fn`` wrapped so each call records a span.

        ``size(*args, **kwargs)``, when given, returns the work units of one
        call; it runs before the span opens and is added to ``work[name]``.
        """
        spans, stack, clock, work = self.spans, self._stack, self.clock, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if size is not None:
                work[name] += size(*args, **kwargs)
            span = [name, layer, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds; per-layer self
        seconds; and ``root_s``, the summed duration of top-level spans."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[PARENT] is not None:
                children[s[PARENT]].append(i)
        functions = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        layers = defaultdict(float)
        root_s = 0.0
        for i, s in enumerate(self.spans):
            duration = s[END] - s[START]
            own = duration - _covered(
                s[START], s[END], [self.spans[c] for c in children[i]]
            )
            f = functions[s[NAME]]
            f["calls"] += 1
            f["self_s"] += own
            if not self._inside_same(i):
                f["inclusive_s"] += duration
            layers[s[LAYER]] += own
            if s[PARENT] is None:
                root_s += duration
        return {
            "functions": dict(functions),
            "layers": dict(layers),
            "work": dict(self.work),
            "root_s": root_s,
        }

    def _inside_same(self, i: int) -> bool:
        """True when span i is nested in another call of the same function,
        so recursive calls are not counted twice in inclusive time."""
        name, parent = self.spans[i][NAME], self.spans[i][PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False


def _covered(start: float, end: float, kids) -> float:
    """Length of the union of the child intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted((max(k[START], start), min(k[END], end)) for k in kids):
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def instrument(tracer: Tracer, package: str, layers, methods=(), sizes=None) -> list:
    """Wrap the public functions of ``package.<layer>`` for each layer.

    Every binding of a wrapped function in any loaded module of the package
    is replaced, so calls through ``from .x import f`` are traced too.
    ``methods`` lists ``(layer, class name, method name)`` to wrap on the
    class.  ``sizes`` maps a span name to a size hook (see ``Tracer.wrap``).
    Returns the span names that were wrapped.
    """
    sizes = sizes or {}
    wrapped = {}
    names = []
    for layer in layers:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(obj, name, layer, sizes.get(name))
            names.append(name)
    prefix = package + "."
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(prefix):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for layer, cls_name, meth in methods:
        cls = getattr(sys.modules[f"{package}.{layer}"], cls_name, None)
        fn = getattr(cls, meth, None)
        if inspect.isfunction(fn):
            name = f"{layer}.{meth}"
            setattr(cls, meth, tracer.wrap(fn, name, layer, sizes.get(name)))
            names.append(name)
    return names
