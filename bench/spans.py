"""Outside-in tracing: wrap layer functions by module attribute, keep spans.

The tracer replaces attributes that the package resolves at call time (a
module-level function, or a method on its class) with a wrapper that records
a span: name, start, end and the span open when it began. Spans stay in
memory in flat arrays until the run ends; self times are derived from them
afterwards. A target that no longer exists is recorded as absent and
skipped, so the benchmark keeps running after a layer function is deleted
or renamed.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def resolve(dotted: str):
    """(owner, attribute name) for ``pkg.module[.Class].attr``, or None."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class Tracer:
    """Spans and counters recorded by wrappers installed on layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def name_index(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def current(self) -> int:
        """Name index of the innermost open span, or -1."""
        return self.name_id[self._stack[-1]] if self._stack else -1

    def begin(self, name_index: int) -> int:
        span = len(self.start)
        self.name_id.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(self.name_index(name))
        try:
            yield
        finally:
            self.finish(span)

    def wrap(self, dotted: str, name, on_result=None) -> bool:
        """Wrap ``dotted`` in a span; False (and recorded) if it is absent.

        ``name`` is a span name, or a callable mapping the call's positional
        arguments to one. ``on_result(args, result)`` updates counters after
        the span has closed.
        """
        target = resolve(dotted)
        if target is None:
            if dotted not in self.absent:
                self.absent.append(dotted)
            return False
        owner, attr = target
        original = getattr(owner, attr)
        fixed = None if callable(name) else self.name_index(name)
        begin, finish, name_index = self.begin, self.finish, self.name_index

        def wrapper(*args, **kwargs):
            span = begin(name_index(name(args)) if fixed is None else fixed)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(span)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (copies, so recording can go on)."""
        return {"name_id": np.array(self.name_id), "parent": np.array(self.parent),
                "start": np.array(self.start), "end": np.array(self.end)}

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        return span_table(self.names, **self.arrays())

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def span_table(names, name_id, parent, start, end) -> dict:
    """Calls, total and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start,
                                                              dtype=np.float64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=duration.size)
    own = duration - children
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=duration, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(names)}
