"""Spans around public calls into `twins`, recorded from outside the package.

A `Tracer` replaces chosen public functions with wrappers that record one
span per call: (name, start, end, parent span). Spans stay in compact
arrays until `write` is called once, at the end of a pass. `summarize`
turns spans into per-name call counts and self times, where a span's
self time is its duration minus the durations of its direct children.

`Marks` is the lightweight form used by untraced passes: it records only
when a few calls return, which splits a pass into items and shorter
intervals that can be timed across passes.

`installed` puts wrappers where callers look names up: every module of
the `twins` package whose globals bind the original object gets the
wrapper, so both `twins.harness.enumerate_twins` and the
`twins.oracle.max_string_twin` that the string scan calls are traced.
Classes are traced through their `__init__`. Item marks are put only
where the suite harness looks a name up, so a call made deeper down
(such as `validate_twin` inside `extend_twin`) does not end an item.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Sequence

PACKAGE = "twins"


class Tracer:
    """Records nested spans in the order they open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """A traced stand-in for `fn`; a generator function gets one span per `next`.

        `hook(args, kwargs, result)` runs inside the span, after the call
        (for a generator, once per item).
        """
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def open_span() -> int:
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            return sid

        def close_span(sid: int) -> None:
            span_end[sid] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = open_span()
                    try:
                        item = next(it)
                        if hook is not None:
                            hook(args, kwargs, item)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid)
                    yield item

        else:

            def traced(*args, **kwargs):
                sid = open_span()
                try:
                    result = fn(*args, **kwargs)
                    if hook is not None:
                        hook(args, kwargs, result)
                    return result
                finally:
                    close_span(sid)

        traced.__wrapped__ = fn
        return traced

    def summarize(self) -> dict[str, tuple[int, float]]:
        return summarize(self.names, self.span_name, self.span_parent, self.span_start, self.span_end)

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four raw arrays in order."""
        arrays = {
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
        }
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays.items()],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays.values():
                arr.tofile(fh)


def summarize(
    names: Sequence[str],
    span_name: Sequence[int],
    span_parent: Sequence[int],
    span_start: Sequence[float],
    span_end: Sequence[float],
) -> dict[str, tuple[int, float]]:
    """Per name: (calls, self seconds), where self = duration - direct children's durations."""
    durations = [end - start for start, end in zip(span_start, span_end)]
    child_time = [0.0] * len(durations)
    for sid, parent in enumerate(span_parent):
        if parent >= 0:
            child_time[parent] += durations[sid]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for sid, nid in enumerate(span_name):
        calls[nid] += 1
        self_s[nid] += durations[sid] - child_time[sid]
    return {name: (calls[nid], self_s[nid]) for nid, name in enumerate(names)}


class Marks:
    """Times at which chosen calls return, which split a pass into intervals.

    An item call ends an item (a case). A tick call, every `every`-th time
    it returns, only splits the item it falls in, so that a long item is
    timed in short pieces.
    """

    def __init__(self, tick_every: dict[str, int] | None = None):
        self.times: list[float] = []
        self.item_ends: list[int] = []  # len(self.times) after each item
        self.tick_every = tick_every or {}

    def end_item(self) -> None:
        self.times.append(time.perf_counter())
        self.item_ends.append(len(self.times))

    def wrap(self, name: str, fn: Callable) -> Callable:
        every = self.tick_every.get(name)
        if every is None:

            def marked(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.end_item()
                return result

        else:
            times, clock, calls = self.times, time.perf_counter, 0

            def marked(*args, **kwargs):
                nonlocal calls
                result = fn(*args, **kwargs)
                calls += 1
                if calls % every == 0:
                    times.append(clock())
                return result

        marked.__wrapped__ = fn
        return marked


@contextmanager
def installed(targets: Sequence[str], wrap: Callable[[str, Callable], Callable]):
    """Install wrap(span_name, original) for each target 'twins.<module>.<name>'.

    The span name drops the package prefix. A function named by its
    defining module is replaced in every `twins` module that binds it;
    named by another module, only there. Classes have their `__init__`
    replaced. Everything is restored on exit.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    try:
        for target in targets:
            module_name, _, attr = target.rpartition(".")
            span = target.partition(".")[2]
            obj = getattr(sys.modules[module_name], attr)
            if isinstance(obj, type):
                undo.append((obj, "__init__", obj.__dict__["__init__"]))
                obj.__init__ = wrap(span, obj.__init__)
                continue
            wrapper = wrap(span, obj)
            if obj.__module__ == module_name:
                bound = [m for m in modules if vars(m).get(attr) is obj]
            else:
                bound = [sys.modules[module_name]]
            for module in bound:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
