"""In-memory span recorder that wraps functions from outside the program.

A ``Tracer`` replaces chosen functions with wrappers that record one span
per call: a name, a start, an end, the enclosing span and optional work
counts taken from the call's arguments and result. Spans stay in memory
until the caller reads ``tracer.spans``.

Modules often import a function by name (``from .response import
frf_separated``), which creates a second binding that wrapping the defining
module alone would miss. ``Tracer.wrap`` therefore replaces every binding of
the function object it finds in the given namespaces, including values of
module-level dicts such as a command table.

Threads: each thread keeps its own span stack. A span opened on a thread
whose stack is empty takes the innermost open span of the installing thread
as its parent, because worker threads in this program are only started from
calls on that thread, which block until the workers finish.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped calls; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            owner = self._owner_stack
            parent = owner[-1].id if owner else None
        with self._lock:
            span = Span(len(self.spans), parent, name, 0)
            self.spans.append(span)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()

    def make_wrapper(self, name: str, func, counter=None):
        """Wrapper that records a span named ``name`` around ``func``.

        ``counter(args, kwargs, result)`` returns work counts for the span;
        it runs after the call and outside the span's interval.
        """
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, namespaces, func, wrapper) -> int:
        """Replace every binding of ``func`` in ``namespaces`` by ``wrapper``.

        ``namespaces`` are modules or classes. Returns the number of
        bindings replaced.
        """
        replaced = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is func:
                    self._restore.append((ns, attr, func, False))
                    setattr(ns, attr, wrapper)
                    replaced += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is func:
                            self._restore.append((value, key, func, True))
                            value[key] = wrapper
                            replaced += 1
        return replaced

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore.clear()


def interval_union_ns(intervals) -> int:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
