"""In-memory spans recorded around the program's public functions.

The benchmark does not change the program: :meth:`Tracer.install`
replaces each target function (or method) with a wrapper that records a
span — name, start, end, parent span, request id — and calls the
original.  Every module of the program that holds the same function
object under some name gets the wrapper, so calls through re-exports are
seen too.  Spans stay in memory until :meth:`Tracer.dump`.

Parents follow a :class:`contextvars.ContextVar`, which asyncio tasks
inherit and which :class:`ContextExecutor` carries across a threadpool
hop, so a server request's spans nest under its dispatch span.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import itertools
import json
import sys
import time

_CURRENT: "contextvars.ContextVar[list | None]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
REQUEST_ID: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_request", default=0
)

# Span record layout (a list, so a child can point at its parent).
NAME, START, END, PARENT, RID = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._ids = itertools.count(1)
        self._restore: "list[tuple[object, str, object]]" = []

    def next_request_id(self) -> int:
        return next(self._ids)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str, start: "float | None" = None) -> "tuple[list, object]":
        record = [
            name,
            time.perf_counter() if start is None else start,
            None,
            _CURRENT.get(),
            REQUEST_ID.get(),
        ]
        self.spans.append(record)
        return record, _CURRENT.set(record)

    @staticmethod
    def close(record: list, token) -> None:
        record[END] = time.perf_counter()
        _CURRENT.reset(token)

    def wrap(self, fn, name: str):
        tracer = self
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                record, token = tracer.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(record, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record, token = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(record, token)

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, targets: "list[tuple[str, str]]") -> None:
        """Wrap each ``(dotted.path.to.function_or_Class.method, span)``."""
        for path, span in targets:
            owner, attr, original = _resolve(path)
            wrapped = self.wrap(original, span)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def finished(self) -> "list[dict]":
        """Closed spans as plain dicts with integer ids and parent ids."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        out = []
        for index, record in enumerate(self.spans):
            if record[END] is None:
                continue
            parent = record[PARENT]
            out.append(
                {
                    "id": index,
                    "name": record[NAME],
                    "start": record[START],
                    "end": record[END],
                    "parent": None if parent is None else ids.get(id(parent)),
                    "rid": record[RID],
                }
            )
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf8") as handle:
            for span in self.finished():
                handle.write(json.dumps(span) + "\n")


def _resolve(path: str):
    """``(owner, attribute, function)`` for a dotted target path."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        owner = module
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        return owner, attr, getattr(owner, attr)
    raise ImportError(f"cannot resolve {path}")


class ContextExecutor:
    """Executor wrapper that carries the caller's context into the thread
    and records the wait between submission and start as a span."""

    def __init__(self, inner, tracer: Tracer, wait_span: str, work_span: str):
        self._inner = inner
        self._tracer = tracer
        self._wait_span = wait_span
        self._work_span = work_span

    def submit(self, fn, *args, **kwargs):
        context = contextvars.copy_context()
        submitted = time.perf_counter()
        tracer = self._tracer

        def run():
            record, token = tracer.open(self._wait_span, start=submitted)
            tracer.close(record, token)
            work, token = tracer.open(self._work_span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(work, token)

        return self._inner.submit(context.run, run)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _union_length(intervals: "list[tuple[float, float]]") -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Span id → its duration minus the time its child spans cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: max(
            0.0,
            (span["end"] - span["start"])
            - _union_length(children.get(span["id"], [])),
        )
        for span in spans
    }


def coverage(spans: "list[dict]", windows: "list[tuple[float, float]]") -> float:
    """Share of the ``windows`` wall time that root spans cover."""
    wall = sum(end - start for start, end in windows)
    if wall <= 0:
        return 0.0
    covered = 0.0
    roots = [
        (span["start"], span["end"]) for span in spans if span["parent"] is None
    ]
    for start, end in windows:
        clipped = [
            (max(s, start), min(e, end)) for s, e in roots if e > start and s < end
        ]
        covered += _union_length(clipped)
    return covered / wall
