"""Spans and counts recorded around the public functions of each layer.

Nothing under ``src/`` is edited.  :func:`install` replaces each wrapped
function under the name its caller looks it up by -- a module global such
as ``repro.runtime.middleware.build_document`` or a class attribute such as
``DataSource.execute`` -- and the returned callable puts the originals back.

A span is ``(id, parent id, operation id, name, start, end)``.  Every span
of one benchmark operation carries that operation's id (the request id),
and spans are only recorded while an operation is open on the calling
thread, so reference checks run between operations leave no trace.  Spans
stay in memory until :meth:`Recorder.write` dumps them at the end of a run.

A layer's self time is its span's duration minus the time its direct child
spans cover.  All wrapped calls of one operation run on one thread and
nest, so the children of a span never overlap.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

ROOT = "operation"


class Recorder:
    """In-memory span and count store for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []       # (operation id, name, value)
        self.operations: dict[int, str] = {}  # operation id -> kind
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- benchmark-side API ---------------------------------------------
    @contextlib.contextmanager
    def operation(self, kind: str):
        """One benchmark operation: the root span every layer span of the
        same request hangs off."""
        local = self._local
        op = next(self._ids)
        self.operations[op] = kind
        local.op, local.kind, local.stack = op, kind, [op]
        start = time.perf_counter()
        try:
            yield op
        finally:
            end = time.perf_counter()
            local.op, local.kind, local.stack = None, None, None
            self.spans.append((op, None, op, ROOT, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if not stack:
            yield
            return
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self._local.op, name, start,
                               end))

    def count(self, name: str, value: float = 1) -> None:
        op = getattr(self._local, "op", None)
        if op is not None:
            self.counts.append((op, name, value))

    def current_kind(self) -> str | None:
        return getattr(self._local, "kind", None)

    # -- function wrappers ----------------------------------------------
    def wrap(self, function, name, after=None):
        """``function`` recording a span named ``name`` (a string, or a
        callable of the call's arguments); ``after(result, args)`` may
        record counts from the result."""
        local = self._local
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return function(*args, **kwargs)
            label = name if isinstance(name, str) else name(args)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, local.op, label, start, end))
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def counter(self, function, name: str):
        """``function`` adding 1 to count ``name`` per call (no span)."""
        record = self.count

        def wrapper(*args, **kwargs):
            record(name)
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[tuple[int, str], float]:
        """``{(operation id, span name): summed self seconds}``."""
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for sid, _, op, name, start, end in self.spans:
            totals[(op, name)] += (end - start) - covered[sid]
        return totals

    def durations(self) -> dict[int, float]:
        """Wall time of each operation (its root span)."""
        return {op: end - start
                for _, parent, op, name, start, end in self.spans
                if parent is None}

    def count_totals(self) -> dict[tuple[int, str], float]:
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for op, name, value in self.counts:
            totals[(op, name)] += value
        return totals

    def write(self, path) -> None:
        """Dump every span and count, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"span": sid, "parent": parent, "request": op,
                     "name": name, "start": start, "end": end}) + "\n")
            for op, name, value in self.counts:
                handle.write(json.dumps(
                    {"request": op, "count": name, "value": value}) + "\n")


class NullRecorder:
    """The untraced run: same interface, records nothing."""

    def operation(self, kind: str):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass


def _query_span(args) -> str:
    from repro.relational.source import Mediator
    source, sql = args[0], args[1]
    if isinstance(source, Mediator):
        return "relational.mediator"
    head = sql.lstrip()[:16].upper()
    if head.startswith(("SELECT", "WITH", "PRAGMA", "EXPLAIN")):
        return "relational.query"
    return "relational.write"


def install(recorder: Recorder):
    """Wrap every layer boundary the benchmark reports; returns a
    callable that restores the originals."""
    import importlib
    # by module path: the packages re-export functions under the same
    # names as these submodules
    merge_module = importlib.import_module("repro.optimizer.merge")
    middleware_module = importlib.import_module("repro.runtime.middleware")
    tagging_module = importlib.import_module("repro.runtime.tagging")
    from repro.relational.source import DataSource, Mediator
    from repro.runtime.engine import Engine
    from repro.runtime.middleware import Middleware
    from repro.xmlmodel.node import XMLElement

    def rows_fetched(result, args):
        if not isinstance(args[0], Mediator):
            recorder.count("relational.rows_fetched", len(result))

    def stream_pass(result, args):
        recorder.count("tagging.stream_passes")

    def load_span(args) -> str:
        kind = recorder.current_kind()
        return "relational.load" if kind == "setup" else "relational.write"

    patches = [
        (middleware_module, "unfold_aig", "recursion.unfold", None),
        (middleware_module, "specialize", "compilation.specialize", None),
        (middleware_module, "build_qdg", "optimizer.build_qdg", None),
        (middleware_module, "merge_graph", "optimizer.merge", None),
        (middleware_module, "compute_fingerprints",
         "incremental.fingerprint", None),
        (middleware_module, "plan_increment", "incremental.fingerprint",
         None),
        (middleware_module, "build_document", "tagging.build", None),
        (middleware_module, "strip_unfolding", "recursion.strip", None),
        (tagging_module, "stream_document", "tagging.stream", stream_pass),
        (Middleware, "__init__", "middleware.init", None),
        (Middleware, "evaluate", "middleware", None),
        (Middleware, "evaluate_stream", "middleware", None),
        (Engine, "run", "engine.run", None),
        (DataSource, "execute", _query_span, rows_fetched),
        (DataSource, "create_temp_table", "relational.ship", None),
        (DataSource, "load_rows", load_span, None),
        (XMLElement, "size", "xmlmodel.size", None),
        (XMLElement, "copy", "xmlmodel.copy", None),
    ]
    originals = []
    for owner, attribute, name, after in patches:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(original, name, after))
    original = merge_module.schedule
    originals.append((merge_module, "schedule", original))
    merge_module.schedule = recorder.counter(original,
                                             "optimizer.schedule_calls")

    def uninstall():
        for owner, attribute, function in reversed(originals):
            setattr(owner, attribute, function)

    return uninstall
