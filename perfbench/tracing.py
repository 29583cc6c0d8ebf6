"""Span tracing for the benchmark's traced run (``--trace 1``).

Spans come only from wrappers this module installs around public calls
of the program, at the boundary between two layers.  Nothing inside
``src/repro`` is edited: :meth:`Tracer.install` rebinds each attribute
listed in :data:`WRAPPED` (a class method or a module-level name, as
the *caller* looks it up) and :meth:`Tracer.remove` puts the originals
back.  A wrapper on a name the caller imported into its own module
would never fire, which is why ``parse_statement`` and
``what_if_optimize`` are patched where their callers bound them.

A span is ``(span_id, parent_id, sid, name, build, start, end)``.
``parent_id`` is the enclosing span on the same thread (0 for a root);
``sid`` ties every span of one statement, one daemon poll or one
analysis together.  Poll-worker threads start their own roots (their
``ima.query`` spans carry the poll's ``sid``), so the children of a
span never overlap each other and a span's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

import repro.core.analyzer.index_advisor as index_advisor_module
import repro.engine.session as session_module
from repro.core.analyzer import Analyzer
from repro.core.daemon import StorageDaemon
from repro.core.monitor import MonitorSensors
from repro.core.workload_db import WorkloadDatabase
from repro.engine.database import Database
from repro.engine.locks import LockManager
from repro.engine.session import Session
from repro.execution.executor import Executor
from repro.optimizer.optimizer import Optimizer

#: (owner, attribute, span name).  ``Session.execute`` is named per call:
#: ``engine.execute`` for a client statement, ``ima.query`` for a
#: daemon read issued while a poll is in flight.
WRAPPED: tuple[tuple[Any, str, str], ...] = (
    (Session, "execute", "engine.execute"),
    (session_module, "parse_statement", "sql.parse"),
    (Optimizer, "optimize_select", "optimizer.optimize"),
    (LockManager, "acquire", "engine.lock"),
    (LockManager, "release_all", "engine.lock"),
    (Executor, "execute", "execution.execute"),
    (MonitorSensors, "statement_start", "monitor.sensor"),
    (MonitorSensors, "parse_complete", "monitor.sensor"),
    (MonitorSensors, "optimize_complete", "monitor.sensor"),
    (MonitorSensors, "execute_complete", "monitor.sensor"),
    (MonitorSensors, "statement_error", "monitor.sensor"),
    (MonitorSensors, "sample_statistics", "monitor.sensor"),
    # The merged IMA view is built by the virtual-table suppliers that
    # ``register_ima_tables`` installs: every shard's ring snapshotted
    # and sorted by encoded seq.  The executor reaches them through
    # ``Database.virtual_rows``.
    (Database, "virtual_rows", "sharding.merge"),
    (StorageDaemon, "poll_once", "daemon.poll"),
    (WorkloadDatabase, "append", "workload_db.append"),
    (Analyzer, "analyze_workload_db", "analyzer.analyze"),
    (index_advisor_module, "what_if_optimize", "analyzer.whatif"),
)

Span = tuple[int, int, int, str, str, float, float]


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Build whose statements are running (set by the harness).
        self.build = ""
        #: Rows handed to ``WorkloadDatabase.append``, per build.
        self.appended_rows: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._poll_sid = 0
        self._originals: list[tuple[Any, str, Any]] = []

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        if self._originals:
            return
        for owner, attribute, name in WRAPPED:
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self
        ids = self._ids
        spans = self.spans
        perf = time.perf_counter
        is_execute = name == "engine.execute"
        is_poll = name == "daemon.poll"
        is_append = name == "workload_db.append"

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(ids)
            span_name = name
            if stack:
                parent_id, sid = stack[-1]
                if is_execute and tracer._poll_sid:
                    span_name = "ima.query"
            else:
                parent_id = 0
                if is_execute and tracer._poll_sid:
                    # A poll worker's read: its own root, the poll's sid.
                    span_name = "ima.query"
                    sid = tracer._poll_sid
                else:
                    sid = span_id
            if is_poll:
                tracer._poll_sid = sid
            if is_append:
                build = tracer.build
                tracer.appended_rows[build] = (
                    tracer.appended_rows.get(build, 0) + len(args[2]))
            stack.append((span_id, sid))
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if is_poll:
                    tracer._poll_sid = 0
                spans.append((span_id, parent_id, sid, span_name,
                              tracer.build, start, end))

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    result = {span[0]: span[6] - span[5] for span in spans}
    for span in spans:
        if span[1]:
            result[span[1]] -= span[6] - span[5]
    return result


def trees(spans: list[Span]) -> dict[int, list[Span]]:
    """Spans grouped by ``sid`` (one statement, poll or analysis)."""
    grouped: dict[int, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span[2], []).append(span)
    return grouped
