"""Benchmark-side span tracer and the run-time wrappers it installs.

The traced run wraps public ``repro.*`` callables from outside (spans
inside ``src/`` are ROADMAP open item 4, not this benchmark).  A span is
``(stage, start_ns, end_ns, parent, op)``; spans stay in memory in one
``array('q')`` (40 bytes a span: a traced ``live_replay`` opens ~700 a
delivery) and are reduced to a stage table when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Nesting is per thread; a span opened on a thread with no open
span (the portal's render pool) becomes a child of the current op's root
span, which is exact because every workload is a closed loop with one op
in flight.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

_now = time.perf_counter_ns


_FIELDS = 5  # stage, start_ns, end_ns, parent, op


class Tracer:
    """In-memory span store with per-thread nesting.

    Not locked: the workloads are closed loops, so two threads never
    open spans at the same time (a render thread works only while the
    client thread is blocked on its reply).
    """

    def __init__(self) -> None:
        self.stages: List[str] = []
        self._stage_ids: Dict[str, int] = {}
        #: _FIELDS int64 per span, appended in one ``extend``
        self._rows = array("q")
        self._local = threading.local()
        self.op_id = -1
        self.op_root = -1
        #: items yielded by wrapped generators inside timed ops, by stage
        self.items: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._rows) // _FIELDS

    def stage_id(self, name: str) -> int:
        sid = self._stage_ids.get(name)
        if sid is None:
            sid = self._stage_ids[name] = len(self.stages)
            self.stages.append(name)
        return sid

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, sid: int) -> int:
        """Open a span; returns its row offset for :meth:`finish`."""
        stack = self._stack()
        rows = self._rows
        at = len(rows)
        parent = stack[-1] if stack else self.op_root
        stack.append(at)
        rows.extend((sid, _now(), 0, parent, self.op_id))
        return at

    def finish(self, at: int) -> None:
        self._rows[at + 2] = _now()
        self._local.stack.pop()

    def add_busy(self, sid: int, first_ns: int, busy_ns: int,
                 items: int) -> None:
        """One span for a generator: ``busy_ns`` spent inside ``next()``
        calls, recorded as if contiguous from the first call.  Its
        consumer's work between items is the parent's self time."""
        if self.op_id >= 0:
            name = self.stages[sid]
            self.items[name] = self.items.get(name, 0) + items
        stack = self._stack()
        parent = stack[-1] if stack else self.op_root
        self._rows.extend(
            (sid, first_ns, first_ns + busy_ns, parent, self.op_id))

    # -- op roots (opened by the harness around every timed op) -------------
    def begin_op(self, op_id: int, sid: int) -> int:
        self.op_id = op_id
        self.op_root = -1
        self.op_root = self.begin(sid)
        return self.op_root

    def finish_op(self, at: int) -> None:
        self.finish(at)
        self.op_root = self.op_id = -1

    # -- reduction -----------------------------------------------------------
    def _columns(self) -> np.ndarray:
        """``(spans, _FIELDS)`` view; parents become span indices."""
        cols = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, _FIELDS)
        cols = cols.copy()
        cols[:, 3] = np.where(cols[:, 3] >= 0, cols[:, 3] // _FIELDS, -1)
        return cols

    def stage_table(self, timed: bool = True) -> Dict[str, Dict[str, float]]:
        """``stage → {calls, total_s, self_s}`` over the spans opened
        inside timed ops (``timed``) or outside them (set-up)."""
        if not len(self):
            return {}
        cols = self._columns()
        stage, start, end, parent, op = cols.T
        dur = (end - start).astype(np.float64)
        dur[end == 0] = 0.0  # never closed
        dur[(op >= 0) != timed] = 0.0
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        k = len(self.stages)
        calls = np.bincount(stage[dur > 0], minlength=k)
        total = np.bincount(stage, weights=dur, minlength=k)
        own = np.bincount(stage, weights=dur - child, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]) / 1e9,
                "self_s": float(own[i]) / 1e9,
            }
            for i, name in enumerate(self.stages)
        }

    def per_op_seconds(self, stage: str) -> List[float]:
        """Total time of ``stage`` spans inside each timed op."""
        cols = self._columns()
        sel = (cols[:, 0] == self._stage_ids[stage]) & (cols[:, 4] >= 0)
        per_op = np.bincount(
            cols[sel, 4], weights=(cols[sel, 2] - cols[sel, 1]))
        return [float(x) / 1e9 for x in per_op if x > 0]

    def span_rows(self, limit: int) -> List[Tuple[str, int, int, int, int]]:
        """The first ``limit`` spans as ``(stage, start, end, parent, op)``."""
        cols = self._columns()[:limit]
        return [
            (self.stages[sid], int(t0), int(t1), int(parent), int(op))
            for sid, t0, t1, parent, op in cols
        ]


def _wrap_call(tracer: Tracer, sid: int, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)

    return traced


def _wrap_generator(tracer: Tracer, sid: int, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        first = _now()
        busy = items = 0
        try:
            while True:
                t0 = _now()
                try:
                    item = next(it)
                except StopIteration:
                    busy += _now() - t0
                    return
                busy += _now() - t0
                items += 1
                yield item
        finally:
            tracer.add_busy(sid, first, busy, items)

    return traced


def _wrap_consume(tracer: Tracer, sid: int, fn: Callable) -> Callable:
    """``Channel.basic_consume``: span the consumer callback it is given
    (the stream pipeline's per-delivery handler has no public name)."""

    @functools.wraps(fn)
    def traced(self, queue, callback, auto_ack=False):
        return fn(self, queue, _wrap_call(tracer, sid, callback), auto_ack)

    return traced


#: (owner, attribute, stage, wrapper kind) — resolved lazily so that
#: importing this module imports nothing from ``repro``
def _targets() -> Sequence[Tuple[object, str, str, str]]:
    import repro.pipeline.parallel as parallel
    import repro.shard.worker as shard_worker
    import repro.tsdb.query as tsdb_query
    from repro.broker import Broker, Channel
    from repro.core import Collector
    from repro.core.rawfile import RawFileParser
    from repro.db import Database
    from repro.db.models import Manager
    from repro.portal.app import PortalApp
    from repro.shard import ShardedTSDB
    from repro.stream import RetainingWriter, StreamingFlagAnalyzer
    from repro.tsdb import TimeSeriesDB

    return (
        (Collector, "collect", "core.collect", "call"),
        (RawFileParser, "parse", "core.rawfile.parse", "gen"),
        (parallel, "parse_blocks", "pipeline.parse_blocks", "call"),
        (parallel, "assemble_jobs", "pipeline.assemble", "call"),
        (parallel, "compute_metrics_batch", "metrics.compute", "call"),
        (Manager, "bulk_create", "db.bulk_create", "call"),
        (Database, "execute", "db.query", "call"),
        (Database, "executemany", "db.executemany", "call"),
        (ShardedTSDB, "ingest", "shard.ingest", "call"),
        (ShardedTSDB, "window_stats", "shard.query", "call"),
        (ShardedTSDB, "query", "shard.query", "call"),
        (ShardedTSDB, "seal_heads", "shard.seal", "call"),
        (shard_worker, "ingest_file", "tsdb.ingest_gather", "call"),
        (Broker, "publish", "broker.publish", "call"),
        (Channel, "basic_consume", "stream.gather", "consume"),
        (StreamingFlagAnalyzer, "observe", "stream.analyze", "call"),
        (RetainingWriter, "put_many", "stream.retention", "call"),
        (TimeSeriesDB, "put_many", "tsdb.put_many", "call"),
        (TimeSeriesDB, "put", "tsdb.put_many", "call"),
        (TimeSeriesDB, "scan", "tsdb.scan", "call"),
        (TimeSeriesDB, "seal_heads", "tsdb.seal", "call"),
        (tsdb_query, "query", "tsdb.query", "call"),
        (tsdb_query, "window_stats", "tsdb.query", "call"),
        (PortalApp, "get_url", "portal.render", "call"),
    )


_WRAPPERS = {
    "call": _wrap_call, "gen": _wrap_generator, "consume": _wrap_consume,
}


class Installed:
    """Context manager: wrappers on while inside, originals back after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for owner, attr, stage, kind in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            wrapped = _WRAPPERS[kind](
                self.tracer, self.tracer.stage_id(stage), original
            )
            setattr(owner, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
