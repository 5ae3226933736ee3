"""A spawn-started pool of shard worker processes.

:class:`ShardWorkerPool` hosts ``shards`` shard stores across
``workers`` OS processes — the RPC form of the one-verb backend over
the op table in :mod:`repro.shard.worker`: it knows which worker owns
which shard and how a frame crosses a pipe, nothing about what any
command does.  Worker ``w`` owns the shards ``s % workers == w``,
every process runs :func:`~repro.shard.worker.worker_main`, and all
traffic rides the zero-copy frames of :mod:`repro.shard.transport` —
protocol-5 envelopes over ``Connection.send_bytes`` with numeric
columns shipped as out-of-band raw buffers inside the frame.  A call
sends to every worker it involves first and only then collects
replies, so workers genuinely overlap on multi-core hosts.

Every command, a write too, is one round trip: the worker answers it,
and a failed command — or a dead worker — raises from the
:meth:`~ShardWorkerPool.call` that met it.

Failure behaviour is deliberately simple and visible: a worker whose
pipe drops raises :class:`ShardWorkerDied` naming the worker and the
shards it owned.  The shard stores are in-memory, so that data is
*gone* — :meth:`respawn` brings the worker back empty and returns the
shard ids to re-ingest (raw files are the durable copy, exactly as in
the paper's architecture).  See docs/operations.md for the runbook.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.shard import transport
from repro.shard.worker import worker_main
from repro.tsdb.chunks import CHUNK_POINTS

__all__ = ["ShardWorkerDied", "ShardWorkerPool"]


class ShardWorkerDied(RuntimeError):
    """A worker process vanished mid-conversation.

    Carries ``worker`` (index) and ``shards`` (the shard ids whose
    in-memory stores died with it).
    """

    def __init__(self, worker: int, shards: Sequence[int]) -> None:
        super().__init__(
            f"shard worker {worker} died; shards {sorted(shards)} lost"
        )
        self.worker = worker
        self.shards = list(shards)


class ShardWorkerPool:
    """``shards`` chunked TSDBs served by ``workers`` processes."""

    def __init__(
        self,
        shards: int,
        workers: int,
        chunk_size: int = CHUNK_POINTS,
    ) -> None:
        if shards < 1 or workers < 1:
            raise ValueError("shards and workers must be >= 1")
        self.n_shards = int(shards)
        self.workers = int(workers)
        self.chunk_size = int(chunk_size)
        n = self.workers
        #: worker index → sorted shard ids it owns (``s % workers``)
        self.assignment = [list(range(w, self.n_shards, n)) for w in range(n)]
        self._ctx = mp.get_context("spawn")
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * n
        self._conns: List[Optional[object]] = [None] * n
        #: per-worker replies to discard (queued by an aborted gather)
        self._stale: List[int] = [0] * n
        for w in range(n):
            self._spawn(w)

    def _spawn(self, w: int) -> None:
        """Start (or restart) worker ``w`` with empty shard stores."""
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child, tuple(self.assignment[w]), self.chunk_size),
            name=f"repro-shard-w{w}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[w] = proc
        self._conns[w] = parent
        self._stale[w] = 0
        obs.counter(
            "repro_shard_workers_spawned_total",
            "shard worker processes started (including respawns)",
        ).inc()

    # -- RPC plumbing --------------------------------------------------------
    def _count_frame(self, info: transport.FrameInfo, direction: str) -> None:
        obs.counter(
            "repro_shard_rpc_frames_total",
            "RPC frames crossing shard worker pipes",
        ).inc(1, dir=direction)
        obs.counter(
            "repro_shard_rpc_wire_bytes_total",
            "bytes of RPC frames crossing shard worker pipes",
        ).inc(info.frame_bytes, dir=direction)
        if info.oob_bytes:
            obs.counter(
                "repro_shard_rpc_oob_bytes_total",
                "out-of-band column bytes moved inside shard RPC frames",
            ).inc(info.oob_bytes)

    def _send(self, w: int, cmd: str, payload) -> None:
        conn = self._conns[w]
        if conn is None:
            raise ShardWorkerDied(w, self.assignment[w])
        cur = obs.get_tracer().current()
        ctx = (cur.trace_id, cur.span_id) if cur is not None and cur.span_id else None
        frame, info = transport.encode((cmd, payload, ctx))
        try:
            conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            self._note_death(w)
            raise ShardWorkerDied(w, self.assignment[w])
        self._count_frame(info, "tx")

    def _recv_frame(self, w: int) -> bytes:
        conn = self._conns[w]
        if conn is None:
            raise ShardWorkerDied(w, self.assignment[w])
        try:
            return conn.recv_bytes()
        except (EOFError, OSError):
            self._note_death(w)
            raise ShardWorkerDied(w, self.assignment[w])

    def _recv_reply(self, w: int):
        """Collect one reply from ``w``.

        Death raises :class:`ShardWorkerDied` *here, explicitly* —
        :meth:`_note_death` only records it.  Replies queued by an
        aborted gather are discarded first (``self._stale``), so the
        stream can never answer a request with an earlier command's
        reply.
        """
        while self._stale[w]:
            self._recv_frame(w)
            self._stale[w] -= 1
        (status, result), info = transport.decode(self._recv_frame(w))
        self._count_frame(info, "rx")
        if status != "ok":
            raise RuntimeError(f"shard worker {w}: {result}")
        return result

    def _note_death(self, w: int) -> None:
        """Record a dead worker; callers raise :class:`ShardWorkerDied`."""
        if self._conns[w] is None:
            return
        try:
            self._conns[w].close()
        except OSError:  # pragma: no cover - already gone
            pass
        self._conns[w] = None
        proc = self._procs[w]
        if proc is not None:
            proc.join(timeout=1.0)
        self._stale[w] = 0
        obs.counter(
            "repro_shard_worker_deaths_total",
            "shard worker processes lost mid-conversation",
        ).inc()

    def _exchange(self, w: int, cmd: str, payload):
        """One round trip with worker ``w``."""
        self._send(w, cmd, payload)
        return self._recv_reply(w)

    def _scatter(self, calls: Dict[int, Tuple[str, object]]) -> Dict[int, object]:
        """Send every request, then gather every reply (true overlap).

        If the gather aborts (a worker died, or one replied with an
        error), the replies still queued on the *other* pipes are
        marked stale and discarded by the next :meth:`_recv_reply`, so
        an aborted scatter can never desynchronise the reply streams.
        Only replies that were never *read* are marked stale: an
        ``err``-status reply is fully consumed before
        :meth:`_recv_reply` raises, so marking it stale would make the
        next call discard that worker's fresh reply and block forever.
        """
        sent: List[int] = []
        consumed: set = set()
        out: Dict[int, object] = {}
        try:
            for w, (cmd, payload) in calls.items():
                self._send(w, cmd, payload)
                sent.append(w)
            for w in calls:
                try:
                    out[w] = self._recv_reply(w)
                finally:
                    # reaching _recv_reply consumes w's reply frame
                    # whatever happens next (an err reply raises only
                    # after the frame is read; a death closes the
                    # conn, which the filter below already skips)
                    consumed.add(w)
        finally:
            for w in sent:
                if w not in consumed and self._conns[w] is not None:
                    self._stale[w] += 1
        return out

    # -- the one verb (same shape as worker.LocalShards) ----------------------
    def call(
        self, op: str, args_by_shard: Mapping[int, tuple]
    ) -> Dict[int, object]:
        """Run ``OPS[op]`` on each named shard with its own arguments.

        One frame per worker that owns any of the shards, all sent
        before the first reply is read.  A command that fails on a
        worker raises ``RuntimeError`` naming the worker and the error.
        """
        by_worker: Dict[int, Dict[int, tuple]] = {}
        for shard, args in args_by_shard.items():
            by_worker.setdefault(shard % self.workers, {})[shard] = args
        out: Dict[int, object] = {}
        for reply in self._scatter(
            {w: (op, part) for w, part in by_worker.items()}
        ).values():
            out.update(reply)
        return out

    # -- obs harvest ---------------------------------------------------------
    def harvest_obs(self, merger) -> "HarvestReport":
        """Pull every live worker's obs snapshot into ``merger``.

        Scatter-then-gather, like every other fan-out: all snapshot
        requests go out before the first reply is read, so workers
        build their snapshots concurrently.  ``merger`` is a
        :class:`~repro.obs.harvest.HarvestMerger` bound to the central
        registry/tracer; worker ``w`` merges under source label
        ``shard="w<w>"``.  A dead worker — or one whose snapshot
        command answered with an error — does not abort the round; it
        is recorded in the report's ``missing`` list and counted by
        ``repro_obs_harvest_partial_total``, and the remaining workers
        still merge (partial-harvest failure mode, see
        docs/observability.md).
        """
        from repro.obs.harvest import HarvestReport

        report = HarvestReport()

        def miss(source: str) -> None:
            report.missing.append(source)
            obs.counter(
                "repro_obs_harvest_partial_total",
                "workers that could not be snapshotted during "
                "an obs harvest round",
            ).inc()

        with obs.span("obs.harvest") as hs:
            sent: List[int] = []
            for w in range(self.workers):
                try:
                    self._send(w, "obs_snapshot", ())
                    sent.append(w)
                except ShardWorkerDied:
                    miss(f"w{w}")
            for w in sent:
                # RuntimeError is an "err"-status reply: the frame was
                # consumed, so treating it as a miss keeps the gather
                # going and the remaining reply streams in sync
                try:
                    snap = self._recv_reply(w)
                except (ShardWorkerDied, RuntimeError):
                    miss(f"w{w}")
                    continue
                report.merge(merger.apply(snap, f"w{w}", parent=hs))
            hs.set(
                sources=len(report.sources),
                missing=len(report.missing),
                samples=report.samples_merged,
                spans=report.spans_merged,
            )
        obs.counter(
            "repro_obs_harvest_rounds_total",
            "completed obs harvest rounds (partial rounds included)",
        ).inc()
        obs.counter(
            "repro_obs_harvest_samples_total",
            "metric samples merged from workers by obs harvest",
        ).inc(report.samples_merged)
        obs.counter(
            "repro_obs_harvest_spans_total",
            "worker spans adopted into the central tracer by obs harvest",
        ).inc(report.spans_merged)
        return report

    # -- lifecycle -----------------------------------------------------------
    def respawn(self, worker: int) -> List[int]:
        """Restart a dead worker with empty shard stores.

        Returns the shard ids that must be re-ingested from their
        durable raw files before the shard answers queries again.
        """
        proc = self._procs[worker]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        self._spawn(worker)
        return list(self.assignment[worker])

    def close(self) -> None:
        """Stop and reap every worker.

        A worker found dead on the way raises *after* every process is
        stopped and joined, so shutdown never leaks workers but never
        hides a death either.
        """
        first: Optional[BaseException] = None
        for w in range(len(self._conns)):
            if self._conns[w] is None:
                continue
            try:
                self._exchange(w, "close", ())
            except (ShardWorkerDied, RuntimeError) as exc:
                if first is None:
                    first = exc
            conn = self._conns[w]
            if conn is not None:
                conn.close()
                self._conns[w] = None
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
        if first is not None:
            raise first

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
