"""Timing loop, estimators and process accounting shared by the workloads.

Every workload is a closed loop driven from one thread: the next op is
issued when the previous one returned.  The op *schedule* is a
deterministic function of the seed; the loop walks it until the
``--seconds`` budget is spent (or the schedule ends), so a slower build
completes fewer ops of the same sequence.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import http.client
import itertools
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import resource_tracker
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
    Tuple,
)

import numpy as np

_now = time.perf_counter_ns

class Op(NamedTuple):
    """One op of a schedule."""

    kind: str
    #: hashed into the schedule hash
    desc: str
    #: the timed call; returns True when its output check passed
    run: Callable[[], bool]
    #: untimed work just before it (making the op's own input)
    prepare: Optional[Callable[[], None]] = None


#: timed ops run in slices of about this much op time, a probe reading
#: before each
SLICE_NS = 100_000_000
#: what the probe reads on a quiet core of the box this was written on.
#: It only fixes the unit: timings are reported as if the probe took this
#: long throughout, so any constant gives the same comparisons.
PROBE_REF_MS = 1.3
WIRE_REF_MS = 0.2
#: a slice's machine speed is the median probe reading over this many
#: slices either side (about +-0.4 s): one reading is too noisy, a whole
#: run too coarse for the percentiles
_SMOOTH = 3

_PROBE_TEXT = "\n".join(
    " ".join(str(int(x)) for x in row)
    for row in np.random.default_rng(0).integers(0, 1 << 40, size=(120, 34))
)


def probe_ms() -> float:
    """The calibration kernel, timed: ``host.calib_ms``.

    A fixed miniature of what the workloads do - split 120 lines of 34
    counters, convert, gather into per-column lists, sort each as a NumPy
    array - about 1.4 ms on a quiet core of the box this was written on.
    It runs between slices of ops all through the timed region.  When a
    neighbour on the host slows the workloads down it slows this down by
    about as much (bench/README.md, Repeatability), which is what lets a
    run report its timings at a reference machine speed.
    """
    t0 = _now()
    cols: Dict[int, List[float]] = {}
    for line in _PROBE_TEXT.splitlines():
        for i, token in enumerate(line.split()):
            col = cols.get(i)
            if col is None:
                col = cols[i] = []
            col.append(float(token))
    acc = 0.0
    for col in cols.values():
        acc += float(np.sort(np.asarray(col)).sum())
    return (_now() - t0) / 1e6


class WireProbe:
    """The second calibration kernel, for ops that are mostly socket and
    thread hand-off (a page-cache hit): keep-alive GETs against a
    benchmark-owned stdlib server of the same shape as ``PortalServer``
    (asyncio streams, one hop to a pool thread, a 12 KB page) but none
    of its code.

    A neighbour on the host slows that path about twice as much as it
    slows :func:`probe_ms` (bench/README.md, Repeatability); a hit
    follows this probe with slope 1.0.
    """

    _PAGE = (b"<html><head><title>probe</title></head><body>"
             + b"x" * 12_000 + b"</body></html>")
    _HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
             b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
             % len(_PAGE))

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=2)
        self._loop = asyncio.new_event_loop()
        self._up = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="bench-wire-probe", daemon=True)
        self._thread.start()
        self._up.wait()
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", self._port, timeout=60)
        for _ in range(20):  # connect, warm both sides
            self()

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0))
        self._port = self._server.sockets[0].getsockname()[1]
        self._up.set()
        self._loop.run_forever()
        self._server.close()
        self._loop.run_until_complete(self._server.wait_closed())
        self._loop.close()

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                try:
                    await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                page = await self._loop.run_in_executor(
                    self._pool, lambda: self._PAGE)
                writer.write(self._HEAD + page)
                await writer.drain()
        finally:
            writer.close()

    def __call__(self, gets: int = 6) -> float:
        """Milliseconds per GET over ``gets`` round trips."""
        t0 = _now()
        for _ in range(gets):
            self._conn.request("GET", "/probe?x=1")
            self._conn.getresponse().read()
        return (_now() - t0) / 1e6 / gets

    def close(self) -> None:
        self._conn.close()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._pool.shutdown(wait=True)


def probe_burst(readings: int = 15) -> float:
    """Median of a burst of probe readings, as a slowdown against the
    reference: the machine speed around a set-up."""
    return median([probe_ms() for _ in range(readings)]) / PROBE_REF_MS


class Workload:
    """What ``run.py`` drives; the ``wl_*`` modules fill it in.

    ``setup`` builds the fixture and ends with :func:`quiet_down`;
    ``schedule`` yields the seed-derived ops; ``check`` returns the
    failed end-of-run output checks; ``counts`` the per-layer counts.
    """

    name = ""
    op_unit = "ops"
    tail_pct = 95
    #: part of the work runs in a spawned process, out of the wrappers'
    #: reach: the traced run passes ``in_process=True``
    spawns_worker = False
    #: op kinds timed against :class:`WireProbe` (set in ``wire``)
    wire_kinds: FrozenSet[str] = frozenset()
    wire: Optional[WireProbe] = None
    #: memory and storage are read when this many timed ops are done, so
    #: that they are compared at equal work whatever the machine's speed
    #: (a run that does not get that far reads them at its end)
    snapshot_op = 0

    def finish(self) -> None:
        """End-of-run work the output checks need; not timed."""

    def tsdb_size(self) -> Tuple[int, int]:
        """``(storage_bytes, n_points)`` of the workload's TSDB."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class OpLog:
    """Per-op latencies of one timed region, in calibrated slices."""

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self._kind_ids: Dict[str, int] = {}
        self.kind = array("b")
        self.lat_ns = array("q")
        #: index of the first op of each slice, and the probe readings
        #: taken just before it; one more reading closes the last slice
        self.slice_start = array("q")
        self.probe_ms = array("d")
        self.wire_ms = array("d")
        self.wire_kinds: FrozenSet[str] = frozenset()
        self.failed = 0
        self.errors: List[str] = []
        self.wall_ns = 0
        self.schedule_hash = ""
        #: ``(peak_rss_mb, storage_bytes, n_points)`` at ``snapshot_op``
        self.snapshot: Optional[Tuple[float, int, int]] = None

    def kind_id(self, name: str) -> int:
        kid = self._kind_ids.get(name)
        if kid is None:
            kid = self._kind_ids[name] = len(self.kinds)
            self.kinds.append(name)
        return kid

    @property
    def attempted(self) -> int:
        return len(self.lat_ns)

    def _local(self, readings: array, ref_ms: float) -> np.ndarray:
        """Per slice: the median reading around it, over the reference."""
        probes = np.frombuffer(readings, dtype=np.float64)
        return np.array([
            np.median(probes[max(0, i - _SMOOTH):i + _SMOOTH + 2])
            for i in range(len(self.slice_start))
        ]) / ref_ms

    def slowdown(self) -> np.ndarray:
        """Per op: how much slower than the reference the machine was
        around it (1.0 = its probe read the reference value)."""
        ops_in_slice = np.diff(np.append(self.slice_start, len(self.lat_ns)))
        slow = np.repeat(self._local(self.probe_ms, PROBE_REF_MS),
                         ops_in_slice)
        wired = [k in self.wire_kinds for k in self.kinds]
        if any(wired):
            on_wire = np.array(wired)[np.frombuffer(self.kind, dtype=np.int8)]
            slow[on_wire] = np.repeat(
                self._local(self.wire_ms, WIRE_REF_MS), ops_in_slice)[on_wire]
        return slow

    def reference_ns(self) -> np.ndarray:
        """Per-op latencies at the reference machine speed."""
        return np.frombuffer(self.lat_ns, dtype=np.int64) / self.slowdown()

    def by_kind(self, reference: bool = False) -> Dict[str, List[float]]:
        lat = self.reference_ns() if reference else self.lat_ns
        out: Dict[str, List[float]] = {k: [] for k in self.kinds}
        for kid, ns in zip(self.kind, lat):
            out[self.kinds[kid]].append(ns)
        return out


def run_ops(workload: Workload, seconds: float, tracer=None) -> OpLog:
    """Walk the workload's schedule for ``seconds``, then call its
    ``finish`` (untimed: end-of-run work such as
    ``StreamPipeline.finalize`` costs the same however many ops ran, and
    the output checks need it).

    An op that raises or returns False is a failed op (recorded, the
    loop goes on).  Probe readings, the snapshot and ops' ``prepare``
    steps are not part of the region: the deadline moves by what they
    take and ``wall_ns`` leaves them out.
    """
    log = OpLog()
    wire = workload.wire
    log.wire_kinds = workload.wire_kinds

    def read_probes() -> None:
        log.probe_ms.append(probe_ms())
        if wire is not None:
            log.wire_ms.append(wire())

    def snapshot() -> Tuple[float, int, int]:
        return (peak_rss_mb(), *workload.tsdb_size())

    it: Iterator[Op] = iter(workload.schedule())
    untimed = 0
    start = _now()
    deadline = start + int(seconds * 1e9)
    slice_end = 0
    while True:
        now = _now()
        if now >= deadline:
            break
        paused = False
        if log.snapshot is None and len(log.lat_ns) == workload.snapshot_op:
            log.snapshot = snapshot()
            paused = True
        if now >= slice_end:
            log.slice_start.append(len(log.lat_ns))
            read_probes()
            slice_end = _now() + SLICE_NS
            paused = True
        if paused:
            took = _now() - now
            untimed += took
            deadline += took
        try:
            op = next(it)
        except StopIteration:
            break
        if op.prepare is not None:
            now = _now()
            op.prepare()
            took = _now() - now
            untimed += took
            deadline += took
        kid = log.kind_id(op.kind)
        root = -1
        if tracer is not None:
            root = tracer.begin_op(
                len(log.lat_ns), tracer.stage_id("op." + op.kind))
        t0 = _now()
        try:
            ok = op.run()
        except Exception as exc:  # a failed op, not a failed benchmark
            ok = False
            if len(log.errors) < 5:
                log.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        t1 = _now()
        if tracer is not None:
            tracer.finish_op(root)
        log.kind.append(kid)
        log.lat_ns.append(t1 - t0)
        if not ok:
            log.failed += 1
    log.wall_ns = _now() - start - untimed
    read_probes()
    if log.snapshot is None:
        log.snapshot = snapshot()
    workload.finish()
    return log


def schedule_hash(schedule: Iterable[Op], limit: int = 5000) -> str:
    """SHA-256 over the first ``limit`` op descriptors of a schedule."""
    h = hashlib.sha256()
    for op in itertools.islice(schedule, limit):
        h.update(f"{op.kind}\x1f{op.desc}\x1e".encode())
    return h.hexdigest()


# -- estimators ---------------------------------------------------------------
def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not len(sorted_values):
        return float("nan")
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil
    return sorted_values[int(rank) - 1]


def quiet_down() -> None:
    """End of set-up: collect garbage once; GC stays enabled while timing."""
    gc.collect()


def peak_rss_mb() -> float:
    """Peak resident set so far of this process plus its live children
    (the shard worker), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        kb /= 1024.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass  # no /proc, or the child has just exited
    return kb / 1024.0


def _child_pids() -> List[int]:
    """Pids whose parent is this process (Linux ``/proc``; [] elsewhere)."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # gone since the listing
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended;
    ``run.py`` calls it on every path out of a run.

    ``teardown`` joins the shard worker of a run that went well; this
    takes what is left when one did not, and multiprocessing's resource
    tracker (started with the first spawned worker or shared-memory
    arena), which otherwise ends a moment *after* its parent.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    # closing its pipe lets the tracker unlink what leaked and exit; it
    # ignores SIGTERM, so whatever this does not reach is killed below
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (OSError, ChildProcessError):
            pass  # ended and reaped since the listing


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def latency_metrics(log: OpLog, tail_pct: int) -> Dict[str, float]:
    """Throughput and latency percentiles at the reference machine speed
    (``raw_*``: as the clock read them)."""
    raw = sorted(log.lat_ns)
    ref = np.sort(log.reference_ns())
    return {
        "throughput_per_s": log.attempted / (float(ref.sum()) / 1e9),
        "latency_p50_ms": percentile(ref, 50) / 1e6,
        "latency_tail_ms": percentile(ref, tail_pct) / 1e6,
        "raw_throughput_per_s": log.attempted / (log.wall_ns / 1e9),
        "raw_latency_p50_ms": percentile(raw, 50) / 1e6,
        "raw_latency_tail_ms": percentile(raw, tail_pct) / 1e6,
        "slowdown_median": float(np.median(log.slowdown())),
    }


def overhead_ratio(plain: OpLog, traced: OpLog) -> float:
    """Traced over plain cost of the same op mix, minus one: per-kind
    mean latencies (at the reference speed, the phases run minutes
    apart), weighted by the traced phase's op counts."""
    base = {k: sum(v) / len(v)
            for k, v in plain.by_kind(reference=True).items() if v}
    num = den = 0.0
    for kind, lat in traced.by_kind(reference=True).items():
        if lat and kind in base:
            num += sum(lat)
            den += len(lat) * base[kind]
    return num / den - 1.0 if den else 0.0
