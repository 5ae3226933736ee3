"""``portal_cold`` and ``portal_hot_rw`` — one served fixture, used two ways.

Fixture: a 5000-job population, a TSDB prefilled with a 64-host day
(sealed: more chunks than the decoded-buffer cache holds), a started
``StreamPipeline`` on that TSDB attached to ``PortalApp``, and
``PortalServer`` at ``repro serve`` defaults on loopback.  One keep-alive
connection, one request in flight.

* ``portal_cold`` — every URL is unique, so the page cache and the
  query-result cache miss by construction: ``tsdb`` select / chunk-skip /
  decode / aggregate, ``db`` reads and ``portal`` render do the work.
* ``portal_hot_rw`` — a 10-URL dashboard that fits every cache, reloaded
  while the live feed writes: 100 GETs then one delivery, so 90 % of GETs
  are page-cache hits (the median) and 10 % re-render against the new
  epoch (the tail).
"""

from __future__ import annotations

import http.client
import random
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.analysis.popgen import generate_population
from repro.broker import Broker
from repro.core.daemon import EXCHANGE
from repro.db import Database
from repro.pipeline.records import JobRecord
from repro.portal.app import PortalApp
from repro.portal.server import PortalServer
from repro.stream import StreamPipeline
from repro.tsdb import TimeSeriesDB

import corpus
from harness import Op, WireProbe, Workload, quiet_down

JOBS = 5000
PREFILL_HOSTS = 64
PREFILL_INTERVAL = 60
T0 = corpus.T0

_TITLES = {
    "front": b"<title>TACC Stats</title>",
    "search": b"<title>Search results</title>",
    "search_wide": b"<title>Search results</title>",
    "job": b"<title>Job ",
    "tsdb_host": b"<title>TSDB query</title>",
    "tsdb_fleet": b"<title>TSDB query</title>",
}


def _ratio(yes: float, no: float) -> float:
    return yes / (yes + no) if yes + no else 0.0


class _Portal(Workload):
    """The served fixture and the GET op both workloads share."""

    op_unit = "requests"
    tail_pct = 95

    def __init__(self, seed: int, scale: float, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.samples = max(60, int(1080 * scale))
        self.span = self.samples * PREFILL_INTERVAL
        self.jobs = max(200, int(JOBS * scale))
        self.gets = 0
        self.client_ns = 0

    def setup(self) -> None:
        self.db = Database()
        generate_population(self.db, self.jobs, seed=self.seed)
        JobRecord.bind(self.db)
        rows = JobRecord.objects.all().values_list("jobid", "user")
        self.jobids = [str(j) for j, _ in rows]
        self.users = sorted({str(u) for _, u in rows})
        self.tsdb = TimeSeriesDB()
        self.prefilled = corpus.prefill_tsdb(
            self.tsdb, self.seed, PREFILL_HOSTS, self.samples,
            PREFILL_INTERVAL,
        )
        self.pipeline = StreamPipeline(Broker(), tsdb=self.tsdb)
        self.pipeline.start()
        self.app = PortalApp(self.db, stream=self.pipeline)
        self.server = PortalServer(self.app)
        host, port = self.server.start_background()
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        if self.wire_kinds:
            self.wire = WireProbe()
        self._setup_traffic()
        self._warm_counts = self._cache_counts()
        quiet_down()

    def _cache_counts(self) -> Dict[str, int]:
        """Raw hit/miss counters of the three cache tiers."""
        stats = self.tsdb.read_stats()
        page = self.server.page_cache
        return {
            "page_hits": page.hits, "page_misses": page.misses,
            "result_hits": stats["result_cache"]["hits"],
            "result_misses": stats["result_cache"]["misses"],
            "buffer_hits": stats["buffer_cache"]["hits"],
            "buffer_misses": stats["buffer_cache"]["misses"],
            "preagg_skipped": stats["preagg"]["chunks_skipped"],
        }

    def _timed_counts(self) -> Dict[str, int]:
        """The same counters, for the timed region only."""
        now = self._cache_counts()
        return {k: v - self._warm_counts[k] for k, v in now.items()}

    def _setup_traffic(self) -> None:
        raise NotImplementedError

    def _get(self, kind: str, url: str) -> bool:
        self.conn.request("GET", url)
        resp = self.conn.getresponse()
        body = resp.read()
        self.gets += 1
        self.last_body = body
        return resp.status == 200 and _TITLES[kind] in body

    def _warm(self, urls: List[Tuple[str, str]]) -> None:
        for kind, url in urls:
            if not self._get(kind, url):
                raise RuntimeError(f"warm-up GET {url} failed its check")

    # -- URL builders ---------------------------------------------------------
    def _range(self, rng: random.Random, hours: int) -> str:
        lo = T0 + rng.randrange(0, max(1, self.span - hours * 3600), 60)
        return f"{lo}:{lo + hours * 3600}"

    def _tsdb_host(self, rng: random.Random, host: int) -> str:
        """One host's cpu, grouped by event, as rates over two hours."""
        return (f"/tsdb?tag.host={corpus.prefill_host(host)}&tag.type=cpu"
                f"&group_by=event&rate=1&range={self._range(rng, 2)}")

    def _tsdb_fleet(self, rng: random.Random) -> str:
        """Fleet-wide mdc, grouped by host, downsampled over six hours."""
        return (f"/tsdb?tag.type=mdc&group_by=host&downsample=600:avg"
                f"&range={self._range(rng, 6)}")

    def check(self) -> List[str]:
        c = self._timed_counts()
        lo, hi = self.page_hit_ratio_want
        got = _ratio(c["page_hits"], c["page_misses"])
        if not lo <= got <= hi:
            return [f"page-cache hit ratio {got:.4f} outside [{lo}, {hi}]"]
        return []

    def tsdb_size(self) -> tuple:
        return self.tsdb.storage_bytes(), self.tsdb.n_points()

    def counts(self) -> Dict[str, float]:
        from repro import obs

        c = self._timed_counts()
        skipped, decoded = c["preagg_skipped"], c["buffer_misses"]
        p = self.pipeline
        return {
            "tsdb.points_written": float(p.points),
            "tsdb.storage_bytes": float(self.tsdb.storage_bytes()),
            "tsdb.chunks_sealed": float(self.tsdb.n_chunks()),
            "tsdb.chunks_decoded": float(decoded),
            "tsdb.chunks_skipped": float(skipped),
            "tsdb.decode_skip_ratio": _ratio(skipped, decoded),
            "tsdb.result_cache_hit_ratio": _ratio(
                c["result_hits"], c["result_misses"]),
            "tsdb.buffer_cache_hit_ratio": _ratio(
                c["buffer_hits"], c["buffer_misses"]),
            "portal.page_cache_hit_ratio": _ratio(
                c["page_hits"], c["page_misses"]),
            "portal.shed_503": obs.counter("repro_portal_shed_total").total(),
            "portal.deadline_504": obs.counter(
                "repro_portal_deadline_total").total(),
            "stream.rollup_points": float(p.writer.rollup_points),
            "stream.pruned_points": float(p.writer.pruned),
            "stream.alerts_fired": float(len(p.alerts.ledger)),
            "broker.deliveries": obs.counter(
                "repro_broker_delivered_total").total(),
            "broker.redelivered": obs.counter(
                "repro_broker_redelivered_total").total(),
        }

    def teardown(self) -> None:
        if self.wire is not None:
            self.wire.close()
        self.conn.close()
        self.server.close()
        self.db.close()


#: the fixed 20-slot cycle of ``portal_cold``.  Shares, cheapest class
#: first: job 20, search 25, front 15, tsdb_host 15, tsdb_fleet 15,
#: search_wide 10 %: the median falls inside the front-page class and p95
#: inside the wide searches; no class boundary is within 3 points of
#: either percentile.
_COLD_CYCLE = (
    "job", "search", "front", "tsdb_host", "search", "tsdb_fleet", "job",
    "search_wide", "search", "front", "tsdb_host", "job", "tsdb_fleet",
    "search", "tsdb_host", "front", "job", "search", "tsdb_fleet",
    "search_wide",
)
#: jobs a wide search matches (of the commonest executable's ~1450)
_WIDE_MATCHES = 400


class PortalCold(_Portal):
    """No ``/fleet`` here: with a stream attached its live chart reads
    every series over the full range, which costs seconds once and then
    leaves every series' columns materialised, so no later read would
    decode a chunk and the workload would not be cold."""

    name = "portal_cold"
    page_hit_ratio_want = (0.0, 0.01)
    snapshot_op = 800

    def _setup_traffic(self) -> None:
        rows = JobRecord.objects.all().values_list("executable", "run_time")
        by_exe: Dict[str, List[int]] = {}
        for exe, run_time in rows:
            by_exe.setdefault(str(exe), []).append(int(run_time))
        self.wide_exe, times = max(by_exe.items(), key=lambda kv: len(kv[1]))
        #: run times of that executable, longest first: a threshold at
        #: index k matches about k + 1 jobs whatever the seed
        self.wide_times = sorted(times, reverse=True)
        rng = random.Random(self.seed)
        # one of each class, on URLs the schedule never uses
        self._warm([
            ("front", "/?warm=1"),
            ("search", f"/search?user={self.users[0]}&min_runtime=1"),
            ("search_wide", self._wide(0) + "&warm=1"),
            ("job", f"/job/{self.jobids[0]}?warm=1"),
            ("tsdb_host", self._tsdb_host(rng, 0) + "&warm=1"),
            ("tsdb_fleet", self._tsdb_fleet(rng) + "&warm=1"),
        ])

    def _wide(self, n: int) -> str:
        """The paper's Fig. 3 search: one executable's longer jobs, with
        the histograms over the matches."""
        k = max(0, min(len(self.wide_times), _WIDE_MATCHES) - 1 - n % 40)
        return (f"/search?exe={self.wide_exe}"
                f"&min_runtime={self.wide_times[k]}")

    def schedule(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 1)
        jobids = self.jobids[:]
        rng.shuffle(jobids)
        users = self.users[:]
        rng.shuffle(users)
        hosts = list(range(PREFILL_HOSTS))
        rng.shuffle(hosts)
        n = 0
        while True:
            for kind in _COLD_CYCLE:
                if kind == "job":
                    url = f"/job/{jobids[n % len(jobids)]}?v={n}"
                elif kind == "search":
                    url = (f"/search?user={users[n % len(users)]}"
                           f"&min_runtime={60 + n}")
                elif kind == "search_wide":
                    url = self._wide(n) + f"&v={n}"
                elif kind == "front":
                    url = f"/?v={n}"
                elif kind == "tsdb_host":
                    url = self._tsdb_host(rng, hosts[n % len(hosts)])
                    url += f"&v={n}"
                else:
                    url = self._tsdb_fleet(rng) + f"&v={n}"
                n += 1
                yield Op(kind, url, lambda k=kind, u=url: self._get(k, u))


#: GETs between two writes in ``portal_hot_rw``: ten rounds of the
#: dashboard, the first of which re-renders
_HOT_GETS = 100


class PortalHotRW(_Portal):
    name = "portal_hot_rw"
    page_hit_ratio_want = (0.89, 0.91)
    #: the page-cache hits: socket, asyncio and pool hop, no render
    wire_kinds = frozenset(_TITLES)
    snapshot_op = 50 * (_HOT_GETS + 1)

    def _setup_traffic(self) -> None:
        rng = random.Random(self.seed)
        # ten URLs whose re-render costs stay within ~4x of each other
        # whatever the seed: no /job (0.2 ms), no /fleet (fleet-wide
        # chart), no full-table search, the three users whose job counts
        # are nearest 40 (a user has 1 to ~330 jobs, and a search costs
        # ~0.1 ms a job), and one fleet chart (15 ms against the others'
        # 4 ms) so that the nine alike run from 89 % to 98 % of the ops
        # and the 95th percentile is one of them
        jobs_of = Counter(str(u) for (u,) in
                          JobRecord.objects.all().values_list("user"))
        users = sorted(jobs_of, key=lambda u: (abs(jobs_of[u] - 40), u))[:3]
        hosts = rng.sample(range(PREFILL_HOSTS), 5)
        self.dashboard: List[Tuple[str, str]] = (
            [("front", "/")]
            + [("search", f"/search?user={u}") for u in users]
            + [("tsdb_host", self._tsdb_host(rng, h)) for h in hosts]
            + [("tsdb_fleet", self._tsdb_fleet(rng))]
        )
        # (recording binds JobRecord to the session's own database; the
        # portal binds it back on every request)
        rec = corpus.record_session(
            self.seed, self.tmp / "session", interval=60,
            sim_seconds=int(3600 * max(0.1, min(1.0, self.samples / 1080))),
            runtime_mean=600.0,
        )
        self.deliveries = rec.deliveries
        # every op type once: ten renders, ten page-cache hits, and the
        # first sample of each live host (which creates its series; the
        # last one leaves the dashboard stale, as every later write does)
        self._warm(self.dashboard)
        self._warm(self.dashboard)
        self.warmed = 0
        unseen = set(rec.hosts)
        while unseen:
            d = self.deliveries[self.warmed]
            if not self._write(d):
                raise RuntimeError("warm-up write failed its check")
            unseen.discard(str(d.headers["host"]))
            self.warmed += 1

    def _write(self, d: corpus.Delivery) -> bool:
        p = self.pipeline
        samples, epoch = p.samples, self.tsdb.epoch
        routed = p.broker.publish(EXCHANGE, d.routing_key, d.body, d.headers)
        self.written_epoch = self.tsdb.epoch
        return (routed == 1 and p.samples == samples + d.samples
                and self.tsdb.epoch > epoch)

    def _get_after_write(self, kind: str, url: str) -> bool:
        """The first /tsdb re-render after a write must show its epoch."""
        ok = self._get(kind, url)
        footer = f"store epoch {self.written_epoch}".encode()
        return ok and footer in self.last_body

    def schedule(self) -> Iterator[Op]:
        first_tsdb = next(
            i for i, (k, _) in enumerate(self.dashboard) if k == "tsdb_host"
        )
        for d in self.deliveries[self.warmed:]:
            for i in range(_HOT_GETS):
                kind, url = self.dashboard[i % len(self.dashboard)]
                if i == first_tsdb:
                    fn = lambda k=kind, u=url: self._get_after_write(k, u)
                else:
                    fn = lambda k=kind, u=url: self._get(k, u)
                yield Op(kind if i >= len(self.dashboard) else kind + "_miss",
                         url, fn)
            yield Op("write", f"{d.routing_key}@{d.sim_time}",
                     lambda d=d: self._write(d))
