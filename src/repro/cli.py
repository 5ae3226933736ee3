"""Command-line interface.

The real TACC Stats ships operational entry points (collection,
pickling, ingest, portal management); the reproduction exposes the
analogous workflow over the simulator::

    python -m repro.cli simulate --db quarter.db --nodes 12 --hours 12
    python -m repro.cli ingest   --store rawdata/ --db quarter.db \\
                                 --batch-size 500
    python -m repro.cli popgen   --db quarter.db --jobs 30000
    python -m repro.cli search   --db quarter.db --exe wrf \\
                                 --field MetaDataRate__gt=10000
    python -m repro.cli report   --db quarter.db --jobid 2000017
    python -m repro.cli casestudy --db quarter.db
    python -m repro.cli fleet    --db quarter.db --top 10
    python -m repro.cli chaos    --seed 0 --minutes 30
    python -m repro.cli stream   --nodes 8 --hours 24 --verify
    python -m repro.cli serve    --db quarter.db --port 8787 \\
                                 --workers 8 --queue-cap 64

``simulate`` runs a monitored cluster (daemon mode) on a preset
workload and ingests the results; ``ingest`` runs the
batched ETL pass over a directory of raw per-host stats files;
``popgen`` synthesises a database-scale population; ``stream`` runs a
fleet with the real-time telemetry pipeline attached (live TSDB feed,
streaming flags, alerts); ``serve`` puts the
portal behind the asyncio HTTP front-end with admission control; the
remaining commands are portal-style queries over the resulting job
table.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro import monitoring_session
from repro.analysis.casestudy import wrf_case_study
from repro.analysis.popgen import generate_population
from repro.cluster import JobSpec, make_app
from repro.db import Database
from repro.metrics.table1 import METRIC_REGISTRY
from repro.pipeline.records import JobRecord
from repro.portal.histograms import (
    DEFAULT_PANELS, job_histograms, render_ascii,
)
from repro.portal.reports import render_job_list_text
from repro.portal.search import JobSearch, SearchField
from repro.portal.views import LIST_COLUMNS, JobListView

#: workload presets for `simulate`
PRESETS = {
    "standard": (
        ("alice", "wrf", 4), ("bob", "namd", 2), ("carol", "vasp", 2),
        ("dave", "openfoam", 2), ("erin", "io_heavy", 2),
    ),
    "offenders": (
        ("mduser", "metadata_thrash", 2), ("ethuser", "gige_mpi", 2),
        ("idleuser", "idle_half", 4), ("crashuser", "crasher", 2),
        ("ptruser", "hicpi", 2), ("good", "namd", 2),
    ),
    "wrfstorm": (
        ("baduser01", "wrf_pathological", 8),
        ("wrf01", "wrf", 4), ("wrf02", "wrf", 4), ("wrf03", "wrf", 8),
    ),
}


def _open_db(path: str) -> Database:
    db = Database(path)
    JobRecord.bind(db)
    return db


def cmd_simulate(args: argparse.Namespace) -> int:
    sess = monitoring_session(nodes=args.nodes, seed=args.seed, tick=300)
    preset = PRESETS[args.preset]
    for user, app, nodes in preset:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=args.runtime),
            nodes=min(nodes, args.nodes),
        ))
    sess.cluster.run_for(args.hours * 3600)
    db = _open_db(args.db)
    from repro.pipeline import ingest_jobs

    result = ingest_jobs(sess.store, sess.cluster.jobs, db)
    db.commit()
    print(f"simulated {args.hours}h on {args.nodes} nodes "
          f"(preset={args.preset}); ingested {result.ingested} jobs "
          f"into {args.db}")
    for jid, flags in result.flagged.items():
        print(f"  flagged {jid}: {', '.join(flags)}")
    return 0


def _cmd_ingest_sharded(args: argparse.Namespace) -> int:
    """Sharded TSDB load of the raw store (``--shards N``).

    The raw files scatter across a consistent-hash ring of shard
    stores; ``--shard-workers`` OS processes host the shards, worker
    ``w`` the shards ``s % workers == w``.
    """
    from repro.shard import ShardedTSDB, StoreSource

    source = StoreSource(args.store)
    hosts = source.hosts()
    if not hosts:
        print(f"no .raw files under {args.store}", file=sys.stderr)
        return 1
    workers = max(args.shard_workers, 0)
    tsdb = ShardedTSDB(shards=args.shards, workers=workers)
    types = tuple(t for t in args.types.split(",") if t) or None
    report = tsdb.ingest(source, hosts=hosts, types=types)
    print(f"sharded ingest: {len(hosts)} hosts -> {args.shards} shards "
          f"({workers or 'in-process'} workers): "
          f"{report.points} points, {report.samples} samples "
          f"in {report.seconds:.2f}s "
          f"({report.samples_per_sec:,.0f} samples/s)")
    for sid in sorted(report.per_shard):
        r = report.per_shard[sid]
        print(f"  shard {sid}: {int(r['points'])} points, "
              f"{int(r['samples'])} samples, {r['seconds']:.2f}s")
    stats = tsdb.window_stats("stats")
    print(f"  series: {len(stats)}; "
          f"storage: {tsdb.storage_bytes():,} bytes "
          f"in {tsdb.n_chunks()} chunks")
    tsdb.close()
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.core.store import CentralStore
    from repro.pipeline import IngestCheckpoint, ingest_jobs

    if args.shards:
        return _cmd_ingest_sharded(args)
    if not args.db:
        print("error: --db is required unless --shards is given",
              file=sys.stderr)
        return 2
    store = CentralStore(args.store)
    db = _open_db(args.db)
    checkpoint = None
    if args.checkpoint:
        checkpoint = IngestCheckpoint(
            os.path.join(args.checkpoint, "checkpoint.json")
        )
    result = ingest_jobs(
        store, None, db, batch_size=args.batch_size, checkpoint=checkpoint,
    )
    db.commit()
    quarantined = sum(store.quarantine_counts().values())
    print(f"ingested {result.ingested} jobs into {args.db} "
          f"(batch={args.batch_size}); "
          f"skipped {result.skipped_existing} already present, "
          f"dropped {result.dropped_short} short, "
          f"quarantined {quarantined} corrupt lines")
    for jid, flags in result.flagged.items():
        print(f"  flagged {jid}: {', '.join(flags)}")
    for err in result.errors:
        print(f"  error: {err}", file=sys.stderr)
    return 0


def cmd_popgen(args: argparse.Namespace) -> int:
    db = _open_db(args.db)
    gp = generate_population(db, args.jobs, seed=args.seed)
    db.commit()
    print(f"synthesised {gp.n_jobs} jobs into {args.db}")
    top = sorted(gp.per_app.items(), key=lambda kv: -kv[1])[:8]
    for app, n in top:
        print(f"  {app:<20} {n}")
    return 0


def _parse_fields(specs: Optional[List[str]]) -> List[SearchField]:
    out = []
    for spec in specs or []:
        name, _, value = spec.partition("=")
        if not value:
            raise SystemExit(
                f"--field wants Metric__op=value, got {spec!r}"
            )
        out.append(SearchField.parse(name, float(value)))
    return out


def cmd_search(args: argparse.Namespace) -> int:
    _open_db(args.db)
    search = JobSearch(
        user=args.user,
        executable=args.exe,
        queue=args.queue,
        status=args.status,
        min_run_time=args.min_runtime,
        fields=_parse_fields(args.field),
    )
    # what this command reads: the list, the histogram panels, the flags
    matches = search.run(only=(
        *LIST_COLUMNS, *(f for f, _ in DEFAULT_PANELS), "flags"
    ))
    print(render_job_list_text(JobListView(matches), limit=args.limit))
    flagged = [r for r in matches if r.flags]
    if flagged:
        print(f"\nflagged ({len(flagged)}):")
        for r in flagged[:20]:
            print(f"  {r.jobid} {r.user} {r.executable}: "
                  f"{', '.join(r.flags)}")
    if args.histograms and matches:
        print()
        for h in job_histograms(matches).values():
            print(render_ascii(h))
            print()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    _open_db(args.db)
    try:
        r = JobRecord.objects.get(jobid=args.jobid)
    except LookupError:
        print(f"job {args.jobid} not found", file=sys.stderr)
        return 1
    print(f"Job {r.jobid}: user={r.user} exe={r.executable} "
          f"queue={r.queue} status={r.status}")
    print(f"  nodes={r.nodes} wayness={r.wayness} "
          f"run={r.run_time / 3600:.2f}h wait={r.queue_wait / 3600:.2f}h "
          f"node-hours={r.node_hours:.1f}")
    if r.flags:
        print(f"  FLAGS: {', '.join(r.flags)}")
    by_cat = {}
    for name, mdef in METRIC_REGISTRY.items():
        by_cat.setdefault(mdef.category, []).append(
            (name, getattr(r, name), mdef.unit)
        )
    for cat in ("Lustre", "Network", "Processor", "OS", "Energy"):
        print(f"  [{cat}]")
        for name, value, unit in by_cat.get(cat, []):
            v = "-" if value is None else f"{value:,.4g}"
            print(f"    {name:<18} {v:>14} {unit}")
    from repro.analysis.io_advisor import diagnose_io

    metrics = {
        name: getattr(r, name)
        for name in METRIC_REGISTRY
        if getattr(r, name) is not None
    }
    print()
    print(diagnose_io(r.jobid, metrics).render_text())
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    _open_db(args.db)
    from repro.analysis.fleet import fleet_report

    try:
        rep = fleet_report(top=args.top)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(rep.render_text(top=args.top))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import run_chaos

    report = run_chaos(
        seed=args.seed,
        minutes=args.minutes,
        nodes=args.nodes,
        interval=args.interval,
        jobs=args.jobs,
    )
    print(report.render_text())
    return 0 if report.passed else 1


def cmd_obs(args: argparse.Namespace) -> int:
    """Simulate a monitored day and report the monitor's own telemetry."""
    from repro import obs
    from repro.core.overhead import measured_fleet_overhead, predicted_overhead
    from repro.pipeline import ingest_jobs

    obs.reset()
    sess = monitoring_session(
        nodes=args.nodes, seed=args.seed, interval=args.interval
    )
    obs.set_clock(sess.cluster.clock.now)
    for user, app, nodes in PRESETS[args.preset]:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=args.runtime),
            nodes=min(nodes, args.nodes),
        ))
    sess.cluster.run_for(args.hours * 3600)
    result = ingest_jobs(sess.store, sess.cluster.jobs, Database())
    harvest = None
    if args.shard_workers:
        # re-load the raw store through worker-hosted shards, then
        # harvest each worker's registry + spans into this process so
        # the dump below shows the whole fleet (``shard`` label)
        from repro.shard import ShardedTSDB, StoreSource

        source = StoreSource(str(sess.store.root))
        tsdb = ShardedTSDB(
            shards=args.shard_workers, workers=args.shard_workers
        )
        try:
            tsdb.ingest(source, hosts=source.hosts())
            harvest = tsdb.harvest_obs()
        finally:
            tsdb.close()
    if args.format == "json":
        print(obs.render_json(indent=2))
    else:
        print(obs.render_text())
    node = next(iter(sess.cluster.nodes.values()))
    cores = node.tree.arch.cores
    measured = measured_fleet_overhead(cores)
    predicted = predicted_overhead(
        args.interval, cores, sess.collector.overhead.collect_seconds
    )
    tracer = obs.get_tracer()
    print(f"# collections traced: {tracer.count('collector.collect')}")
    print(f"# ingested jobs: {result.ingested}")
    if harvest is not None:
        missing = (
            " missing=" + ",".join(harvest.missing)
            if harvest.partial else ""
        )
        print(f"# harvested workers: {len(harvest.sources)} "
              f"({harvest.samples_merged} samples, "
              f"{harvest.spans_merged} spans{missing})")
    print(f"# measured fleet overhead:  {measured * 100:.5f}%")
    print(f"# predicted (0.09 s model): {predicted * 100:.5f}%")
    if predicted > 0:
        print(f"# ratio measured/predicted: {measured / predicted:.2f}x")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Run a fleet with the real-time telemetry pipeline attached."""
    from repro import obs
    from repro.stream import FleetAnalytics, StreamPipeline, log_sink

    obs.reset()
    sess = monitoring_session(
        nodes=args.nodes, seed=args.seed, interval=args.interval
    )
    obs.set_clock(sess.cluster.clock.now)
    types = tuple(t for t in args.types.split(",") if t) or None
    analytics = FleetAnalytics() if args.analytics else None
    if args.shards:
        from repro.shard import ShardedStreamPipeline

        stream = ShardedStreamPipeline(
            sess.broker, shards=args.shards, jobs=sess.cluster.jobs,
            types=types, analytics=analytics,
        )
    else:
        stream = StreamPipeline(
            sess.broker, jobs=sess.cluster.jobs, types=types,
            analytics=analytics,
        )
    if not args.quiet_alerts:
        stream.alerts.add_sink(log_sink(sys.stdout))
    stream.start()
    for user, app, nodes in PRESETS[args.preset]:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=args.runtime),
            nodes=min(nodes, args.nodes),
        ))
    sess.cluster.run_for(args.hours * 3600)
    completed = stream.finalize()
    flagged = {
        j: r.final_flags for j, r in sorted(completed.items())
        if r.final_flags
    }
    print(f"streamed {args.hours}h on {args.nodes} nodes "
          f"(preset={args.preset}): {stream.samples} samples, "
          f"{stream.points} points into "
          f"{stream.tsdb.n_series()} series "
          f"({stream.tsdb.n_points()} retained)")
    if args.shards:
        spread = stream.shard_points()
        print("shard spread: " + ", ".join(
            f"{k}={spread[k]}" for k in sorted(spread)
        ))
    print(f"completed jobs: {len(completed)}; "
          f"alerts: {len(stream.alerts.ledger)} "
          f"(suppressed {stream.alerts.suppressed})")
    for jid, flags in flagged.items():
        print(f"  flagged {jid}: {', '.join(flags)}")
    latencies = sorted(a.latency for a in stream.alerts.ledger)
    if latencies:
        p99 = latencies[min(len(latencies) - 1,
                            int(0.99 * len(latencies)))]
        print(f"sample→flag latency (sim s): "
              f"median {latencies[len(latencies) // 2]}, p99 {p99}")
    if analytics is not None:
        s = analytics.summary()
        eff = s["fleet_efficiency_mean"]
        print(f"analytics: {s['jobs_scored']} jobs scored into "
              f"{len(s['classes'])} classes; fleet efficiency "
              + ("n/a" if eff is None else f"{eff:.3f}"))
        for group in ("users", "apps"):
            for name in sorted(s[group]):
                g = s[group][name]
                print(f"  {group[:-1]} {name}: {g['jobs']} jobs, "
                      f"mean eff {g['mean']:.3f}")
    if args.verify:
        from repro.pipeline import ingest_jobs

        # only jobs the batch path ingests are comparable: a job still
        # running at the end of the window is force-drained (truncated)
        # by the stream but skipped entirely by the batch pipeline
        db = Database()
        result = ingest_jobs(sess.store, sess.cluster.jobs, db)
        JobRecord.bind(db)
        mismatches = []
        for rec in JobRecord.objects.all():
            res = completed.get(rec.jobid)
            want = sorted(rec.flags or [])
            got = None if res is None else sorted(res.final_flags)
            if res is None or (not res.diverged and got != want):
                mismatches.append((rec.jobid, want, got))
        if mismatches:
            for jid, want, got in mismatches:
                print(f"MISMATCH {jid}: batch={want} stream={got}",
                      file=sys.stderr)
            return 1
        print(f"verified: streaming flags match batch ingest "
              f"({result.ingested} jobs)")
    return 0


def _demo_stream(nodes: int, minutes: int, seed: int):
    """A small live fleet so /tsdb and /fleet health have data.

    Runs a short simulated window with the streaming pipeline tapped
    in, then hands the still-attached pipeline (and its live TSDB) to
    the portal.
    """
    from repro.stream import FleetAnalytics, StreamPipeline

    sess = monitoring_session(nodes=nodes, seed=seed, interval=60)
    stream = StreamPipeline(
        sess.broker, jobs=sess.cluster.jobs,
        analytics=FleetAnalytics(min_jobs=4),
    )
    stream.start()
    for user, app, n in PRESETS["standard"]:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=max(minutes * 30, 600)),
            nodes=min(n, nodes),
        ))
    sess.cluster.run_for(minutes * 60)
    return stream


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the portal over HTTP (asyncio front-end, §IV-B)."""
    import asyncio

    from repro.portal.app import PortalApp
    from repro.portal.server import PortalServer

    db = _open_db(args.db)
    stream = None
    if args.live_nodes:
        stream = _demo_stream(args.live_nodes, args.live_minutes, args.seed)
    app = PortalApp(db, stream=stream)
    server = PortalServer(
        app, host=args.host, port=args.port, workers=args.workers,
        queue_cap=args.queue_cap, deadline=args.deadline,
        page_cache_size=args.page_cache,
    )

    async def _run() -> None:
        await server.start()
        print(f"portal serving on http://{server.host}:{server.port}/ "
              f"(workers={server.workers} queue_cap={server.queue_cap} "
              f"deadline={server.deadline:g}s); Ctrl-C to stop")
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def cmd_casestudy(args: argparse.Namespace) -> int:
    _open_db(args.db)
    try:
        cs = wrf_case_study()
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"metadata outlier user: {cs.user}")
    print(f"{'':>22}{'outlier':>14}{'population':>14}")
    print(f"{'jobs':>22}{cs.bad.jobs:>14}{cs.population.jobs:>14}")
    print(f"{'CPU_Usage':>22}{cs.bad.cpu_usage:>14.2f}"
          f"{cs.population.cpu_usage:>14.2f}")
    print(f"{'MetaDataRate':>22}{cs.bad.metadata_rate:>14,.0f}"
          f"{cs.population.metadata_rate:>14,.0f}")
    print(f"{'LLiteOpenClose':>22}{cs.bad.open_close:>14,.1f}"
          f"{cs.population.open_close:>14,.1f}")
    print(f"metadata ratio {cs.metadata_ratio:,.0f}x; "
          f"CPU penalty {cs.cpu_penalty * 100:.1f} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a monitored cluster")
    sim.add_argument("--db", required=True)
    sim.add_argument("--nodes", type=int, default=12)
    sim.add_argument("--hours", type=int, default=12)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--runtime", type=float, default=4000.0)
    sim.add_argument("--preset", choices=sorted(PRESETS), default="standard")
    sim.set_defaults(fn=cmd_simulate)

    ing = sub.add_parser(
        "ingest",
        help="batched ETL over a directory of raw stats files",
    )
    ing.add_argument("--store", required=True,
                     help="directory of per-host .raw stats files")
    ing.add_argument("--db", default="",
                     help="job database to fill (required unless "
                          "--shards is given)")
    ing.add_argument("--shards", type=int, default=0,
                     help="shard the TSDB load across a consistent-hash "
                          "ring (0 = classic job ETL)")
    ing.add_argument("--shard-workers", type=int, default=0,
                     help="OS processes hosting the shards "
                          "(0 = in-process)")
    ing.add_argument("--types", default="",
                     help="comma-separated device types for the sharded "
                          "TSDB load (default: all)")
    ing.add_argument("--batch-size", type=int, default=200,
                     help="jobs per committed+checkpointed batch")
    ing.add_argument("--checkpoint", default="",
                     help="directory for the durable ingest checkpoint")
    ing.set_defaults(fn=cmd_ingest)

    pop = sub.add_parser("popgen", help="synthesise a job population")
    pop.add_argument("--db", required=True)
    pop.add_argument("--jobs", type=int, default=20_000)
    pop.add_argument("--seed", type=int, default=2015)
    pop.set_defaults(fn=cmd_popgen)

    sr = sub.add_parser("search", help="portal-style job search")
    sr.add_argument("--db", required=True)
    sr.add_argument("--user")
    sr.add_argument("--exe")
    sr.add_argument("--queue")
    sr.add_argument("--status")
    sr.add_argument("--min-runtime", type=int, default=None)
    sr.add_argument("--field", action="append",
                    help="Metric__op=value (repeatable, max 3)")
    sr.add_argument("--limit", type=int, default=25)
    sr.add_argument("--histograms", action="store_true")
    sr.set_defaults(fn=cmd_search)

    rp = sub.add_parser("report", help="one job's metric report")
    rp.add_argument("--db", required=True)
    rp.add_argument("--jobid", required=True)
    rp.set_defaults(fn=cmd_report)

    cs = sub.add_parser("casestudy", help="the §V-B WRF analysis")
    cs.add_argument("--db", required=True)
    cs.set_defaults(fn=cmd_casestudy)

    fl = sub.add_parser("fleet", help="XDMOD-style fleet rollup")
    fl.add_argument("--db", required=True)
    fl.add_argument("--top", type=int, default=10)
    fl.set_defaults(fn=cmd_fleet)

    ob = sub.add_parser(
        "obs",
        help="simulate a monitored day, then dump the monitor's own "
             "metrics, spans and overhead self-measurement",
    )
    ob.add_argument("--nodes", type=int, default=8)
    ob.add_argument("--hours", type=int, default=24)
    ob.add_argument("--seed", type=int, default=42)
    ob.add_argument("--interval", type=int, default=600)
    ob.add_argument("--runtime", type=float, default=4000.0)
    ob.add_argument("--preset", choices=sorted(PRESETS), default="standard")
    ob.add_argument("--shard-workers", type=int, default=0,
                    help="also re-load the store through this many "
                         "worker-hosted shards and harvest their "
                         "metrics/spans into the dump (shard label)")
    ob.add_argument("--format", choices=("text", "json"), default="text")
    ob.set_defaults(fn=cmd_obs)

    st = sub.add_parser(
        "stream",
        help="run a fleet with the real-time telemetry pipeline: live "
             "TSDB feed, streaming §V-A flags and alerting",
    )
    st.add_argument("--nodes", type=int, default=8)
    st.add_argument("--hours", type=int, default=24)
    st.add_argument("--seed", type=int, default=42)
    st.add_argument("--interval", type=int, default=600)
    st.add_argument("--runtime", type=float, default=4000.0)
    st.add_argument("--preset", choices=sorted(PRESETS),
                    default="offenders")
    st.add_argument("--types", default="",
                    help="comma-separated device types for the TSDB "
                         "feed (default: all)")
    st.add_argument("--shards", type=int, default=0,
                    help="partition the live feed across a sharded "
                         "exchange (0 = single consumer)")
    st.add_argument("--analytics", action="store_true",
                    help="attach always-on fleet analytics: continuous "
                         "efficiency scoring, fleet-quantile anomaly "
                         "alerts, counter-feed sketches read from the "
                         "live TSDB")
    st.add_argument("--quiet-alerts", action="store_true",
                    help="suppress the per-alert log lines")
    st.add_argument("--verify", action="store_true",
                    help="after the run, batch-ingest the store and "
                         "assert the streaming flags match")
    st.set_defaults(fn=cmd_stream)

    sv = sub.add_parser(
        "serve", help="serve the portal over HTTP (asyncio front-end)"
    )
    sv.add_argument("--db", required=True)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8787)
    sv.add_argument("--workers", type=int, default=8)
    sv.add_argument("--queue-cap", type=int, default=64,
                    help="outstanding requests before shedding 503s")
    sv.add_argument("--deadline", type=float, default=30.0,
                    help="seconds before an admitted request gets a 504")
    sv.add_argument("--page-cache", type=int, default=256,
                    help="rendered-page LRU entries")
    sv.add_argument("--live-nodes", type=int, default=0,
                    help="attach a live demo stream on this many nodes")
    sv.add_argument("--live-minutes", type=int, default=30)
    sv.add_argument("--seed", type=int, default=42)
    sv.set_defaults(fn=cmd_serve)

    ch = sub.add_parser(
        "chaos",
        help="seeded fault-injection run asserting recovery invariants",
    )
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--minutes", type=int, default=24 * 60)
    ch.add_argument("--nodes", type=int, default=8)
    ch.add_argument("--interval", type=int, default=600)
    ch.add_argument("--jobs", type=int, default=6)
    ch.set_defaults(fn=cmd_chaos)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
