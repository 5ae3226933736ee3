"""CLI: every subcommand exercised through main()."""

import pytest

from repro.cli import PRESETS, build_parser, main
from repro.db import Database
from repro.pipeline.records import JobRecord


@pytest.fixture(scope="module")
def sim_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sim.db"
    rc = main([
        "simulate", "--db", str(path), "--nodes", "8", "--hours", "6",
        "--preset", "offenders", "--seed", "9",
    ])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def pop_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pop.db"
    rc = main(["popgen", "--db", str(path), "--jobs", "12000"])
    assert rc == 0
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_ingest_executor_flag_is_gone(capsys):
    """The ETL parses in-process: no executor or worker-count flag."""
    parser = build_parser()
    args = parser.parse_args(["ingest", "--store", "s", "--db", "d"])
    assert not hasattr(args, "executor") and not hasattr(args, "workers")
    # ... and ``batch_size`` alone bounds an insert
    assert not hasattr(args, "chunk_size")
    for flag, value in (("--executor", "thread"), ("--chunk-size", "500"),
                        ("--workers", "2")):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(
                ["ingest", "--store", "s", "--db", "d", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_simulate_persists_jobs(sim_db, capsys):
    db = Database(sim_db)
    JobRecord.bind(db)
    assert JobRecord.objects.count() == len(PRESETS["offenders"])
    flagged = [r for r in JobRecord.objects.all() if r.flags]
    assert len(flagged) >= 4


def test_search_by_exe(sim_db, capsys):
    rc = main(["search", "--db", sim_db, "--exe", "graph500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 jobs total" in out
    assert "high_cpi" in out


def test_search_with_field_and_histograms(sim_db, capsys):
    rc = main([
        "search", "--db", sim_db,
        "--field", "MetaDataRate__gt=10000", "--histograms",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "blastp" in out
    assert "Metadata Reqs" in out  # histogram panel rendered


def test_search_bad_field_spec(sim_db):
    with pytest.raises(SystemExit):
        main(["search", "--db", sim_db, "--field", "MetaDataRate__gt"])


def test_report_shows_all_categories(sim_db, capsys):
    db = Database(sim_db)
    JobRecord.bind(db)
    jobid = JobRecord.objects.all().first().jobid
    rc = main(["report", "--db", sim_db, "--jobid", jobid])
    out = capsys.readouterr().out
    assert rc == 0
    for cat in ("[Lustre]", "[Network]", "[Processor]", "[OS]", "[Energy]"):
        assert cat in out
    assert "CPU_Usage" in out


def test_report_unknown_job(sim_db, capsys):
    rc = main(["report", "--db", sim_db, "--jobid", "999999"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_popgen_and_casestudy(pop_db, capsys):
    rc = main(["casestudy", "--db", pop_db])
    out = capsys.readouterr().out
    assert rc == 0
    assert "baduser01" in out
    assert "metadata ratio" in out


def test_casestudy_empty_db(tmp_path, capsys):
    path = tmp_path / "empty.db"
    db = Database(str(path))
    JobRecord.bind(db)
    JobRecord.create_table()
    db.commit()
    rc = main(["casestudy", "--db", str(path)])
    assert rc == 1


def test_fleet_command(pop_db, capsys):
    rc = main(["fleet", "--db", pop_db, "--top", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fleet report" in out
    assert "top 3 users" in out


def test_fleet_command_empty_db(tmp_path, capsys):
    path = tmp_path / "empty2.db"
    db = Database(str(path))
    JobRecord.bind(db)
    JobRecord.create_table()
    db.commit()
    rc = main(["fleet", "--db", str(path)])
    assert rc == 1


def test_obs_command_emits_parseable_metrics(capsys):
    import re

    rc = main(["obs", "--nodes", "4", "--hours", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    sample_re = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" [-+]?([0-9.]+([eE][-+]?[0-9]+)?|inf|nan)$"
    )
    metric_lines = [
        ln for ln in out.splitlines() if ln and not ln.startswith("#")
    ]
    assert metric_lines
    for line in metric_lines:
        assert sample_re.match(line), f"unparseable line: {line!r}"
    assert any(
        ln.startswith("repro_collector_collections_total")
        for ln in metric_lines
    )
    assert "# measured fleet overhead:" in out


def test_obs_command_json_format(capsys):
    import json

    rc = main([
        "obs", "--nodes", "4", "--hours", "3", "--seed", "5",
        "--format", "json",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    payload = out.split("\n# ", 1)[0]  # JSON block precedes the summary
    data = json.loads(payload)
    assert any(k.startswith("repro_") for k in data)


def test_stream_command_with_verify(capsys):
    rc = main([
        "stream", "--nodes", "4", "--hours", "4", "--seed", "5",
        "--verify",
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "ALERT [" in captured.out  # live alerts reached stdout
    assert "verified: streaming flags match batch ingest" in captured.out
    assert "MISMATCH" not in captured.err


def test_stream_command_quiet_and_typed(capsys):
    rc = main([
        "stream", "--nodes", "4", "--hours", "3", "--seed", "5",
        "--types", "mdc,cpu", "--quiet-alerts",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ALERT [" not in out
    assert "streamed 3h on 4 nodes" in out


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--db", "x.db"])
    assert args.fn.__name__ == "cmd_serve"
    assert args.port == 8787
    assert args.workers == 8
    assert args.queue_cap == 64
    assert args.deadline == 30.0


# -- sharded ingest ------------------------------------------------------------


@pytest.fixture(scope="module")
def raw_store(tmp_path_factory):
    """Four hosts' raw files on disk, and their unsharded totals."""
    from repro import monitoring_session
    from repro.cluster import JobSpec, make_app
    from repro.tsdb import TimeSeriesDB, ingest_store
    from repro.tsdb.store import ingest_file

    sess = monitoring_session(
        nodes=4, seed=11, interval=600,
        store_dir=tmp_path_factory.mktemp("cli-raw"),
    )
    sess.cluster.submit(JobSpec(
        user="alice", app=make_app("wrf", runtime_mean=3000.0), nodes=4
    ))
    sess.cluster.run_for(3 * 3600)
    store = sess.store
    store.flush()
    points = ingest_store(TimeSeriesDB(), store, types=["mdc", "cpu"])
    samples = 0
    for host in store.hosts():
        with open(store.path_for(host)) as fh:
            samples += ingest_file(TimeSeriesDB(), host, fh, types=[])[1]
    assert points > 0 and samples > 0
    return str(store.root), points, samples


@pytest.mark.parametrize("extra, workers", [
    (["--shards", "3"], 0),
    (["--shards", "4", "--shard-workers", "2"], 2),
])
def test_ingest_sharded_matches_unsharded_totals(
        raw_store, capsys, extra, workers):
    from repro import obs

    root, points, samples = raw_store
    spawned = obs.counter("repro_shard_workers_spawned_total", "")
    before = spawned.total()
    rc = main(["ingest", "--store", root, "--types", "mdc,cpu", *extra])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert f"{points} points, {samples} samples" in captured.out
    assert f"4 hosts -> {extra[1]} shards" in captured.out
    # one process per worker: the ring alone places the load hints
    assert spawned.total() - before == workers


def test_shard_transport_and_coalescing_flags_are_gone(capsys):
    """The write window, the reply arena and feed coalescing are gone
    (docs/performance.md, "Tuning knobs")."""
    parser = build_parser()
    for argv in (
        ["ingest", "--store", "s", "--shards", "2", "--arena-kb", "0"],
        ["ingest", "--store", "s", "--shards", "2", "--rpc-window", "1"],
        ["stream", "--shards", "2", "--coalesce-points", "512"],
    ):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err
