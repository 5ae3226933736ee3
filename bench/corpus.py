"""Seed-derived inputs: raw host-days, a prefilled TSDB, recorded traffic.

Everything here is set-up work (it counts towards ``setup_s``) and is a
pure function of its arguments, so the same ``--seed`` gives the same
bytes.  The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro import monitoring_session
from repro.cluster import JobSpec, make_app
from repro.core.collector import Sample
from repro.core.daemon import EXCHANGE
from repro.core.rawfile import RawFileParser, RawFileWriter
from repro.hardware.devices.base import Schema, SchemaEntry

#: 2015-10-01, the sim epoch every repro session starts at
T0 = 1_443_657_600

HOST_TOKEN = "HOSTTMPL-000"
JOB_TOKEN = "JOBTMPL"

CPU_EVENTS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq")
_SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in CPU_EVENTS]),
    "lnet": Schema([SchemaEntry("rx_bytes", width=64, unit="B"),
                    SchemaEntry("tx_bytes", width=64, unit="B")]),
    "mdc": Schema([SchemaEntry("reqs", width=64),
                   SchemaEntry("wait_us", width=64)]),
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}
#: (type, device) of every device one host reports: 4 cores + 3
DEVICES: Tuple[Tuple[str, str], ...] = tuple(
    [("cpu", str(core)) for core in range(4)]
    + [("lnet", "0"), ("mdc", "t"), ("mem", "0")]
)
#: counters one host contributes per sample (= series per host)
SERIES_PER_HOST = sum(len(_SCHEMAS[t].names()) for t, _ in DEVICES)  # 33


def _device_columns(
    rng: np.random.Generator, samples: int
) -> Dict[Tuple[str, str], np.ndarray]:
    """``(samples, events)`` monotone counters per device (``mem`` is a
    gauge), as float64 — what one host's hardware would report."""
    out: Dict[Tuple[str, str], np.ndarray] = {}
    for type_name, device in DEVICES:
        width = len(_SCHEMAS[type_name].names())
        if type_name == "mem":
            cols = rng.integers(1 << 33, 1 << 36, size=(samples, width))
        else:
            step = 1 << (20 if type_name == "cpu" else 30)
            cols = rng.integers(0, 1 << 30, size=width) + np.cumsum(
                rng.integers(0, step, size=(samples, width)), axis=0
            )
        out[(type_name, device)] = cols.astype(np.float64)
    return out


def host_day_template(seed: int, samples: int, interval: int) -> str:
    """One host-day of raw stats text with host and job tokens to
    substitute (cpu x4, lnet, mdc, mem: 33 counters a record)."""
    columns = _device_columns(np.random.default_rng(seed), samples)
    writer = RawFileWriter(HOST_TOKEN, "intel_hsw", _SCHEMAS,
                           mem_bytes=1 << 37)
    parts = [writer.header()]
    for i in range(samples):
        data: Dict[str, Dict[str, np.ndarray]] = {}
        for (type_name, device), cols in columns.items():
            data.setdefault(type_name, {})[device] = cols[i]
        parts.append(writer.record(Sample(
            host=HOST_TOKEN, timestamp=T0 + interval * i,
            jobids=[JOB_TOKEN], data=data, procs=[],
        )))
    return "".join(parts)


def rack_hosts(rack: int, hosts_per_rack: int) -> List[str]:
    return [f"c{rack:03d}-{h:03d}" for h in range(hosts_per_rack)]


def render_rack(
    root: Path, template: str, rack: int, hosts_per_rack: int,
    hosts_per_job: int,
) -> int:
    """Write one rack-day as a CentralStore directory; returns bytes."""
    root.mkdir(parents=True)
    written = 0
    for h, host in enumerate(rack_hosts(rack, hosts_per_rack)):
        jobid = str(5_000_000 + rack * hosts_per_rack + h // hosts_per_job)
        text = template.replace(HOST_TOKEN, host).replace(JOB_TOKEN, jobid)
        (root / f"{host}.raw").write_text(text)
        written += len(text)
    return written


def prefill_host(h: int) -> str:
    return f"p{h:03d}"


def prefill_tsdb(tsdb, seed: int, hosts: int, samples: int,
                 interval: int) -> int:
    """Load ``hosts`` × 33 series × ``samples`` points and seal them.

    The same tag scheme ``ingest_file`` writes (host, type, device,
    event), fed as columns: parsing 3 M points of text would be 20 s of
    set-up in every run and is what ``batch_fleet_day`` measures.
    """
    columns = _device_columns(np.random.default_rng(seed), samples)
    times = T0 + interval * np.arange(samples, dtype=np.int64)
    n = 0
    for h in range(hosts):
        host = prefill_host(h)
        for (type_name, device), cols in columns.items():
            for j, event in enumerate(_SCHEMAS[type_name].names()):
                n += tsdb.put_many(
                    "stats",
                    {"host": host, "type": type_name, "device": device,
                     "event": event},
                    times, cols[:, j] + float(h),
                )
    tsdb.seal_heads()
    return n


class Delivery(NamedTuple):
    """One recorded ``tacc_stats`` message, ready to publish again."""

    routing_key: str
    body: str
    headers: Dict[str, object]
    sim_time: int
    samples: int
    points: int
    jobids: Tuple[str, ...]


class Recording(NamedTuple):
    deliveries: List[Delivery]
    #: jobid → sorted flag names, from the batch ETL on the same store
    batch_flags: Dict[str, List[str]]
    hosts: List[str]


#: offender-heavy mix so several §V-A predicates fire (BENCH_stream's)
OFFENDER_MIX = (
    ("mduser", "metadata_thrash", 2),
    ("idleuser", "idle_half", 2),
    ("ptruser", "hicpi", 2),
    ("ethuser", "gige_mpi", 2),
)


def _measure(body: str) -> Tuple[int, int, Tuple[str, ...]]:
    """(samples, counter values, job ids) in one message body."""
    samples = points = 0
    jobids: set = set()
    for sample in RawFileParser().parse(io.StringIO(body)):
        samples += 1
        jobids.update(sample.jobids)
        for per_device in sample.data.values():
            points += sum(len(v) for v in per_device.values())
    return samples, points, tuple(sorted(jobids))


def record_session(
    seed: int, store_dir: Path, interval: int, sim_seconds: int,
    runtime_mean: float,
) -> Recording:
    """Run an 8-node daemon-mode session with the offender mix and tap
    every message off the ``tacc_stats`` exchange."""
    sess = monitoring_session(
        nodes=8, seed=seed, interval=interval, store_dir=str(store_dir)
    )
    taped: List[Tuple[str, str, Dict[str, object], int]] = []
    sess.broker.declare_queue("bench_tap")
    sess.broker.bind("bench_tap", EXCHANGE, "stats.#")
    sess.broker.channel().basic_consume(
        "bench_tap",
        lambda _ch, d: taped.append((
            d.message.routing_key, d.message.body,
            dict(d.message.headers), int(d.delivered_at),
        )),
        auto_ack=True,
    )
    for user, app, nodes in OFFENDER_MIX:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=runtime_mean, fail_prob=0.0),
            nodes=nodes,
        ))
    sess.cluster.run_for(sim_seconds + 10)  # + broker delivery latency
    result = sess.ingest()
    sess.store.close()
    deliveries = [
        Delivery(rk, body, headers, at, *_measure(body))
        for rk, body, headers, at in taped
    ]
    return Recording(
        deliveries=deliveries,
        batch_flags={j: sorted(f) for j, f in result.flagged.items()},
        hosts=sorted({str(d.headers["host"]) for d in deliveries}),
    )


_SAMPLE_LINE = re.compile(r"(?m)^(\d{9,}) (\S+)$")


def replicate(rec: Recording, replicas: int) -> Recording:
    """The recording as a ``replicas``× larger fleet: every replica is
    the same traffic under its own host names and job ids, interleaved
    in delivery-time order."""
    out: List[Tuple[int, int, int, Delivery]] = []
    flags: Dict[str, List[str]] = {}
    hosts: List[str] = []
    for k in range(replicas):
        host_map = {h: f"r{k:02d}-{h}" for h in rec.hosts}
        hosts.extend(host_map.values())

        def job_map(jid: str, k: int = k) -> str:
            return jid if jid == "-" else f"{int(jid) + 100 * k}"

        for j, f in rec.batch_flags.items():
            flags[job_map(j)] = f

        def retag(m: "re.Match[str]") -> str:
            ids = ",".join(job_map(j) for j in m.group(2).split(","))
            return f"{m.group(1)} {ids}"

        for i, d in enumerate(rec.deliveries):
            old = str(d.headers["host"])
            new = host_map[old]
            body = _SAMPLE_LINE.sub(retag, d.body.replace(old, new))
            out.append((d.sim_time, k, i, d._replace(
                routing_key=d.routing_key.replace(old, new),
                body=body,
                headers={**d.headers, "host": new},
                jobids=tuple(job_map(j) for j in d.jobids),
            )))
    out.sort(key=lambda row: row[:3])
    return Recording([row[3] for row in out], flags, hosts)
