"""Golden bytes: the simulator's output for fixed seeds never changes.

Two fixed-seed 8-node sessions run ``bench/corpus.py``'s offender mix
for a few sim-hours, one in cron mode and one in daemon mode.  Every
raw file the central store ends with, and (daemon mode) every message
body the ``tacc_stats`` exchange carried, is hashed with SHA-256 and
compared with the hashes recorded when the per-counter device model
was still in place.  A refactor of the device model, the collector or
the raw-file writer keeps these bytes, or it is a behaviour change.

The hashes were recorded with NumPy 2.4.6 on x86-64.  They depend on
the ``Generator.normal`` stream and on the last bit of ``np.exp``, which
another NumPy release may change; CI pins NumPy 2.4.6 wherever this
test runs, so a mismatch there means a behaviour change, not a new
environment.  The hashes below are never edited to make a change pass.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List

from repro import cron_session, monitoring_session
from repro.cluster import JobSpec, make_app
from repro.core.daemon import EXCHANGE

#: the job mix ``bench/corpus.py::record_session`` runs
OFFENDER_MIX = (
    ("mduser", "metadata_thrash", 2),
    ("idleuser", "idle_half", 2),
    ("ptruser", "hicpi", 2),
    ("ethuser", "gige_mpi", 2),
)
SEED = 3
SIM_SECONDS = 4 * 3600
#: short enough that jobs end (epilog samples) and the queue refills
RUNTIME_MEAN = 5400.0

CRON_FILES = {
    "c401-101.raw":
        "1117299da40099d8bac2b45ebb6bea16684ca17f16c10899a67a6a95c3bea09c",
    "c401-102.raw":
        "33a85922cd308bbc87e382b9d21ac260bd21e17607389af659702a1bbf527aca",
    "c401-103.raw":
        "897f779a61356b76645f44fccc2922f498fdb72754f3315161c53be861677e82",
    "c401-104.raw":
        "f80cd92bc5d816f0b44e3d33dc8ab1e99ccdd1d552c9ba702765413a10f7b756",
    "c401-105.raw":
        "da171272aea40360901084ae5cac8c139520a46fce0d6826f70b10c631151cac",
    "c401-106.raw":
        "1d0bb94f51a57d5615f822d5e0a5a0abcd8ef857b19f45c47912e2e101f1f1d2",
    "c401-107.raw":
        "baee84b9fc790b0787c232e59fe612cbb6b383c544425265cd16e66f7339996d",
    "c401-108.raw":
        "6d392ef9fd5a16dc4d59c04a9d16ffdd30369cff604a56af550ef5920e8e7d95",
}
DAEMON_FILES = {
    "c401-101.raw":
        "1a28c00a18e4675a62d2bae598e001ebffcb0f92def7a200428e5f714d092696",
    "c401-102.raw":
        "33a85922cd308bbc87e382b9d21ac260bd21e17607389af659702a1bbf527aca",
    "c401-103.raw":
        "897f779a61356b76645f44fccc2922f498fdb72754f3315161c53be861677e82",
    "c401-104.raw":
        "f80cd92bc5d816f0b44e3d33dc8ab1e99ccdd1d552c9ba702765413a10f7b756",
    "c401-105.raw":
        "da171272aea40360901084ae5cac8c139520a46fce0d6826f70b10c631151cac",
    "c401-106.raw":
        "1d0bb94f51a57d5615f822d5e0a5a0abcd8ef857b19f45c47912e2e101f1f1d2",
    "c401-107.raw":
        "baee84b9fc790b0787c232e59fe612cbb6b383c544425265cd16e66f7339996d",
    "c401-108.raw":
        "6d392ef9fd5a16dc4d59c04a9d16ffdd30369cff604a56af550ef5920e8e7d95",
}
DAEMON_BODIES = (
    "1d923c981bcc7294239deed59a88a245e52f018934f97db8242d73716ad321b6"
)


def _submit_mix(cluster) -> None:
    for user, app, nodes in OFFENDER_MIX:
        for _ in range(2):
            cluster.submit(JobSpec(
                user=user,
                app=make_app(app, runtime_mean=RUNTIME_MEAN, fail_prob=0.0),
                nodes=nodes,
            ))


def _store_hashes(root: Path) -> Dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_cron_session_bytes(tmp_path):
    """Cron mode, with one node's event counters parked near their wrap
    point an hour in, so wide-register truncation is in the bytes."""
    sess = cron_session(nodes=8, seed=SEED, store_dir=str(tmp_path))
    _submit_mix(sess.cluster)
    sess.cluster.run_for(3600)
    node = sess.cluster.nodes[sorted(sess.cluster.nodes)[0]]
    sess.cluster.catch_up(node.name)
    for dev in node.tree.devices.values():
        dev.near_wrap()
    sess.cluster.run_for(SIM_SECONDS - 3600)
    sess.cron.final_sync()
    sess.store.close()
    assert _store_hashes(tmp_path) == CRON_FILES


def test_daemon_session_bytes(tmp_path):
    """Daemon mode: the store's files and every tapped message body."""
    sess = monitoring_session(nodes=8, seed=SEED, store_dir=str(tmp_path))
    bodies: List[str] = []
    sess.broker.declare_queue("golden_tap")
    sess.broker.bind("golden_tap", EXCHANGE, "stats.#")
    sess.broker.channel().basic_consume(
        "golden_tap", lambda _ch, d: bodies.append(d.message.body),
        auto_ack=True,
    )
    _submit_mix(sess.cluster)
    sess.cluster.run_for(SIM_SECONDS + 10)  # + broker delivery latency
    sess.store.close()
    assert len(bodies) > 8 * (SIM_SECONDS // 600)
    tapped = hashlib.sha256("".join(bodies).encode()).hexdigest()
    assert (_store_hashes(tmp_path), tapped) == (DAEMON_FILES, DAEMON_BODIES)
