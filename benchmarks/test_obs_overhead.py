"""CI gate: self-observability must stay under 5 % of ingest cost.

`repro.obs` promises "one dict lookup plus a float add per event"
(docs/observability.md).  This gate holds it to that: the same store
is ingested with the registry enabled and disabled, best-of-N each,
and the run fails if the instrumented pipeline is more than 5 %
slower.  Measurements interleave the two modes so clock drift and
cache warm-up hit both equally, and best-of-N discards scheduler
noise rather than averaging it in.
"""

import time

from benchmarks._support import report
from repro import obs
from repro.db import Database
from repro.pipeline import ingest_jobs
from tests.test_pipeline.test_parallel import build_store

ROUNDS = 7
BUDGET = 1.05  # instrumented may cost at most 5 % more


def timed_ingest(store) -> float:
    db = Database()
    t0 = time.perf_counter()
    ingest_jobs(store, None, db)
    return time.perf_counter() - t0


def test_obs_overhead_within_budget(tmp_path):
    store = build_store(tmp_path / "store", hosts=8, samples=48)
    was_enabled = obs.get_registry().enabled
    try:
        timed_ingest(store)  # warm caches before either mode is timed
        off, on = [], []
        for _ in range(ROUNDS):
            obs.set_enabled(False)
            obs.reset()
            off.append(timed_ingest(store))
            obs.set_enabled(True)
            obs.reset()
            on.append(timed_ingest(store))
        baseline, instrumented = min(off), min(on)
        ratio = instrumented / baseline
        report(
            "obs overhead gate (in-process ingest, best of %d)" % ROUNDS,
            [("disabled", f"{baseline * 1e3:.1f} ms", ""),
             ("enabled", f"{instrumented * 1e3:.1f} ms",
              f"{(ratio - 1) * 100:+.1f} %")],
            ["mode", "best", "overhead"],
        )
        assert ratio <= BUDGET, (
            f"instrumented ingest is {(ratio - 1) * 100:.1f} % slower "
            f"(budget {(BUDGET - 1) * 100:.0f} %)"
        )
    finally:
        obs.set_enabled(was_enabled)
        obs.reset()
