"""ResourceScheduler: LPT packing, load feedback, determinism."""

import pytest

from repro.shard import ResourceScheduler


def test_uniform_loads_spread_evenly():
    sched = ResourceScheduler(workers=4)
    plan = sched.plan(range(8))
    assert sorted(sum(plan, [])) == list(range(8))
    assert all(len(sids) == 2 for sids in plan)


def test_plan_is_deterministic():
    a = ResourceScheduler(workers=3).plan(range(10))
    b = ResourceScheduler(workers=3).plan(range(10))
    assert a == b


def test_heavy_shard_is_isolated():
    """LPT: one dominant shard gets a worker almost to itself."""
    sched = ResourceScheduler(workers=2)
    loads = {0: 100.0, 1: 1.0, 2: 1.0, 3: 1.0}
    plan = sched.plan(range(4), loads)
    heavy_worker = next(w for w, sids in enumerate(plan) if 0 in sids)
    assert plan[heavy_worker] == [0]
    assert sorted(plan[1 - heavy_worker]) == [1, 2, 3]


def test_observed_load_drives_rebalance():
    sched = ResourceScheduler(workers=2)
    first = sched.plan(range(4))
    sched.observe(0, points=10, seconds=50.0)
    for s in (1, 2, 3):
        sched.observe(s, points=10, seconds=1.0)
    second = sched.plan(range(4))
    heavy = next(w for w, sids in enumerate(second) if 0 in sids)
    assert second[heavy] == [0], (first, second)


def test_hints_without_observations():
    sched = ResourceScheduler(workers=2)
    plan = sched.plan(range(3), loads={2: 1000.0})
    heavy = next(w for w, sids in enumerate(plan) if 2 in sids)
    assert plan[heavy] == [2]


def test_more_workers_than_shards_leaves_empties():
    plan = ResourceScheduler(workers=6).plan(range(3))
    assert sum(len(s) for s in plan) == 3
    assert sum(1 for s in plan if not s) == 3


def test_loads_accumulate_and_are_reported():
    """Two observations of shard 1 (5 + 7 points) outweigh one of
    shard 0 (11): the plan isolates shard 1 and reports its 12."""
    from repro import obs

    sched = ResourceScheduler(workers=2)
    sched.observe(0, points=11)
    sched.observe(1, points=5)
    sched.observe(1, points=7)
    plan = sched.plan(range(3))
    heavy = next(w for w, sids in enumerate(plan) if 1 in sids)
    assert plan[heavy] == [1]
    assert obs.gauge("repro_shard_worker_load", "").value(
        worker=heavy) == pytest.approx(12.0)


def test_validation():
    with pytest.raises(ValueError):
        ResourceScheduler(workers=0)
