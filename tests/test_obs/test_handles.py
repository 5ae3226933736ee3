"""Pre-bound instruments report exactly what the per-call ones did.

* ``Histogram.observe`` — one ``bisect`` into per-bucket counts, the
  cumulative view built at read time — against the frozen class it
  replaced (:class:`tests.test_obs.reference.ReferenceHistogram`): NaN,
  ±inf, −0.0, values exactly on a bound (a duplicated one included) and
  harvest ``merge_sample`` deltas, bit for bit.
* A handle survives :func:`repro.obs.reset` (its next use registers
  the family again, as the by-name lookup it replaces would), does
  nothing while obs is disabled, and declaring one registers nothing.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs import handles
from repro.obs.registry import Counter, Histogram
from tests.test_obs.reference import ReferenceHistogram

NAN, INF = float("nan"), float("inf")
#: a negative, a zero and a duplicated bound
BOUNDS = (-1.0, 0.0, 0.001, 0.5, 1.0, 1.0, 300.0)
values = st.one_of(
    st.sampled_from([NAN, INF, -INF, -0.0, 0.0, *BOUNDS]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
)
observations = st.lists(st.tuples(st.sampled_from("ab"), values), max_size=40)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.set_enabled(True)
    obs.reset()


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def state(h):
    return [
        (key, s.count, bits(s.sum), bits(s.min), bits(s.max), list(s.buckets))
        for key, s in h.samples()
    ]


@settings(max_examples=200, deadline=None)
@given(seen=observations, worker=observations)
def test_histogram_equals_the_frozen_one(seen, worker):
    new = Histogram("h", buckets=BOUNDS)
    old = ReferenceHistogram("h", buckets=BOUNDS)
    handle = {stage: new.labels(stage=stage) for stage in "ab"}
    for i, (stage, v) in enumerate(seen):
        # the by-name call and the handle fill the same sample
        if i % 2:
            new.observe(v, stage=stage)
        else:
            handle[stage].observe(v)
        old.observe(v, stage=stage)
    # a worker's samples arrive as deltas of cumulative snapshots
    remote = ReferenceHistogram("h", buckets=BOUNDS)
    for stage, v in worker:
        remote.observe(v, stage=stage)
    for key, s in remote.samples():
        for h in (new, old):
            h.merge_sample(key, s.count, s.sum, s.min, s.max, s.buckets)
    assert state(new) == state(old)
    for stage in "ab":
        assert new.count(stage=stage) == old.count(stage=stage)
        assert bits(new.mean(stage=stage)) == bits(old.mean(stage=stage))
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert bits(new.quantile(q, stage=stage)) == bits(
                old.quantile(q, stage=stage)), (stage, q)


def test_nan_lands_only_in_the_overflow_bucket():
    h = Histogram("h", buckets=BOUNDS)
    h.labels().observe(NAN)
    (_, s), = h.samples()
    assert s.count == 1 and s.buckets == [0] * len(BOUNDS)
    assert (s.min, s.max) == (INF, -INF)


def test_a_handle_bound_before_reset_counts_after_it():
    declared = handles.counter("demo_declared_total", "declared at import")
    bound = obs.counter("demo_bound_total", "looked up").labels(q="a")
    timing = handles.histogram("demo_seconds", "timed", buckets=(1.0,))
    declared.inc()
    bound.inc(2)
    obs.reset()
    assert obs.get_registry().names() == []
    declared.inc(3)
    bound.inc()
    timing.labels(stage="x").observe(0.5)
    assert obs.counter("demo_declared_total").value() == 3
    assert obs.counter("demo_bound_total").value(q="a") == 1
    assert obs.histogram("demo_seconds").count(stage="x") == 1
    assert obs.get_registry().get("demo_seconds").bounds == (1.0,)
    assert "# HELP demo_declared_total declared at import" in obs.render_text()


def test_a_handle_does_nothing_while_disabled():
    counter = handles.counter("demo_events_total")
    gauge = handles.gauge("demo_depth").labels(queue="q")
    timing = obs.histogram("demo_seconds").labels()
    obs.reset()
    obs.set_enabled(False)
    counter.inc()
    gauge.set(4)
    timing.observe(1.0)
    with obs.span("demo.off") as sp:
        sp.set(x=1)
    assert obs.get_registry().names() == []
    assert obs.get_tracer().spans() == []
    obs.set_enabled(True)
    counter.inc()
    gauge.set(4)
    assert obs.counter("demo_events_total").value() == 1
    assert obs.gauge("demo_depth").value(queue="q") == 4


def test_declaring_registers_nothing_until_first_use():
    handles.counter("demo_lazy_total").labels(host="n1")
    assert "demo_lazy_total" not in obs.get_registry().names()
    handles.counter("demo_lazy_total").labels(host="n1").inc(0)
    assert obs.counter("demo_lazy_total").samples() == [
        ((("host", "n1"),), 0.0)]


def test_a_handle_writes_the_sample_the_by_name_call_does():
    c = obs.counter("demo_total")
    c.labels(b=2, a="x").inc()
    c.labels(a="x").labels(b="2").inc()
    c.inc(a="x", b=2)
    assert c.samples() == [((("a", "x"), ("b", "2")), 3.0)]
    with pytest.raises(ValueError):
        c.labels().inc(-1)
    # a family made outside any registry: always on
    free = Counter("free_total")
    free.labels(k=1).inc()
    assert free.value(k=1) == 1.0


def test_a_handle_meets_a_clashing_kind_as_the_lookup_would():
    handle = handles.counter("demo_clash")
    obs.gauge("demo_clash")
    with pytest.raises(TypeError):
        handle.inc()


def test_span_timings_are_bound_once_per_name_and_survive_reset():
    for _ in range(2):
        with obs.span("demo.step"):
            pass
    tracer = obs.get_tracer()
    timing = tracer._timings["demo.step"]
    obs.reset()
    with obs.span("demo.step"):
        pass
    assert tracer._timings["demo.step"] is timing
    assert obs.histogram("repro_obs_span_seconds").count(span="demo.step") == 1
