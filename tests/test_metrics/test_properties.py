"""Property-based invariants of the metric engine.

These check structural guarantees across random job shapes: value
ranges, invariance properties, and consistency relations that must
hold for *any* input the pipeline could produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics.table1 import compute_metrics
from tests.test_metrics.test_table1 import make_accum

pos = st.floats(0, 1e12)
shapes = st.tuples(st.integers(1, 5), st.integers(2, 10))


def deltas(shape_st=shapes, lo=0.0, hi=1e12):
    return hnp.arrays(np.float64, shape_st, elements=st.floats(lo, hi))


@given(deltas())
@settings(max_examples=40, deadline=None)
def test_all_metrics_finite_for_any_counter_data(mdc):
    N, Tm1 = mdc.shape
    a = make_accum(n_hosts=N, T=Tm1 + 1, mdc_reqs=mdc)
    m = compute_metrics(a)
    for name, value in m.items():
        assert np.isfinite(value), name


@given(deltas())
@settings(max_examples=40, deadline=None)
def test_max_metric_dominates_average(mdc):
    N, Tm1 = mdc.shape
    a = make_accum(n_hosts=N, T=Tm1 + 1, mdc_reqs=mdc)
    m = compute_metrics(a)
    # MetaDataRate is node-summed, MDCReqs node-averaged:
    # peak(sum) >= mean over time of sum = N * node-mean
    assert m["MetaDataRate"] >= m["MDCReqs"] * N * (1 - 1e-9)


@given(
    deltas(st.tuples(st.integers(1, 4), st.integers(2, 8)), 0, 1e10),
    st.floats(1.5, 10.0),
)
@settings(max_examples=30, deadline=None)
def test_arc_scales_linearly(base, factor):
    """Scaling every counter delta scales every ARC metric linearly."""
    N, Tm1 = base.shape
    a1 = make_accum(n_hosts=N, T=Tm1 + 1, mdc_reqs=base)
    a2 = make_accum(n_hosts=N, T=Tm1 + 1, mdc_reqs=base * factor)
    m1, m2 = compute_metrics(a1), compute_metrics(a2)
    assert m2["MDCReqs"] == pytest.approx(m1["MDCReqs"] * factor, rel=1e-9,
                                          abs=1e-12)
    assert m2["MetaDataRate"] == pytest.approx(
        m1["MetaDataRate"] * factor, rel=1e-9, abs=1e-12
    )


@given(deltas(st.tuples(st.integers(2, 5), st.integers(2, 8)), 0, 1e10))
@settings(max_examples=30, deadline=None)
def test_cpu_usage_bounded_by_construction(user):
    """user <= total jiffies implies CPU_Usage, idle, catastrophe in [0,1]."""
    total = user + np.abs(user) * 0.5 + 1.0
    a = make_accum(
        n_hosts=user.shape[0], T=user.shape[1] + 1,
        cpu_user=user, cpu_total=total,
    )
    m = compute_metrics(a)
    assert 0.0 <= m["CPU_Usage"] <= 1.0
    assert 0.0 <= m["idle"] <= 1.0 + 1e-9
    assert 0.0 <= m["catastrophe"] <= 1.0 + 1e-9


@given(
    st.floats(0, 1e10), st.floats(0, 1e10),
)
@settings(max_examples=50)
def test_vecpercent_range_and_monotonicity(scalar, vector):
    a = make_accum(
        fp_scalar=np.full((1, 3), scalar),
        fp_vector=np.full((1, 3), vector),
    )
    v = compute_metrics(a)["VecPercent"]
    assert 0.0 <= v <= 100.0
    if scalar == 0 and vector > 0:
        assert v == pytest.approx(100.0)
    if vector == 0:
        assert v == 0.0


@given(deltas(st.tuples(st.integers(1, 4), st.integers(2, 6)), 0, 1e9))
@settings(max_examples=30, deadline=None)
def test_node_permutation_invariance(mdc):
    """Metrics must not depend on host ordering."""
    N, Tm1 = mdc.shape
    a1 = make_accum(n_hosts=N, T=Tm1 + 1, mdc_reqs=mdc)
    a2 = make_accum(n_hosts=N, T=Tm1 + 1, mdc_reqs=mdc[::-1].copy())
    m1, m2 = compute_metrics(a1), compute_metrics(a2)
    for key in ("MDCReqs", "MetaDataRate", "CPU_Usage", "idle"):
        assert m1[key] == pytest.approx(m2[key], rel=1e-12, abs=1e-12)


# -- one formula per metric: a stack of k jobs ≡ the frozen scalar formulas -----


@st.composite
def job_stacks(draw):
    """k same-shaped accums with every canonical quantity populated:
    zero, integer-valued and fractional deltas up to 1e15, uneven
    sampling intervals, vector widths 2/4/8."""
    from repro.pipeline.accum import CANONICAL_QUANTITIES, JobAccum

    k = draw(st.integers(1, 5))
    N = draw(st.integers(1, 8))
    T = draw(st.integers(2, 40))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=k, max_size=k))
    accums = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        deltas_, gauges = {}, {}
        for q in CANONICAL_QUANTITIES:
            if q.gauge:
                gauges[q.key] = rng.uniform(0, 1e11, (N, T))
                continue
            kind = rng.integers(0, 3)
            if kind == 0:
                arr = np.zeros((N, T - 1))
            elif kind == 1:
                arr = rng.integers(0, 1 << 40, (N, T - 1)).astype(float)
            else:
                arr = rng.uniform(0, 10.0 ** rng.integers(0, 16), (N, T - 1))
            deltas_[q.key] = arr
        # busy time is part of total time, as on a real node
        deltas_["cpu_total"] += deltas_["cpu_user"]
        deltas_["mic_total"] += deltas_["mic_user"]
        accums.append(JobAccum(
            jobid=f"j{seed}", hosts=[f"n{i}" for i in range(N)],
            times=np.cumsum(rng.integers(1, 1200, T)).astype(np.int64),
            deltas=deltas_, gauges=gauges,
            vector_width=int(rng.choice([2, 4, 8])),
        ))
    return accums


@given(job_stacks())
@settings(max_examples=60, deadline=None)
def test_stacked_registry_equals_frozen_scalar_formulas(accums):
    """The unified registry at J = k, at J = 1 and one metric at a time
    returns, job by job, the 8 bytes the frozen scalar formulas do."""
    import struct

    from repro.metrics.table1 import METRIC_REGISTRY, compute_metrics_batch
    from tests.test_pipeline.reference import SCALAR_FORMULAS

    def bits(x):
        return struct.pack("<d", x)

    assert set(METRIC_REGISTRY) == set(SCALAR_FORMULAS)
    for accum, row in zip(accums, compute_metrics_batch(accums)):
        alone = compute_metrics(accum)
        for name, formula in SCALAR_FORMULAS.items():
            want = bits(float(formula(accum)))
            assert bits(row[name]) == want, (name, "J=k")
            assert bits(alone[name]) == want, (name, "J=1")
            assert bits(METRIC_REGISTRY[name](accum)) == want, (name, "one")
