"""QuerySet lookups, chaining, ordering, slicing, Q objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, FloatField, IntegerField, Model, Q, TextField


class Row(Model):
    table_name = "rows"
    name = TextField()
    value = FloatField(default=0.0)
    rank = IntegerField(default=0)
    note = TextField(null=True)


@pytest.fixture
def db():
    d = Database()
    Row.bind(d)
    Row.create_table()
    Row.objects.bulk_create(
        [
            Row(name="alpha", value=1.0, rank=1),
            Row(name="beta", value=2.5, rank=2, note="x"),
            Row(name="gamma", value=2.5, rank=3),
            Row(name="delta", value=10.0, rank=4, note="y"),
        ]
    )
    return d


def names(qs):
    return [r.name for r in qs]


def test_exact_and_ne(db):
    assert names(Row.objects.filter(name="beta")) == ["beta"]
    assert names(Row.objects.filter(name__ne="beta").order_by("rank")) == [
        "alpha", "gamma", "delta"
    ]


def test_comparison_lookups(db):
    assert Row.objects.filter(value__gt=2.5).count() == 1
    assert Row.objects.filter(value__gte=2.5).count() == 3
    assert Row.objects.filter(value__lt=2.5).count() == 1
    assert Row.objects.filter(value__lte=2.5).count() == 3


def test_in_lookup(db):
    assert Row.objects.filter(name__in=["alpha", "delta"]).count() == 2
    assert Row.objects.filter(name__in=[]).count() == 0


def test_string_lookups(db):
    assert names(Row.objects.filter(name__contains="amm")) == ["gamma"]
    assert names(Row.objects.filter(name__startswith="de")) == ["delta"]
    assert names(Row.objects.filter(name__endswith="ta").order_by("rank")) == [
        "beta", "delta"
    ]


def test_isnull_lookup(db):
    assert Row.objects.filter(note__isnull=True).count() == 2
    assert Row.objects.filter(note__isnull=False).count() == 2


def test_range_lookup(db):
    assert Row.objects.filter(rank__range=(2, 3)).count() == 2


def test_unknown_lookup_rejected(db):
    with pytest.raises(ValueError):
        list(Row.objects.filter(rank__regex="x"))


def test_chained_filters_anded(db):
    qs = Row.objects.filter(value=2.5).filter(rank__gt=2)
    assert names(qs) == ["gamma"]


def test_exclude(db):
    assert names(Row.objects.exclude(value=2.5).order_by("rank")) == [
        "alpha", "delta"
    ]


def test_q_or(db):
    qs = Row.objects.filter(Q(name="alpha") | Q(rank=4)).order_by("rank")
    assert names(qs) == ["alpha", "delta"]


def test_q_and_not(db):
    qs = Row.objects.filter(Q(value=2.5) & ~Q(name="beta"))
    assert names(qs) == ["gamma"]


def test_order_by_desc_and_multiple(db):
    qs = Row.objects.all().order_by("-value", "rank")
    assert names(qs) == ["delta", "beta", "gamma", "alpha"]


def test_slicing_and_indexing(db):
    qs = Row.objects.all().order_by("rank")
    assert names(qs[1:3]) == ["beta", "gamma"]
    assert qs[0].name == "alpha"
    with pytest.raises(IndexError):
        qs[99]
    # SQL has no negative OFFSET and no stride: refuse rather than
    # answer with the wrong rows
    with pytest.raises(ValueError):
        qs[-1]
    with pytest.raises(ValueError):
        qs[-2:]
    with pytest.raises(ValueError):
        qs[::2]
    with pytest.raises(ValueError):
        qs[:-1]
    assert names(qs[::1]) == names(qs[:]) == names(qs)
    assert qs[3:1] == [] and qs[2:2] == []


def test_first_and_exists(db):
    assert Row.objects.filter(rank__gt=99).first() is None
    assert not Row.objects.filter(rank__gt=99).exists()
    assert Row.objects.all().order_by("-rank").first().name == "delta"


def test_get_raises_on_none_or_many(db):
    with pytest.raises(LookupError):
        Row.objects.get(name="nope")
    with pytest.raises(LookupError):
        Row.objects.get(value=2.5)


def test_values_and_values_list(db):
    vals = Row.objects.filter(rank__lte=2).order_by("rank").values("name", "value")
    assert vals == [{"name": "alpha", "value": 1.0},
                    {"name": "beta", "value": 2.5}]
    flat = Row.objects.all().order_by("rank").values_list("name", flat=True)
    assert flat == ["alpha", "beta", "gamma", "delta"]
    pairs = Row.objects.filter(rank=1).values_list("name", "rank")
    assert pairs == [("alpha", 1)]
    with pytest.raises(ValueError):
        Row.objects.all().values_list("name", "rank", flat=True)


def test_update_and_delete(db):
    assert Row.objects.filter(value=2.5).update(note="bulk") == 2
    assert Row.objects.filter(note="bulk").count() == 2
    assert Row.objects.filter(rank__gte=3).delete() == 2
    assert Row.objects.count() == 2


def test_queryset_is_lazy_and_reusable(db):
    qs = Row.objects.filter(value=2.5)
    assert qs.count() == 2
    Row.objects.create(name="eps", value=2.5)
    assert qs.count() == 3  # re-evaluates


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.floats(-1e6, 1e6))
@settings(max_examples=25, deadline=None)
def test_gt_lookup_matches_python_semantics(values, threshold):
    db = Database()
    Row.bind(db)
    Row.create_table()
    Row.objects.bulk_create(
        [Row(name=str(i), value=v) for i, v in enumerate(values)]
    )
    expected = sum(1 for v in values if v > threshold)
    assert Row.objects.filter(value__gt=threshold).count() == expected
