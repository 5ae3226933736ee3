"""QuerySet lookups, chaining, ordering, slicing, Q objects, ``only()``."""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    BooleanField, Database, FieldNotLoaded, FloatField, IntegerField, Model,
    Q, TextField,
)
from repro.db.fields import JSONField
from tests.test_portal.test_render_path import CountingDatabase


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


# -- only(): partial records --------------------------------------------------

class Part(Model):
    table_name = "parts"
    name = TextField()
    mass = FloatField(default=0.0)
    live = BooleanField(default=False)
    extra = JSONField(null=True)


@pytest.fixture
def parts():
    d = CountingDatabase()
    Part.bind(d)
    Part.create_table()
    Part.objects.bulk_create([
        Part(name=f"p{i}", mass=float(i), live=bool(i % 2), extra={"i": [i]})
        for i in range(5)
    ])
    d.statements.clear()
    return d


def test_only_selects_the_primary_key_and_what_was_asked(parts):
    got = list(iter(Part.objects.all().order_by("id").only("name")))
    assert parts.statements == ["SELECT id, name FROM parts ORDER BY id ASC"]
    assert [vars(r) for r in got] == [
        {"id": i + 1, "name": f"p{i}"} for i in range(5)
    ]
    # asking for the key, or for a name twice, selects it once
    Part.objects.all().only("id", "mass", "mass").first()
    assert parts.statements[-1] == "SELECT id, mass FROM parts LIMIT 1"
    # field conversion is still applied to what was selected
    r = Part.objects.filter(name="p3").only("live", "extra").first()
    assert r.live is True and r.extra == {"i": [3]}
    assert vars(r) == {"id": 4, "live": True, "extra": {"i": [3]}}


def test_an_unselected_field_never_reads_as_a_plausible_none(parts):
    assert not issubclass(FieldNotLoaded, AttributeError)
    r = Part.objects.all().only("name").first()
    for missing in ("mass", "live", "extra"):
        with pytest.raises(FieldNotLoaded, match=missing):
            getattr(r, missing)
        with pytest.raises(FieldNotLoaded):
            getattr(r, missing, None)   # what JobListView.cells does
        with pytest.raises(FieldNotLoaded):
            hasattr(r, missing)
    assert (r.id, r.name) == (1, "p0")
    # a name that is no field is an ordinary missing attribute
    with pytest.raises(AttributeError):
        r.nope
    assert getattr(r, "nope", 7) == 7 and not hasattr(r, "nope")
    # a full record, and one built in Python, load everything
    assert Part.objects.all().first().mass == 0.0
    assert Part(name="x").extra is None


def test_save_refuses_a_partial_record_and_delete_deletes(parts):
    r = Part.objects.filter(name="p2").only("name").first()
    r.name = "renamed"
    parts.statements.clear()
    with pytest.raises(FieldNotLoaded):
        r.save()
    assert parts.statements == []       # nothing written over unread columns
    assert Part.objects.filter(name="p2").count() == 1
    r.delete()
    assert Part.objects.filter(name="p2").count() == 0
    assert Part.objects.count() == 4


@pytest.mark.parametrize("read", [
    lambda qs, name: qs.only(name),
    lambda qs, name: qs.only("name", name),
    lambda qs, name: qs.values(name),
    lambda qs, name: qs.values_list("name", name),
    lambda qs, name: qs.values_list(name, flat=True),
])
def test_a_name_that_is_no_field_is_refused_before_any_sql(parts, read):
    for name in ("nope", "name, mass", "name FROM parts; --", "*", ""):
        with pytest.raises(ValueError, match="Part has no field"):
            read(Part.objects.all(), name)
    assert parts.statements == []


def test_only_composes_with_the_rest_of_the_chain(parts):
    qs = Part.objects.all().only("name", "mass")

    def partial(rows):
        assert all(set(vars(r)) == {"id", "name", "mass"} for r in rows)
        return [r.name for r in rows]

    assert partial(qs.filter(mass__gte=3).order_by("-mass")) == ["p4", "p3"]
    assert partial(qs.exclude(live=True).order_by("id")) == ["p0", "p2", "p4"]
    assert partial(qs.order_by("id")[1:3]) == ["p1", "p2"]
    assert partial([qs.order_by("id")[4]]) == ["p4"]
    assert partial([qs.order_by("-id").first()]) == ["p4"]
    assert partial([qs.get(name="p1")]) == ["p1"]
    assert partial([Part.objects.filter(live=True).only("name", "mass")
                    .order_by("id").first()]) == ["p1"]
    assert all(s.startswith("SELECT id, name, mass FROM parts")
               for s in parts.statements)
    # a second call replaces the first; with no fields, full records again
    again = qs.only("live").order_by("id").first()
    assert vars(again) == {"id": 1, "live": False}
    full = qs.only().order_by("id").first()
    assert set(vars(full)) == set(Part._fields)
    assert parts.statements[-1].startswith("SELECT * FROM parts")
    # the original query set is untouched, counting ignores the projection
    assert partial(qs.order_by("id")[:1]) == ["p0"]
    assert qs.count() == len(qs) == 5 and qs.exists()


def test_full_and_partial_reads_of_a_table_written_before_sync_table():
    """``SELECT *`` over a table that lacks a column reads it as
    ``from_db(None)``; *asking* for that column is an SQL error, as
    filtering or ordering on it already is.  The two hydrators share a
    result shape — ``(id, name)`` — and are kept apart."""

    class Legacy(Model):
        table_name = "legacy"
        name = TextField()
        added = BooleanField(null=True, default=True)

    d = Database()
    Legacy.bind(d)
    d.execute("CREATE TABLE legacy (id INTEGER PRIMARY KEY, name TEXT)")
    d.execute("INSERT INTO legacy (name) VALUES ('old')")
    full = Legacy.objects.all().first()
    part = Legacy.objects.all().only("name").first()
    assert vars(full) == {"id": 1, "name": "old", "added": None}
    assert vars(part) == {"id": 1, "name": "old"}
    with pytest.raises(FieldNotLoaded):
        part.added
    assert sorted(Legacy._hydrators) == [
        (("id", "name"), False), (("id", "name"), True)]
    for broken in (Legacy.objects.all().only("added"),
                   Legacy.objects.filter(added=True),
                   Legacy.objects.all().order_by("added")):
        with pytest.raises(sqlite3.OperationalError, match="added"):
            broken.first()


def _values_list_via_rows(qs, *fields, flat=False):
    """``values_list`` as it read before it took the cursor's tuples:
    ``sqlite3.Row`` objects, each copied with ``tuple()``."""
    if flat and len(fields) != 1:
        raise ValueError("flat=True requires exactly one field")
    sql, params = qs._select(", ".join(qs._known(fields)))
    rows = qs.model._db().execute(sql, params).fetchall()
    assert all(isinstance(r, sqlite3.Row) for r in rows)
    return [r[0] for r in rows] if flat else [tuple(r) for r in rows]


@pytest.mark.parametrize("fields, flat", [
    (("name", "rank", "note"), False),   # plain, NULLs included
    (("value", "name", "value"), False),  # a name twice
    (("note",), True),
    (("rank",), False),
])
@pytest.mark.parametrize("where", [{}, {"rank__gte": 3}, {"name": "nope"}])
def test_values_list_gives_the_rows_it_gave_as_sqlite_rows(db, fields, flat,
                                                           where):
    qs = Row.objects.filter(**where).order_by("-rank")
    got = qs.values_list(*fields, flat=flat)
    want = _values_list_via_rows(qs, *fields, flat=flat)
    assert got == want
    assert type(got) is list
    assert all(type(v) is tuple for v in got) or flat
    if "name" in where:
        assert got == []


@pytest.mark.parametrize("fields, flat, error", [
    (("name", "rank"), True, ValueError),
    (("nope",), False, ValueError),
    (("nope",), True, ValueError),
    ((), False, sqlite3.OperationalError),
])
def test_values_list_refuses_what_it_refused(db, fields, flat, error):
    qs = Row.objects.all()
    with pytest.raises(error) as got:
        qs.values_list(*fields, flat=flat)
    with pytest.raises(error) as want:
        _values_list_via_rows(qs, *fields, flat=flat)
    assert str(got.value) == str(want.value)
