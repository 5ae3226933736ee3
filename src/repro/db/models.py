"""Declarative models.

A model declares typed fields as class attributes; the metaclass
collects them into ``_fields`` and derives the table name.  Models are
bound to a :class:`~repro.db.connection.Database` with ``bind`` (tests
and analyses often run several isolated databases side by side, so the
binding is per model class, not global).

Example
-------
>>> from repro.db import Database, Model, TextField, FloatField
>>> class Widget(Model):
...     name = TextField()
...     mass = FloatField(default=0.0)
>>> db = Database()
>>> Widget.bind(db)
>>> Widget.create_table()
>>> _ = Widget.objects.create(name="w1", mass=2.5)
>>> Widget.objects.filter(mass__gt=1).count()
1
"""

from __future__ import annotations

from keyword import iskeyword
from typing import (
    Any, Callable, ClassVar, Dict, Iterable, List, Optional, Sequence,
    Tuple, Type,
)

from repro.db.connection import Database
from repro.db.fields import Field, IntegerField
from repro.db.queryset import Q, QuerySet


class FieldNotLoaded(Exception):
    """A field ``QuerySet.only()`` left out was read.

    Deliberately *not* an ``AttributeError``: ``getattr(record, name,
    None)`` and ``hasattr`` swallow those, and a page would print a
    plausible ``None`` or ``0`` for a column it never selected.
    """


class Manager:
    """The model's query entry point (``Model.objects``)."""

    def __init__(self, model: Type["Model"]) -> None:
        self.model = model

    def all(self) -> QuerySet:
        return QuerySet(self.model)

    def filter(self, *qs: Q, **lookups: Any) -> QuerySet:
        return QuerySet(self.model).filter(*qs, **lookups)

    def exclude(self, *qs: Q, **lookups: Any) -> QuerySet:
        return QuerySet(self.model).exclude(*qs, **lookups)

    def get(self, *qs: Q, **lookups: Any) -> "Model":
        return QuerySet(self.model).get(*qs, **lookups)

    def count(self) -> int:
        return QuerySet(self.model).count()

    def aggregate(self, **aggs) -> Dict[str, Any]:
        return QuerySet(self.model).aggregate(**aggs)

    def group_aggregate(self, group_by: str, **aggs) -> List[Dict[str, Any]]:
        return QuerySet(self.model).group_aggregate(group_by, **aggs)

    def create(self, **values: Any) -> "Model":
        obj = self.model(**values)
        obj.save()
        return obj

    def bulk_create(
        self, objs: List["Model"], chunk_size: int = 0
    ) -> int:
        """Insert many instances via executemany round trips.

        ``chunk_size`` bounds the rows per executemany call (0 = all
        in one); large ingest passes chunk their inserts so a single
        statement never holds the whole batch's row list at once.
        """
        if not objs:
            return 0
        model = self.model
        cols = [n for n in model._fields if n != "id"]
        rows = []
        for obj in objs:
            rows.append(
                [model._fields[c].to_db(getattr(obj, c)) for c in cols]
            )
        marks = ",".join("?" for _ in cols)
        sql = (
            f"INSERT INTO {model._table} ({', '.join(cols)}) VALUES ({marks})"
        )
        step = chunk_size if chunk_size and chunk_size > 0 else len(rows)
        for i in range(0, len(rows), step):
            model._db().executemany(sql, rows[i : i + step])
        model._db().commit()
        return len(rows)


class ModelMeta(type):
    def __new__(mcls, name, bases, namespace):
        fields: Dict[str, Field] = {}
        for base in bases:
            fields.update(getattr(base, "_fields", {}))
        for key, value in list(namespace.items()):
            if isinstance(value, Field):
                value.name = key
                fields[key] = value
                namespace.pop(key)
        cls = super().__new__(mcls, name, bases, namespace)
        if name != "Model":
            if "id" not in fields:
                pk = IntegerField(primary_key=True, null=True)
                pk.name = "id"
                fields = {"id": pk, **fields}
            cls._fields = fields
            cls._hydrators = {}
            cls._table = getattr(cls, "table_name", name.lower())
            cls.objects = Manager(cls)
        return cls


class Model(metaclass=ModelMeta):
    """Base class for all persisted records."""

    _fields: ClassVar[Dict[str, Field]]
    _table: ClassVar[str]
    objects: ClassVar[Manager]
    _database: ClassVar[Optional[Database]] = None
    #: (result columns, partial) → compiled row hydrator (``_hydrator``)
    _hydrators: ClassVar[Dict[Tuple[Tuple[str, ...], bool], Callable]]

    def __init__(self, **values: Any) -> None:
        unknown = set(values) - set(self._fields)
        if unknown:
            raise TypeError(f"unknown fields: {sorted(unknown)}")
        for name, field in self._fields.items():
            if name in values:
                setattr(self, name, values[name])
            else:
                setattr(self, name, field.default)

    def __getattr__(self, name: str) -> Any:
        # runs only when normal lookup failed: a loaded field pays nothing
        if name in getattr(type(self), "_fields", ()):
            raise FieldNotLoaded(name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- binding -----------------------------------------------------------
    @classmethod
    def bind(cls, db: Database) -> None:
        """Attach this model class to a database connection."""
        cls._database = db

    @classmethod
    def _db(cls) -> Database:
        if cls._database is None:
            raise RuntimeError(
                f"{cls.__name__} is not bound to a Database; call bind()"
            )
        return cls._database

    # -- schema -------------------------------------------------------------
    @classmethod
    def create_table(cls) -> None:
        """Create the table and its indexes, issuing DDL only when one
        read of ``sqlite_master`` shows one of them missing."""
        indexed = [f.name for f in cls._fields.values()
                   if f.index and not f.primary_key]
        want = {cls._table} | {f"idx_{cls._table}_{n}" for n in indexed}
        cur = cls._db().execute(
            "SELECT name FROM sqlite_master WHERE tbl_name = ?", (cls._table,)
        )
        if want <= {row[0] for row in cur.fetchall()}:
            return
        cols = ", ".join(f.ddl() for f in cls._fields.values())
        cls._db().execute(f"CREATE TABLE IF NOT EXISTS {cls._table} ({cols})")
        for name in indexed:
            cls._db().execute(
                f"CREATE INDEX IF NOT EXISTS idx_{cls._table}_{name} "
                f"ON {cls._table} ({name})"
            )
        cls._db().commit()

    @classmethod
    def sync_table(cls) -> List[str]:
        """Add columns for fields missing from an existing table.

        The job table's metric columns are generated from the metric
        registry; when a release adds metrics, databases written by
        older code lack those columns.  ``sync_table`` performs the
        additive migration (``ALTER TABLE ... ADD COLUMN``) and
        returns the column names added.  Removals/renames are not
        handled — additive evolution only, as in production ingest.
        """
        existing = {name for name, _ in cls._db().columns(cls._table)}
        if not existing:
            cls.create_table()
            return sorted(cls._fields)
        added = []
        for name, fld in cls._fields.items():
            if name in existing:
                continue
            ddl = fld.ddl()
            # SQLite cannot add NOT NULL columns without default
            if not fld.null and fld.default is None and not fld.primary_key:
                ddl = f"{name} {fld.sql_type}"
            cls._db().execute(
                f"ALTER TABLE {cls._table} ADD COLUMN {ddl}"
            )
            if fld.index and not fld.primary_key:
                cls._db().execute(
                    f"CREATE INDEX IF NOT EXISTS idx_{cls._table}_{name} "
                    f"ON {cls._table} ({name})"
                )
            added.append(name)
        cls._db().commit()
        return added

    @classmethod
    def drop_table(cls) -> None:
        cls._db().execute(f"DROP TABLE IF EXISTS {cls._table}")
        cls._db().commit()

    # -- persistence -----------------------------------------------------------
    def save(self) -> None:
        cols = [n for n in self._fields if n != "id"]
        # a partial record raises FieldNotLoaded here, before any
        # statement: saving it would write defaults over unread columns
        vals = [self._fields[c].to_db(getattr(self, c)) for c in cols]
        if getattr(self, "id", None) is None:
            marks = ",".join("?" for _ in cols)
            cur = self._db().execute(
                f"INSERT INTO {self._table} ({', '.join(cols)}) "
                f"VALUES ({marks})",
                vals,
            )
            self.id = cur.lastrowid
        else:
            sets = ", ".join(f"{c} = ?" for c in cols)
            self._db().execute(
                f"UPDATE {self._table} SET {sets} WHERE id = ?",
                vals + [self.id],
            )
        self._db().commit()

    def delete(self) -> None:
        if getattr(self, "id", None) is not None:
            self._db().execute(
                f"DELETE FROM {self._table} WHERE id = ?", [self.id]
            )
            self._db().commit()

    # -- hydration -----------------------------------------------------------
    @classmethod
    def _hydrator(
        cls, columns: Tuple[str, ...], partial: bool = False
    ) -> Callable[[Iterable[Sequence[Any]]], List["Model"]]:
        """The function turning result rows with these ``columns`` (the
        names in ``cursor.description``) into instances.

        Compiled once per result shape and kept on the model class:
        every column position is resolved here, not per row.  A field
        whose ``from_db`` is the base identity is copied by index, any
        other field goes through its ``from_db``; a name selected twice
        reads its first column (as ``sqlite3.Row`` does) and columns
        that are not fields are ignored.  A field with no column in the
        result reads as ``from_db(None)`` in a full record (a table
        written before ``sync_table`` added it) and is not stored at all
        in a ``partial`` one (``QuerySet.only()`` did not ask for it:
        reading it raises :class:`FieldNotLoaded`).  Threads that race
        on first use each compile the same plan and ``setdefault`` keeps
        one of them.
        """
        hydrate = cls._hydrators.get((columns, partial))
        if hydrate is not None:
            return hydrate
        at: Dict[str, int] = {}
        for i, column in enumerate(columns):
            at.setdefault(column, i)
        scope: Dict[str, Any] = {"cls": cls, "new": cls.__new__}
        stores = []
        for k, (name, field) in enumerate(cls._fields.items()):
            if partial and name not in at:
                continue
            value = f"row[{at[name]}]" if name in at else "None"
            if getattr(field.from_db, "__func__", None) is not Field.from_db:
                scope[f"from_db_{k}"] = field.from_db
                value = f"from_db_{k}({value})"
            if name.isidentifier() and not iskeyword(name):
                stores.append(f"obj.{name} = {value}")
            else:
                stores.append(f"setattr(obj, {name!r}, {value})")
        source = (
            "def hydrate(rows):\n"
            "    out = []\n"
            "    for row in rows:\n"
            "        obj = new(cls)\n"
            + "".join(f"        {store}\n" for store in stores)
            + "        out.append(obj)\n"
            "    return out\n"
        )
        exec(source, scope)  # names and positions only, no row data
        return cls._hydrators.setdefault(
            (columns, partial), scope["hydrate"]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pk = getattr(self, "id", None)
        return f"<{type(self).__name__} id={pk}>"
