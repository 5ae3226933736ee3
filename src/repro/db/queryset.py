"""Lazy query sets with Django-style lookups.

Supported lookup suffixes::

    field            exact match
    field__gt/__gte/__lt/__lte
    field__ne        not equal
    field__in        membership in a sequence
    field__contains  substring (LIKE %v%)
    field__startswith / __endswith
    field__isnull    True/False
    field__range     (lo, hi) inclusive

``Q`` objects combine conditions with ``|`` and ``&`` and negate with
``~``.  Query sets are lazy, chainable, sliceable and iterable; each
evaluation compiles to a single parameterised SQL statement, which
selects every column or the ones ``only()`` names.  One
caveat: ``list(qs)`` asks ``len(qs)`` for a size hint first, which is a
``COUNT(*)`` of its own — iterate, slice or write ``list(iter(qs))`` to
read in one statement.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.db.aggregates import Aggregate

_OPS = {
    "exact": "= ?",
    "ne": "!= ?",
    "gt": "> ?",
    "gte": ">= ?",
    "lt": "< ?",
    "lte": "<= ?",
}


def _compile_lookup(key: str, value: Any) -> Tuple[str, List[Any]]:
    """One ``field__op=value`` pair → (sql fragment, params)."""
    field, _, op = key.partition("__")
    if not op:
        op = "exact"
    if op in _OPS:
        return f"{field} {_OPS[op]}", [value]
    if op == "in":
        seq = list(value)
        if not seq:
            return "1=0", []
        marks = ",".join("?" for _ in seq)
        return f"{field} IN ({marks})", seq
    if op == "contains":
        return f"{field} LIKE ?", [f"%{value}%"]
    if op == "startswith":
        return f"{field} LIKE ?", [f"{value}%"]
    if op == "endswith":
        return f"{field} LIKE ?", [f"%{value}"]
    if op == "isnull":
        return (f"{field} IS NULL" if value else f"{field} IS NOT NULL"), []
    if op == "range":
        lo, hi = value
        return f"{field} BETWEEN ? AND ?", [lo, hi]
    raise ValueError(f"unknown lookup {key!r}")


class Q:
    """A composable filter condition."""

    def __init__(self, **lookups: Any) -> None:
        frags: List[str] = []
        params: List[Any] = []
        for k, v in lookups.items():
            f, p = _compile_lookup(k, v)
            frags.append(f)
            params.extend(p)
        self.sql = " AND ".join(frags) if frags else "1=1"
        self.params = params

    @classmethod
    def _raw(cls, sql: str, params: List[Any]) -> "Q":
        q = cls()
        q.sql, q.params = sql, params
        return q

    def __and__(self, other: "Q") -> "Q":
        return Q._raw(
            f"({self.sql}) AND ({other.sql})", self.params + other.params
        )

    def __or__(self, other: "Q") -> "Q":
        return Q._raw(
            f"({self.sql}) OR ({other.sql})", self.params + other.params
        )

    def __invert__(self) -> "Q":
        return Q._raw(f"NOT ({self.sql})", list(self.params))


class QuerySet:
    """Lazy, chainable query over one model's table."""

    def __init__(self, model) -> None:
        self.model = model
        self._where: List[Q] = []
        self._order: List[str] = []
        self._limit: Optional[int] = None
        self._offset: int = 0
        #: the columns ``only()`` asked for; ``None`` reads full records
        self._only: Optional[Tuple[str, ...]] = None

    # -- chaining -----------------------------------------------------------
    def _clone(self) -> "QuerySet":
        qs = QuerySet(self.model)
        qs._where = list(self._where)
        qs._order = list(self._order)
        qs._limit = self._limit
        qs._offset = self._offset
        qs._only = self._only
        return qs

    def filter(self, *qs: Q, **lookups: Any) -> "QuerySet":
        clone = self._clone()
        clone._where.extend(qs)
        if lookups:
            clone._where.append(Q(**lookups))
        return clone

    def exclude(self, *qs: Q, **lookups: Any) -> "QuerySet":
        clone = self._clone()
        for q in qs:
            clone._where.append(~q)
        if lookups:
            clone._where.append(~Q(**lookups))
        return clone

    def order_by(self, *fields: str) -> "QuerySet":
        """``"-name"`` sorts descending.  ``"+name"`` (``"-+name"``) is
        SQL's ``+name``: the same order, which SQLite may not read off an
        index on ``name``, so it sorts the matches instead of walking
        every row of the table in index order."""
        clone = self._clone()
        clone._order = list(fields)
        return clone

    def all(self) -> "QuerySet":
        return self._clone()

    def only(self, *fields: str) -> "QuerySet":
        """Read just these fields (and always the primary key).

        The records come back *partial*: they store what was selected,
        and reading any other field raises
        :class:`~repro.db.models.FieldNotLoaded` — never a plausible
        ``None`` — so ``save()`` refuses them and ``delete()`` works.
        A second call replaces the first (with no fields: full records
        again); an unknown name is a ``ValueError`` here, before any SQL.
        """
        clone = self._clone()
        clone._only = tuple(
            dict.fromkeys(("id", *self._known(fields)))
        ) if fields else None
        return clone

    def _known(self, fields: Tuple[str, ...]) -> Tuple[str, ...]:
        """``fields``, each checked to be a field of the model: the
        names go into the statement text."""
        unknown = [f for f in fields if f not in self.model._fields]
        if unknown:
            raise ValueError(
                f"{self.model.__name__} has no field {unknown[0]!r}"
            )
        return fields

    # -- SQL assembly ---------------------------------------------------------
    def _where_sql(self) -> Tuple[str, List[Any]]:
        if not self._where:
            return "", []
        frags, params = [], []
        for q in self._where:
            frags.append(f"({q.sql})")
            params.extend(q.params)
        return " WHERE " + " AND ".join(frags), params

    def _tail_sql(self) -> str:
        sql = ""
        if self._order:
            terms = []
            for f in self._order:
                if f.startswith("-"):
                    terms.append(f"{f[1:]} DESC")
                else:
                    terms.append(f"{f} ASC")
            sql += " ORDER BY " + ", ".join(terms)
        if self._limit is not None or self._offset:
            sql += f" LIMIT {self._limit if self._limit is not None else -1}"
            if self._offset:
                sql += f" OFFSET {self._offset}"
        return sql

    def _select(self, cols: str = "*") -> Tuple[str, List[Any]]:
        where, params = self._where_sql()
        sql = f"SELECT {cols} FROM {self.model._table}{where}{self._tail_sql()}"
        return sql, params

    # -- evaluation ---------------------------------------------------------
    def _rows(self, cols: str) -> Tuple[Tuple[str, ...], List[tuple]]:
        """Run the SELECT of ``cols``: one statement, whose rows come
        back as the cursor's tuples, with the result's column names."""
        sql, params = self._select(cols)
        with obs.span("db.select") as sp:
            cur = self.model._db().execute(sql, params)
            cur.row_factory = None
            columns = tuple(d[0] for d in cur.description)
            # execute() stepped to the first row; fetchall reads the rest
            rows = cur.fetchall()
            sp.set(rows=len(rows), columns=len(columns))
        return columns, rows

    def _fetch(self) -> List:
        """Run the SELECT and hydrate every row: one statement."""
        only = self._only
        columns, rows = self._rows("*" if only is None else ", ".join(only))
        return self.model._hydrator(columns, partial=only is not None)(rows)

    def __iter__(self) -> Iterator:
        return iter(self._fetch())

    def __len__(self) -> int:
        return self.count()

    def __getitem__(self, item):
        clone = self._clone()
        if isinstance(item, slice):
            start = item.start or 0
            if item.step not in (None, 1):
                raise ValueError("slicing with a step is not supported")
            if start < 0 or (item.stop is not None and item.stop < 0):
                raise ValueError("negative indexing is not supported")
            clone._offset = start + self._offset
            if item.stop is not None:
                clone._limit = max(item.stop - start, 0)
            return clone._fetch()
        if item < 0:
            raise ValueError("negative indexing is not supported")
        clone._offset = self._offset + item
        clone._limit = 1
        rows = clone._fetch()
        if not rows:
            raise IndexError(item)
        return rows[0]

    def count(self) -> int:
        where, params = self._where_sql()
        sql = f"SELECT COUNT(*) AS n FROM {self.model._table}{where}"
        return int(self.model._db().execute(sql, params).fetchone()["n"])

    def exists(self) -> bool:
        clone = self._clone()
        clone._limit = 1
        sql, params = clone._select("1")
        return clone.model._db().execute(sql, params).fetchone() is not None

    def first(self):
        clone = self._clone()
        clone._limit = 1
        rows = clone._fetch()
        return rows[0] if rows else None

    def get(self, *qs: Q, **lookups: Any):
        rows = self.filter(*qs, **lookups)[:2]
        if not rows:
            raise LookupError("no rows match")
        if len(rows) > 1:
            raise LookupError("multiple rows match")
        return rows[0]

    def values(self, *fields: str) -> List[Dict[str, Any]]:
        cols = ", ".join(self._known(fields)) if fields else "*"
        sql, params = self._select(cols)
        cur = self.model._db().execute(sql, params)
        return [dict(r) for r in cur.fetchall()]

    def values_list(self, *fields: str, flat: bool = False) -> List:
        """The cursor's tuples of ``fields``, in that order; with
        ``flat=True`` (one field) the values themselves."""
        if flat and len(fields) != 1:
            raise ValueError("flat=True requires exactly one field")
        _, rows = self._rows(", ".join(self._known(fields)))
        return [r[0] for r in rows] if flat else rows

    # -- aggregation ----------------------------------------------------------
    def aggregate(self, **aggs: Aggregate) -> Dict[str, Any]:
        cols = ", ".join(
            f"{a.sql()} AS {alias}" for alias, a in aggs.items()
        )
        where, params = self._where_sql()
        sql = f"SELECT {cols} FROM {self.model._table}{where}"
        row = self.model._db().execute(sql, params).fetchone()
        return dict(row)

    def group_aggregate(
        self, group_by: str, **aggs: Aggregate
    ) -> List[Dict[str, Any]]:
        """Per-group aggregation (Django's .values(g).annotate(...))."""
        cols = ", ".join(
            [group_by]
            + [f"{a.sql()} AS {alias}" for alias, a in aggs.items()]
        )
        where, params = self._where_sql()
        sql = (
            f"SELECT {cols} FROM {self.model._table}{where} "
            f"GROUP BY {group_by}"
        )
        cur = self.model._db().execute(sql, params)
        return [dict(r) for r in cur.fetchall()]

    # -- mutation ------------------------------------------------------------
    def delete(self) -> int:
        where, params = self._where_sql()
        cur = self.model._db().execute(
            f"DELETE FROM {self.model._table}{where}", params
        )
        self.model._db().commit()
        return cur.rowcount

    def update(self, **values: Any) -> int:
        sets, params = [], []
        for k, v in values.items():
            field = self.model._fields[k]
            sets.append(f"{k} = ?")
            params.append(field.to_db(v))
        where, wparams = self._where_sql()
        cur = self.model._db().execute(
            f"UPDATE {self.model._table} SET {', '.join(sets)}{where}",
            params + wparams,
        )
        self.model._db().commit()
        return cur.rowcount
