"""Relational backend: a Django-style ORM over stdlib sqlite3.

The paper stores job metadata plus all computed metrics in PostgreSQL
and queries them through Django's object-relational mapper (§IV-A,
§V-B).  This package reproduces the query surface those analyses use:

* declarative models with typed fields,
* ``filter``/``exclude`` with double-underscore lookups
  (``cpu_usage__gt=0.8``, ``executable__contains="wrf"``),
* ``Q`` objects for disjunctions,
* ``order_by``, ``values``, ``values_list``, slicing, ``only`` (partial
  records: an unselected field raises ``FieldNotLoaded``),
* ``aggregate`` with ``Avg`` / ``Max`` / ``Min`` / ``Sum`` / ``Count``
  (§V-B: *"The Django ORM ... provides a variety of aggregation
  functions including averaging a metric field over a returned job
  list"*), and
* ``group_aggregate`` for per-user / per-application rollups.

SQLite replaces PostgreSQL: the analyses are ORM-level, so engine
choice does not affect semantics (see DESIGN.md substitutions).
"""

from repro.db.aggregates import Avg, Count, Max, Min, Sum
from repro.db.connection import Database
from repro.db.fields import (
    BooleanField,
    Field,
    FloatField,
    IntegerField,
    TextField,
)
from repro.db.models import FieldNotLoaded, Model
from repro.db.queryset import Q, QuerySet

__all__ = [
    "Database",
    "Model",
    "FieldNotLoaded",
    "Field",
    "IntegerField",
    "FloatField",
    "TextField",
    "BooleanField",
    "QuerySet",
    "Q",
    "Avg",
    "Max",
    "Min",
    "Sum",
    "Count",
]
