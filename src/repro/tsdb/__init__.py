"""Tag-based time-series database (OpenTSDB substitute, §VI-A).

*"The data in this database is organized into time-series with each
series labeled by a tuple of tags, where a tag in our setup consists
of a host name, device type, device name, and event name.  The
time-series can be aggregated along any subset of these tags and their
values."*

This package implements exactly that data model:

* :class:`TimeSeriesDB` — put/ingest/query with tag filters,
  group-by over any tag subset, sum/avg/max/min aggregation,
  counter→rate conversion and time-bucket downsampling.  Storage is
  a chunked columnar engine (:mod:`repro.tsdb.chunks`): compressed
  immutable chunks behind row-block heads (the series written
  together share one time vector and one values matrix), a per-metric
  series index, time-range pushdown, batched
  :meth:`TimeSeriesDB.put_many` writes (one series' column, or rows
  across a :class:`SeriesGroup`) and a window-scoped LRU
  query-result cache (:mod:`repro.tsdb.cache`).  The displaced
  growable-list engine is frozen as the test oracle
  ``tests/test_tsdb/reference.py::ListBackedTSDB``, the golden
  reference the equivalence suite and benchmarks compare against.
* :func:`ingest_store` — load every counter of every host from a
  :class:`~repro.core.store.CentralStore` under the paper's tag
  scheme (``host``, ``type``, ``device``, ``event``).
* :func:`window_stats` — scalar count/sum/min/max/mean/first/last per
  series over a time window, answered from sealed per-chunk
  pre-aggregates whenever the window fully covers a chunk.
* :func:`correlate` — Pearson correlation between two aggregated
  series (the §VI-A cross-user interference analysis).
"""

from repro.tsdb.cache import BufferCache, QueryCache
from repro.tsdb.chunks import CHUNK_POINTS, Chunk, decode_many
from repro.tsdb.query import (
    QueryResult,
    ResultSeries,
    SeriesStats,
    correlate,
    window_stats,
)
from repro.tsdb.store import SeriesGroup, TimeSeriesDB, ingest_store

__all__ = [
    "TimeSeriesDB",
    "SeriesGroup",
    "ingest_store",
    "ResultSeries",
    "QueryResult",
    "SeriesStats",
    "window_stats",
    "QueryCache",
    "BufferCache",
    "Chunk",
    "CHUNK_POINTS",
    "decode_many",
    "correlate",
]
