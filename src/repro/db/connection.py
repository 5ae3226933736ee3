"""Database connection wrapper around stdlib sqlite3."""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Iterable, List, Optional, Sequence, Tuple


class Database:
    """A single sqlite3 connection with convenience helpers.

    Use ``Database()`` for an in-memory store (tests, small analyses)
    or ``Database(path)`` for a persistent file.

    The connection is shared across threads: the portal server
    (:mod:`repro.portal.server`) dispatches requests on a thread pool,
    so ``check_same_thread`` is off and statement execution is
    serialised on an internal lock.  Python's sqlite3 is built in
    serialized threading mode (``sqlite3.threadsafety == 3``), which
    makes the shared connection safe at the C level; the lock keeps
    each ``execute``/``executemany`` call atomic at the Python level
    too.  Each call returns its own cursor, and for a ``SELECT`` that
    cursor has been stepped to its *first* row only: ``fetchall`` steps
    the rest in the caller, outside the lock, so timing ``execute``
    measures statement preparation plus one row, not the read.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self.conn = sqlite3.connect(path, check_same_thread=False)
        self.conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        # pragmatic defaults for bulk ingest
        self.conn.execute("PRAGMA synchronous=OFF")
        self.conn.execute("PRAGMA journal_mode=MEMORY")

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> sqlite3.Cursor:
        with self._lock:
            return self.conn.execute(sql, tuple(params))

    def executemany(
        self, sql: str, rows: Iterable[Sequence[Any]]
    ) -> sqlite3.Cursor:
        with self._lock:
            return self.conn.executemany(sql, rows)

    def commit(self) -> None:
        self.conn.commit()

    def close(self) -> None:
        self.conn.close()

    def table_names(self) -> List[str]:
        cur = self.execute(
            "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name"
        )
        return [r["name"] for r in cur.fetchall()]

    def columns(self, table: str) -> List[Tuple[str, str]]:
        cur = self.execute(f"PRAGMA table_info({table})")
        return [(r["name"], r["type"]) for r in cur.fetchall()]

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.commit()
        self.close()
