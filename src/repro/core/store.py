"""Central raw-data store: per-host stats files on a shared filesystem.

Both operation modes end here — cron mode via the daily rsync, daemon
mode via the broker consumer.  The store is a directory of per-host
raw stats text files plus an arrival log recording, for every sample,
when it was collected and when it became centrally visible; the
difference is the *data lag* Fig. 1 vs Fig. 2 is about.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.core.rawfile import (
    ParseError, ParsedSample, RawFileParser, forget_parsed,
)


def raw_path(root: Path, host: str) -> Path:
    """Where ``host``'s raw stats file lives under a store root."""
    return root / f"{host}.raw"


def raw_hosts(root: Path) -> List[str]:
    """The hosts with a raw stats file under a store root, sorted."""
    return sorted(p.stem for p in root.glob("*.raw"))


def _read_ledger(path: Path) -> List[ParseError]:
    """A ``.bad`` file's entries: a ``line N: reason`` line, then the line."""
    with open(path, newline="") as fh:  # a bad line may hold a CR
        rows = fh.read().split("\n")
    errors = []
    for head, line in zip(rows[0::2], rows[1::2]):
        lineno, _, reason = head[len("line "):].partition(": ")
        if head.startswith("line ") and lineno.isdigit():  # else torn
            errors.append(ParseError(int(lineno), line, reason))
    return errors


class CentralStore:
    """Append-only per-host raw stats files with arrival accounting.

    Corrupt raw data (truncated transfers, disk bitrot, garbage
    injected by chaos tests) is *quarantined*, not fatal: tolerant
    parsing skips the damaged lines, records them per host in
    :attr:`quarantined`, and mirrors them into
    ``<root>/quarantine/<host>.bad`` for operator inspection.  The
    ledger holds a bad ``(lineno, line)`` once, however often and by
    whichever parser the file is read, and a store opened on a root
    starts from the ledgers already there.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: host → list of (collect_ts, arrive_ts)
        self.arrivals: Dict[str, List[Tuple[int, int]]] = {}
        self._open_files: Dict[str, object] = {}
        #: host → the parse errors filed under its quarantine ledger
        self.quarantined: Dict[str, List[ParseError]] = {}
        #: host → the ``(lineno, line)`` of every entry in its ledger
        self._filed: Dict[str, Set[Tuple[int, str]]] = {}
        for bad in sorted((self.root / "quarantine").glob("*.bad")):
            self._file(bad.stem, _read_ledger(bad))

    def path_for(self, host: str) -> Path:
        return raw_path(self.root, host)

    def append(
        self,
        host: str,
        text: str,
        arrived_at: int,
        collect_times: Optional[List[int]] = None,
    ) -> None:
        """Append raw text for ``host``; log arrival for each sample."""
        fh = self._open_files.get(host)
        if fh is None:
            fh = open(self.path_for(host), "a")
            self._open_files[host] = fh
        fh.write(text)
        if collect_times:
            log = self.arrivals.setdefault(host, [])
            for ts in collect_times:
                log.append((int(ts), int(arrived_at)))

    def flush(self) -> None:
        for fh in self._open_files.values():
            fh.flush()

    def close(self) -> None:
        """Close the append handles, and drop the blocks an ETL pass
        filed for this store's files to save their load a parse
        (:func:`~repro.core.rawfile.take_parsed`): a closed store is
        done with."""
        for fh in self._open_files.values():
            fh.close()
        self._open_files.clear()
        forget_parsed(self.root)

    def hosts(self) -> List[str]:
        self.flush()
        return raw_hosts(self.root)

    def samples(self, host: str, strict: bool = False) -> Iterator[ParsedSample]:
        """Stream parsed samples for one host.

        By default corrupt lines are quarantined (recorded, skipped);
        ``strict=True`` restores fail-fast parsing.
        """
        self.flush()
        path = self.path_for(host)
        if not path.exists():
            return iter(())
        parser = RawFileParser(on_error="raise" if strict else "quarantine")

        def gen() -> Iterator[ParsedSample]:
            with open(path) as fh:
                yield from parser.parse(fh)
            if parser.errors:
                self.record_parse_errors(host, parser.errors)

        return gen()

    # -- quarantine ----------------------------------------------------------
    def record_parse_errors(self, host: str, errors: List[ParseError]) -> None:
        """File parse errors under the host's quarantine ledger; a line
        already there is not filed again."""
        new = self._file(host, errors)
        if not new:
            return
        obs.counter(
            "repro_ingest_quarantined_lines_total",
            "corrupt raw-file lines quarantined during parsing",
        ).inc(len(new), host=host)
        qdir = self.root / "quarantine"
        qdir.mkdir(exist_ok=True)
        with open(qdir / f"{host}.bad", "a") as fh:
            for e in new:
                fh.write(f"line {e.lineno}: {e.reason}\n{e.line}\n")

    def _file(self, host: str, errors: List[ParseError]) -> List[ParseError]:
        """Add to the ledger the errors whose line it lacks; returns them."""
        filed = self._filed.setdefault(host, set())
        new = []
        for e in errors:
            if (e.lineno, e.line) not in filed:
                filed.add((e.lineno, e.line))
                new.append(e)
        if new:
            self.quarantined.setdefault(host, []).extend(new)
        return new

    def quarantine_counts(self) -> Dict[str, int]:
        """Quarantined line count per host (empty dict = clean store)."""
        return {h: len(v) for h, v in self.quarantined.items()}

    def sample_count(self, host: str) -> int:
        return sum(1 for _ in self.samples(host))

    # -- data-lag accounting -------------------------------------------------
    def lags(self) -> np.ndarray:
        """Seconds from collection to central availability, all hosts."""
        out = [
            arrive - collect
            for log in self.arrivals.values()
            for collect, arrive in log
        ]
        return np.asarray(out, dtype=np.float64)

    def lag_stats(self) -> Dict[str, float]:
        lags = self.lags()
        if lags.size == 0:
            return {"count": 0, "mean": float("nan"), "p50": float("nan"),
                    "p95": float("nan"), "max": float("nan")}
        return {
            "count": int(lags.size),
            "mean": float(lags.mean()),
            "p50": float(np.percentile(lags, 50)),
            "p95": float(np.percentile(lags, 95)),
            "max": float(lags.max()),
        }
