"""Raw stats file format: writer and parser.

The on-disk format follows the real tool's line-oriented layout::

    $tacc_stats 2.3.2
    $hostname c401-101
    $arch intel_snb
    !cpu user,E,U=cs nice,E,W=64 ...
    !llite open,E,W=64 close,E,W=64 ...
    1443657600 1000001,1000007
    cpu 0 1234 0 56 78900 12 0 0
    llite /scratch 10 10 1048576 0 55 1
    ps 4001 wrf.exe alice 1000001 196608 196608 122880 122880 6144 98304 8192 2048 1 0,16 0
    1443658200 1000001
    ...

* ``$``-lines: file header metadata.
* ``!``-lines: per-device-type counter schemas (see
  :class:`~repro.hardware.devices.base.Schema`).
* A bare ``<timestamp> <jobid[,jobid...]|->`` line opens a record;
  the following ``<type> <instance> <values...>`` lines belong to it.
* ``ps`` lines carry procfs process records (§III-B item 4).

Everything the pipeline consumes round-trips through this format, so
rollover, schema evolution and data-loss behaviour are exercised for
real.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.hardware.devices.base import Schema
from repro.hardware.devices.procfs import ProcessRecord

FORMAT_VERSION = "2.3.2"


def _cpuset(ids: Iterable[int]) -> str:
    s = ",".join(map(str, ids))
    return s if s else "-"


def _parse_cpuset(s: str) -> Tuple[int, ...]:
    if s == "-":
        return ()
    return tuple(int(x) for x in s.split(","))


class RawFileWriter:
    """Serialises samples for one host into raw stats text."""

    def __init__(
        self,
        hostname: str,
        arch_name: str,
        schemas: Dict[str, Schema],
        mem_bytes: int = 0,
    ) -> None:
        self.hostname = hostname
        self.arch_name = arch_name
        self.schemas = dict(schemas)
        self.mem_bytes = mem_bytes

    def header(self) -> str:
        lines = [
            f"$tacc_stats {FORMAT_VERSION}",
            f"$hostname {self.hostname}",
            f"$arch {self.arch_name}",
            f"$mem {self.mem_bytes}",
        ]
        for type_name in sorted(self.schemas):
            lines.append(self.schemas[type_name].spec_line(type_name))
        return "\n".join(lines) + "\n"

    def record(self, sample: "SampleLike") -> str:
        """Render one sample as a record block.

        Counters are integers on the wire, like the real registers.
        Each goes through a Python ``int``: a 64-bit register read can
        exceed what int64 holds.
        """
        jobids = ",".join(sample.jobids) if sample.jobids else "-"
        lines = [f"{int(sample.timestamp)} {jobids}"]
        for type_name in sorted(sample.data):
            rows = sample.data[type_name]
            for instance in sorted(rows):
                values = " ".join(map(str, map(int, rows[instance].tolist())))
                lines.append(f"{type_name} {instance} {values}")
        for p in sample.procs:
            name = p.name.replace(" ", "_") or "-"
            lines.append(
                f"ps {p.pid} {name} {p.owner} {p.jobid or '-'} "
                f"{p.vmsize_kb} {p.vmhwm_kb} {p.vmrss_kb} {p.vmrss_hwm_kb} "
                f"{p.vmlck_kb} {p.data_kb} {p.stack_kb} {p.text_kb} "
                f"{p.threads} {_cpuset(p.cpu_affinity)} "
                f"{_cpuset(p.mem_affinity)}"
            )
        return "\n".join(lines) + "\n"


#: one run of a sample's row: ``(device type, instance, counters)``
Column = Tuple[str, str, int]


def _flatten(
    data: Dict[str, Dict[str, np.ndarray]]
) -> Tuple[np.ndarray, Tuple[Column, ...]]:
    """``data`` as one read-only float64 row and the columns it holds,
    both in iteration order."""
    arrays = [v for per_type in data.values() for v in per_type.values()]
    row = (
        np.concatenate(arrays, dtype=np.float64) if arrays else np.empty(0)
    )
    row.flags.writeable = False
    columns = tuple(
        (type_name, instance, len(values))
        for type_name, per_type in data.items()
        for instance, values in per_type.items()
    )
    return row, columns


class ParsedSample:
    """One record block as read back from a raw stats file.

    A record is one vector: ``row`` holds every counter it carries as a
    read-only float64 array and ``columns`` names its runs, ``(type,
    instance, width)`` each — ``row`` is the concatenation of
    ``data[type][instance]`` as they iterate.  A sample the parser
    yields *is* its row: ``data`` is built on first read, as views of
    it, and consecutive records of a host share one ``columns`` object
    for as long as their line structure repeats, so a consumer compares
    layouts by identity.  A sample built from a ``data`` mapping
    (:meth:`HostBlock.iter_samples`) is flattened on first read of
    ``row`` or ``columns``.  ``lineno`` is the line its record opened
    on in the stream it was parsed from (0 when it was not parsed).
    """

    __slots__ = (
        "host", "timestamp", "jobids", "procs", "lineno",
        "_data", "_row", "_columns",
    )

    def __init__(
        self,
        host: str,
        timestamp: int,
        jobids: List[str],
        data: Dict[str, Dict[str, np.ndarray]],
        procs: Optional[List[ProcessRecord]] = None,
        lineno: int = 0,
    ) -> None:
        self.host = host
        self.timestamp = timestamp
        self.jobids = jobids
        self.procs: List[ProcessRecord] = [] if procs is None else procs
        self.lineno = lineno
        self._data: Optional[Dict[str, Dict[str, np.ndarray]]] = data
        self._row: Optional[np.ndarray] = None
        self._columns: Optional[Tuple[Column, ...]] = None

    def _seal(self, row: np.ndarray, columns: Tuple[Column, ...]) -> None:
        """From here the sample is its row; ``data`` is re-read from it."""
        self._row = row
        self._columns = columns
        self._data = None

    @property
    def data(self) -> Dict[str, Dict[str, np.ndarray]]:
        data = self._data
        if data is None:
            data = self._data = {}
            lo = 0
            for type_name, instance, width in self._columns:
                data.setdefault(type_name, {})[instance] = (
                    self._row[lo:lo + width]
                )
                lo += width
        return data

    @property
    def row(self) -> np.ndarray:
        if self._row is None:
            self._seal(*_flatten(self._data))
        return self._row

    @property
    def columns(self) -> Tuple[Column, ...]:
        if self._columns is None:
            self._seal(*_flatten(self._data))
        return self._columns


@dataclass(frozen=True)
class ParseError:
    """One corrupt line encountered during tolerant parsing."""

    lineno: int
    line: str
    reason: str


#: a possessive repeat (Python 3.11+): the same matches as a greedy
#: one, at half the cost — nothing after a run could take part of it
_ONCE = "+" if sys.version_info >= (3, 11) else ""
#: a value or timestamp the template's pattern takes: 1–18 ASCII digits
#: (``\d`` would take ``"٣"``, which ``float`` reads as 3.0)
_TOKEN = "[0-9]{1,18}" + _ONCE

#: record patterns :func:`_record_pattern` keeps (the least recently
#: used goes first), layouts :class:`BlockParser` keeps and derivations a
#: layout keeps (past either bound the memo starts over)
_LAYOUTS = 64
_DERIVED = 16
_MISS = object()


@functools.lru_cache(maxsize=_LAYOUTS)
def _record_pattern(columns: Tuple[Column, ...]) -> Optional[re.Pattern]:
    """The record ``columns`` spell, as one pattern: the record-open
    line (timestamp, job ids), each device line's ``"<type> <instance> "``
    and exactly its width of single-spaced tokens (a group each), then
    any ``ps`` lines (one group).  ``None`` when a device has no values
    or there is no device: such a record is always decoded line by line.
    """
    if not columns or not all(width for _, _, width in columns):
        return None
    devices = "".join(
        f"{re.escape(f'{t} {inst} ')}"
        f"({_TOKEN}(?: {_TOKEN}){{{width - 1}}}{_ONCE})\n"
        for t, inst, width in columns
    )
    rest = f"[^\n]*{_ONCE}"  # the rest of a line
    return re.compile(
        f"({_TOKEN}) ({rest})\n{devices}((?:ps {rest}\n)*{_ONCE})")


def _jobids(jobs: str) -> List[str]:
    """The job ids a record-open line lists after its timestamp."""
    return [] if jobs in ("-", "") else jobs.split(",")


class RawFileParser:
    """Streaming parser for raw stats text (one host per stream).

    ``on_error`` selects the failure policy: ``"raise"`` (default, the
    historical behaviour) stops at the first malformed line;
    ``"quarantine"`` records the offending line in :attr:`errors` and
    keeps parsing — a truncated tail or a corrupted block costs only
    the damaged lines, never the whole host file.

    The unit of decoding is the record.  A host repeats its device
    lines from one record to the next, so the parser keeps the
    ``columns`` of the last whole record it decoded line by line as a
    *template*, and tries it first at every record-open line: one match
    of the pattern those columns spell (:func:`_record_pattern`, made
    on the first record tried against them and shared by every parser)
    takes the whole record — its ``ps`` lines too, and only when the
    next line opens a record or the text ends — and its values convert
    as one int64 array, cast to the sample's float64 ``row``.  1–18
    ASCII digits spell an integer int64 holds, and the cast rounds to
    nearest-even, as ``float(token)`` does.  Any record the pattern
    does not take is decoded line by line: its data lines are buffered
    and decoded when the record closes — or when a ``$``/``!`` line
    interrupts it, so a line's width is always checked against the
    schema it was read under — in order, by :meth:`_data_line`, which
    alone decides what is refused and why.  A ``!`` line drops the
    template (the width check is part of it), which is why
    :attr:`schemas` is the stream's to change once parsing has begun.
    :attr:`template_records` and :attr:`line_records` count the records
    decoded each way.
    """

    def __init__(self, on_error: str = "raise") -> None:
        if on_error not in ("raise", "quarantine"):
            raise ValueError(f"on_error must be 'raise' or 'quarantine', got {on_error!r}")
        self.on_error = on_error
        self.hostname: Optional[str] = None
        self.arch: Optional[str] = None
        self.mem_bytes: int = 0
        self.schemas: Dict[str, Schema] = {}
        self.errors: List[ParseError] = []
        #: records decoded through the template / line by line
        self.template_records = 0
        self.line_records = 0
        #: the template's columns, and their pattern once looked up
        self._template: Optional[Tuple[Column, ...]] = None
        self._pattern = _MISS

    def parse(self, stream) -> Iterator[ParsedSample]:
        """Yield samples from raw stats text: a string, or a file
        object read whole."""
        text = stream if isinstance(stream, str) else stream.read()
        if not text.endswith("\n"):
            text += "\n"
        current: Optional[ParsedSample] = None
        #: the open record's data lines not decoded yet, and their numbers
        pending: List[str] = []
        linenos: List[int] = []
        #: a ``$``/``!`` line made the open record decode some lines early
        interrupted = False
        #: after a corrupt record-open line, orphan data lines are part
        #: of the same damaged block — swallow them without re-reporting
        skipping_block = False
        pos = lineno = 0
        while pos < len(text):
            start = pos
            pos = text.index("\n", start) + 1
            lineno += 1
            line = text[start:pos - 1]
            if not line:
                continue
            c = line[0]
            opens = c.isdigit()
            if not opens and c != "$" and c != "!":
                if current is not None:
                    pending.append(line)
                    linenos.append(lineno)
                elif not skipping_block:
                    self._refuse(lineno, line, ValueError(
                        f"data line before any record: {line!r}"
                    ))
                continue
            if current is not None:
                if opens:
                    self._close(current, pending, linenos, not interrupted)
                    yield current
                    current = None
                elif pending:
                    self._decode_lines(current, pending, linenos)
                    interrupted = True
                pending.clear()
                linenos.clear()
            if opens:
                skipping_block = interrupted = False
                hit = self._by_template(text, start, lineno)
                if hit is not None:
                    sample, pos = hit
                    lineno += len(sample.columns) + len(sample.procs)
                    yield sample
                    continue
            try:
                if not opens:
                    self._header_line(line)
                else:
                    ts_str, _, jobs_str = line.partition(" ")
                    current = ParsedSample(
                        host=self.hostname or "?",
                        timestamp=int(ts_str),
                        jobids=_jobids(jobs_str),
                        data={},
                        lineno=lineno,
                    )
            except (ValueError, IndexError) as exc:
                self._refuse(lineno, line, exc)
                if opens:
                    # the record-open line itself is damaged: the block
                    # that follows has no timestamp to attach to
                    skipping_block = True
        if current is not None:
            self._close(current, pending, linenos, not interrupted)
            yield current

    def _by_template(
        self, text: str, pos: int, lineno: int
    ) -> Optional[Tuple[ParsedSample, int]]:
        """The record that opens at ``pos`` (line ``lineno``) decoded by
        one match of the template's pattern, and where it ends; ``None``
        unless the match is a whole record and its ``ps`` lines parse."""
        columns = self._template
        if columns is None:
            return None
        pattern = self._pattern
        if pattern is _MISS:
            pattern = self._pattern = _record_pattern(columns)
        match = pattern.match(text, pos) if pattern is not None else None
        if match is None:
            return None
        end = match.end()
        if end < len(text) and not text[end].isdigit():
            return None  # a line the record would have gone on with
        ts, jobs, *values, ps = match.groups()
        try:
            procs = [self._parse_ps(line.split(" "))
                     for line in ps.split("\n")[:-1]]
        except ValueError:
            return None  # a bad ``ps`` line: the line path names it
        row = np.fromstring(" ".join(values), np.int64, sep=" ").astype(
            np.float64)
        row.flags.writeable = False
        sample = ParsedSample(
            host=self.hostname or "?", timestamp=int(ts),
            jobids=_jobids(jobs), data={}, procs=procs, lineno=lineno,
        )
        sample._seal(row, columns)
        self.template_records += 1
        return sample, end

    def _refuse(self, lineno: int, line: str, exc: Exception) -> None:
        """The failure policy: raise, or file the line under ``errors``."""
        if self.on_error == "raise":
            if isinstance(exc, ValueError):
                raise exc
            raise ValueError(str(exc)) from exc
        self.errors.append(
            ParseError(lineno=lineno, line=line, reason=str(exc))
        )

    def _close(
        self,
        sample: ParsedSample,
        lines: List[str],
        linenos: List[int],
        whole: bool,
    ) -> None:
        """Decode what the closing record still has buffered and seal
        it; ``whole`` when that is every data line it has."""
        self._decode_lines(sample, lines, linenos)
        sample._seal(*_flatten(sample.data))
        self.line_records += 1
        if whole:
            # whatever order its lines came in, the record's columns
            # spell the order the next one is expected in
            self._template = sample.columns
            self._pattern = _MISS

    def _decode_lines(
        self, sample: ParsedSample, lines: List[str], linenos: List[int]
    ) -> None:
        """Line by line, in order, each refused on its own."""
        for lineno, line in zip(linenos, lines):
            try:
                self._data_line(sample, line)
            except (ValueError, IndexError) as exc:
                self._refuse(lineno, line, exc)

    def _header_line(self, line: str) -> None:
        """A ``$`` metadata or ``!`` schema line — the one reader of
        either, for this parser and for :class:`BlockParser`."""
        if line[0] == "!":
            type_name, schema = Schema.parse_line(line)
            self.schemas[type_name] = schema
            self._template = None
            return
        key, _, value = line[1:].partition(" ")
        if key == "hostname":
            self.hostname = value
        elif key == "arch":
            self.arch = value
        elif key == "mem":
            self.mem_bytes = int(value)
        elif key == "tacc_stats":
            if value.split(".")[0] != FORMAT_VERSION.split(".")[0]:
                raise ValueError(f"unsupported format version {value}")

    def _data_line(self, sample: ParsedSample, line: str) -> None:
        parts = line.split(" ")
        type_name = parts[0]
        if type_name == "ps":
            sample.procs.append(self._parse_ps(parts))
            return
        instance = parts[1]
        values = np.array([float(v) for v in parts[2:]], dtype=np.float64)
        schema = self.schemas.get(type_name)
        if schema is not None and len(values) != len(schema):
            raise ValueError(
                f"{type_name}/{instance}: {len(values)} values vs "
                f"schema of {len(schema)}"
            )
        sample.data.setdefault(type_name, {})[instance] = values

    @staticmethod
    def _parse_ps(parts: List[str]) -> ProcessRecord:
        (
            _,
            pid,
            name,
            owner,
            jobid,
            vmsize,
            vmhwm,
            vmrss,
            vmrsshwm,
            vmlck,
            data,
            stack,
            text,
            threads,
            cpus,
            mems,
        ) = parts
        return ProcessRecord(
            pid=int(pid),
            name=name,
            owner=owner,
            jobid=jobid,
            vmsize_kb=int(vmsize),
            vmhwm_kb=int(vmhwm),
            vmrss_kb=int(vmrss),
            vmrss_hwm_kb=int(vmrsshwm),
            vmlck_kb=int(vmlck),
            data_kb=int(data),
            stack_kb=int(stack),
            text_kb=int(text),
            threads=int(threads),
            cpu_affinity=_parse_cpuset(cpus),
            mem_affinity=_parse_cpuset(mems),
        )


class SampleLike:
    """Protocol-ish base documenting what the writer needs.

    Any object with ``timestamp``, ``jobids``, ``data`` and ``procs``
    serialises; :class:`repro.core.collector.Sample` is the real one.
    """

    timestamp: int
    jobids: List[str]
    data: Dict[str, Dict[str, np.ndarray]]
    procs: List[ProcessRecord]


# -- columnar block parsing ---------------------------------------------------
#
# A host file at rest is read whole into a :class:`HostBlock`: one
# ``(records, counters)`` array per (device type, instance), which the
# batched ETL (:mod:`repro.pipeline.parallel`) and the TSDB loader
# (:func:`repro.tsdb.store.ingest_file`) consume directly.  There is
# one record decoder, :class:`RawFileParser`; :class:`BlockParser`
# stacks the rows it yields.  The one thing it does without it is
# decode a perfectly regular file in one pass over its bytes, because
# that is the nightly bulk load: a rack of 8 host-days (144 records × 7
# device lines) reads in 3.3–6.8 ms strided against 15–20 ms stacked
# (2 vCPUs), of a ≈ 28 ms ``batch_fleet_day`` op that parses it twice.
# Strided takes what :class:`RawFileWriter` writes — counters and
# timestamps of 1–18 ASCII digits, single spaces, ``\n`` line ends —
# and leaves any other spelling (a sign, point, exponent, ``nan``,
# ``_``, 19+ digits, CR, tab, a doubled or trailing space, a non-ASCII
# byte) to the decoder, refusing nothing itself.  It is exact: 1–18
# digits spell an integer below 10**18, which int64 holds, and the
# int64 → float64 cast rounds to nearest-even, as ``float(token)`` does.

#: ``10**17 … 10**0``: the place values of a right-aligned 18-digit run
_POW10 = 10 ** np.arange(17, -1, -1, dtype=np.int64)


def _decimals(b: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> Optional[np.ndarray]:
    """The tokens ``b[starts[i]:ends[i]]`` as int64, or ``None`` unless
    every one is 1–18 ASCII digits."""
    lens = ends - starts
    width = int(lens.max())
    if width > 18 or lens.min() < 1:
        return None
    # (width, n): each token's digits right-aligned, the long axis inner
    digits = b.take(ends + np.arange(-width, 0)[:, None], mode="clip")
    digits -= np.uint8(48)
    digits *= (np.arange(width, 0, -1, dtype=np.uint8)[:, None]
               <= lens.astype(np.uint8))  # zero the left padding
    if digits.max() > 9:
        return None
    return _POW10[18 - width:] @ digits.astype(np.int64)


class Layout:
    """One host layout: the header's ``!`` schema lines and one record's
    device lines, ``(type, instance, width)`` each.

    Every host of a rack writes the same layout, so :class:`BlockParser`
    parses it once: each strided :class:`HostBlock` of that shape shares
    this object, its ``schemas`` dict (read-only) and the byte pattern
    its body is checked against, and a consumer derives what it needs
    from a layout once, through :meth:`derive`.
    """

    __slots__ = (
        "schemas", "columns", "line_end", "pattern", "prefix", "at", "off",
        "cols", "_derived",
    )

    def __init__(
        self, schemas: Dict[str, Schema], columns: Tuple[Column, ...]
    ) -> None:
        self.schemas = schemas
        self.columns = columns
        # every token is followed by one separator: token i of a record
        # ends at its i-th separator; the line ends fall where the
        # layout puts them and every other separator is a space
        self.line_end = np.cumsum([2] + [2 + w for _, _, w in columns]) - 1
        self.pattern = np.full(self.line_end[-1] + 1, 32, np.uint8)
        self.pattern[self.line_end] = 10
        # each device line opens with its ``"<type> <inst> "`` bytes
        prefixes = [f"{t} {inst} ".encode() for t, inst, _ in columns]
        self.prefix = np.frombuffer(b"".join(prefixes), np.uint8)
        self.at = np.repeat(self.line_end[:-1], [len(p) for p in prefixes])
        self.off = np.concatenate(
            [np.arange(1, len(p) + 1) for p in prefixes])
        # the separators a value token sits after
        self.cols = np.concatenate([
            np.arange(o + 2, o + 2 + w)
            for o, (_, _, w) in zip(self.line_end[:-1] + 1, columns)
        ])
        self._derived: Dict[object, object] = {}

    def derive(self, key, build: Callable[[], object]):
        """``build()``, made on the first call for ``key`` and kept."""
        try:
            return self._derived[key]
        except KeyError:
            if len(self._derived) >= _DERIVED:
                self._derived.clear()
            value = self._derived[key] = build()
            return value


@dataclass
class BlockGroup:
    """All readings of one (device type, instance) across a host file."""

    #: record indices (into :attr:`HostBlock.times`) with a reading
    rows: np.ndarray
    #: ``(len(rows), n_counters)`` float64 counter values
    values: np.ndarray
    #: per-row arrays when rows have differing widths and no schema to
    #: validate against (only :meth:`HostBlock.iter_samples` reads these)
    ragged: Optional[List[np.ndarray]] = None

    def row_values(self, i: int) -> np.ndarray:
        return self.ragged[i] if self.ragged is not None else self.values[i]


@dataclass
class HostBlock:
    """One host's raw file in columnar form."""

    host: str
    arch: Optional[str]
    mem_bytes: int
    schemas: Dict[str, Schema]
    #: (R,) record timestamps, file order (duplicates preserved)
    times: np.ndarray
    #: per record, the job ids it was tagged with
    jobids: List[Tuple[str, ...]]
    #: type → instance → column group
    groups: Dict[str, Dict[str, BlockGroup]]
    #: device types in first-appearance (file) order
    type_order: List[str]
    #: record index → procfs records of that sample
    procs: Dict[int, List[ProcessRecord]] = field(default_factory=dict)
    errors: List[ParseError] = field(default_factory=list)
    #: the strided path's: the :class:`Layout` every record follows and
    #: the ``(records, counters)`` rows it decoded, each group a column
    #: slice of them (``None`` for a block the record decoder stacked)
    layout: Optional["Layout"] = None
    matrix: Optional[np.ndarray] = None

    @property
    def n_records(self) -> int:
        return len(self.times)

    def derive(self, key, build: Callable[[], object]):
        """What a consumer makes of this block's layout: made once per
        :class:`Layout` (:meth:`Layout.derive`), or by every call for a
        block without one.  ``build`` may read only what every block of
        the layout shares: its schemas and devices, not their values."""
        if self.layout is None:
            return build()
        return self.layout.derive(key, build)

    def job_rows(self) -> Dict[str, np.ndarray]:
        """Record indices per job id (the jobmap bucket-sort, columnar)."""
        buckets: Dict[str, List[int]] = {}
        for r, jids in enumerate(self.jobids):
            for jid in jids:
                buckets.setdefault(jid, []).append(r)
        return {
            jid: np.asarray(rows, dtype=np.int64)
            for jid, rows in buckets.items()
        }

    def iter_samples(self, records: Iterable[int]) -> Iterator[ParsedSample]:
        """The streaming-parser view of the records ``records`` indexes,
        in that order; no other record is materialised."""
        per_record: Dict[int, Dict[str, Dict[str, np.ndarray]]] = {
            int(r): {} for r in records
        }
        for type_name in self.type_order:
            for inst, grp in self.groups.get(type_name, {}).items():
                for i in np.flatnonzero(np.isin(grp.rows, list(per_record))):
                    per_record[int(grp.rows[i])].setdefault(type_name, {})[
                        inst] = grp.row_values(i)
        for r in per_record:
            yield ParsedSample(
                host=self.host,
                timestamp=int(self.times[r]),
                jobids=list(self.jobids[r]),
                data=per_record[r],
                procs=self.procs.get(r, []),
            )


class BlockParser:
    """Columnar raw-file parser: whole file → :class:`HostBlock`.

    The file chooses its path by what it looks like:

    1. *strided* — a perfectly regular file as the writer spells it
       (``$``/``!`` lines only at the top, every record the same device
       lines in the same order, no ``ps`` lines, every number 1–18
       ASCII digits): its body is decoded in one pass over its bytes —
       token bounds from the separators, the layout checked by one
       reshape-and-compare and one gather, every number by
       :func:`_decimals`.  Its :class:`Layout` — the ``!`` lines and
       the first record's device lines — is parsed once for every file
       that shares it (:meth:`_layout`) and kept on the block;
    2. *records* — any other file (``ps`` lines, a late device, schema
       evolution, damage) goes through :class:`RawFileParser`, and its
       rows are stacked: records that share a ``columns`` layout become
       one ``(records, K)`` matrix, a device's :class:`BlockGroup` a
       column slice of it.  What is refused, why and in what order is
       the decoder's answer: ``errors`` is its ledger.

    The block keeps one schema per type — the file's last — so a
    reading the decoder accepted under an earlier schema of another
    width cannot be filed under it: it is dropped and ledgered at the
    line its record opened on.  ``on_error="raise"`` fails the file at
    the first ledger entry with ``ValueError("line <n>: <reason>")``.
    """

    def __init__(self, on_error: str = "quarantine") -> None:
        if on_error not in ("raise", "quarantine"):
            raise ValueError(
                f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
            )
        self.on_error = on_error

    # -- entry points --------------------------------------------------------
    def parse_path(self, path) -> HostBlock:
        with open(path) as fh:
            return self.parse_text(fh.read())

    def parse_text(self, text: str) -> HostBlock:
        block = self._try_strided(text)
        path = "records" if block is None else "strided"
        if block is None:
            block = self._stack_records(text)
        obs.counter("repro_rawfile_block_parses_total",
                    "host files block-parsed, by path").inc(path=path)
        if self.on_error == "raise" and block.errors:
            first = block.errors[0]
            raise ValueError(f"line {first.lineno}: {first.reason}")
        return block

    # -- strided fast path ---------------------------------------------------
    def _try_strided(self, text: str) -> Optional[HostBlock]:
        header = RawFileParser()
        schema_lines: List[str] = []
        pos = 0
        try:
            while text.startswith(("$", "!"), pos):
                end = text.index("\n", pos)
                if text[pos] == "!":
                    schema_lines.append(text[pos:end])
                else:
                    header._header_line(text[pos:end])
                pos = end + 1
            body = text[pos:] if text.endswith("\n") else text[pos:] + "\n"
            b = np.frombuffer(body.encode("ascii"), np.uint8)
            # the layout: the first record's device lines
            columns: List[Column] = []
            end = body.index("\n")
            while end + 1 < len(body) and not body[end + 1].isdigit():
                start, end = end + 1, body.index("\n", end + 1)
                t, inst, *values = body[start:end].split(" ")
                if not t or not inst or t == "ps" or t[0] in "$!":
                    return None
                columns.append((t, inst, len(values)))
            layout = self._layout(tuple(schema_lines), tuple(columns))
            if layout is None:
                return None
            # token i of record r ends at ``sep[r, i]``
            sep = np.flatnonzero(b <= 32)
            R, rem = divmod(len(sep), len(layout.pattern))
            if rem or not (b[sep].reshape(R, -1) == layout.pattern).all():
                return None
            sep = sep.reshape(R, -1)
            if not (b[sep[:, layout.at] + layout.off] == layout.prefix).all():
                return None
            ints = _decimals(b, sep[:, layout.cols - 1].ravel() + 1,
                             sep[:, layout.cols].ravel())
            times = _decimals(b, np.concatenate(([0], sep[:-1, -1] + 1)),
                              sep[:, 0])
        except (ValueError, IndexError):
            return None
        # an empty job token is a doubled or trailing space
        if ints is None or times is None or (sep[:, 1] - sep[:, 0] < 2).any():
            return None
        values = ints.astype(np.float64).reshape(R, -1)
        jobs = [body[lo:hi] for lo, hi in zip(
            (sep[:, 0] + 1).tolist(), sep[:, 1].tolist())]
        split = {js: () if js == "-" else tuple(js.split(","))
                 for js in set(jobs)}
        rows = np.arange(R, dtype=np.int64)
        groups: Dict[str, Dict[str, BlockGroup]] = {}
        lo = 0
        for t, inst, w in layout.columns:
            # a device listed twice: one row a record, the last line's
            groups.setdefault(t, {})[inst] = BlockGroup(
                rows, values[:, lo:lo + w])
            lo += w
        return HostBlock(
            host=header.hostname or "?", arch=header.arch,
            mem_bytes=header.mem_bytes, schemas=layout.schemas,
            times=times, jobids=[split[js] for js in jobs],
            groups=groups, type_order=list(groups),
            layout=layout, matrix=values,
        )

    #: ``(schema lines, columns)`` → its :class:`Layout`, or ``None``
    #: when a device's width disagrees with its schema; shared by every
    #: parser, emptied when full
    _layouts: Dict[Tuple[Tuple[str, ...], Tuple[Column, ...]],
                   Optional[Layout]] = {}

    @classmethod
    def _layout(
        cls, schema_lines: Tuple[str, ...], columns: Tuple[Column, ...]
    ) -> Optional[Layout]:
        """The layout these lines spell, its schemas parsed on first
        sight (a bad schema line raises ``ValueError``, remembering
        nothing)."""
        key = (schema_lines, columns)
        # one lookup: another thread may empty the memo between two
        hit = cls._layouts.get(key, _MISS)
        if hit is not _MISS:
            return hit
        header = RawFileParser()
        for line in schema_lines:
            header._header_line(line)
        schemas = header.schemas
        layout = None
        if columns and not any(t in schemas and w != len(schemas[t])
                               for t, _, w in columns):
            layout = Layout(schemas, columns)
        if len(cls._layouts) >= _LAYOUTS:
            cls._layouts.clear()
        cls._layouts[key] = layout
        return layout

    # -- the record decoder's rows, stacked ----------------------------------
    def _stack_records(self, text: str) -> HostBlock:
        parser = RawFileParser(on_error="quarantine")
        samples = list(parser.parse(text))
        #: ``columns`` → the records laid out that way, and their rows
        layouts: Dict[
            Tuple[Column, ...], Tuple[List[int], List[np.ndarray]]
        ] = {}
        for r, sample in enumerate(samples):
            records, rows = layouts.setdefault(sample.columns, ([], []))
            records.append(r)
            rows.append(sample.row)
        #: device → its ``(record index, values)`` under each layout, in
        #: first-appearance order (a layout's first record is where each
        #: of its devices not seen before first appears)
        pieces: Dict[
            Tuple[str, str], List[Tuple[np.ndarray, np.ndarray]]
        ] = {}
        for columns, (records, rows) in layouts.items():
            index = np.array(records, dtype=np.int64)
            matrix = np.vstack(rows)
            lo = 0
            for type_name, instance, width in columns:
                pieces.setdefault((type_name, instance), []).append(
                    (index, matrix[:, lo:lo + width])
                )
                lo += width
        errors = parser.errors
        #: the text's lines, split once a reading is dropped
        lines: Optional[List[str]] = None
        groups: Dict[str, Dict[str, BlockGroup]] = {}
        for (type_name, instance), parts in pieces.items():
            schema = parser.schemas.get(type_name)
            kept = []
            for index, values in parts:
                width = values.shape[1]
                if schema is None or width == len(schema):
                    kept.append((index, values))
                    continue
                reason = (
                    f"{type_name}/{instance}: {width} values vs "
                    f"schema of {len(schema)}"
                )
                if lines is None:
                    lines = text.split("\n")
                errors.extend(
                    ParseError(n, lines[n - 1], reason)
                    for n in (samples[r].lineno for r in index)
                )
            if not kept:
                continue
            ragged = None
            if len(kept) == 1:
                (index, values), = kept
            else:
                # a record has one layout, so no index repeats
                index = np.concatenate([i for i, _ in kept])
                order = np.argsort(index)
                index = index[order]
                if len({values.shape[1] for _, values in kept}) == 1:
                    values = np.concatenate([v for _, v in kept])[order]
                else:
                    # schema-less and of varying width: per-row arrays
                    flat = [row for _, values in kept for row in values]
                    ragged = [flat[i] for i in order]
                    values = np.zeros((len(index), 0))
            groups.setdefault(type_name, {})[instance] = BlockGroup(
                rows=index, values=values, ragged=ragged
            )
        errors.sort(key=lambda e: e.lineno)  # stable: it stays file order
        return HostBlock(
            host=parser.hostname or "?", arch=parser.arch,
            mem_bytes=parser.mem_bytes, schemas=parser.schemas,
            times=np.array([s.timestamp for s in samples], dtype=np.int64),
            jobids=[tuple(s.jobids) for s in samples],
            groups=groups, type_order=list(groups),
            procs={r: s.procs for r, s in enumerate(samples) if s.procs},
            errors=errors,
        )
