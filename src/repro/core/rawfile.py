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
import os
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Tuple,
)

import numpy as np

from repro import obs
from repro.hardware.devices.base import Schema
from repro.hardware.devices.procfs import ProcessRecord

FORMAT_VERSION = "2.3.2"


def _cpuset(ids: Iterable[int]) -> str:
    s = ",".join(map(str, ids))
    return s if s else "-"


@functools.cache
def _parse_cpuset(s: str) -> Tuple[int, ...]:
    """A ``ps`` cpuset field, parsed once per distinct (immutable) one."""
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
    layouts by identity.  A sample built from a ``data`` mapping is
    flattened on first read of ``row`` or ``columns``.  ``lineno`` is
    the line its record opened on in the stream it was parsed from (0
    when it was not parsed).  ``layout`` is the :class:`Layout` its
    record was read under — its columns and the schemas in force when
    its lines were read — set by whoever read it (``None`` for a sample
    built from ``data``, until one is given).
    """

    __slots__ = (
        "host", "timestamp", "jobids", "procs", "lineno", "layout",
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
        self.layout: Optional[Layout] = None
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

#: layouts :meth:`Layout.of` keeps and derivations a layout keeps (past
#: either bound the table starts over)
_LAYOUTS = 64
_DERIVED = 16
_MISS = object()


def _spell_record(columns: Tuple[Column, ...]) -> Optional[re.Pattern]:
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


def _stride(columns: Tuple[Column, ...]) -> Tuple[np.ndarray, ...]:
    """A record of ``columns`` as the strided decoder checks it: every
    token is followed by one separator, so token i of a record ends at
    its i-th separator.  The separators' bytes (``\n`` where the layout
    puts a line end, a space elsewhere); each device line's ``"<type>
    <inst> "`` bytes, and which separator and offset each sits at; the
    separators the value tokens sit after."""
    line_end = np.cumsum([2] + [2 + w for _, _, w in columns]) - 1
    pattern = np.full(line_end[-1] + 1, 32, np.uint8)
    pattern[line_end] = 10
    prefixes = [f"{t} {inst} ".encode() for t, inst, _ in columns]
    return (
        pattern,
        np.frombuffer(b"".join(prefixes), np.uint8),
        np.repeat(line_end[:-1], [len(p) for p in prefixes]),
        np.concatenate([np.arange(1, len(p) + 1) for p in prefixes]),
        np.concatenate([
            np.arange(o + 2, o + 2 + w)
            for o, (_, _, w) in zip(line_end[:-1] + 1, columns)
        ]),
    )


class Layout:
    """One record layout: a record's device lines, ``(type, instance,
    width)`` each, and the ``!`` line in force for each of their types
    when the record was read (``lines``, one per type in first-appearance
    order, ``None`` for a type without one).

    Which schema reads a reading is decided here, once: there is one
    layout per ``(columns, lines)`` (:meth:`of`), every sample, block
    run and host read that way shares it, and a consumer derives what
    it needs of it once, through :meth:`derive` — the record pattern
    the parser's template matches, the strided byte pattern, the
    accumulation plan, the TSDB series.  ``schemas`` maps each type to
    the schema its readings are filed under: its ``!`` line's, unless
    one of its devices is not that schema's width (a ``!`` line inside
    a record), when the type is read schema-less and named in
    ``mismatched`` — the parser ledgers such a record.  ``starts`` maps
    each type's devices to where their runs start in a row (a device
    listed twice: its last run's).
    """

    __slots__ = ("columns", "lines", "schemas", "mismatched", "starts",
                 "_derived")

    #: ``(columns, lines)`` → its layout; shared by every reader
    _interned: Dict[tuple, "Layout"] = {}

    def __init__(
        self, columns: Tuple[Column, ...], lines: Tuple[Optional[str], ...]
    ) -> None:
        self.columns = columns
        self.lines = lines
        header = RawFileParser()
        for line in lines:
            if line:
                header._header_line(line)
        schemas = header.schemas
        mismatched: List[str] = []
        self.starts: Dict[str, Dict[str, int]] = {}
        lo = 0
        for type_name, instance, width in columns:
            self.starts.setdefault(type_name, {})[instance] = lo
            lo += width
            schema = schemas.get(type_name)
            if schema is not None and width != len(schema):
                del schemas[type_name]
                mismatched.append(type_name)
        self.schemas: Dict[str, Schema] = schemas
        self.mismatched: Tuple[str, ...] = tuple(mismatched)
        self._derived: Dict[object, object] = {}

    @classmethod
    def of(
        cls, columns: Tuple[Column, ...], lines: Mapping[str, str]
    ) -> "Layout":
        """The layout of a record of ``columns`` read while ``lines``
        held the ``!`` line of each type; made on first sight (a bad
        line raises ``ValueError``, interning nothing)."""
        types = dict.fromkeys([t for t, _, _ in columns])
        return cls._intern(columns, tuple([lines.get(t) for t in types]))

    @classmethod
    def _intern(
        cls, columns: Tuple[Column, ...], lines: Tuple[Optional[str], ...]
    ) -> "Layout":
        key = (columns, lines)
        # one lookup: another thread may empty the table between two
        layout = cls._interned.get(key)
        if layout is None:
            layout = cls(*key)
            if len(cls._interned) >= _LAYOUTS:
                cls._interned.clear()
            cls._interned[key] = layout
        return layout

    def __reduce__(self):
        """A layout unpickles as the receiving process's interned one,
        derivations and all; ``_derived`` itself never travels."""
        return (Layout._intern, (self.columns, self.lines))

    def derive(self, key, build: Callable[[], object]):
        """``build()``, made on the first call for ``key`` and kept.
        ``build`` may read only the layout, never a reading."""
        try:
            return self._derived[key]
        except KeyError:
            if len(self._derived) >= _DERIVED:
                self._derived.clear()
            value = self._derived[key] = build()
            return value


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
    last whole record it decoded line by line as a *template*, and tries
    it first at every record-open line: one match of the pattern its
    columns spell (made once per :class:`Layout`, so shared by every
    parser) takes the whole record — its ``ps`` lines too, and only
    when the next line opens a record or the text ends — and its values
    convert as one int64 array, cast to the sample's float64 ``row``.
    1–18 ASCII digits spell an integer int64 holds, and the cast rounds
    to nearest-even, as ``float(token)`` does.  Any record the pattern
    does not take is decoded line by line: its data lines are buffered
    and decoded when the record closes — or when a ``$``/``!`` line
    interrupts it, so a line's width is always checked against the
    schema it was read under — in order, by :meth:`_data_line`, which
    alone decides what is refused and why.  A ``!`` line drops the
    template (the width check is part of it), which is why
    :attr:`schemas` is the stream's to change once parsing has begun.
    :attr:`template_records` and :attr:`line_records` count the records
    decoded each way.

    Every sample carries its :class:`Layout`: its columns under the
    ``!`` lines in force when its first data line was decoded — for a
    record a ``!`` line follows, the schemas it was written under, not
    the next record's.  A record the template takes is the template's
    layout again, so that costs one attribute store.
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
        #: type → its ``!`` line; replaced, never changed, by a ``!``
        #: line, so a record keeps the one it was read under
        self._lines: Dict[str, str] = {}
        #: the template record, and its layout's pattern once looked up
        self._template: Optional[ParsedSample] = None
        self._pattern = _MISS

    def parse(self, stream) -> Iterator[ParsedSample]:
        """Yield samples from raw stats text: a string, or a file
        object read whole."""
        text = stream if isinstance(stream, str) else stream.read()
        if not text.endswith("\n"):
            text += "\n"
        current: Optional[ParsedSample] = None
        #: the ledger's length when the open record opened, and its line
        opened: Tuple[int, str] = (0, "")
        #: the open record's data lines not decoded yet, and their numbers
        pending: List[str] = []
        linenos: List[int] = []
        #: the ``!`` lines in force when a ``$``/``!`` line made the open
        #: record decode some lines early (``None``: it has not)
        read_under: Optional[Dict[str, str]] = None
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
                    self._close(current, opened, pending, linenos, read_under)
                    yield current
                    current = None
                elif pending:
                    self._decode_lines(current, pending, linenos)
                    if read_under is None:
                        read_under = self._lines
                pending.clear()
                linenos.clear()
            if opens:
                skipping_block = False
                read_under = None
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
                    opened = (len(self.errors), line)
            except (ValueError, IndexError) as exc:
                self._refuse(lineno, line, exc)
                if opens:
                    # the record-open line itself is damaged: the block
                    # that follows has no timestamp to attach to
                    skipping_block = True
        if current is not None:
            self._close(current, opened, pending, linenos, read_under)
            yield current

    def _by_template(
        self, text: str, pos: int, lineno: int
    ) -> Optional[Tuple[ParsedSample, int]]:
        """The record that opens at ``pos`` (line ``lineno``) decoded by
        one match of the template's pattern, and where it ends; ``None``
        unless the match is a whole record and its ``ps`` lines parse."""
        template = self._template
        if template is None:
            return None
        pattern = self._pattern
        if pattern is _MISS:
            layout = template.layout
            pattern = self._pattern = layout.derive(
                "record pattern", lambda: _spell_record(layout.columns))
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
        sample._seal(row, template.columns)
        sample.layout = template.layout
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
        opened: Tuple[int, str],
        lines: List[str],
        linenos: List[int],
        read_under: Optional[Dict[str, str]],
    ) -> None:
        """Decode what the closing record still has buffered, seal it
        and give it its layout; ``read_under`` is the ``!`` lines of an
        interrupted record, which decoded some lines early.  A type the
        layout reads schema-less because a ``!`` line inside the record
        changed its width is refused at the record's open line
        (``opened``: the ledger's length then, and the line), filed in
        front of the record's own entries so the ledger stays in file
        order; the sample keeps its readings, schema-less."""
        self._decode_lines(sample, lines, linenos)
        sample._seal(*_flatten(sample.data))
        layout = sample.layout = Layout.of(
            sample.columns, self._lines if read_under is None else read_under)
        if layout.mismatched:
            at, line = opened
            self._refuse(sample.lineno, line, ValueError(
                f"{', '.join(layout.mismatched)}: a ! line inside the "
                f"record changed its width; read without a schema"))
            self.errors.insert(at, self.errors.pop())
        self.line_records += 1
        if read_under is None:
            # whatever order its lines came in, the record's columns
            # spell the order the next one is expected in
            self._template = sample
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
            self._lines = {**self._lines, type_name: line}
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
# ``(records, counters)`` matrix per :class:`Layout` its records were
# read under, which the batched ETL (:mod:`repro.pipeline.parallel`)
# and the TSDB loader (:func:`repro.tsdb.store.ingest_file`) consume
# directly.  There is one record decoder, :class:`RawFileParser`;
# :class:`BlockParser` stacks the rows it yields.  The one thing it does without it is
# decode a perfectly regular file in one pass over its bytes, because
# that is the nightly bulk load: a rack of 8 host-days (144 records × 7
# device lines) reads in 3.3–6.8 ms strided against 15–20 ms stacked
# (2 vCPUs), of a ≈ 17 ms (p50) ``batch_fleet_day`` op that parses it
# once: the load reuses the ETL's blocks (below).
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


class BlockRun(NamedTuple):
    """The records of a host file read under one :class:`Layout`."""

    layout: Layout
    #: (n,) record indices (into :attr:`HostBlock.times`), ascending
    records: np.ndarray
    #: ``(n, W)`` float64 rows, laid out as ``layout.columns``
    matrix: np.ndarray


@dataclass
class HostBlock:
    """One host's raw file in columnar form."""

    host: str
    arch: Optional[str]
    mem_bytes: int
    #: (R,) record timestamps, file order (duplicates preserved)
    times: np.ndarray
    #: per record, the job ids it was tagged with
    jobids: List[Tuple[str, ...]]
    #: one run per layout, in first-appearance order; every record is
    #: in exactly one
    runs: List[BlockRun]
    #: record index → procfs records of that sample
    procs: Dict[int, List[ProcessRecord]] = field(default_factory=dict)
    errors: List[ParseError] = field(default_factory=list)

    @cached_property
    def run_of(self) -> np.ndarray:
        """Per record, the index of its run."""
        run_of = np.zeros(len(self.times), dtype=np.intp)
        for u, run in enumerate(self.runs):
            run_of[run.records] = u
        run_of.flags.writeable = False
        return run_of

    @cached_property
    def row_of(self) -> np.ndarray:
        """Per record, its row in its run's matrix."""
        row_of = np.zeros(len(self.times), dtype=np.intp)
        for run in self.runs:
            row_of[run.records] = np.arange(len(run.records))
        row_of.flags.writeable = False
        return row_of

    @property
    def n_records(self) -> int:
        return len(self.times)

    def slim(self) -> "HostBlock":
        """What the TSDB loader reads of the block: host, arch, memory,
        timestamps and runs — no job ids, processes or ledger."""
        return HostBlock(self.host, self.arch, self.mem_bytes, self.times,
                         [], self.runs)

    @property
    def layout(self) -> Optional[Layout]:
        """The layout every record follows (``None`` unless one does)."""
        return self.runs[0].layout if len(self.runs) == 1 else None

    @property
    def matrix(self) -> Optional[np.ndarray]:
        """Every record's row, when one layout holds them all."""
        return self.runs[0].matrix if len(self.runs) == 1 else None

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
        in that order, each with its layout; no other record is
        materialised."""
        for r in records:
            run = self.runs[self.run_of[r]]
            sample = ParsedSample(
                host=self.host,
                timestamp=int(self.times[r]),
                jobids=list(self.jobids[r]),
                data={},
                procs=self.procs.get(int(r), []),
            )
            sample._seal(run.matrix[self.row_of[r]], run.layout.columns)
            sample.layout = run.layout
            yield sample


class BlockParser:
    """Columnar raw-file parser: whole file → :class:`HostBlock`.

    The file chooses its path by what it looks like:

    1. *strided* — a perfectly regular file as the writer spells it
       (``$``/``!`` lines only at the top, every record the same device
       lines in the same order, no ``ps`` lines, every number 1–18
       ASCII digits): its body is decoded in one pass over its bytes —
       token bounds from the separators, the layout checked by one
       reshape-and-compare and one gather, every number by
       :func:`_decimals` — into one run;
    2. *records* — any other file (``ps`` lines, a late device, schema
       evolution, damage) goes through :class:`RawFileParser`, and its
       rows are stacked: the records of one :class:`Layout` become one
       run, a ``(records, W)`` matrix.  What is refused, why and in
       what order is the decoder's answer: ``errors`` is its ledger.

    Either way a record is filed under the layout the decoder would
    give it — its columns under the schemas in force when it was read —
    so a file whose ``!`` lines change between days keeps each day's
    readings under that day's schemas, and a file of one layout (the
    strided files; a simulator host-day with its ``ps`` lines) is one
    run, with :attr:`HostBlock.layout` and :attr:`HostBlock.matrix`.
    ``on_error="raise"`` fails the file at the first ledger entry with
    ``ValueError("line <n>: <reason>")``.
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
        #: type → its last ``!`` line, and every ``!`` line
        lines: Dict[str, str] = {}
        schema_lines: List[str] = []
        pos = 0
        try:
            while text.startswith(("$", "!"), pos):
                end = text.index("\n", pos)
                line = text[pos:end]
                if line[0] == "!":
                    lines[line[1:].split(None, 1)[0]] = line
                    schema_lines.append(line)
                else:
                    header._header_line(line)
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
            if not columns:
                return None
            layout = Layout.of(tuple(columns), lines)
            # the layout parsed its types' lines; the decoder would
            # refuse any other that does not parse, or a device not as
            # wide as its schema
            for line in schema_lines:
                if line not in layout.lines:
                    header._header_line(line)
            if layout.mismatched:
                return None
            pattern, prefix, at, off, cols = layout.derive(
                "stride", lambda: _stride(layout.columns))
            # token i of record r ends at ``sep[r, i]``
            sep = np.flatnonzero(b <= 32)
            R, rem = divmod(len(sep), len(pattern))
            if rem or not (b[sep].reshape(R, -1) == pattern).all():
                return None
            sep = sep.reshape(R, -1)
            if not (b[sep[:, at] + off] == prefix).all():
                return None
            ints = _decimals(b, sep[:, cols - 1].ravel() + 1,
                             sep[:, cols].ravel())
            times = _decimals(b, np.concatenate(([0], sep[:-1, -1] + 1)),
                              sep[:, 0])
        except (ValueError, IndexError):
            return None
        # an empty job token is a doubled or trailing space
        if ints is None or times is None or (sep[:, 1] - sep[:, 0] < 2).any():
            return None
        jobs = [body[lo:hi] for lo, hi in zip(
            (sep[:, 0] + 1).tolist(), sep[:, 1].tolist())]
        split = {js: () if js == "-" else tuple(js.split(","))
                 for js in set(jobs)}
        return HostBlock(
            host=header.hostname or "?", arch=header.arch,
            mem_bytes=header.mem_bytes, times=times,
            jobids=[split[js] for js in jobs],
            runs=[BlockRun(layout, np.arange(R, dtype=np.int64),
                           ints.astype(np.float64).reshape(R, -1))],
        )

    # -- the record decoder's rows, stacked ----------------------------------
    def _stack_records(self, text: str) -> HostBlock:
        parser = RawFileParser(on_error="quarantine")
        samples = list(parser.parse(text))
        #: layout → its records and their rows, in first-appearance order
        by_layout: Dict[Layout, Tuple[List[int], List[np.ndarray]]] = {}
        for r, sample in enumerate(samples):
            records, rows = by_layout.setdefault(sample.layout, ([], []))
            records.append(r)
            rows.append(sample.row)
        return HostBlock(
            host=parser.hostname or "?", arch=parser.arch,
            mem_bytes=parser.mem_bytes,
            times=np.array([s.timestamp for s in samples], dtype=np.int64),
            jobids=[tuple(s.jobids) for s in samples],
            runs=[
                BlockRun(layout, np.array(records, dtype=np.int64),
                         np.vstack(rows))
                for layout, (records, rows) in by_layout.items()
            ],
            procs={r: s.procs for r, s in enumerate(samples) if s.procs},
            errors=parser.errors,
        )


# -- each host file parsed once per pass --------------------------------------
#
# The nightly pass reads a host file twice: the ETL maps it to jobs
# (:func:`repro.pipeline.parallel.ingest_jobs`), then the TSDB load
# writes it (:func:`repro.tsdb.store.ingest_store`,
# :meth:`repro.shard.ShardedTSDB.ingest`).  The ETL files each clean
# block here (:func:`file_parsed`) and the loader takes it back out
# (:func:`take_parsed`), so the file is parsed once.  The loader gets
# the block only if the file still holds exactly the text that was
# parsed: equal ``(size, mtime)`` would not do, since a same-size
# rewrite (a digit flipped) inside one timestamp tick keeps both.
#
# The table holds at most ``_PARSED_CHARS`` characters of text and
# drops its oldest entries to make room, so a pass whose files fit
# keeps all of its own blocks whatever earlier passes left, and a
# larger pass keeps its newest files' worth.  A block no load takes
# stays until it is pushed out, or until its store closes
# (:meth:`repro.core.store.CentralStore.close`).

#: characters of text the table holds (a longer file is not kept): a
#: full table is 127 host-days of 66 kB, ≈ 16 MB of text and arrays —
#: 11 % of the 139 MB peak RSS of a ``batch_fleet_day`` process
_PARSED_CHARS = 8 << 20


class _ParseTable:
    """path → (the text parsed, its block), oldest first."""

    def __init__(self) -> None:
        self.entries: Dict[str, Tuple[str, HostBlock]] = {}
        self.chars = 0

    def put(self, path: str, text: str, block: HostBlock) -> None:
        self.pop(path)
        while self.entries and self.chars + len(text) > _PARSED_CHARS:
            self.pop(next(iter(self.entries)))
        self.entries[path] = (text, block)
        self.chars += len(text)

    def pop(self, path: str) -> Optional[Tuple[str, HostBlock]]:
        entry = self.entries.pop(path, None)
        if entry is not None:
            self.chars -= len(entry[0])
        return entry


_parsed = _ParseTable()


def file_parsed(path, text: str, block: HostBlock) -> None:
    """Keep ``block``, parsed of ``text`` — the file at ``path`` — for
    the load that follows (:func:`take_parsed`).  Its arrays are made
    read-only: from here it may be shared.  A block with ledger
    entries, or of a file longer than the table, is not kept."""
    if block.errors or len(text) > _PARSED_CHARS:
        return
    for run in block.runs:
        run.records.flags.writeable = False
        run.matrix.flags.writeable = False
    block.times.flags.writeable = False
    _parsed.put(os.fspath(path), text, block)


def forget_parsed(directory) -> None:
    """Drop the blocks filed for the files in ``directory``."""
    directory = os.fspath(directory)
    for path in list(_parsed.entries):
        if os.path.dirname(path) == directory:
            _parsed.pop(path)


def take_parsed(path) -> Optional[HostBlock]:
    """The block filed for the file at ``path`` (:func:`file_parsed`),
    taken out of the table — if the file still holds exactly the text
    parsed.  ``None`` otherwise: never filed (or pushed out since),
    taken already, rewritten, or unreadable now; the caller then reads
    the file and meets what it holds."""
    entry = _parsed.pop(os.fspath(path))
    if entry is None:
        return None
    text, block = entry
    try:
        with open(path) as fh:
            if fh.read() != text:
                return None
    except (OSError, UnicodeDecodeError):
        return None
    return block
