"""Frozen reference for the streaming raw-file parser.

:class:`ReferenceRawFileParser` is ``RawFileParser`` as it stood before
the record-at-a-time rewrite (PR 21), verbatim: one ``split``, one list
comprehension of ``float`` and one small array per data line, errors
decided line by line.  It is the oracle for the differential property
in ``test_rawfile.py`` — same samples bit for bit, same ``errors``
entry for entry, same raised text — and the parser the other oracles
(``tests/test_tsdb/reference.py``, ``tests/test_pipeline/reference.py``,
``tests/test_stream/reference.py``) read raw text through, so none of
them depends on the code under test.

Do not "fix" or speed this up: it is the specification.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core.rawfile import FORMAT_VERSION, ParseError, _parse_cpuset
from repro.hardware.devices.base import Schema
from repro.hardware.devices.procfs import ProcessRecord


@dataclass
class ParsedSample:
    """One record block as read back from a raw stats file."""

    host: str
    timestamp: int
    jobids: List[str]
    data: Dict[str, Dict[str, np.ndarray]]
    procs: List[ProcessRecord] = field(default_factory=list)


class ReferenceRawFileParser:
    """Streaming parser for raw stats text (one host per stream).

    ``on_error`` selects the failure policy: ``"raise"`` (default, the
    historical behaviour) stops at the first malformed line;
    ``"quarantine"`` records the offending line in :attr:`errors` and
    keeps parsing — a truncated tail or a corrupted block costs only
    the damaged lines, never the whole host file.
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

    def parse(self, stream) -> Iterator[ParsedSample]:
        """Yield samples from a text stream (file object or string)."""
        if isinstance(stream, str):
            stream = io.StringIO(stream)
        current: Optional[ParsedSample] = None
        #: after a corrupt record-open line, orphan data lines are part
        #: of the same damaged block — swallow them without re-reporting
        skipping_block = False
        for lineno, raw in enumerate(stream, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            c = line[0]
            try:
                if c == "$":
                    self._header_line(line)
                elif c == "!":
                    type_name, schema = Schema.parse_line(line)
                    self.schemas[type_name] = schema
                elif c.isdigit():
                    if current is not None:
                        yield current
                        current = None
                    skipping_block = False
                    ts_str, _, jobs_str = line.partition(" ")
                    jobids = [] if jobs_str in ("-", "") else jobs_str.split(",")
                    current = ParsedSample(
                        host=self.hostname or "?",
                        timestamp=int(ts_str),
                        jobids=jobids,
                        data={},
                    )
                else:
                    if current is None:
                        if skipping_block:
                            continue
                        raise ValueError(f"data line before any record: {line!r}")
                    self._data_line(current, line)
            except (ValueError, IndexError) as exc:
                if self.on_error == "raise":
                    if isinstance(exc, ValueError):
                        raise
                    raise ValueError(str(exc)) from exc
                self.errors.append(
                    ParseError(lineno=lineno, line=line, reason=str(exc))
                )
                if c.isdigit():
                    # the record-open line itself is damaged: the block
                    # that follows has no timestamp to attach to
                    current = None
                    skipping_block = True
        if current is not None:
            yield current

    def _header_line(self, line: str) -> None:
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


class StampingReferenceParser(ReferenceRawFileParser):
    """The frozen parser, each sample it yields stamped with
    ``schemas``: the schemas in force when its first data line was read
    (empty for a record without one) — the schemas a reading was
    written under, which the oracles read it with.  Parsing itself is
    the base class's, untouched."""

    def parse(self, stream) -> Iterator[ParsedSample]:
        for sample in super().parse(stream):
            if "schemas" not in vars(sample):
                sample.schemas = {}
            yield sample

    def _data_line(self, sample: ParsedSample, line: str) -> None:
        if "schemas" not in vars(sample):
            sample.schemas = dict(self.schemas)
        super()._data_line(sample, line)
