"""Host sources for sharded ingest.

A *source* is a picklable description of where each host's raw stats
stream comes from, so it can be shipped to spawn-started shard workers
(:mod:`repro.shard.worker`) that open and parse their own hosts
locally.  A source also answers which hosts need no parse there
(:meth:`parsed`): the blocks an ETL pass in the coordinator's process
already parsed of exactly the files' current text.  The coordinator
ships those blocks' columns instead; it never forwards raw text.

* :class:`StoreSource` — a :class:`~repro.core.store.CentralStore`
  directory on disk, the production layout.
* :class:`TemplateSource` — a synthetic fleet rendered from one
  host-day template by token substitution (the idiom of the
  deployment-scale benchmarks): 50k hosts of production wire format
  without 50k files on disk.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.rawfile import HostBlock, take_parsed
from repro.core.store import raw_hosts, raw_path

__all__ = ["StoreSource", "TemplateSource"]


@dataclass(frozen=True)
class StoreSource:
    """Raw per-host ``.raw`` files under a CentralStore root."""

    root: str

    def hosts(self) -> List[str]:
        return raw_hosts(Path(self.root))

    def open(self, host: str):
        """A text stream of ``host``'s raw stats file."""
        return open(raw_path(Path(self.root), host))

    def parsed(self, hosts: Sequence[str]) -> Dict[str, HostBlock]:
        """The blocks this process parsed of ``hosts``' files and that
        still hold the text parsed, taken
        (:func:`~repro.core.rawfile.take_parsed`)."""
        root = Path(self.root)
        blocks = {h: take_parsed(raw_path(root, h)) for h in hosts}
        return {h: b for h, b in blocks.items() if b is not None}


@dataclass
class TemplateSource:
    """A synthetic fleet: one rendered host-day, re-tokened per host.

    ``template`` must contain ``host_token`` wherever the hostname
    appears and ``job_token`` wherever the job id appears; per-host
    substitutions (``subs``) map a hostname to its job id.  Rendering
    is two C-level ``str.replace`` calls, so generation stays a small
    fraction of the parse time being measured while the parser sees
    exactly the production wire format.
    """

    template: str
    host_token: str
    job_token: str
    #: host → job id substituted for ``job_token``
    subs: Tuple[Tuple[str, str], ...]

    def hosts(self) -> List[str]:
        return [h for h, _ in self.subs]

    def _index(self) -> Dict[str, str]:
        idx = self.__dict__.get("_idx")
        if idx is None:
            idx = self.__dict__["_idx"] = dict(self.subs)
        return idx

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_idx"}

    def parsed(self, hosts: Sequence[str]) -> Dict[str, HostBlock]:
        """None: a rendered host was never parsed outside a worker."""
        return {}

    def open(self, host: str):
        jid = self._index().get(host, host)
        text = self.template.replace(self.host_token, host)
        return io.StringIO(text.replace(self.job_token, jid))

