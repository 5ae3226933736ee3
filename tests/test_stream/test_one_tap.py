"""One tap on the daemon exchange — checked, not remembered.

A second consumer of ``stats.#`` is a second parse of every delivery
and a second copy of state the stream already holds; what it wants is
an :class:`~repro.stream.alerts.AlertRouter` sink or a read over the
live store.  So the places allowed to consume from the broker, to
construct the raw-file parser and to read a ``!`` schema line are
named here.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SCHEMA_READER = r"\bSchema\.parse_line\("

#: pattern → the files under src/repro that may contain it
ALLOWED = {
    r"\.basic_consume\(": {
        "core/daemon.py",      # the archiver
        "stream/pipeline.py",  # the live tap
    },
    r"\bRawFileParser\(": {
        "stream/pipeline.py",  # live: one parser per host
        "core/store.py",       # batch: RawStore.samples
        "core/rawfile.py",     # BlockParser: its rows stacked, its header
    },
    SCHEMA_READER: {
        "core/rawfile.py",     # RawFileParser._header_line, once
    },
}


def test_consumers_and_parsers_are_where_they_are_allowed():
    found = {pattern: set() for pattern in ALLOWED}
    schema_readers = 0
    for path in SRC.rglob("*.py"):
        code = "\n".join(
            line for line in path.read_text().splitlines()
            if not line.lstrip().startswith(("#", ">>>", "..."))
        )
        for pattern in ALLOWED:
            if re.search(pattern, code):
                found[pattern].add(path.relative_to(SRC).as_posix())
        schema_readers += len(re.findall(SCHEMA_READER, code))
    for pattern, allowed in ALLOWED.items():
        assert found[pattern] - allowed == set(), pattern
        # the allow-list names real users: a stale entry fails too
        assert allowed - found[pattern] == set(), pattern
    # a second ``!`` reader is a second decoder on its way back
    assert schema_readers == 1
