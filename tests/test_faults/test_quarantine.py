"""Tolerant raw-file parsing: quarantine instead of crash."""

import numpy as np
import pytest

from repro import obs
from repro.core.rawfile import RawFileParser
from repro.core.store import CentralStore
from repro.pipeline.parallel import parse_blocks

GOOD = """\
$tacc_stats 2.3.2
$hostname c401-101
$arch intel_snb
$mem 34359738368
!ib rx_bytes,E,W=64,U=B tx_bytes,E,W=64,U=B
1443657600 1000001
ib 0 100 200
1443658200 1000001
ib 0 150 260
"""


def test_raise_mode_stops_at_first_bad_line():
    text = GOOD + "ib 0 not a number\n"
    parser = RawFileParser()  # historical default: fail fast
    with pytest.raises(ValueError):
        list(parser.parse(text))


def test_quarantine_mode_skips_bad_values_line_keeps_rest():
    text = GOOD + "ib 0 junk junk\n1443658800 1000001\nib 0 170 280\n"
    parser = RawFileParser(on_error="quarantine")
    samples = list(parser.parse(text))
    assert [s.timestamp for s in samples] == [1443657600, 1443658200,
                                             1443658800]
    assert len(parser.errors) == 1
    assert "junk" in parser.errors[0].line


def test_wrong_arity_against_schema_is_quarantined():
    text = GOOD + "1443658800 1000001\nib 0 170\n"  # schema wants 2 values
    parser = RawFileParser(on_error="quarantine")
    samples = list(parser.parse(text))
    assert len(samples) == 3
    assert samples[-1].data == {}  # the damaged line contributed nothing
    assert len(parser.errors) == 1
    assert "schema" in parser.errors[0].reason


def test_corrupt_record_open_swallows_the_orphaned_block():
    text = GOOD + "14436x8800 1000001\nib 0 170 280\nib 1 1 2\n"
    parser = RawFileParser(on_error="quarantine")
    samples = list(parser.parse(text))
    assert [s.timestamp for s in samples] == [1443657600, 1443658200]
    # only the torn open-line is reported; its orphan data lines are
    # part of the same damaged block, not three separate errors
    assert len(parser.errors) == 1


def test_truncated_tail_costs_only_the_last_block():
    text = GOOD + "1443658800 1000001\nib 0 17"  # torn mid-line
    parser = RawFileParser(on_error="quarantine")
    samples = list(parser.parse(text))
    assert len(samples) == 3
    assert len(parser.errors) == 1


def test_store_quarantines_and_writes_ledger(tmp_path):
    store = CentralStore(tmp_path)
    store.append("c401-101", GOOD, arrived_at=1443658200,
                 collect_times=[1443657600, 1443658200])
    store.append("c401-101", "total garbage line\n", arrived_at=1443658300)
    store.append(
        "c401-101",
        "1443658800 1000001\nib 0 170 280\n",
        arrived_at=1443658900,
        collect_times=[1443658800],
    )
    samples = list(store.samples("c401-101"))
    assert [s.timestamp for s in samples] == [1443657600, 1443658200,
                                             1443658800]
    assert store.quarantine_counts() == {"c401-101": 1}
    ledger = tmp_path / "quarantine" / "c401-101.bad"
    assert ledger.exists()
    assert "garbage" in ledger.read_text()
    # strict mode still fails fast for callers that want it
    with pytest.raises(ValueError):
        list(store.samples("c401-101", strict=True))


def test_clean_parse_leaves_no_quarantine(tmp_path):
    store = CentralStore(tmp_path)
    store.append("c401-101", GOOD, arrived_at=1443658200,
                 collect_times=[1443657600, 1443658200])
    samples = list(store.samples("c401-101"))
    assert len(samples) == 2
    assert np.array_equal(samples[0].data["ib"]["0"], [100.0, 200.0])
    assert store.quarantine_counts() == {}
    assert not (tmp_path / "quarantine").exists()


# -- the ledger counts bad lines, not reads ---------------------------------
#
# A store file is append-only and read by more than one parser (the
# per-sample one behind ``samples``, the block parser behind the
# nightly ETL), so the same bad line is met on every read.  It is filed
# once per host: in ``quarantined``, in ``<host>.bad`` and in the
# counter — and a store opened later on the same root starts from the
# ledger on disk.

BAD = "ib 0 junk 1\n"


def ledger_state(store, host="c401-101"):
    bad = store.root / "quarantine" / f"{host}.bad"
    return (
        store.quarantine_counts(),
        [(e.lineno, e.line, e.reason) for e in store.quarantined[host]],
        bad.read_text(),
        obs.counter("repro_ingest_quarantined_lines_total").value(host=host),
    )


def store_with_a_bad_line(root):
    store = CentralStore(root)
    store.append("c401-101", GOOD + BAD, arrived_at=1443658200)
    return store


def test_the_same_file_read_twice_files_its_bad_line_once(tmp_path):
    before = obs.counter("repro_ingest_quarantined_lines_total").value(
        host="c401-101")
    store = store_with_a_bad_line(tmp_path)
    assert store.sample_count("c401-101") == 2
    once = ledger_state(store)
    assert once[0] == {"c401-101": 1}
    assert once[2] == "line 10: could not convert string to float: " \
        "'junk'\nib 0 junk 1\n"
    assert once[3] == before + 1
    assert store.sample_count("c401-101") == 2
    assert ledger_state(store) == once


def test_parse_blocks_twice_after_two_reads_files_it_once(tmp_path):
    store = store_with_a_bad_line(tmp_path)
    store.sample_count("c401-101")
    once = ledger_state(store)
    store.sample_count("c401-101")
    parse_blocks(store)
    parse_blocks(store)
    assert ledger_state(store) == once
    assert once[0] == {"c401-101": 1}


def test_a_new_store_on_the_same_root_starts_from_the_ledger(tmp_path):
    first = store_with_a_bad_line(tmp_path)
    parse_blocks(first)
    first.close()
    once = ledger_state(first)
    again = CentralStore(tmp_path)
    assert again.quarantine_counts() == {"c401-101": 1}
    assert ledger_state(again) == once
    parse_blocks(again)
    again.sample_count("c401-101")
    assert ledger_state(again) == once


def test_a_file_that_grew_a_bad_line_files_only_the_new_one(tmp_path):
    store = store_with_a_bad_line(tmp_path)
    parse_blocks(store)
    counts, entries, text, counted = ledger_state(store)
    store.append("c401-101", "1443658800 1000001\nib 0 170 x\n",
                 arrived_at=1443658900)
    parse_blocks(store)
    store.sample_count("c401-101")
    store.close()
    for grown in (store, CentralStore(tmp_path)):
        assert ledger_state(grown) == (
            {"c401-101": 2},
            entries + [(12, "ib 0 170 x",
                        "could not convert string to float: 'x'")],
            text + "line 12: could not convert string to float: 'x'\n"
                   "ib 0 170 x\n",
            counted + 1,
        )


def test_a_torn_ledger_entry_is_filed_again_not_fatal(tmp_path):
    """An append cut short leaves a header that does not parse: the
    store still opens, and the line is filed again when it is met."""
    store = store_with_a_bad_line(tmp_path)
    store.append("c401-101", "1443658800 1000001\nib 0 170 x\n",
                 arrived_at=1443658900)
    store.close()
    qdir = tmp_path / "quarantine"
    qdir.mkdir()
    (qdir / "c401-101.bad").write_text(
        "line 10: could not convert string to float: 'junk'\nib 0 junk 1\n"
        "liline 12: could not convert string to float: 'x'\nib 0 170 x\n")
    reopened = CentralStore(tmp_path)
    assert [(e.lineno, e.line) for e in reopened.quarantined["c401-101"]] == [
        (10, "ib 0 junk 1")]
    parse_blocks(reopened)
    assert [(e.lineno, e.line) for e in reopened.quarantined["c401-101"]] == [
        (10, "ib 0 junk 1"), (12, "ib 0 170 x")]
