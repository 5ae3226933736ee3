"""What the live path does with the parser besides reading its rows:
quarantined lines are counted and dropped, and the share of records
that missed the parser's template is a metric.
"""

import pytest

from repro import obs
from repro.broker import Broker
from repro.stream import StreamPipeline
from tests.test_stream.reference import ReferenceStreamPipeline
from tests.test_stream.test_rows import (
    HEADER,
    assert_same_outcome,
    deliver,
    record,
    replay,
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def line_decoded(host):
    return obs.counter(
        "repro_stream_line_decoded_records_total").value(host=host)


def test_quarantined_lines_are_counted_then_dropped():
    """One torn line an interval, for 2 000 intervals: the counter has
    them all and the parser holds none (each entry carries its line)."""
    pipeline = StreamPipeline(Broker())
    deliver(pipeline, "h1", HEADER.format(host="h1"), 1)
    for i in range(2000):
        body = record(600 * i, [f"x 0 {i} {i}", "y - 5", "x 1 7 torn"])
        deliver(pipeline, "h1", body, 600 * i + 1)
    assert pipeline.samples == 2000
    assert pipeline._parsers["h1"].errors == []
    assert obs.counter(
        "repro_stream_parse_errors_total").value(host="h1") == 2000


def test_regular_stream_is_line_decoded_once_and_once_per_schema_line():
    deliveries = []
    for host in ("h1", "h2"):
        deliveries.append((host, HEADER.format(host=host) + record(
            0, ["x 0 1 2", "y - 5"]), 1))
        deliveries += [
            (host, record(600 * i, [f"x 0 {i} {2 * i}", "y - 5"]), 600 * i)
            for i in range(1, 20)
        ]
    # h2's daemon restarts and re-announces its schemas, twice
    for i in (20, 30):
        deliveries.append(("h2", HEADER.format(host="h2") + record(
            600 * i, [f"x 0 {i} {i}", "y - 6"]), 600 * i))
        deliveries += [
            ("h2", record(600 * (i + j), ["x 0 7 8", "y - 6"]),
             600 * (i + j))
            for j in range(1, 10)
        ]
    new, _ = replay(StreamPipeline, deliveries)
    assert (line_decoded("h1"), line_decoded("h2")) == (1, 3)
    h2 = new._parsers["h2"]
    assert (h2.template_records, h2.line_records) == (37, 3)
    ref, _ = replay(ReferenceStreamPipeline, deliveries)
    assert_same_outcome(new, ref)


def test_alternating_device_sets_are_decoded_line_by_line():
    """A record is only ever checked against the one before it, so a
    host that flips between two device sets never meets its template."""
    sets = (["x 0 1 2", "y - 5"], ["x 0 1 2", "x 1 3 4", "y - 5"])
    deliveries = [("h1", HEADER.format(host="h1") + record(0, sets[0]), 1)]
    deliveries += [
        ("h1", record(600 * i, sets[i % 2]), 600 * i) for i in range(1, 24)
    ]
    new, _ = replay(StreamPipeline, deliveries)
    assert line_decoded("h1") == 24
    assert new._parsers["h1"].template_records == 0
    ref, _ = replay(ReferenceStreamPipeline, deliveries)
    assert_same_outcome(new, ref)
