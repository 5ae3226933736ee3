"""TSDB result rendering (:mod:`repro.portal.render`)."""

import numpy as np
import pytest

from repro.tsdb import TimeSeriesDB
from repro.tsdb.query import QueryResult, query
from repro.portal.render import render_result_ascii, render_result_svg


@pytest.fixture
def result():
    db = TimeSeriesDB()
    for host in ("n1", "n2"):
        for i in range(6):
            db.put("m", {"host": host, "type": "mdc"},
                   600 * i, float(i * (1 if host == "n1" else 10)))
    return query(db, "m", group_by=("host",))


def test_ascii_one_line_per_group(result):
    out = render_result_ascii(result, label="mdc reqs")
    assert "mdc reqs" in out
    assert "host=n1" in out and "host=n2" in out
    assert out.count("mean=") == 2


def test_ascii_empty():
    assert "(no series)" in render_result_ascii(QueryResult(series=[]))


def test_svg_polyline_per_group(result):
    svg = render_result_svg(result, label="mdc")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "mdc" in svg


def test_svg_empty():
    svg = render_result_svg(QueryResult(series=[]))
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_misaligned_groups_render(result):
    db = TimeSeriesDB()
    db.put("m", {"host": "a"}, 0, 1.0)
    db.put("m", {"host": "a"}, 600, 2.0)
    db.put("m", {"host": "b"}, 300, 5.0)
    res = query(db, "m", group_by=("host",))
    svg = render_result_svg(res)
    assert svg.count("<polyline") == 2
