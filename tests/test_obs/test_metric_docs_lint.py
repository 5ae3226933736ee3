"""Tier-1 hook for the metric-documentation lint.

Runs ``tools/lint_metric_docs.py`` on every test run: any
``repro_*`` metric declared in ``src/`` that is missing from the
``docs/observability.md`` inventory fails the suite, so the metrics
reference can never drift out of date.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "lint_metric_docs", REPO / "tools" / "lint_metric_docs.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

DOCS = "| `repro_good_total{q}` | counter | documented |\n"


def test_every_src_metric_is_documented():
    violations = lint.check_path(REPO / "src",
                                 REPO / "docs" / "observability.md")
    assert violations == [], "\n".join(violations)


def test_lint_flags_undocumented_names_of_every_kind():
    for kind in ("counter", "gauge", "histogram", "sketch"):
        src = f'obs.{kind}("repro_missing_total", "help").inc()\n'
        out = lint.check_source(src, DOCS)
        assert out and "repro_missing_total" in out[0], kind


def test_lint_accepts_documented_and_ignores_non_metrics():
    for src in (
        # documented, with a label decoration in the docs row
        'obs.counter("repro_good_total", "help")\n',
        # reached through a registry attribute chain
        'self.registry.counter("repro_good_total")\n',
        # non-metric strings never count
        'log.warning("repro_missing_total would be bad")\n',
        # other calls with stringy first args
        'foo.bar("repro_missing_total")\n',
        # metric-kind call whose arg is not a repro_* name
        'obs.gauge("demo_queue_depth").set(1)\n',
    ):
        assert lint.check_source(src, DOCS) == [], src


def test_lint_collects_handles_and_their_labelled_children():
    """A hot site declares its metric once, as a module-level handle
    (``repro.obs.handles``) or a family's ``.labels(...)`` child; the
    name is collected either way, and a child made from a declared
    handle is no second declaration."""
    for src in (
        '_H = handles.counter("repro_missing_total", "help")\n',
        '_H = handles.histogram(\n    "repro_missing_total", "h",'
        ' buckets=(1.0,),\n).labels(stage="x")\n',
        'obs.gauge("repro_missing_total").labels(queue="q").set(1)\n',
    ):
        out = lint.check_source(src, DOCS)
        assert len(out) == 1 and "repro_missing_total" in out[0], src
    declared = set()
    assert lint.check_source(
        '_H = handles.counter("repro_good_total", "h")\n'
        'class Q:\n'
        '    def __init__(self, name):\n'
        '        self.c = _H.labels(queue=name)\n',
        DOCS, declared=declared) == []
    assert declared == {"repro_good_total"}


def test_lint_reports_file_and_line():
    out = lint.check_source(
        'x = 1\nobs.sketch("repro_missing_dist")\n', DOCS,
        filename="src/repro/fake.py")
    assert len(out) == 1
    assert out[0].startswith("src/repro/fake.py:2:")
    assert "repro_missing_dist" in out[0]


def test_lint_flags_a_documented_row_nothing_emits(tmp_path):
    """The other direction: an inventory row that outlived its metric.
    Only table rows count — names in prose or examples are free."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text('obs.counter("repro_good_total", "h")\n')
    docs = tmp_path / "observability.md"
    docs.write_text(
        'obs.counter("repro_example_total")  # an API example\n'
        + DOCS
        + "| `repro_gone_total{shard}` | counter | removed long ago |\n"
    )
    out = lint.check_path(src, docs)
    assert len(out) == 1
    assert out[0].startswith(f"{docs}:3:") and "repro_gone_total" in out[0]
    # one file is not the whole inventory: no reverse check
    assert lint.check_path(src / "mod.py", docs) == []
