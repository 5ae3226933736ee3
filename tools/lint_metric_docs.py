#!/usr/bin/env python3
"""Fail when the docs and src/ disagree about which obs metrics exist.

The metrics reference in ``docs/observability.md`` is only useful
while it is *complete* and *true* — an operator grepping an exported
name must find it there, and a name found there must be one the
system can emit.  This lint walks the AST of every ``.py`` file under
the given root and collects the first-argument string of every
``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` /
``sketch(...)`` call that looks like a metric name (``repro_*``),
whichever object the constructor hangs off (``obs.counter``,
``registry.sketch``, ``self.registry.counter``, a module-level
``handles.counter`` handle, the family of a ``.labels(...)`` child ...).  Any collected
name that does not appear verbatim in the docs file is a violation —
and, when a whole tree is linted, so is any inventory row (a table
line opening ``| `repro_…``) whose name nothing under the root
declares: a row that outlived its metric.

Names are matched as raw substrings of the docs, so the reference may
decorate them with label sets (``repro_x_total{queue}``) freely —
but shorthand rows (``repro_broker_published_total /
_delivered_total``) do not count as documenting the elided name.

Usage::

    python tools/lint_metric_docs.py [src_root [docs_file]]
    # defaults: src/ docs/observability.md

Exit status 1 if any violation is found.  Wired into the tier-1
suite via ``tests/test_obs/test_metric_docs_lint.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

KINDS = {"counter", "gauge", "histogram", "sketch"}
NAME_RE = re.compile(r"^repro_[a-z0-9_]+$")
ROW_RE = re.compile(r"^\| `(repro_[a-z0-9_]+)")  # an inventory table row


def _call_kind(func: ast.expr) -> str | None:
    """The constructor name of a call, however it is reached."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def metric_names(source: str, filename: str = "<string>"):
    """Yield ``(name, lineno)`` for each metric declared in source."""
    tree = ast.parse(source, filename=filename)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and _call_kind(node.func) in KINDS and node.args):
            continue
        arg = node.args[0]
        if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and NAME_RE.match(arg.value)):
            yield arg.value, node.lineno


def check_source(source: str, docs: str, filename: str = "<string>",
                 declared: set[str] | None = None) -> list[str]:
    """Return ``file:line: message`` strings for each violation.

    Every metric name the source declares is added to ``declared``
    when a set is given (what :func:`check_docs` checks the docs
    against).
    """
    violations = []
    try:
        names = list(metric_names(source, filename))
    except SyntaxError as exc:
        return [f"{filename}:{exc.lineno or 0}: unparseable: {exc.msg}"]
    for name, lineno in names:
        if declared is not None:
            declared.add(name)
        if name not in docs:
            violations.append(
                f"{filename}:{lineno}: metric `{name}` is not in the "
                f"docs metric inventory — add a row for it"
            )
    return violations


def check_path(root: Path, docs_file: Path) -> list[str]:
    """Lint one file or every ``.py`` file under a directory.

    A directory is the whole inventory, so the docs are checked
    against it in the other direction too; one file cannot say what
    the rest of the tree declares.
    """
    docs = docs_file.read_text(encoding="utf-8")
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    violations = []
    declared: set[str] = set()
    for path in files:
        violations.extend(
            check_source(path.read_text(encoding="utf-8"), docs,
                         str(path), declared))
    if root.is_dir():
        violations.extend(check_docs(docs, declared, str(docs_file)))
    return violations


def check_docs(docs: str, declared: set[str],
               filename: str = "<docs>") -> list[str]:
    """Violations for inventory rows whose name nothing declares."""
    violations = []
    for lineno, line in enumerate(docs.splitlines(), 1):
        row = ROW_RE.match(line)
        if row and row.group(1) not in declared:
            violations.append(
                f"{filename}:{lineno}: metric `{row.group(1)}` is "
                f"documented but nothing under the source root emits "
                f"it — drop the row or restore the metric"
            )
    return violations


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src")
    docs_file = (Path(argv[1]) if len(argv) > 1
                 else Path("docs/observability.md"))
    for p in (root, docs_file):
        if not p.exists():
            print(f"lint_metric_docs: no such path: {p}",
                  file=sys.stderr)
            return 2
    violations = check_path(root, docs_file)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_metric_docs: {len(violations)} undocumented "
              f"or stale metric reference(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
