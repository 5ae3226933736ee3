"""Documentation integrity: links resolve, references aren't stale.

Docs rot silently — a renamed file or module breaks every page that
points at it without failing anything.  This suite keeps the markdown
in ``docs/`` and the README honest: every relative link must resolve
to a real file, and every ``repro.*`` module, ``_private`` name or CLI
subcommand a doc names must actually exist.
"""

from __future__ import annotations

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(REPO.glob("docs/*.md")) + [REPO / "README.md"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")
MODULE_RE = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)")
PRIVATE_RE = re.compile(r"`(_[A-Za-z0-9_]+)")
#: the performance diary names kernels as they were when it was measured
PRIVATE_NAME_DOCS = [p for p in DOC_FILES if p.name != "performance.md"]


def doc_ids(paths):
    return [str(p.relative_to(REPO)) for p in paths]


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids(DOC_FILES))
def test_relative_links_resolve(doc):
    """Every non-external markdown link points at an existing file."""
    text = doc.read_text()
    missing = []
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (doc.parent / target).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, f"{doc.name}: broken links {missing}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids(DOC_FILES))
def test_referenced_modules_exist(doc):
    """Every `repro.foo.bar` a doc mentions is importable."""
    text = doc.read_text()
    bad = []
    for name in sorted({m.group(1) for m in MODULE_RE.finditer(text)}):
        parts = name.split(".")
        # allow `repro.module.attribute` — try successively shorter
        # prefixes until one imports, then getattr the rest
        obj = None
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
                rest = parts[cut:]
                break
            except ImportError:
                continue
        if obj is None:
            bad.append(name)
            continue
        for attr in rest:
            if not hasattr(obj, attr):
                bad.append(name)
                break
            obj = getattr(obj, attr)
    assert not bad, f"{doc.name}: stale module references {bad}"


@functools.lru_cache(maxsize=None)
def _names_defined_in_src():
    """Every function, class, assigned name or attribute and
    ``__slots__`` entry under ``src/``."""
    names = set()
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    names.update(
                        n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(target)
                        if isinstance(n, (ast.Name, ast.Attribute)))
                    if getattr(target, "id", None) == "__slots__":
                        names.update(
                            c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant))
    return names


@pytest.mark.parametrize("doc", PRIVATE_NAME_DOCS,
                         ids=doc_ids(PRIVATE_NAME_DOCS))
def test_referenced_private_names_exist(doc):
    """Every backticked `_private` name a doc mentions is defined in
    ``src/`` — a renamed kernel must break the page that still names it."""
    named = set(PRIVATE_RE.findall(doc.read_text()))
    stale = sorted(named - _names_defined_in_src())
    assert not stale, f"{doc.name}: names not defined in src/ {stale}"


def test_documented_cli_commands_exist():
    """Every subcommand the docs name is a real cli.py subparser."""
    from repro import cli

    parser = cli.build_parser()
    sub = next(
        a for a in parser._actions
        if a.__class__.__name__ == "_SubParsersAction"
    )
    real = set(sub.choices)
    pattern = re.compile(r"repro\.cli (\w+) ")
    for doc in DOC_FILES:
        for m in pattern.finditer(doc.read_text()):
            assert m.group(1) in real, (
                f"{doc.name} documents unknown command {m.group(1)!r}"
            )


def _documented_cli_invocations():
    """(doc, subcommand, flags) for every ``repro.cli <sub> ...`` line.

    Command examples in the docs use backslash continuations; joining
    them first means a flag on a continuation line is still attributed
    to its subcommand.
    """
    # [^\S\n] = horizontal whitespace only: a match never crosses into
    # the next example's line
    line_re = re.compile(r"repro\.cli[^\S\n]+(\w+)((?:[^\S\n]+\S+)*)")
    flag_re = re.compile(r"(--[A-Za-z][A-Za-z0-9-]*)")
    out = []
    for doc in DOC_FILES:
        joined = doc.read_text().replace("\\\n", " ")
        for m in line_re.finditer(joined):
            flags = flag_re.findall(m.group(2))
            out.append((doc, m.group(1), flags))
    return out


def test_documented_cli_flags_exist():
    """Every ``--flag`` shown next to a documented subcommand is a real
    option of that subcommand's argparse parser — a renamed or removed
    flag must break the doc that still shows it."""
    from repro import cli

    parser = cli.build_parser()
    sub = next(
        a for a in parser._actions
        if a.__class__.__name__ == "_SubParsersAction"
    )
    known = {
        name: {
            opt for action in p._actions for opt in action.option_strings
        }
        for name, p in sub.choices.items()
    }
    invocations = _documented_cli_invocations()
    assert invocations, "no CLI examples found in the docs at all?"
    bad = []
    for doc, command, flags in invocations:
        if command not in known:
            continue  # test_documented_cli_commands_exist covers this
        for flag in flags:
            if flag not in known[command]:
                bad.append(f"{doc.name}: `repro.cli {command}` has no "
                           f"{flag}")
    assert not bad, "\n".join(bad)


def test_service_commands_stay_documented():
    """`serve` must keep worked examples in the docs — that is what
    extends the flag-integrity check above to it."""
    documented = {command for _d, command, _f in _documented_cli_invocations()}
    assert {"serve"} <= documented


def test_all_docs_linked_from_readme():
    """docs/*.md pages are discoverable from the README."""
    readme = (REPO / "README.md").read_text()
    for doc in REPO.glob("docs/*.md"):
        assert f"docs/{doc.name}" in readme, f"{doc.name} not in README"
