"""The TSDB package sits below the layers that read it.

The portal, the live stream, the sharded store and the pipeline all
import :mod:`repro.tsdb`; a ``repro.tsdb`` module importing any of them
back would close a package cycle.  Every import statement counts, the
ones inside functions too.
"""

import ast
from pathlib import Path

import repro.tsdb

#: the layers built on the TSDB
ABOVE = ("repro.portal", "repro.stream", "repro.shard", "repro.pipeline")


def _imported(path: Path, package: str):
    """Every module name an import statement in ``path`` names."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module
            # ``from repro import portal`` names the package it imports
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_tsdb_module_imports_a_layer_above_it():
    root = Path(repro.tsdb.__file__).parent
    modules = sorted(root.glob("*.py"))
    assert len(modules) >= 5
    found = [
        (path.name, name)
        for path in modules
        for name in _imported(path, "repro.tsdb")
        if any(name == up or name.startswith(up + ".") for up in ABOVE)
    ]
    assert found == []


def test_the_check_sees_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import repro.stream\n"
        "from repro import portal\n"
        "def f():\n"
        "    from ..shard import coordinator\n"
    )
    names = set(_imported(path, "repro.tsdb"))
    assert {"repro.stream", "repro.portal", "repro.shard"} <= names
