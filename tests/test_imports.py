"""Every package module reads each name it imports (no linter ships with
the toolchain, so the scan is a test)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "degenpde"


def unused_imports(source):
    """Names bound by the import statements of source that no expression
    reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_scan_flags_names_never_read():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from .x import y, z as w\nprint(np.pi, y, a.b)\n")
    assert unused_imports(source) == ["os", "w"]


# __init__ imports to re-export, so its names are read only through __all__
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_imported_name(module):
    assert unused_imports((SRC / module).read_text()) == []
