"""Each package's __all__ lists exactly the names its __init__ imports.

A name deleted from a module but left in ``__all__`` would break
``from voronoi_cells import *``; a name imported but not listed is a
public name nobody declared.
"""
import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = ("voronoi_cells", "voronoi_cells.exactmath")


def imported_names(module) -> set:
    """Names bound by the package __init__'s module-level from-imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names}


@pytest.mark.parametrize("name", PACKAGES)
def test_all_matches_the_imports(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    expected = imported_names(module)
    if hasattr(module, "__version__"):
        expected.add("__version__")
    assert set(exported) == expected
    for public in exported:
        assert hasattr(module, public), public


def test_scan_reads_from_imports(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from __future__ import annotations\n"
                    "from .a import x, y as z\nimport os\n")

    class Fake:
        __file__ = str(init)

    assert imported_names(Fake) == {"x", "z"}
