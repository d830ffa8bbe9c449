"""Every name the benchmark's tracer wraps exists in the package.

perfbench/tracing.py replaces (module, attribute) pairs of voronoi_cells
with timing wrappers, so deleting or renaming one of those names breaks a
traced run (``--trace 1``) without failing any other test.  The tables are
read with ``ast``; the tracer module itself is not imported.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "COUNTED")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()
PAIRS = sorted({(module, attr) for table in TABLES.values()
                for module, attr, _ in table})


def test_both_tables_are_read():
    assert set(TABLES) == {"SPANS", "COUNTED"}
    assert all(TABLES.values())


@pytest.mark.parametrize("module, attr", PAIRS,
                         ids=[f"{module}.{attr}" for module, attr in PAIRS])
def test_traced_name_exists(module, attr):
    assert hasattr(importlib.import_module(f"voronoi_cells.{module}"), attr)
