"""Every name a module under src/ imports is used in that module.

Package __init__ modules are skipped: they import to re-export.  A name
used only inside a quoted annotation counts as unused; every module has
``from __future__ import annotations``, so no import needs quoting.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TRACING = SRC.parent / "perfbench" / "tracing.py"

# Names imported only so that the benchmark's tracer (perfbench/tracing.py)
# finds them in the module namespace and can wrap them.
ALLOWED = {
    ("voronoi_cells/voronoi.py", "eliminate"),
    ("voronoi_cells/voronoi.py", "groebner_basis"),
    ("voronoi_cells/voronoi.py", "count_roots"),
    ("voronoi_cells/voronoi.py", "sturm_chain"),
    ("voronoi_cells/voronoi.py", "squarefree_part"),
    ("voronoi_cells/voronoi.py", "dense_gcd"),
    ("voronoi_cells/cli.py", "count_real_roots"),
    ("voronoi_cells/degrees.py", "eliminate"),
    ("voronoi_cells/degrees.py", "is_zero_dimensional"),
}

MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return set(_imported(tree)) - used


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(SRC).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    rel = path.relative_to(SRC).as_posix()
    allowed = {name for module, name in ALLOWED if module == rel}
    assert unused_imports(path.read_text()) - allowed == set()


def _traced_pairs() -> set[tuple[str, str]]:
    """(module path, name) of every SPANS row, read with ``ast``."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "SPANS"):
            return {(f"voronoi_cells/{module}.py", name)
                    for module, name, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py has no SPANS table")


def test_allowed_imports_are_traced():
    # an allow-list entry must not outlive the span row it exists for
    assert ALLOWED - _traced_pairs() == set()


def test_scan_finds_an_unused_import():
    source = ("import os.path\nimport sys\nfrom typing import Sequence\n"
              "def f(x: Sequence[int]):\n    return sys.argv, x\n")
    assert unused_imports(source) == {"os"}
