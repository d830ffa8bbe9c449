"""Every private name defined in src/ is referenced somewhere in src/.

A private name starts with one underscore and is a module-level function,
class or constant, or a method.  A reference is a read of the name, an
attribute of that name, or an import of it; the definition itself does not
count, so a helper that lost its last caller fails here.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree):
    """(name, line) of every private module-level definition or method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(
                node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_private_names(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of the private definitions no source references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {ref for tree in trees.values() for ref in references(tree)}
    return {(module, name) for module, tree in trees.items()
            for name, _ in private_definitions(tree)
            if _is_private(name) and name not in used}


def test_no_unused_private_names():
    sources = {p.relative_to(SRC).as_posix(): p.read_text()
               for p in sorted(SRC.rglob("*.py"))}
    assert unused_private_names(sources) == set()


def test_scan_finds_an_unused_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n"
                 "def _used():\n    return _LIMIT\n"
                 "def _orphan():\n    return 0\n"
                 "class _Box:\n"
                 "    def _fill(self):\n        return self._peek()\n"
                 "    def _peek(self):\n        return _used()\n"
                 "    def _unused(self):\n        self._unused = 1\n"),
        "b.py": "from a import _Box\n_Box()._fill()\n",
    }
    assert unused_private_names(sources) == {
        ("a.py", "_SPARE"), ("a.py", "_orphan"), ("a.py", "_unused")}
