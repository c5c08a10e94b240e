"""Every top-level function and class of the package has a reader outside
the tests: code that only tests read is deleted, not kept for them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "semsched").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def read_names(tree):
    """Every name the module reads: names, attributes, imported names and
    string constants (the benchmark wraps functions by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_definition_is_read_outside_the_tests():
    reads = set()
    for path in READERS:
        reads.update(read_names(ast.parse(path.read_text(encoding="utf-8"))))
    defined = {
        f"{path.stem}.{node.name}": node.name
        for path in PACKAGE
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert len(defined) > 50  # the scan found the package
    unread = sorted(where for where, name in defined.items() if name not in reads)
    assert unread == []
