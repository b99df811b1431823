"""Every module-level function and class in the package has a caller.

A name counts as used when it is exported in `qdual.__all__` or is
referenced (called, read as an attribute or imported) somewhere in the
package outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import qdual

PACKAGE = Path(qdual.__file__).resolve().parent


def _referenced(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_module_level_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(_referenced(tree))
    unused = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = Counter(_referenced(node))[node.name]
            if node.name not in qdual.__all__ and uses[node.name] <= own:
                unused.append("%s:%s" % (fname, node.name))
    assert not unused, "defined but never used: %s" % ", ".join(unused)
