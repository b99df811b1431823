"""Every module-level function and class in the package has a caller,
and every method and property of a package class is read.

A module-level name counts as used when it is exported in
`qdual.__all__` or is referenced (called, read as an attribute or
imported) somewhere in the package outside its own definition.  A
non-dunder method or property counts as read when `x.name` is read
somewhere in the package, the tests or `bench/` outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

import qdual

PACKAGE = Path(qdual.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


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


def _attribute_reads(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def test_every_method_and_property_is_read():
    sources = sorted(PACKAGE.glob("*.py"))
    readers = sources + sorted((REPO / "tests").glob("*.py")) + sorted(
        (REPO / "bench").glob("*.py"))
    reads = Counter()
    for path in readers:
        reads.update(_attribute_reads(ast.parse(
            path.read_text(encoding="utf-8"))))
    unread = []
    for path in sources:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("__")):
                    continue
                own = _attribute_reads(node)[node.name]
                if reads[node.name] <= own:
                    unread.append("%s:%s.%s" % (path.name, cls.name,
                                                node.name))
    assert not unread, "never read as an attribute: %s" % ", ".join(unread)
