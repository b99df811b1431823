"""Every module-level function and class in the package has a caller,
and every method, property, dataclass field and `__slots__` entry of a
package class is read.

A module-level name counts as used when it is referenced (called, read
as an attribute or looked up by `getattr` with a constant name; an
import alone is not a use) outside the tests and outside unused
definitions: in the package outside its own definition, in `demos/`
or in `bench/`.  Being listed in `qdual.__all__` does not count, so an
export that only the tests call is dead code.  A non-dunder method,
property, dataclass field or `__slots__` entry counts as read when
`x.<attribute>` is read somewhere outside the tests, outside its own
body: in the package, in `demos/` or in `bench/`.  The scan goes by
attribute name alone, so it cannot catch an attribute whose name other
objects share, such as `name`, `bound` or `module`: a read of any
`x.module` counts for every `module` field.  Every name a package module
other than `__init__.py` imports is read in that module: no module
re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import qdual

PACKAGE = Path(qdual.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]

# serialize_ring is the writer half of the ring file format, which the
# tests use to write ring files; nothing else in the repo writes one
EXEMPT = {"serialize_ring"}
# the Tor loop computes a resolution's differentials anyway, the
# augmentation among them, and the pinned RESOLUTION_DIGESTS and the
# d o d = 0 test (test_resolution_is_a_complex_and_minimal) read them
# through this field
EXEMPT_ATTRIBUTES = {"FreeResolution.diffs"}


def _referenced(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "getattr" and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant)):
            yield sub.args[1].value


def test_every_module_level_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(_referenced(tree))
    for folder in ("demos", "bench"):
        for path in sorted((REPO / folder).glob("*.py")):
            uses.update(_referenced(ast.parse(
                path.read_text(encoding="utf-8"))))
    definitions = {"%s:%s" % (fname, node.name): node
                   for fname, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # references made inside unused definitions do not count, so a name
    # that only dead code uses is found too
    unused = set()
    while True:
        live = uses.copy()
        for label in unused:
            live.subtract(_referenced(definitions[label]))
        found = {label for label, node in definitions.items()
                 if node.name not in EXEMPT and live[node.name]
                 <= Counter(_referenced(node))[node.name]}
        if found == unused:
            break
        unused = found
    assert not unused, "defined but never used: %s" % ", ".join(
        sorted(unused))


def _attribute_reads(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def _class_attributes(cls):
    """(name, own body or None) for each non-dunder method and property,
    annotated field and `__slots__` entry of a class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("__"):
                yield node.name, node
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            yield node.target.id, None
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__"
                      for t in node.targets)):
            for elt in node.value.elts:
                yield elt.value, None


def test_every_method_and_property_is_read():
    sources = sorted(PACKAGE.glob("*.py"))
    readers = sources + sorted((REPO / "demos").glob("*.py")) + sorted(
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
            for name, body in _class_attributes(cls):
                own = _attribute_reads(body)[name] if body else 0
                label = "%s.%s" % (cls.name, name)
                if reads[name] <= own and label not in EXEMPT_ATTRIBUTES:
                    unread.append("%s:%s" % (path.name, label))
    assert not unread, "never read as an attribute: %s" % ", ".join(unread)


def _imported_names(tree):
    """The names a module's import statements bind, but __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_used_where_imported():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name)
                  and isinstance(sub.ctx, ast.Load)}
        names = sorted(set(_imported_names(tree)) - loaded)
        if names:
            unused.append("%s: %s" % (path.stem, ", ".join(names)))
    assert not unused, "imported but never used: %s" % "; ".join(unused)
