"""Modules are fixed at construction: no code in the package, other than
`Module.__init__` itself, assigns or deletes an attribute of a Module.

The scan is by attribute name: `x.name = ...`, `setattr(x, "name", ...)`
and `del x.name` count whenever `name` is one of `Module.__slots__`.
Inside the methods of another class, `self.name` is that class's own
attribute and is not counted.
"""

import ast
from pathlib import Path

import qdual

PACKAGE = Path(qdual.__file__).resolve().parent
SLOTS = frozenset(qdual.Module.__slots__)
SETTERS = ("setattr", "__setattr__", "delattr", "__delattr__")


class _Writes(ast.NodeVisitor):
    """Collects "file:line attr" for each write of a Module attribute."""

    def __init__(self, fname):
        self.fname = fname
        self.scope = []          # (class name, function name) pairs
        self.found = []

    def visit_ClassDef(self, node):
        self.scope.append((node.name, None))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        cls = self.scope[-1][0] if self.scope else None
        self.scope.append((cls, node.name))
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _own(self, target):
        """Whether `target` is `self.attr` where that is allowed."""
        if not (isinstance(target, ast.Name) and target.id == "self"
                and self.scope):
            return False
        cls, func = self.scope[-1]
        return cls is not None and (cls != "Module" or func == "__init__")

    def _report(self, node, attr):
        self.found.append("%s:%d %s" % (self.fname, node.lineno, attr))

    def visit_Attribute(self, node):
        if (isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in SLOTS
                and not self._own(node.value)):
            self._report(node, node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if (name in SETTERS and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in SLOTS
                and not self._own(node.args[0])):
            self._report(node, node.args[1].value)
        self.generic_visit(node)


def module_attribute_writes(package):
    found = []
    for path in sorted(Path(package).glob("*.py")):
        visitor = _Writes(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def test_only_module_init_assigns_module_attributes():
    writes = module_attribute_writes(PACKAGE)
    assert not writes, "Module attributes written after construction: " \
        + ", ".join(writes)


def test_scan_sees_each_kind_of_write(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Module:\n"
        "    def __init__(self):\n"
        "        self.name = 1\n"
        "    def rename(self):\n"
        "        self.name = 2\n"
        "class Ring:\n"
        "    def __init__(self):\n"
        "        self.name = 3\n"
        "def f(mod):\n"
        "    mod.name = 'k'\n"
        "    setattr(mod, 'action', None)\n"
        "    object.__setattr__(mod, 'dim', 0)\n"
        "    del mod.ring\n"
        "    mod.other = 4\n", encoding="utf-8")
    assert module_attribute_writes(tmp_path) == [
        "a.py:5 name", "a.py:10 name", "a.py:11 action", "a.py:12 dim",
        "a.py:13 ring"]
