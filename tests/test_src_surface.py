"""`src/hsep` defines only what `src/hsep` reads; what only tests call is a
function of coordinates in a `tests/*_util.py`.

A function, method, property or class is read when its name occurs in
`src/hsep` as an `ast.Name` or as the attribute of an `ast.Attribute`.
Dunders are exempt, and so are the module-level names in their module's
`__all__`.  The scan matches names only: a method `size` counts as read
wherever any `.size` is, so a name shared across classes can hide an
orphan."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hsep"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def orphans(sources):
    """"file:qualified name" of each definition in `sources`, a dict file
    name -> source text, whose name none of them reads."""
    trees = {name: ast.parse(text) for name, text in sorted(sources.items())}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    read = {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    found = []

    def visit(file, node, scope, public):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, DEFS):
                visit(file, child, scope, public)
                continue
            name = child.name
            exempt = (name.startswith("__") and name.endswith("__")) or (not scope and name in public)
            if not exempt and name not in read:
                found.append("%s:%s" % (file, ".".join(scope + (name,))))
            visit(file, child, scope + (name,), public)

    for file, tree in trees.items():
        exported = [n.value for n in tree.body if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "__all__"]
        visit(file, tree, (), set(ast.literal_eval(exported[0])) if exported else set())
    return found


def test_the_scan_finds_an_orphan():
    source = (
        "__all__ = ['Shown']\n"
        "class Shown:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def orphan(self):\n"
        "        return 2\n"
        "    def __repr__(self):\n"
        "        return 'Shown'\n"
        "def _private():\n"
        "    return Shown().used()\n"
    )
    assert orphans({"m.py": source}) == ["m.py:Shown.orphan", "m.py:_private"]
    # a read in another module counts, and so does a bare name
    assert orphans({"m.py": source, "n.py": "x = m.Shown().orphan() + _private()\n"}) == []


def test_src_defines_only_what_src_reads():
    assert orphans({path.name: path.read_text() for path in SRC.glob("*.py")}) == []
