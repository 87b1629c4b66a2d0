"""One function picks int64 or Python ints for a contraction:
`exactalg.exact_einsum`.  Any other comparison against 2⁶² or 2⁶³ in
`src/hsep` is a second, private choice of that bound, unless it is one of
the sites below, which choose no contraction dtype.  No module contracts
but through `exact_einsum`: the one `@` or numpy product call in
`src/hsep` is the `np.einsum` that `exact_einsum` makes itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hsep"

KEPT = {
    ("exactalg.py", "exact_einsum"),
    # a presentation's storage dtype
    ("exactalg.py", "_presentation"),
    # the row reduction's dtype over a prime field
    ("exactalg.py", "_field_dtype"),
    # the CRT recombination's dtype
    ("exactalg.py", "solve_quadratic"),
    # the storage dtype of an affine set's enumerated members
    ("exactalg.py", "AffineSolutionSet.member_array"),
}
# numpy's products, as functions or methods (not `outer`, which gcd.outer shares)
PRODUCTS = {"einsum", "matmul", "dot", "vdot", "inner", "tensordot", "kron"}


def _is_bound(node):
    """Whether an expression is 2**62 or 2**63, as a power, a shift or a literal."""
    if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant):
        if isinstance(node.op, ast.Pow):
            return node.left.value == 2 and node.right.value in (62, 63)
        if isinstance(node.op, ast.LShift):
            return node.left.value == 1 and node.right.value in (62, 63)
    return isinstance(node, ast.Constant) and node.value in (2**62, 2**63, 2**63 - 1)


def bound_comparisons(source):
    """(qualified name of the enclosing function or class, line) of every
    comparison that has 2⁶² or 2⁶³ in an operand."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(_is_bound(n) for operand in operands for n in ast.walk(operand)):
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def raw_products(source):
    """(line, operator or name) of every `@`, `@=` and numpy product call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in PRODUCTS:
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_the_scan_finds_a_private_bound():
    source = "class K:\n    def f(self, a, b):\n        return 'int64' if a * b < 2**63 else 'object'\n"
    assert bound_comparisons(source) == [("K.f", 3)]
    assert bound_comparisons("x = 1 if y <= 1 << 62 else 2\n") == [("", 1)]
    assert bound_comparisons("x = 1 if y < 2**61 else 2\n") == []


def test_only_exact_einsum_chooses_a_contraction_dtype():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name, name, line) for name, line in bound_comparisons(path.read_text())]
    stray = ["%s:%d (%s)" % (file, line, name or "module") for file, name, line in found if (file, name) not in KEPT]
    assert stray == [], "int64 bounds outside exactalg.exact_einsum at %s" % ", ".join(stray)
    assert ("exactalg.py", "exact_einsum") in {(file, name) for file, name, _ in found}


def test_the_scan_finds_a_raw_product():
    source = "def f(a, b):\n    c = a @ b\n    c @= b\n    return np.einsum('ij->i', c) + a.dot(b) + np.kron(a, b)\n"
    assert raw_products(source) == [(2, "@"), (3, "@"), (4, "dot"), (4, "einsum"), (4, "kron")]
    assert raw_products("x = exact_einsum('ij,jk->ik', a, b) * 2\n") == []


def test_every_module_contracts_only_through_exact_einsum():
    found = [(path.name, line, name) for path in sorted(SRC.glob("*.py")) for line, name in raw_products(path.read_text())]
    tree = ast.parse((SRC / "exactalg.py").read_text())
    own = next(node for node in tree.body if getattr(node, "name", None) == "exact_einsum")
    kept = [(file, line, name) for file, line, name in found if file == "exactalg.py" and own.lineno <= line <= own.end_lineno]
    assert [name for _, _, name in kept] == ["einsum"]
    stray = ["%s:%d (%s)" % site for site in found if site not in kept]
    assert stray == [], "raw products outside exactalg.exact_einsum at %s" % ", ".join(stray)
