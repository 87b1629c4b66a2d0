"""One place in `src/hsep` decodes JSON: `documents.loads`, which every
document file goes through (`documents.load`).  Any other use of json's
decoding API in `src/hsep` is a second decoder, which would not share
repeated objects, except the one kept site below, which reads an option
string, not a document."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hsep"

# `hsep ring standard --params '{...}'`
KEPT = {("cli.py", "cmd_ring_standard")}
# json's decoding API: the module functions, the decoder and scanner
# classes, and what json.decoder and json.scanner define
DECODING = {"load", "loads", "JSONDecoder", "raw_decode", "scan_once", "make_scanner", "JSONObject", "JSONArray", "scanstring"}


def decode_sites(source):
    """(qualified name of the enclosing function or class, line) of every
    use of json's decoding API: an attribute of `json` in DECODING, and
    an import from json.decoder or json.scanner."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in DECODING and getattr(child.value, "id", None) == "json":
                found.append((".".join(scope), child.lineno))
            elif isinstance(child, ast.ImportFrom) and child.module in ("json.decoder", "json.scanner"):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_scan_finds_a_decoder():
    source = (
        "import json\n"
        "from json.decoder import JSONObject\n"
        "class Loader:\n"
        "    def read(self, fh):\n"
        "        return json.load(fh), json.loads('1'), json.JSONDecoder().raw_decode('2')\n"
        "def dump(x):\n"
        "    return json.dumps(x), json.JSONDecodeError\n"
    )
    assert decode_sites(source) == [("", 2), ("Loader.read", 5), ("Loader.read", 5), ("Loader.read", 5)]


def test_one_document_decoder():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name, name, line) for name, line in decode_sites(path.read_text())]
    stray = ["%s:%d (%s)" % (file, line, name or "module") for file, name, line in found if file != "documents.py" and (file, name) not in KEPT]
    assert stray == [], "JSON decoded outside documents.loads at %s" % ", ".join(stray)
    assert {(file, name) for file, name, _ in found if file != "documents.py"} == KEPT
    # inside the module, the one decoder is loads: load reads a file through it
    tree = ast.parse((SRC / "documents.py").read_text())
    load = next(node for node in tree.body if getattr(node, "name", None) == "load")
    assert [n.func.id for n in ast.walk(load) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)].count("loads") == 1
