"""Every module-level private def or class in the package has a caller."""

import ast
from pathlib import Path

import quadcert

PACKAGE = Path(quadcert.__file__).resolve().parent


def _referenced(node: ast.AST) -> set:
    """Names that node reads, as bare names or as attributes."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_no_unreferenced_private_helpers():
    defs = []  # (file name, line, helper name, its definition node)
    refs = []  # (module-level statement, the names it reads)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            refs.append((node, _referenced(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_"):
                defs.append((path.name, node.lineno, node.name, node))
    # a reference from inside the helper itself (recursion) does not count
    unreferenced = [
        f"{fname}:{line} {name}" for fname, line, name, own in defs
        if not any(name in names for node, names in refs if node is not own)
    ]
    assert unreferenced == []
