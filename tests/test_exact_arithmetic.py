"""Static checks that every decision in the package is exact: no floating
point outside the int64 kernels, and the rational element type `QD` only
where the representability decider needs it."""

import ast
from pathlib import Path

import quadcert

PACKAGE = Path(quadcert.__file__).resolve().parent

# true divisions that are reviewed to be exact: each divides QD values in
# the represent decider, or Fractions in the verifier
EXACT_DIVISIONS = {
    ("certify.py", "_udu", "A[i][k] / p"),
    ("certify.py", "_inverse_diagonal", "w[k] * w[k] / d[k]"),
    ("certify.py", "dfs", "rt / (d[t] * 2)"),
    ("verify.py", "_v_violators", "Fraction(nb) / lo1"),
}
FLOAT_MATH = {"ceil", "floor", "sqrt"}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")


def _float_uses(name: str, source: str, reviewed: set):
    """(line, what) for each float literal, float() call, math ceil/floor/
    sqrt and true division that is not on the reviewed list; the reviewed
    divisions met are added to `reviewed`."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{a.name}") for a in node.names
                         if a.name in FLOAT_MATH)
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            key = (name, func, ast.get_source_segment(source, node))
            if key in EXACT_DIVISIONS:
                reviewed.add(key)
            else:
                found.append((node.lineno, f"{func}: {key[2]}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_no_floating_point_in_decisions():
    """The int64 kernels run on numpy by design; nothing else may use
    floats.  Every reviewed division must still exist, so that a stale entry
    cannot admit a new division of the same text."""
    reviewed = set()
    found = [(name, line, what) for name, source in _modules() if name != "_kernels.py"
             for line, what in _float_uses(name, source, reviewed)]
    assert found == []
    assert reviewed == EXACT_DIVISIONS


def test_qd_confined_to_the_represent_decider():
    """Only `qd` and `certify` name QD, and `latbox` takes nothing from `qd`
    but the integer primitives."""
    users = set()
    latbox_imports = set()
    for name, source in _modules():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and node.id == "QD":
                users.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module == "qd":
                if any(a.name == "QD" for a in node.names):
                    users.add(name)
                if name == "latbox.py":
                    latbox_imports |= {a.name for a in node.names}
    assert users == {"qd.py", "certify.py"}
    assert latbox_imports == {"_floor_pair", "_sign_pair", "frac_sqrt_outer"}
