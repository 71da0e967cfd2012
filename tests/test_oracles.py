"""The reference implementations must not lean on the code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_oracles_do_not_import_the_package():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call) and _callee(node) in ("__import__", "import_module"):
            imported += [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
    offending = [
        name for name in imported
        if name.startswith(".") or name.split(".")[0] == "cvtxor"
    ]
    assert not offending, offending
