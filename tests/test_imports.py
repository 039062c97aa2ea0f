"""No module of the package imports a private name from another one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "catspan"


def test_no_private_imports_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").startswith("catspan"):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []
