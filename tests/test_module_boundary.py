"""No qosf module imports another qosf module's private (_-prefixed) names.

A leading underscore marks a name as its module's own business; once another
module imports it, it can no longer change without breaking that reader.
This test parses src/qosf/*.py (without importing them) and lists every
`from .x import _y` or `from qosf.x import _y`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qosf"


def _private_imports(tree):
    """(line, module, name) for every _-prefixed name imported from qosf."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "qosf":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def test_detector_finds_private_imports():
    code = ("from .decoder import _PRODUCT_CANDIDATES, EXHAUSTIVE\n"
            "from qosf.harness import _chunk_cap\n"
            "from . import _private\n"
            "from numpy import _core\n"
            "from __future__ import annotations\n")
    assert _private_imports(ast.parse(code)) == [
        (1, ".decoder", "_PRODUCT_CANDIDATES"), (2, "qosf.harness", "_chunk_cap"),
        (3, ".", "_private")]


def test_no_module_imports_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = [f"{path.name}:{line}: from {module} import {name}"
             for path in paths
             for line, module, name in _private_imports(ast.parse(path.read_text("utf-8")))]
    assert not found, "\n".join(found)
