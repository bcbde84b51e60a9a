"""Every qosf name the benchmark reads exists.

The benchmark in perfbench/ imports qosf from the source tree and reads
module attributes off it: `harness.X`, `from qosf.channel import X`, and the
(module, "name", ...) pairs its tracer patches.  Deleting one of them breaks
the benchmark but no other test, so this test parses perfbench/*.py (without
importing them) and looks each name up in qosf.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_qosf(dotted) -> bool:
    return isinstance(dotted, str) and dotted.split(".")[0] == "qosf"


def _reads(tree):
    """(line, dotted qosf name) for every qosf name the module reads."""
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if _is_qosf(name.name):
                    aliases[name.asname or "qosf"] = name.name if name.asname else "qosf"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_qosf(node.module):
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
                reads.append((node.lineno, f"{node.module}.{name.name}"))

    def constant(node):
        return node.value if isinstance(node, ast.Constant) else None

    def alias(node):
        return aliases.get(node.id) if isinstance(node, ast.Name) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and alias(node.value):
            reads.append((node.lineno, f"{alias(node.value)}.{node.attr}"))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and alias(node.elts[0]):
            # A (module, "attribute", ...) entry of a table of names to patch.
            if isinstance(constant(node.elts[1]), str):
                reads.append((node.lineno, f"{alias(node.elts[0])}.{constant(node.elts[1])}"))
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module"
              and node.args and _is_qosf(constant(node.args[0]))):
            reads.append((node.lineno, constant(node.args[0])))
    return reads


def _exists(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_every_qosf_name_perfbench_reads_exists():
    reads = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, dotted in _reads(tree):
            reads.setdefault(dotted, f"{path.name}:{line}")
    # The parser must see the benchmark's main entry points, or it checks nothing.
    assert "qosf.harness.run_sweep" in reads
    missing = [f"{where}: {dotted}" for dotted, where in reads.items() if not _exists(dotted)]
    assert not missing, "perfbench/ reads names qosf no longer has:\n" + "\n".join(missing)


def test_the_parser_finds_each_kind_of_read():
    tree = ast.parse(
        "import importlib\n"
        "from qosf import harness, schemes as s\n"
        "from qosf.channel import apply\n"
        "harness.gone_attribute\n"
        "TARGETS = [(s, 'gone_patch_target', 'label')]\n"
        "importlib.import_module('qosf.gone_module')\n"
    )
    reads = [dotted for _, dotted in _reads(tree)]
    assert sorted(reads) == sorted([
        "qosf.harness", "qosf.schemes", "qosf.channel.apply", "qosf.harness.gone_attribute",
        "qosf.schemes.gone_patch_target", "qosf.gone_module",
    ])
    assert [_exists(d) for d in sorted(reads)] == [
        True, False, True, False, True, False]
