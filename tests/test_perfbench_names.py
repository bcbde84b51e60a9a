"""Every qosf name the benchmark reads exists, and takes the keywords it is passed.

The benchmark in perfbench/ imports qosf from the source tree and reads
module attributes off it: `harness.X`, `from qosf.channel import X`, and the
(module, "name", ...) pairs its tracer patches.  It also calls some of them
with keyword arguments, such as `harness.run_sweep(spec, workers=1)`.
Deleting one of those names or keywords breaks the benchmark but no other
test, so this test parses perfbench/*.py (without importing them), looks
each name up in qosf and binds each keyword to the callable's signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_qosf(dotted) -> bool:
    return isinstance(dotted, str) and dotted.split(".")[0] == "qosf"


def _reads(tree):
    """(line, dotted qosf name) for every qosf name the module reads."""
    return _parse(tree)[0]


def _keywords(tree):
    """(line, dotted qosf name, keyword) for every keyword argument the module
    passes to a qosf name, called directly or as a module attribute."""
    return _parse(tree)[1]


def _parse(tree):
    aliases, reads, keywords = {}, [], []
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
        if isinstance(node, ast.Call):
            func, callee = node.func, None
            if isinstance(func, ast.Name):
                callee = alias(func)
            elif isinstance(func, ast.Attribute) and alias(func.value):
                callee = f"{alias(func.value)}.{func.attr}"
            if callee:
                # keyword.arg is None for **kwargs, which names nothing to check.
                keywords += [(node.lineno, callee, k.arg) for k in node.keywords if k.arg]
    return reads, keywords


_MISSING = object()


def _resolve(dotted: str):
    """The object a dotted qosf name names, or _MISSING."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return _MISSING
    return obj


def _exists(dotted: str) -> bool:
    return _resolve(dotted) is not _MISSING


def _accepts(dotted: str, keyword: str) -> bool:
    """Whether the qosf callable takes the keyword; a name that does not
    resolve to a callable is left to the name check."""
    obj = _resolve(dotted)
    if not callable(obj):
        return True
    try:
        inspect.signature(obj).bind_partial(**{keyword: None})
    except TypeError:
        return False
    return True


def _parsed_benchmark():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_qosf_name_perfbench_reads_exists():
    reads = {}
    for name, tree in _parsed_benchmark():
        for line, dotted in _reads(tree):
            reads.setdefault(dotted, f"{name}:{line}")
    # The parser must see the benchmark's main entry points, or it checks nothing.
    assert "qosf.harness.run_sweep" in reads
    missing = [f"{where}: {dotted}" for dotted, where in reads.items() if not _exists(dotted)]
    assert not missing, "perfbench/ reads names qosf no longer has:\n" + "\n".join(missing)


def test_every_keyword_perfbench_passes_is_accepted():
    calls = {}
    for name, tree in _parsed_benchmark():
        for line, dotted, keyword in _keywords(tree):
            calls.setdefault((dotted, keyword), f"{name}:{line}")
    # The parser must see the keywords of the benchmark's main calls, or it checks nothing.
    assert {("qosf.harness.run_sweep", "workers"), ("qosf.channel.apply", "noiseless"),
            ("qosf.harness.SweepSpec", "config")} <= set(calls)
    refused = [f"{where}: {dotted}(..., {keyword}=)"
               for (dotted, keyword), where in calls.items() if not _accepts(dotted, keyword)]
    assert not refused, "perfbench/ passes keywords qosf no longer takes:\n" + "\n".join(refused)


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


def test_the_parser_checks_each_keyword_passed():
    tree = ast.parse(
        "from qosf import harness\n"
        "from qosf.channel import apply\n"
        "harness.run_sweep(spec, workers=1, gone_keyword=2)\n"
        "apply(codeword, grid, 1.0, None, noiseless=True, **extra)\n"
        "harness.DEFAULT_SNR_DB.index(0.0, start=0)\n"
        "other.run_sweep(spec, ignored=1)\n"
    )
    keywords = [(dotted, keyword) for _, dotted, keyword in _keywords(tree)]
    assert keywords == [
        ("qosf.harness.run_sweep", "workers"), ("qosf.harness.run_sweep", "gone_keyword"),
        ("qosf.channel.apply", "noiseless"),
    ]
    assert [_accepts(*k) for k in keywords] == [True, False, True]
