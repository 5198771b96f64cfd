"""The test layer's layout: the tests draw their inputs from ``tools/inputs.py``
and their oracles from ``tools/reference.py``, never from one another, and
every input is drawn with ``random.Random``, never with hypothesis."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imports(path):
    """``(line, module, names)`` for every import statement in ``path``, nested ones included."""
    todo = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or "", tuple(alias.name for alias in node.names)
        # an import is a statement: only the statement lists can hold one
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            todo += getattr(node, field, ())


def _is_test_module(module):
    top = module.split(".")[0]
    return top in ("conftest", "tests") or top.startswith("test_")


def test_no_test_module_is_imported_as_a_library():
    found = [
        f"{path.name}:{line} imports {module}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for line, module, _ in _imports(path)
        if _is_test_module(module)
    ]
    assert found == []


def test_the_tool_modules_use_no_test_module_and_no_private_graypol_name():
    found = []
    for name in ("inputs.py", "reference.py"):
        for line, module, names in _imports(ROOT / "tools" / name):
            parts = module.split(".")
            private = [n for n in parts + list(names) if n.startswith("_")] if parts[0] == "graypol" else []
            if _is_test_module(module) or private:
                found.append(f"{name}:{line} imports {module} {private}")
    assert found == []


def test_no_test_or_tool_module_imports_hypothesis():
    found = [
        f"{path.parent.name}/{path.name}:{line} imports {module}"
        for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
        for line, module, _ in _imports(path)
        if module.split(".")[0] == "hypothesis"
    ]
    assert found == []
