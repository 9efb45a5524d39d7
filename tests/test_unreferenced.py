"""Every function in the package is used by the package itself."""

import ast
from pathlib import Path

import hypercheck

SRC = Path(hypercheck.__file__).resolve().parent


def test_every_function_has_a_reference_in_src():
    # a function that only tests or probes call belongs in the tests: it is
    # a name with no use in src/ other than its own def (a call, an
    # attribute read or an import)
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((path.name, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(d for d in defined if d[1] not in used) == []
