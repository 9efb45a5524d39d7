"""Every function in the package is used by the package itself."""

import ast
from pathlib import Path

import hypercheck

SRC = Path(hypercheck.__file__).resolve().parent


def _unreferenced(kinds: tuple) -> list[tuple[str, str]]:
    """The (file, name) of each def of one of ``kinds`` in src/ whose name has
    no use in src/ other than its own def (a call, an attribute read, an
    import, or any other mention of the name)."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, kinds):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((path.name, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(d for d in defined if d[1] not in used)


def test_every_function_has_a_reference_in_src():
    # a function that only tests or probes call belongs in the tests
    assert _unreferenced((ast.FunctionDef, ast.AsyncFunctionDef)) == []


def test_every_class_has_a_reference_in_src():
    # likewise a class that nothing in src/ builds, raises, checks or names
    assert _unreferenced((ast.ClassDef,)) == []


def test_every_module_level_import_is_read_in_its_module():
    # an import that its module never reads is dead weight, unless the
    # module re-exports it by listing it in __all__
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append((path.name, name))
    assert unread == []
