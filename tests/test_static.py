"""Static checks of the runtime's source, `src/vinery`, read as syntax trees."""

import ast
import pathlib
import sys

RUNTIME = pathlib.Path(__file__).resolve().parent.parent / "src" / "vinery"


def _trees() -> dict[pathlib.Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(RUNTIME.rglob("*.py"))}


def test_the_runtime_imports_only_the_standard_library():
    outside = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, "imports outside the standard library:\n" + "\n".join(outside)


def test_the_runtime_imports_no_name_it_never_uses():
    unused = []
    for path, tree in _trees().items():
        if path.name == "__init__.py":
            continue  # its imports are re-exports
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]
    assert not unused, "imported names never used:\n" + "\n".join(unused)


def test_every_private_runtime_function_has_a_runtime_caller():
    """A helper that only the tests call belongs in tests/oracles.py."""
    trees = _trees()
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    unread = [f"{path}:{node.lineno}: {node.name}" for path, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and node.name not in read]
    assert not unread, "private functions the runtime never reads:\n" + "\n".join(unread)


def test_the_runtime_checks_nothing_with_a_plain_assert():
    found = [f"{path}:{node.lineno}" for path, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "plain assert in the runtime (raise a named error instead):\n" + "\n".join(found)
