"""The package's import graph is the one a reader sees.

Every import sits at the top of its module: an import inside a function
body can hide an import cycle between two modules.  No module reaches
for another's private (underscore) names, by name or through an
imported module: what two modules share is public in the one that owns
it.
"""

import ast
from pathlib import Path

import cho

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _modules():
    for path in sorted(Path(cho.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _from_cho(node):
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "cho")


def test_no_import_inside_a_function():
    nested = []
    for path, tree in _modules():
        nested += [
            f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert not nested, f"imports inside functions: {', '.join(sorted(set(nested)))}"


def test_no_private_name_crosses_a_module():
    crossing = []
    for path, tree in _modules():
        imports = [node for node in ast.walk(tree) if _from_cho(node)]
        crossing += [f"{path.name}:{node.lineno} {alias.name}"
                     for node in imports for alias in node.names if _private(alias.name)]
        # Modules bound by `from . import module [as alias]`.
        modules = {alias.asname or alias.name
                   for node in imports if not node.module for alias in node.names}
        crossing += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert not crossing, f"private names of other modules: {', '.join(crossing)}"
