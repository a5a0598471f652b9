"""Every import in the package sits at the top of its module.

An import inside a function body can hide an import cycle between two
modules; with all imports at module level the import graph is the one a
reader sees.
"""

import ast
from pathlib import Path

import cho

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def test_no_import_inside_a_function():
    nested = []
    for path in sorted(Path(cho.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nested += [
            f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert not nested, f"imports inside functions: {', '.join(sorted(set(nested)))}"
