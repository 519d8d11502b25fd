"""The package's import layers: each module imports exactly the sibling
modules listed here, and only at module level, where a cycle would fail at
import time."""

import ast
import pathlib

import torusmirror

SRC = pathlib.Path(torusmirror.__file__).parent

LAYERS = {
    "__init__": set(),
    "errors": set(),
    "exactlin": {"errors"},
    "serialize": {"exactlin"},
    "torus": {"errors", "exactlin"},
    "pairspace": {"errors", "exactlin", "torus"},
    "clifford": {"errors", "exactlin", "pairspace"},
    "siegel": {"errors", "exactlin", "pairspace"},
    "corresp": {"clifford"},
    "lefschetz": {"clifford", "errors", "exactlin", "torus"},
    "mirror": {"errors", "exactlin", "pairspace", "siegel", "torus"},
    "cli": {"clifford", "corresp", "errors", "lefschetz", "mirror", "pairspace",
            "serialize", "siegel", "torus"},
}


def _sibling_imports(node):
    """Sibling modules named by one import statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            base = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "torusmirror":
            base = node.module.partition(".")[2]
        else:
            return set()
        return {base.split(".")[0]} if base else {alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("torusmirror.")}
    return set()


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_sibling_imports_match_the_layers():
    found = {name: set().union(*(_sibling_imports(node) for node in ast.walk(tree)))
             for name, tree in _trees().items()}
    assert found == LAYERS


def test_sibling_imports_are_at_module_level():
    nested = []
    for name, tree in _trees().items():
        top = set(map(id, tree.body))
        nested += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                   if _sibling_imports(node) and id(node) not in top]
    assert not nested, f"function-local imports of sibling modules: {nested}"

