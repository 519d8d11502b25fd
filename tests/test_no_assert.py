"""No invariant in the library is guarded by `assert`, which `python -O`
strips: every check must raise explicitly."""

import ast
from pathlib import Path

import torusmirror

SRC = Path(torusmirror.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
