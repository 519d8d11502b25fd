"""Every rational inverse in the library is listed here: a new call of
exactlin.invert has to be added on purpose, after checking that the algebra
does not already give the inverse (a Q-isometry's is Q g^T Q, a unimodular
change of basis often comes with its inverse)."""

import ast
from collections import Counter
from pathlib import Path

import torusmirror

SRC = Path(torusmirror.__file__).parent

# (module, enclosing function) -> number of invert calls in it
INVERT_SITES = {
    ("pairspace", "_invert_phi2"): 1,
    ("pairspace", "recover_omega"): 1,
    ("lefschetz", "_lefschetz_pair"): 1,
    ("clifford", "IsotropicSplitting.__init__"): 1,
    ("mirror", "_witness_basis"): 1,
}


def _invert_calls(tree, module):
    """(module, qualified name of the enclosing def) for each call of invert,
    as xl.invert(...) or a bare invert(...)."""
    found = Counter()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "invert":
                found[(module, scope)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_invert_call_sites_are_pinned():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += _invert_calls(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert dict(found) == INVERT_SITES
