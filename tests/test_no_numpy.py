"""The package runs without numpy: no module of it imports numpy, and a CLI
process never loads it."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import torusmirror

SRC = pathlib.Path(torusmirror.__file__).parent


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_library_has_no_numpy_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if any(name.split(".")[0] == "numpy" for name in _imported_modules(node))]
    assert not found, f"numpy imports in the library: {found}"


def test_cli_process_never_loads_numpy(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps({"torus": {"n": 1, "J": [["0", "-1"], ["1", "0"]]},
                               "phi1": [["0", "0"], ["0", "0"]],
                               "phi2": [["0", "1"], ["-1", "0"]]}))
    script = ("import sys, torusmirror.cli as cli; "
              f"code = cli.main(['classify', '--input', {str(inp)!r}, '--output', {str(out)!r}]); "
              "print(code, 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert json.loads(out.read_text()) == {"tag": "AlgebraicPlus"}
