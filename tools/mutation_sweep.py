"""A sampled mutation sweep of src/torusmirror against the tier-1 tests.

Each mutant is one edit of the source text at one AST site, and each edit
leaves valid Python:

- a binary + or -, ^ or |, // or %, swapped for its partner;
- a comparison <, <=, >, >=, == or != swapped for its partner;
- an `and` or `or` swapped for the other;
- a unary `not` or - dropped;
- an int constant raised by 1.

The sites are listed in a fixed order and sampled with random.Random(seed),
so a seed names the same mutants for the same source.  The mutants run one
at a time on a temporary copy of the repository: each writes its file, runs
tier-1 with -x under a timeout, and puts the file back.  Bytecode is not
written, so no mutant's .pyc reaches the next one.  A mutant is killed when
pytest fails (a test past the per-test limit of tests/conftest.py fails the
run too), hung when the timeout ends it, and survives when every test
passes; a survivor is either equivalent or a gap in the tests, which only a
reader can decide.  Before the first mutant, tier-1 runs once on the
unmutated copy: if that run does not pass, every mutant would read killed,
so the sweep stops there.  The exit status is nonzero when the sweep stops
there or when a mutant hangs, and 0 otherwise, survivors included.

    python3 tools/mutation_sweep.py --seed 1

Run from anywhere; it needs only the standard library and the packages
tier-1 needs.  One line per mutant goes to standard output, then a summary.
"""

import argparse
import ast
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "torusmirror"
COUNT = 15  # mutants per seed
TIMEOUT_S = 300.0  # seconds for one tier-1 run before the mutant counts as hung

BINARY = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.BitXor: ("^", "|"),
          ast.BitOr: ("|", "^"), ast.FloorDiv: ("//", "%"), ast.Mod: ("%", "//")}
COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
           ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
BOOL = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
UNARY = {ast.Not: "not", ast.USub: "-"}


def _char_pos(lines, lineno, byte_col):
    """The (line, column) of an AST position in characters, as tokenize
    counts them; the AST counts UTF-8 bytes."""
    return lineno, len(lines[lineno - 1].encode()[:byte_col].decode())


def _token_between(tokens, start, end, text):
    """The first token spelled text that lies between two positions."""
    return next(t for t in tokens if start <= t.start and t.end <= end and t.string == text)


def sites(path):
    """Every mutant of one file: (start, end, old, new), where start and end
    are the (line, column) positions of the text old, which new replaces."""
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    tree = ast.parse(source)
    # an f-string is one token before Python 3.12, with no operator token inside
    in_fstrings = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                   for inner in ast.walk(node)}

    def start(node):
        return _char_pos(lines, node.lineno, node.col_offset)

    def end(node):
        return _char_pos(lines, node.end_lineno, node.end_col_offset)

    found = []

    def swap(left, right, old, new):
        tok = _token_between(tokens, end(left), start(right), old)
        found.append((tok.start, tok.end, old, new))

    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
            swap(node.left, node.right, *BINARY[type(node.op)])
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE:
                    swap(operands[i], operands[i + 1], *COMPARE[type(op)])
        elif isinstance(node, ast.BoolOp):
            swap(node.values[0], node.values[1], *BOOL[type(node.op)])
        elif isinstance(node, ast.UnaryOp) and type(node.op) in UNARY:
            tok = _token_between(tokens, start(node), start(node.operand), UNARY[type(node.op)])
            # the operator and any space up to the next token, which may be a
            # parenthesis that the operand's position leaves out
            after = tokens[tokens.index(tok) + 1].start
            found.append((tok.start, after, _text(lines, tok.start, after), ""))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((start(node), end(node), _text(lines, start(node), end(node)),
                          str(node.value + 1)))
    return sorted(found)


def _text(lines, start, end):
    """The source text from one (line, column) position to another."""
    (l0, c0), (l1, c1) = start, end
    if l0 == l1:
        return lines[l0 - 1][c0:c1]
    return lines[l0 - 1][c0:] + "".join(lines[l0:l1 - 1]) + lines[l1 - 1][:c1]


def apply(source, site):
    """source with one site's text replaced."""
    (l0, c0), (l1, c1), _old, new = site
    lines = source.splitlines(keepends=True)
    return ("".join(lines[:l0 - 1]) + lines[l0 - 1][:c0] + new
            + lines[l1 - 1][c1:] + "".join(lines[l1:]))


def describe(site):
    _start, _end, old, new = site
    return f"`{old}` -> `{new}`" if new else f"drop `{old.strip()}`"


def run_tier1(copy):
    """'killed', 'survived' or 'hung', and the seconds taken."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    began = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors"],
                            cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the CLI tests start children of their own: end the whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung", time.monotonic() - began
    return ("survived" if code == 0 else "killed"), time.monotonic() - began


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    files = sorted((ROOT / PACKAGE).glob("*.py"))
    every = [(path.name, site) for path in files for site in sites(path)]
    chosen = random.Random(args.seed).sample(every, min(COUNT, len(every)))
    print(f"{len(every)} sites in {PACKAGE}; seed {args.seed}, {len(chosen)} mutants", flush=True)

    outcomes = []
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        baseline, seconds = run_tier1(copy)
        if baseline != "survived":
            sys.exit(f"tier-1 does not pass on the unmutated copy ({baseline}, "
                     f"{seconds:.0f} s): no mutant can be judged")
        print(f"unmutated copy passes ({seconds:.0f} s)", flush=True)
        for number, (name, site) in enumerate(chosen, 1):
            target = copy / PACKAGE / name
            original = target.read_text()
            target.write_text(apply(original, site))
            try:
                outcome, seconds = run_tier1(copy)
            finally:
                target.write_text(original)
            outcomes.append(outcome)
            print(f"{number:3d} {name}:{site[0][0]} {describe(site)}: "
                  f"{outcome} ({seconds:.0f} s)", flush=True)
    print("summary: " + ", ".join(f"{outcomes.count(o)} {o}"
                                  for o in ("killed", "hung", "survived")))
    return 1 if "hung" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main())
