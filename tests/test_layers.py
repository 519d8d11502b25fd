"""The package's import layers: each module imports exactly the sibling
modules listed here, and only at module level, where a cycle would fail at
import time.  And its public surface: every public name that no other
module, no benchmark file and no use in its own module reaches, outside the
names listed here, is listed here with the reason it is kept.  And no module
of the package or of the tests imports a name at module level that it never
reads.  And every functools cache of the package is pinned with its bound."""

import ast
import importlib
import pathlib

import torusmirror

SRC = pathlib.Path(torusmirror.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"

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


def _unused_imports(tree):
    """Names bound by the module-level imports of one file that the file never
    reads: as a Name it loads, or as a parameter of a function, since pytest
    passes fixtures by parameter name."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
    return {name: line for name, line in bound.items() if name not in read}


def test_no_unused_imports():
    unused = [f"{path.parent.name}/{path.name}:{line} {name}"
              for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
              for name, line in _unused_imports(ast.parse(path.read_text())).items()]
    assert not unused, f"module-level imports never read: {unused}"


# public names that only the tests reach, directly or through other names
# listed here -> why each is kept
TEST_ONLY = {
    "clifford.clifford_involution": "the main involution z -> z' of the Clifford algebra",
    "clifford.exterior_exp": "the exponential of an element of the exterior algebra",
    "clifford.pure_spinor": "the vacuum of a Lagrangian given from outside; ROADMAP items 2-6 "
                            "build on it",
    "clifford.spin_lift": "the lift of a map given from outside; ROADMAP items 2-6 build on it",
    "corresp.c1_poincare": "the first Chern class of the Poincare bundle",
    "corresp.pc_exp": "the exponential of a class, such as ch(P) from c1_poincare",
    "corresp.pc_mul": "the cup product on A x B",
    "corresp.push_forward_correspondence": "the map on H*(A) -> H*(B) that a kernel class induces",
    "corresp.reverse_correspondence": "the correspondence read from B to A",
    "corresp.swap_factors": "a class on A x B read on B x A",
    "errors.DifferentSource": "the error of comparing certificates of two source pairs",
    "exactlin.primitive_int": "the primitive integer matrix on the ray of a rational one",
    "lefschetz.chi_form": "the invariant pairing chi on H*(A)",
    "lefschetz.lefschetz_e": "the cup product e_kappa, without the hard Lefschetz f_kappa",
    "mirror.compare_mirror_isos": "compares two mirror certificates",
    "pairspace.conjugate_pair": "the conjugate pair phi1 - i phi2",
    "pairspace.q_left": "the product Q.m with the hyperbolic form",
    "siegel.act_on_pair": "the Siegel action as a weak pair",
    "siegel.blocks": "the four Gamma/Gamma* blocks of a group element",
    "siegel.stabilizer_check": "the stabilizer of omega in the symmetry group",
    "siegel.translation_element": "the translations omega -> omega + eta",
    "siegel.u_membership": "membership of the unimodular group U(Lambda_A)",
    "torus.check_polarization": "the polarization test of a Neron-Severi class",
    "torus.dual_torus": "the dual torus",
    "torus.find_polarization": "the README's closed-form polarization",
}


def _public_names(tree, module):
    """module.name of each public module-level def and class, and
    module.Class.name of each public method of a public class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _import_source(node):
    """The sibling module of `from .module import ...` or `from
    torusmirror.module import ...`; "" for `from . import ...` and `from
    torusmirror import ...`; None for any other statement."""
    if not isinstance(node, ast.ImportFrom):
        return None
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and (node.module or "").split(".")[0] == "torusmirror":
        return node.module.partition(".")[2]
    return None


def _reached(tree, own=None):
    """{owner: (module.name reached, attribute names read)} in one file, per
    owner: module.name of each module-level def and class of the package
    module own, and None for the rest of the file (all of it outside the
    package).  A name is reached where it is read as a name imported from a
    sibling module, as an attribute of a sibling module (bound by an import,
    or as torusmirror.module), or, in its own module, outside its own
    definition."""
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        source = _import_source(node)
        if source == "":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif source:
            imported.update((a.asname or a.name, f"{source.split('.')[0]}.{a.name}")
                            for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update((a.asname, a.name.split(".")[1]) for a in node.names
                           if a.asname and a.name.startswith("torusmirror."))
    out = {}
    for top in tree.body:
        name = getattr(top, "name", None) if own is not None else None
        found, attrs = out.setdefault(name and f"{own}.{name}", (set(), set()))
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    found.add(imported[node.id])
                elif own is not None and node.id != name:
                    found.add(f"{own}.{node.id}")
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                v = node.value
                if isinstance(v, ast.Name) and v.id in aliases:
                    found.add(f"{aliases[v.id]}.{node.attr}")
                elif (isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name)
                      and v.value.id == "torusmirror"):
                    found.add(f"{v.attr}.{node.attr}")
    return out


def test_public_names_reached_only_by_tests_are_pinned():
    public, graph = [], {}
    trees = [(tree, name) for name, tree in _trees().items()]
    trees += [(ast.parse(path.read_text(), filename=str(path)), None)
              for path in sorted(BENCH.glob("*.py"))]
    for tree, name in trees:
        if name is not None:
            public += _public_names(tree, name)
        for owner, (f, a) in _reached(tree, name).items():
            found, attrs = graph.setdefault(owner, (set(), set()))
            found |= f
            attrs |= a
    # follow what is reached from the benchmark, from module-level code and
    # from the public names not pinned here, so a name that only pinned names
    # reach, directly or through private helpers, is unreached
    todo = [None] + [name for name in graph if name is not None and name not in TEST_ONLY
                     and not name.split(".")[1].startswith("_")]
    found, attrs, seen = set(), set(), set()
    while todo:
        owner = todo.pop()
        if owner in seen or owner not in graph:
            continue
        seen.add(owner)
        found |= graph[owner][0]
        attrs |= graph[owner][1]
        todo += graph[owner][0]
    # a method is reached wherever an attribute of its name is read
    unreached = {name for name in public if name not in found
                 and (name.count(".") < 2 or name.rsplit(".", 1)[1] not in attrs)}
    new = sorted(unreached - TEST_ONLY.keys())
    assert not new, f"public names that only the tests reach: {new}"
    stale = sorted(TEST_ONLY.keys() - unreached)
    assert not stale, f"pinned names that are gone or reached outside the tests: {stale}"


# every functools cache of the package -> its maxsize: the tables built once
# per n take that one int and are unbounded, as they are few and read-only;
# the spin check keeps the one element it checked last, so is_spin then
# r_of_z on equal entries run one check
CACHES = {
    "clifford._generator_maps": None,
    "clifford._source_terms": None,
    "clifford._complement_signs": None,
    "clifford._involution_form": None,
    "clifford._last_spin_conjugation": 1,
    "corresp._diagram_layout": None,
}
CACHE_MAKERS = {"cache", "lru_cache"}


def _name(node):
    """The name a decorator is read by: f for f, m.f and f(...)."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_caches_are_pinned_with_their_bounds():
    found, stray = {}, []
    for module, tree in _trees().items():
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    if _name(d) in CACHE_MAKERS:
                        found[f"{module}.{node.name}"] = node
                        decorators |= {id(d), id(getattr(d, "func", d))}
        # functools.cache or lru_cache read anywhere but on a def, as in
        # f = lru_cache(g), would make a cache that this test cannot see
        stray += [f"{module}.py:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in decorators
                  and isinstance(node.ctx, ast.Load) and _name(node) in CACHE_MAKERS]
    assert not stray, f"caches made outside a decorator: {stray}"
    assert sorted(found) == sorted(CACHES)
    for name, bound in CACHES.items():
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"torusmirror.{module}"), attr)
        assert fn.cache_parameters()["maxsize"] == bound, name
        if bound is None:
            # a table per n: its one parameter is the int n, not a matrix
            args = found[name].args
            assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["n"], name
            assert args.vararg is None and args.kwarg is None, name
            assert fn(1) is fn(1), name
