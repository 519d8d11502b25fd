"""Hard Lefschetz sl2-triples on H*(A), the Neron-Severi Lie algebra, the
pairing chi, and the spinor image of so(Lambda, Q)."""

from functools import cache, cached_property
from itertools import combinations
from math import gcd
from types import MappingProxyType

from . import exactlin as xl
from .clifford import _complement_signs, _generator_maps, popcount
from .errors import NoHardLefschetz, NotNSForm, NotSkew, SingularMatrix
from .torus import as_form, is_ns_form


class GradedOperator:
    """A matrix on H* = Lambda Gamma* homogeneous of fixed cohomological degree,
    held as num / den, the layout of xl.Matrix: `num` its nonzero entries
    {row * size + col: int} scaled by `den`, a positive int with
    gcd(den, num) = 1."""

    def __init__(self, size, num, den, degree):
        for key in num:
            i, j = divmod(key, size)
            if popcount(i) - popcount(j) != degree:
                raise ValueError("operator is not homogeneous of the stated degree")
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: v // g for key, v in num.items()}
            den //= g
        self.size = size
        self.num = num
        self.den = den
        self.degree = degree

    @classmethod
    def _over(cls, size, num, den, degree):
        """An operator over entries that a per-n table checked when it was
        built: homogeneous of the degree and canonical over den.  Nothing is
        checked again, and num is shared, read-only, with the table."""
        op = cls.__new__(cls)
        op.size, op.num, op.den, op.degree = size, num, den, degree
        return op

    @cached_property
    def mat(self):
        """The dense size x size matrix, built when first read."""
        rows = [[0] * self.size for _ in range(self.size)]
        for key, v in self.num.items():
            i, j = divmod(key, self.size)
            rows[i][j] = v
        return xl._wrap(rows, self.den, self.size)

    @cached_property
    def _by_row(self):
        """{row: [(col, num entry), ...]}, for products."""
        out = {}
        for key, v in self.num.items():
            i, j = divmod(key, self.size)
            out.setdefault(i, []).append((j, v))
        return out


class LieAlgebraBasis:
    def __init__(self, ops):
        self.ops = ops
        self.dim = len(ops)


def _bracket(a, b):
    """Nonzero entries of [a, b] = ab - ba, scaled by a.den * b.den, as ints."""
    size = a.size
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        y_rows = y._by_row
        for key, u in x.num.items():
            i, k = divmod(key, size)
            row = y_rows.get(k)
            if row:
                base, su = i * size, sign * u
                for j, v in row:
                    out[base + j] = out.get(base + j, 0) + su * v
    return {key: v for key, v in out.items() if v}


@cache
def _grading_entries(n):
    """The entries of h, built and checked once per n: h acts on H^k by k - n."""
    size = 1 << (2 * n)
    h = GradedOperator(size, {m * size + m: popcount(m) - n for m in range(size)
                              if popcount(m) != n}, 1, 0)
    return MappingProxyType(h.num)


def grading_operator(n):
    """h acts on H^k by k - n; a new operator over the entries of
    _grading_entries(n)."""
    return GradedOperator._over(1 << (2 * n), _grading_entries(n), 1, 0)


def _product(gi, gj, size):
    """Entries of cor(e_i) cor(e_j), from the column maps of the two
    generators: a product of signed partial permutations is one."""
    out = {}
    for m, image in enumerate(gj):
        if image is not None:
            second = gi[image[0]]
            if second is not None:
                out[second[0] * size + m] = image[1] * second[1]
    return out


@cache
def _half_brackets(n):
    """op_ab = (1/2)[cor(e_a), cor(e_b)] for each pair (a, b) of
    combinations(range(4n), 2), in that order: {(a, b): (num, den, degree)},
    built once per n, each through the GradedOperator check of homogeneity,
    and read-only, the table and each num alike.

    Contraction carries degree -1 and wedging +1.  Two generators
    anticommute, so (1/2)[u, v] = uv, the single product of the two over
    den 1, except for the pairs (l_k, x_k), whose anticommutator is 1: there
    (1/2)[u, v] = uv - 1/2, an operator over den 2.
    """
    d = 2 * n
    size = 1 << d
    gens = _generator_maps(n)
    deg = [-1 if k < d else 1 for k in range(2 * d)]
    table = {}
    for a, b in combinations(range(2 * d), 2):
        num, den = _product(gens[a], gens[b], size), 1
        if b == a + d:
            # l_k x_k keeps the monomials without x_k: 2 l_k x_k - 1 is diagonal
            num, den = {m * size + m: 2 * num.get(m * size + m, 0) - 1 for m in range(size)}, 2
        op = GradedOperator(size, num, den, deg[a] + deg[b])
        table[a, b] = (MappingProxyType(op.num), op.den, op.degree)
    return MappingProxyType(table)


def _form_operator(c, first, n, degree):
    """sum_{i<j} c_ij op_{first+i, first+j} for a 2n x 2n matrix c, from the
    half-brackets of the 2n generators from first on: the contractions from
    0, the wedges from 2n.  Those anticommute pairwise, so each op is over
    den 1, and the sum is an int operator over c.den."""
    table = _half_brackets(n)
    num = {}
    for i, j in combinations(range(2 * n), 2):
        cij = c.num[i][j]
        if cij:
            for key, v in table[first + i, first + j][0].items():
                num[key] = num.get(key, 0) + cij * v
    return GradedOperator(1 << (2 * n), {key: v for key, v in num.items() if v}, c.den, degree)


def _skew_form(kappa):
    c = as_form(kappa)
    rows, cols = c.shape
    if rows != cols or rows % 2 or not xl.is_skew(c):
        raise NotSkew("kappa must be a skew matrix of even size")
    return c


def lefschetz_e(kappa):
    """Cup product with kappa = sum_{i<j} c_ij x_i ^ x_j; degree +2, nilpotent.

    It is the spinor operator sum_{i<j} c_ij (1/2)[cor(x_i), cor(x_j)] =
    sum_{i<j} c_ij cor(x_i) cor(x_j), over c.den.
    """
    c = _skew_form(kappa)
    d = c.shape[0]
    return _form_operator(c, d, d // 2, 2)


def _lefschetz_pair(kappa):
    """(e_kappa, f_kappa), each built once, after the check [e, f] = h; and
    (e_kappa, None) when kappa is degenerate, so has no f_kappa."""
    c = _skew_form(kappa)
    d = c.shape[0]
    e = _form_operator(c, d, d // 2, 2)
    try:
        inverse = xl.invert(c)
    except SingularMatrix:
        return e, None
    f = _form_operator(inverse, 0, d // 2, -2)
    scale = e.den * f.den
    if _bracket(e, f) != {key: v * scale for key, v in grading_operator(d // 2).num.items()}:
        raise RuntimeError("[e_kappa, f_kappa] != h")
    return e, f


def lefschetz_f(kappa):
    """The unique degree -2 operator with [e_kappa, f_kappa] = h, namely
    sum_{i<j} (kappa^{-1})_ij (1/2)[cor(l_i), cor(l_j)].

    It exists exactly when kappa is nondegenerate.  A symplectic basis over Q
    makes H* a tensor product of n copies of the sl2-module H*(curve), on
    which e_kappa satisfies hard Lefschetz; a degenerate kappa has kappa^n = 0,
    so e_kappa^n: H^0 -> H^{2n} is not an isomorphism.  It is unique because
    two solutions differ by an element of ker(ad e) of ad(h)-weight -2, and
    ker(ad e) has only weights >= 0 in a finite-dimensional sl2-module.
    """
    f = _lefschetz_pair(kappa)[1]
    if f is None:
        raise NoHardLefschetz("kappa is degenerate, so e_kappa^n: H^0 -> H^2n is zero")
    return f


def generate_g_ns(A, kappas):
    """Bracket closure of { e_k, f_k, h } inside gl(H*(A)).  The echelon of
    the closure is its only span test, so a repeated class adds nothing."""
    gens, settled = [], set()
    for kappa in kappas:
        c = as_form(kappa)
        if not is_ns_form(A, c):
            raise NotNSForm("kappa is not skew or not J-invariant")
        e, f = _lefschetz_pair(c)
        gens.append(e)
        if f is None:
            # degenerate classes contribute their wedge operator only
            continue
        gens.append(f)
        # _lefschetz_pair has checked [e, f] = h
        settled.add((e, f))
    h = grading_operator(A.n)
    gens.append(h)
    size = 1 << (2 * A.n)
    # a span does not change with scale, so the echelon takes each num
    echelon = xl.Echelon()
    basis = []
    for g in gens:
        if echelon.add(g.num):
            basis.append(g)
    # the frontier, the elements not yet bracketed, is basis[start:]
    start = 0
    while start < len(basis):
        new = []
        for i, a in enumerate(basis):
            # each unordered pair once: [b, a] = -[a, b] lies in the span
            # whenever [a, b] does, and [a, a] = 0
            for b in basis[max(start, i + 1):]:
                # the parts of degree +2 and -2 of the so-image are abelian,
                # [h, b] = deg(b) b for homogeneous b, and [e_k, f_k] = h
                if a.degree == b.degree != 0 or h in (a, b) or (a, b) in settled:
                    continue
                num = _bracket(a, b)
                if echelon.add(num):
                    new.append(GradedOperator(size, num, a.den * b.den, a.degree + b.degree))
        start = len(basis)
        basis.extend(new)
        if len(basis) > size * size:
            raise RuntimeError(f"g_NS span exceeds dim gl(H*) = {size * size}")
    return LieAlgebraBasis(basis)


def chi_form(n):
    """Gram matrix of chi(a, b) = (-1)^q int(a cup b), q = floor((deg a - n)/2).

    The branch split of the definition (deg = n+2q vs n+2q+1) amounts to
    q = floor((deg - n)/2); this is the unique convention making chi
    infinitesimally invariant under the sl2-triples (checked in tests for
    n = 1 and n = 2).
    """
    size = 1 << (2 * n)
    full = size - 1
    x = [[0] * size for _ in range(size)]
    for s_mask, eps in enumerate(_complement_signs(n)):
        q = (popcount(s_mask) - n) // 2
        x[s_mask][full ^ s_mask] = eps * ((-1) ** (q % 2))
    return xl.mat(x)


@cache
def _so_image(n):
    """The values of _half_brackets(n), in their order, once their span is
    checked, once per n, to have dimension dim so(4n) = 2n(4n-1), their
    number: each is independent of the ones before it.  A table apart from
    _half_brackets, so that the Lefschetz operators, which read that one,
    run no elimination over operators on H*."""
    ops = tuple(_half_brackets(n).values())
    echelon = xl.Echelon()
    dim = sum(echelon.add(num) for num, _den, _degree in ops)
    if dim != 2 * n * (4 * n - 1):
        raise RuntimeError(f"so(Lambda) spinor image has dimension {dim}, "
                           f"not 2n(4n-1) = {2 * n * (4 * n - 1)}")
    return ops


def so_lambda_spinor_image(A):
    """Spanning basis of the image of so(Lambda,Q) under the spinor action:
    the operators (1/2)[cor(u), cor(v)] over pairs of basis vectors u, v of
    Lambda (see _half_brackets), each homogeneous, which span a space of
    dimension dim so(4n) = 2n(4n-1).  Each call returns new operators over
    the read-only entries of the per-n table _so_image(n)."""
    size = 1 << (2 * A.n)
    return LieAlgebraBasis([GradedOperator._over(size, num, den, degree)
                            for num, den, degree in _so_image(A.n)])
