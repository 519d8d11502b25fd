"""Hard Lefschetz sl2-triples on H*(A), the Neron-Severi Lie algebra, the
pairing chi, and the spinor image of so(Lambda, Q)."""

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import exactlin as xl
from .clifford import _generator_maps, _merge_sign, popcount
from .errors import NoHardLefschetz, NotNSForm, NotSkew, SingularMatrix
from .torus import as_form, is_ns_form


class GradedOperator:
    """A matrix on H* = Lambda Gamma* homogeneous of fixed cohomological degree,
    held by its nonzero entries {row * size + col: value}."""

    def __init__(self, size, entries, degree):
        for key in entries:
            i, j = divmod(key, size)
            if popcount(i) - popcount(j) != degree:
                raise ValueError("operator is not homogeneous of the stated degree")
        self.size = size
        self.entries = entries
        self.degree = degree

    @cached_property
    def mat(self):
        """The dense size x size matrix, built when first read."""
        rows = [[0] * self.size for _ in range(self.size)]
        for key, v in self.entries.items():
            i, j = divmod(key, self.size)
            rows[i][j] = v
        return xl.mat(rows)


class LieAlgebraBasis:
    def __init__(self, ops, echelon):
        self.ops = ops
        self.dim = len(ops)
        self._echelon = echelon

    def contains(self, mat):
        mat = xl.asmat(mat)
        size = mat.ncols
        return not self._echelon.reduce({i * size + j: x for i, row in enumerate(mat.rows)
                                         for j, x in enumerate(row) if x != 0})


def _bracket(a, b, size):
    """Nonzero entries of ab - ba for operators given by their entries."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        y_rows = {}
        for key, v in y.items():
            y_rows.setdefault(key // size, []).append((key % size, v))
        for key, u in x.items():
            i, k = divmod(key, size)
            for j, v in y_rows.get(k, ()):
                out[i * size + j] = out.get(i * size + j, 0) + sign * u * v
    return {key: v for key, v in out.items() if v != 0}


def grading_operator(n):
    """h acts on H^k by k - n."""
    size = 1 << (2 * n)
    return GradedOperator(size, {m * size + m: popcount(m) - n for m in range(size)
                                 if popcount(m) != n}, 0)


def _generators(n):
    """Entries of cor(e_k) for the 4n basis vectors e_k of Lambda: k < 2n
    contracts with l_{k+1}, k >= 2n wedges with x_{k-2n+1}."""
    size = 1 << (2 * n)
    return [{image[0] * size + m: image[1] for m, image in enumerate(col) if image is not None}
            for col in _generator_maps(n)]


def _half_bracket(a, b, size):
    """Entries of (1/2)[a, b] for two Clifford generators, int where integral."""
    return {key: v // 2 if v % 2 == 0 else Fraction(v, 2)
            for key, v in _bracket(a, b, size).items()}


def _form_operator(c, gens, size, degree):
    """sum_{i<j} c_ij (1/2)[gens_i, gens_j] for a 2n x 2n matrix c."""
    entries = {}
    rows = c.rows
    for i, j in combinations(range(len(rows)), 2):
        cij = rows[i][j]
        if cij != 0:
            for key, v in _half_bracket(gens[i], gens[j], size).items():
                entries[key] = entries.get(key, 0) + cij * v
    return GradedOperator(size, {key: v.numerator if v.denominator == 1 else v
                                 for key, v in entries.items() if v != 0}, degree)


def _skew_form(kappa):
    c = as_form(kappa)
    rows, cols = c.shape
    if rows != cols or rows % 2 or not xl.mat_eq(c, -c.T):
        raise NotSkew("kappa must be a skew matrix of even size")
    return c


def lefschetz_e(kappa):
    """Cup product with kappa = sum_{i<j} c_ij x_i ^ x_j; degree +2, nilpotent.

    It is the spinor operator sum_{i<j} c_ij (1/2)[cor(x_i), cor(x_j)].
    """
    c = _skew_form(kappa)
    d = c.shape[0]
    return _form_operator(c, _generators(d // 2)[d:], 1 << d, 2)


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
    c = _skew_form(kappa)
    try:
        inverse = xl.invert(c)
    except SingularMatrix:
        raise NoHardLefschetz("kappa is degenerate, so e_kappa^n: H^0 -> H^2n is zero") from None
    d = c.shape[0]
    size = 1 << d
    e = lefschetz_e(c).entries
    f = _form_operator(inverse, _generators(d // 2)[:d], size, -2)
    if _bracket(e, f.entries, size) != grading_operator(d // 2).entries:
        raise RuntimeError("[e_kappa, f_kappa] != h")
    return f


def generate_g_ns(A, kappas):
    """Bracket closure of { e_k, f_k, h } inside gl(H*(A))."""
    seen = set()
    gens = []
    for kappa in kappas:
        c = as_form(kappa)
        if not is_ns_form(A, c):
            raise NotNSForm("kappa is not skew or not J-invariant")
        key = tuple(tuple(row) for row in c)
        if key in seen:
            continue
        seen.add(key)
        gens.append(lefschetz_e(c))
        try:
            gens.append(lefschetz_f(c))
        except NoHardLefschetz:
            # degenerate classes contribute their wedge operator only
            pass
    gens.append(grading_operator(A.n))
    size = 1 << (2 * A.n)
    echelon = xl.Echelon()
    basis = []
    for g in gens:
        if echelon.add(g.entries):
            basis.append(g)
    frontier = list(basis)
    while frontier:
        new = []
        for a in basis:
            for b in frontier:
                # [b, a] = -[a, b] lies in the span whenever [a, b] does
                entries = _bracket(a.entries, b.entries, size)
                if echelon.add(entries):
                    new.append(GradedOperator(size, entries, a.degree + b.degree))
        basis.extend(new)
        frontier = new
        if len(basis) > size * size:
            raise RuntimeError(f"g_NS span exceeds dim gl(H*) = {size * size}")
    return LieAlgebraBasis(basis, echelon)


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
    for s_mask in range(size):
        t_mask = full ^ s_mask
        q = (popcount(s_mask) - n) // 2
        x[s_mask][t_mask] = _merge_sign(s_mask, t_mask) * ((-1) ** (q % 2))
    return xl.mat(x)


def so_lambda_spinor_image(A):
    """Spanning basis of the image of so(Lambda,Q) under the spinor action.

    The image is spanned by the operators (1/2)[cor(u), cor(v)] over basis
    vectors u, v of Lambda; each is homogeneous (contraction carries degree
    -1, wedging +1) and the span has dimension dim so(4n) = 2n(4n-1).  The
    brackets are composed from the generators' entries.
    """
    n = A.n
    size = 1 << (2 * n)
    gens = _generators(n)
    deg = [-1 if k < 2 * n else 1 for k in range(4 * n)]
    echelon = xl.Echelon()
    ops = []
    for a, b in combinations(range(4 * n), 2):
        entries = _half_bracket(gens[a], gens[b], size)
        if echelon.add(entries):
            ops.append(GradedOperator(size, entries, deg[a] + deg[b]))
    basis = LieAlgebraBasis(ops, echelon)
    if basis.dim != 2 * n * (4 * n - 1):
        raise RuntimeError(f"so(Lambda) spinor image has dimension {basis.dim}, "
                           f"not 2n(4n-1) = {2 * n * (4 * n - 1)}")
    return basis
