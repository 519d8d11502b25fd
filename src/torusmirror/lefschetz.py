"""Hard Lefschetz sl2-triples on H*(A), the Neron-Severi Lie algebra, the
pairing chi, and the spinor image of so(Lambda, Q)."""

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import exactlin as xl
from .clifford import _generator_maps, _sign_below, popcount
from .errors import NoHardLefschetz, NotNSForm
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
        mat = xl.zeros(self.size)
        for key, v in self.entries.items():
            i, j = divmod(key, self.size)
            mat.rows[i][j] = v
        return mat


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


def lefschetz_e(kappa):
    """Cup product with kappa = sum_{i<j} c_ij x_i ^ x_j; degree +2, nilpotent."""
    c = as_form(kappa).rows
    d = len(c)
    size = 1 << d
    entries = {}
    for i in range(d):
        for j in range(i + 1, d):
            if c[i][j] == 0:
                continue
            for m in range(size):
                if m & (1 << i) or m & (1 << j):
                    continue
                s = _sign_below(m, j) * _sign_below(m | (1 << j), i)
                key = (m | (1 << i) | (1 << j)) * size + m
                entries[key] = entries.get(key, 0) + c[i][j] * s
    return GradedOperator(size, {k: v for k, v in entries.items() if v != 0}, 2)


def lefschetz_f(kappa):
    """The unique degree -2 operator with [e_kappa, f_kappa] = h.

    It exists exactly when kappa is nondegenerate.  A symplectic basis over Q
    makes H* a tensor product of n copies of the sl2-module H*(curve), on
    which e_kappa satisfies hard Lefschetz; a degenerate kappa has kappa^n = 0,
    so e_kappa^n: H^0 -> H^{2n} is not an isomorphism.
    """
    c = as_form(kappa)
    if xl.det(c) == 0:
        raise NoHardLefschetz("kappa is degenerate, so e_kappa^n: H^0 -> H^2n is zero")
    n = c.shape[0] // 2
    size = 1 << (2 * n)
    e = lefschetz_e(c).entries
    h = grading_operator(n).entries
    # unknowns: entries f[t, s] with popcount(t) = popcount(s) - 2
    unknowns = [(t, s) for s in range(size) for t in range(size)
                if popcount(t) == popcount(s) - 2]
    index = {u: k for k, u in enumerate(unknowns)}
    e_rows = [[] for _ in range(size)]
    e_cols = [[] for _ in range(size)]
    for key, v in e.items():
        i, j = divmod(key, size)
        e_rows[i].append((j, v))
        e_cols[j].append((i, v))
    # the augmented system [e, f] = h, right-hand side in column ncols
    ncols = len(unknowns)
    ech = xl.Echelon()
    for i in range(size):
        for j in range(size):
            if popcount(i) != popcount(j):
                continue
            row = {}
            # (e f)[i, j] = sum_k e[i, k] f[k, j]
            for k, v in e_rows[i]:
                if (k, j) in index:
                    row[index[(k, j)]] = row.get(index[(k, j)], 0) + v
            # -(f e)[i, j] = -sum_k f[i, k] e[k, j]
            for k, v in e_cols[j]:
                if (i, k) in index:
                    row[index[(i, k)]] = row.get(index[(i, k)], 0) - v
            row = {k: v for k, v in row.items() if v != 0}
            if i * size + j in h:
                row[ncols] = h[i * size + j]
            ech.add(row)
    if ncols in ech.rows:
        raise NoHardLefschetz("no degree -2 solution of [e,f] = h")
    if len(ech.rows) != ncols:
        raise RuntimeError("f_kappa is not unique")
    entries = {}
    for p, row in ech.rows.items():
        t, s = unknowns[p]
        if row.get(ncols, 0) != 0:
            entries[t * size + s] = row[ncols]
    if _bracket(e, entries, size) != h:
        raise RuntimeError("[e_kappa, f_kappa] != h")
    return GradedOperator(size, entries, -2)


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
    x = xl.zeros(size)
    for s_mask in range(size):
        t_mask = full ^ s_mask
        q = (popcount(s_mask) - n) // 2
        x.rows[s_mask][t_mask] = _merge_sign(s_mask, t_mask) * ((-1) ** (q % 2))
    return x


def _merge_sign(m1, m2):
    """Sign of sorting x_{m1} ^ x_{m2} (disjoint masks) into ascending order."""
    sign = 1
    rem = m2
    while rem:
        bit = (rem & -rem).bit_length() - 1
        if popcount(m1 >> (bit + 1)) % 2:
            sign = -sign
        rem &= rem - 1
    return sign


def so_lambda_spinor_image(A):
    """Spanning basis of the image of so(Lambda,Q) under the spinor action.

    The image is spanned by the operators (1/2)[cor(u), cor(v)] over basis
    vectors u, v of Lambda; each is homogeneous (contraction carries degree
    -1, wedging +1) and the span has dimension dim so(4n) = 2n(4n-1).  The
    brackets are composed from the generators' entries.
    """
    n = A.n
    size = 1 << (2 * n)
    gens = [{image[0] * size + m: image[1] for m, image in enumerate(col) if image is not None}
            for col in _generator_maps(n)]
    deg = [-1 if k < 2 * n else 1 for k in range(4 * n)]
    echelon = xl.Echelon()
    ops = []
    for a, b in combinations(range(4 * n), 2):
        entries = {key: Fraction(v, 2) for key, v in _bracket(gens[a], gens[b], size).items()}
        if echelon.add(entries):
            ops.append(GradedOperator(size, entries, deg[a] + deg[b]))
    basis = LieAlgebraBasis(ops, echelon)
    if basis.dim != 2 * n * (4 * n - 1):
        raise RuntimeError(f"so(Lambda) spinor image has dimension {basis.dim}, "
                           f"not 2n(4n-1) = {2 * n * (4 * n - 1)}")
    return basis
