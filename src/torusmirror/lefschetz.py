"""Hard Lefschetz sl2-triples on H*(A), the Neron-Severi Lie algebra, the
pairing chi, and the spinor image of so(Lambda, Q)."""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from . import exactlin as xl
from .clifford import _sign_below, cor_matrix, popcount
from .errors import NoHardLefschetz, NotNSForm
from .torus import NSVector, is_ns_form


class GradedOperator:
    """A matrix on H* = Lambda Gamma* homogeneous of fixed cohomological degree."""

    def __init__(self, mat, degree):
        size = mat.shape[0]
        for i in range(size):
            for j in range(size):
                if mat[i, j] != 0 and popcount(i) - popcount(j) != degree:
                    raise ValueError("operator is not homogeneous of the stated degree")
        self.mat = mat
        self.degree = degree


class LieAlgebraBasis:
    def __init__(self, ops, echelon):
        self.ops = ops
        self.dim = len(ops)
        self._echelon = echelon

    def contains(self, mat):
        return not self._echelon.reduce(_flatten(mat))


def _flatten(mat):
    size = mat.shape[0]
    return {i * size + j: mat[i, j]
            for i in range(size) for j in range(size) if mat[i, j] != 0}


def grading_operator(n):
    """h acts on H^k by k - n."""
    size = 1 << (2 * n)
    h = xl.zeros(size)
    for m in range(size):
        h[m, m] = popcount(m) - n
    return GradedOperator(h, 0)


def lefschetz_e(kappa):
    """Cup product with kappa = sum_{i<j} c_ij x_i ^ x_j; degree +2, nilpotent."""
    c = kappa.c if isinstance(kappa, NSVector) else kappa
    d = c.shape[0]
    n = d // 2
    size = 1 << d
    e = xl.zeros(size)
    for i in range(d):
        for j in range(i + 1, d):
            if c[i, j] == 0:
                continue
            for m in range(size):
                if m & (1 << i) or m & (1 << j):
                    continue
                s = _sign_below(m, j) * _sign_below(m | (1 << j), i)
                e[m | (1 << i) | (1 << j), m] += c[i, j] * s
    return GradedOperator(e, 2)


def _check_hard_lefschetz(e, n):
    size = 1 << (2 * n)
    masks_by_deg = [[m for m in range(size) if popcount(m) == k] for k in range(2 * n + 1)]
    power = xl.eye(size)
    for s in range(1, n + 1):
        power = xl.mul(power, e)
        block = power[np.ix_(masks_by_deg[n + s], masks_by_deg[n - s])]
        if xl.rank(block) != comb(2 * n, n - s):
            return False
    return True


def lefschetz_f(kappa):
    """The unique degree -2 operator with [e_kappa, f_kappa] = h."""
    c = kappa.c if isinstance(kappa, NSVector) else kappa
    n = c.shape[0] // 2
    size = 1 << (2 * n)
    e = lefschetz_e(kappa).mat
    if not _check_hard_lefschetz(e, n):
        raise NoHardLefschetz("e_kappa^s is not an isomorphism H^{n-s} -> H^{n+s}")
    h = grading_operator(n).mat
    # unknowns: entries f[t, s] with popcount(t) = popcount(s) - 2
    unknowns = [(t, s) for s in range(size) for t in range(size)
                if popcount(t) == popcount(s) - 2]
    index = {u: k for k, u in enumerate(unknowns)}
    e_cols = xl.col_nonzeros(e)
    e_rows = xl.col_nonzeros(e.T)
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
            if i == j and h[i, j] != 0:
                row[ncols] = h[i, j]
            ech.add(row)
    if ncols in ech.rows:
        raise NoHardLefschetz("no degree -2 solution of [e,f] = h")
    if len(ech.rows) != ncols:
        raise RuntimeError("f_kappa is not unique")
    f = xl.zeros(size)
    for p, row in ech.rows.items():
        t, s = unknowns[p]
        f[t, s] = row.get(ncols, 0)
    if not xl.mat_eq(xl.mul(e, f) - xl.mul(f, e), h):
        raise RuntimeError("[e_kappa, f_kappa] != h")
    return GradedOperator(f, -2)


def generate_g_ns(A, kappas):
    """Bracket closure of { e_k, f_k, h } inside gl(H*(A))."""
    seen = set()
    gens = []
    for kappa in kappas:
        c = kappa.c if isinstance(kappa, NSVector) else kappa
        if not is_ns_form(A, c):
            raise NotNSForm("kappa is not skew or not J-invariant")
        key = tuple(tuple(row) for row in c)
        if key in seen:
            continue
        seen.add(key)
        gens.append(lefschetz_e(kappa))
        try:
            gens.append(lefschetz_f(kappa))
        except NoHardLefschetz:
            # degenerate classes contribute their wedge operator only
            pass
    gens.append(grading_operator(A.n))
    echelon = xl.Echelon()
    basis = []
    for g in gens:
        if echelon.add(_flatten(g.mat)):
            basis.append(g)
    frontier = list(basis)
    while frontier:
        new = []
        for a in basis:
            for b in frontier:
                for x, y in ((a, b), (b, a)) if a is not b else ((a, b),):
                    br = xl.mul(x.mat, y.mat) - xl.mul(y.mat, x.mat)
                    if xl.is_zero(br):
                        continue
                    if echelon.add(_flatten(br)):
                        new.append(GradedOperator(br, x.degree + y.degree))
        basis.extend(new)
        frontier = new
        assert len(basis) <= (1 << (4 * A.n))
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
        x[s_mask, t_mask] = _merge_sign(s_mask, t_mask) * ((-1) ** (q % 2))
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
    -1, wedging +1) and the span has dimension dim so(4n) = 2n(4n-1).
    """
    n = A.n
    e = xl.eye(4 * n)
    gens = [cor_matrix(n, e[:, k]) for k in range(4 * n)]
    deg = [-1 if k < 2 * n else 1 for k in range(4 * n)]
    echelon = xl.Echelon()
    ops = []
    half = Fraction(1, 2)
    for a, b in combinations(range(4 * n), 2):
        m = (xl.mul(gens[a], gens[b]) - xl.mul(gens[b], gens[a])) * half
        if echelon.add(_flatten(m)):
            ops.append(GradedOperator(m, deg[a] + deg[b]))
    basis = LieAlgebraBasis(ops, echelon)
    assert basis.dim == 2 * n * (4 * n - 1)
    return basis
