"""Exact linear algebra over Z, Q and Q(i).

Matrices are numpy arrays of dtype=object holding python ints and
fractions.Fraction values; all arithmetic is exact.  Gaussian-rational
matrices are (re, im) pairs of such arrays.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import Degenerate, NotSkew, NotSymmetric, SingularMatrix


def mat(rows):
    """Build an exact matrix from a nested sequence of ints/Fractions."""
    m = np.array(rows, dtype=object)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return m


def eye(n):
    return np.eye(n, dtype=object) + 0  # entries are python ints


def zeros(r, c=None):
    return np.zeros((r, c if c is not None else r), dtype=object) + 0


def mat_eq(a, b):
    return a.shape == b.shape and bool((a == b).all())


def is_zero(a):
    return bool((a == 0).all())


def is_integral(a):
    return all(Fraction(x).denominator == 1 for x in a.flat)


def to_int(a):
    if not is_integral(a):
        raise ValueError("matrix is not integral")
    return np.array([[int(x) for x in row] for row in a], dtype=object)


def col_nonzeros(a):
    """Per-column lists of (row, value) nonzero entries."""
    n_rows, n_cols = a.shape
    cols = [[] for _ in range(n_cols)]
    for i in range(n_rows):
        row = a[i]
        for j in range(n_cols):
            if row[j] != 0:
                cols[j].append((i, row[j]))
    return cols


def mul(a, b):
    """Exact matrix product; cost proportional to the actual fill of b."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply a {a.shape[0]}x{a.shape[1]} matrix "
                         f"by a {b.shape[0]}x{b.shape[1]} matrix")
    a_cols = col_nonzeros(a)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=object) + 0
    for j in range(b.shape[1]):
        acc = {}
        for k in range(b.shape[0]):
            v = b[k, j]
            if v == 0:
                continue
            for i, w in a_cols[k]:
                acc[i] = acc.get(i, 0) + w * v
        for i, v in acc.items():
            out[i, j] = v
    return out


def _subtract_multiple(row, f, other):
    """row -= f * other on sparse rows, in place; entries that cancel are dropped."""
    for c, v in other.items():
        nv = row.get(c, 0) - f * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


class Echelon:
    """Incremental Gaussian elimination over Q on sparse rows.

    A row is a dict {column: value} of nonzero entries.  `rows` maps each
    pivot column, in the order the pivots were found, to its fully reduced
    row: 1 at the pivot and 0 in every other pivot column.  `product` is the
    product of the pivot entries of the added rows before normalization; for
    the rows of a nonsingular square matrix added in order,
    det = sign(pivot order) * product.
    """

    def __init__(self):
        self.rows = {}
        self.product = Fraction(1)

    def reduce(self, row):
        """What is left of row after clearing every pivot column; {} if
        row lies in the span of the rows added."""
        row = dict(row)
        # stored rows are zero in each other's pivot columns, so clearing
        # one pivot column never refills another
        for q in [c for c in row if c in self.rows]:
            _subtract_multiple(row, row[q], self.rows[q])
        return row

    def add(self, row):
        """Add row to the span; False, changing nothing, if it is in it already."""
        row = self.reduce(row)
        if not row:
            return False
        p = min(row)
        lead = row[p]
        inv = Fraction(1) / lead
        row = {c: v * inv for c, v in row.items()}
        for other in self.rows.values():
            if p in other:
                _subtract_multiple(other, other[p], row)
        self.rows[p] = row
        self.product *= lead
        return True

    def kernel(self, ncols):
        """Basis of the right kernel of the rows added, as vectors of length
        ncols: one per free column j, with 1 at j and 0 at the other free columns."""
        basis = []
        for j in range(ncols):
            if j in self.rows:
                continue
            v = np.zeros(ncols, dtype=object) + 0
            v[j] = Fraction(1)
            for p, row in self.rows.items():
                c = row.get(j, 0)
                if c != 0:
                    v[p] = -c
            basis.append(v)
        return basis


def _echelon(a):
    """Echelon of the rows of a dense matrix, added top to bottom."""
    ech = Echelon()
    for row in a:
        ech.add({j: x for j, x in enumerate(row) if x != 0})
    return ech


def rank(a):
    return len(_echelon(a).rows)


def nullspace(a):
    """Basis (list of object column vectors) of the rational right kernel."""
    return _echelon(a).kernel(a.shape[1])


def solve_right(a, b):
    """Solve a @ x = b exactly for square invertible a (b may be a matrix)."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise SingularMatrix("matrix not square")
    ech = _echelon(np.hstack([a, b]))
    if sorted(ech.rows) != list(range(n)):
        raise SingularMatrix("matrix is singular")
    x = zeros(n, b.shape[1])
    for p, row in ech.rows.items():
        for c, v in row.items():
            if c >= n:
                x[p, c - n] = v
    return x


def invert(m):
    """Exact inverse; raises SingularMatrix."""
    return solve_right(m, eye(m.shape[0]))


def det(m):
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError(f"determinant of a non-square {n}x{m.shape[1]} matrix")
    ech = _echelon(m)
    if len(ech.rows) < n:
        return Fraction(0)
    order = list(ech.rows)
    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j])
    return -ech.product if inversions % 2 else ech.product


def primitive_int(m):
    """The primitive integer matrix on the ray of the rational matrix m:
    denominators cleared, then the gcd of all entries divided out."""
    den = 1
    for x in m.flat:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [[int(Fraction(x) * den) for x in row] for row in m]
    g = 0
    for row in ints:
        for x in row:
            g = gcd(g, abs(x))
    g = g or 1
    return np.array([[x // g for x in row] for row in ints], dtype=object)


def is_unimodular(m):
    return is_integral(m) and abs(det(m)) == 1


def is_positive_definite(m):
    """Sylvester's criterion on exact leading principal minors."""
    if m.shape[0] != m.shape[1]:
        raise NotSymmetric("matrix not square")
    if not mat_eq(m, m.T):
        raise NotSymmetric("matrix not symmetric")
    for k in range(1, m.shape[0] + 1):
        if det(m[:k, :k]) <= 0:
            return False
    return True


def _min_entry(d, lo):
    """Position of the minimal-|value| nonzero entry of d[lo:, lo:]."""
    best = None
    for i in range(lo, d.shape[0]):
        for j in range(lo, d.shape[1]):
            if d[i, j] != 0 and (best is None or abs(d[i, j]) < abs(d[best[0], best[1]])):
                best = (i, j)
    return best


def smith_normal_form(m):
    """Return (U, D, V) with U @ m @ V = D diagonal, divisibility chain, U,V unimodular."""
    d = to_int(m).copy()
    n_rows, n_cols = d.shape
    u, v = eye(n_rows), eye(n_cols)
    k = 0
    while True:
        pos = _min_entry(d, k)
        if pos is None:
            break
        i, j = pos
        if i != k:
            d[[k, i]] = d[[i, k]]
            u[[k, i]] = u[[i, k]]
        if j != k:
            d[:, [k, j]] = d[:, [j, k]]
            v[:, [k, j]] = v[:, [j, k]]
        # clear row and column k by euclidean steps
        dirty = False
        for r in range(k + 1, n_rows):
            if d[r, k] != 0:
                q = d[r, k] // d[k, k]
                d[r] = d[r] - q * d[k]
                u[r] = u[r] - q * u[k]
                if d[r, k] != 0:
                    dirty = True
        for c in range(k + 1, n_cols):
            if d[k, c] != 0:
                q = d[k, c] // d[k, k]
                d[:, c] = d[:, c] - q * d[:, k]
                v[:, c] = v[:, c] - q * v[:, k]
                if d[k, c] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the submatrix for the chain to hold
        off = next(((r, c) for r in range(k + 1, n_rows) for c in range(k + 1, n_cols)
                    if d[r, c] % d[k, k] != 0), None)
        if off is not None:
            d[k] = d[k] + d[off[0]]
            u[k] = u[k] + u[off[0]]
            continue
        if d[k, k] < 0:
            d[k] = -d[k]
            u[k] = -u[k]
        k += 1
        if k == min(n_rows, n_cols):
            break
    return u, d, v


def saturate_rows(b):
    """Z-basis (rows) of the saturation of the row span of integer matrix b.

    The saturation is (Q-row-span of b) intersected with Z^n.
    """
    u, d, v = smith_normal_form(b)
    r = sum(1 for k in range(min(d.shape)) if d[k, k] != 0)
    v_inv = to_int(invert(v))
    return v_inv[:r]


class SkewNormalForm:
    """Frobenius normal form data of an integral skew form.

    basis_change^t @ phi @ basis_change = [[0, Delta], [-Delta, 0]] with
    Delta = diag(deltas) and delta_1 | delta_2 | ... | delta_n.
    """

    def __init__(self, basis_change, deltas):
        self.basis_change = basis_change
        self.deltas = deltas

    def block_form(self):
        n = len(self.deltas)
        out = zeros(2 * n)
        for i, dlt in enumerate(self.deltas):
            out[i, n + i] = dlt
            out[n + i, i] = -dlt
        return out


def skew_normal_form(phi):
    """Symplectic (Frobenius) normal form of a nondegenerate skew integer matrix."""
    phi = to_int(phi)
    n2 = phi.shape[0]
    if phi.shape[1] != n2 or n2 % 2 != 0:
        raise NotSkew("skew form must be square of even size")
    if not mat_eq(phi, -phi.T):
        raise NotSkew("matrix is not skew-symmetric")
    if det(phi) == 0:
        raise Degenerate("skew form is degenerate")
    n = n2 // 2
    m = phi.copy()
    u = eye(n2)

    def col_op(dst, src, f):
        # congruence: same op on columns and on rows
        m[:, dst] = m[:, dst] + f * m[:, src]
        m[dst] = m[dst] + f * m[src]
        u[:, dst] = u[:, dst] + f * u[:, src]

    def swap(a, b):
        m[:, [a, b]] = m[:, [b, a]]
        m[[a, b]] = m[[b, a]]
        u[:, [a, b]] = u[:, [b, a]]

    # build hyperbolic pairs in adjacent columns (2k, 2k+1)
    for k in range(n):
        t = 2 * k
        while True:
            best = None
            for i in range(t, n2):
                for j in range(i + 1, n2):
                    if m[i, j] != 0 and (best is None or abs(m[i, j]) < abs(m[best[0], best[1]])):
                        best = (i, j)
            i, j = best
            if i != t:
                swap(t, i)
                if j == t:
                    j = i
            if j != t + 1:
                swap(t + 1, j)
            if m[t, t + 1] < 0:
                swap(t, t + 1)
            p = m[t, t + 1]
            dirty = False
            for c in range(t + 2, n2):
                if m[t, c] != 0:
                    q = m[t, c] // p
                    col_op(c, t + 1, -q)
                    if m[t, c] != 0:
                        dirty = True
                if m[t + 1, c] != 0:
                    q = m[t + 1, c] // p
                    col_op(c, t, q)
                    if m[t + 1, c] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining submatrix (divisibility chain)
            off = next(((i2, j2) for i2 in range(t + 2, n2) for j2 in range(i2 + 1, n2)
                        if m[i2, j2] % p != 0), None)
            if off is None:
                break
            col_op(t, off[0], 1)
    deltas = [int(m[2 * k, 2 * k + 1]) for k in range(n)]
    # reorder adjacent pairs (e_1, e_-1, e_2, e_-2, ...) -> (e_1..e_n, e_-1..e_-n)
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    u = u[:, perm]
    out = SkewNormalForm(u, deltas)
    if not mat_eq(mul(u.T, mul(phi, u)), out.block_form()):
        raise RuntimeError("skew normal form: u^t phi u is not the block form")
    if abs(det(u)) != 1:
        raise RuntimeError("skew normal form: basis change is not unimodular")
    if any(b % a for a, b in zip(deltas, deltas[1:])):
        raise RuntimeError("skew normal form: invariant factors do not divide in turn")
    return out


# ---------------------------------------------------------------------------
# Gaussian-rational (Q(i)) matrices as (re, im) pairs


def gauss_mul(a, b):
    return (mul(a[0], b[0]) - mul(a[1], b[1]), mul(a[0], b[1]) + mul(a[1], b[0]))


def gauss_invert(a):
    """Inverse of a + ib via the real 2k x 2k embedding [[a, -b], [b, a]]."""
    k = a[0].shape[0]
    big = np.block([[a[0], -a[1]], [a[1], a[0]]])
    inv = invert(big)
    return (inv[:k, :k], inv[k:, :k])
