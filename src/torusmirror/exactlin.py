"""Exact linear algebra over Z and Q.

A matrix is a `Matrix`: a list of rows of python ints and fractions.Fraction
values, so all arithmetic is exact; a vector is a plain list.  Every public
function reads its matrix arguments row by row, so nested sequences, numpy
object arrays and `Matrix` values are all accepted, and the package itself
never imports numpy.  The one computation over Q(i), the Siegel action, is
solved through its real form (siegel.siegel_act).
"""

import sys
from fractions import Fraction
from math import gcd
from numbers import Integral, Rational
from operator import index

from .errors import Degenerate, NotSkew, NotSymmetric, SingularMatrix


class Matrix:
    """A dense exact matrix, held as `rows`, a list of row lists, and `ncols`.

    Indexing follows numpy for ints and slices: m[i, j] is an entry, m[i] and
    m[:, j] are a row and a column as new lists, and slices give matrices.  A
    list of indices selects those rows or columns, so m[rows, cols] with two
    lists is a submatrix (numpy's m[np.ix_(rows, cols)]).  + and - are
    entrywise, * scales by a number, == is mat_eq.  Code that owns a matrix
    works on `rows` directly.
    """

    __slots__ = ("rows", "ncols")
    # numpy's operators defer to ours: ndarray + Matrix is Matrix.__radd__
    __array_ufunc__ = None

    @property
    def shape(self):
        return (len(self.rows), self.ncols)

    @property
    def T(self):
        if not self.rows:
            return _wrap([[] for _ in range(self.ncols)], 0)
        return _wrap([list(col) for col in zip(*self.rows)], len(self.rows))

    def copy(self):
        return _wrap([row[:] for row in self.rows], self.ncols)

    def tolist(self):
        return [row[:] for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return (row[:] for row in self.rows)

    def __repr__(self):
        return f"Matrix({self.rows!r})"

    def __array__(self, dtype=None, copy=None):
        # only numpy calls this, so numpy is loaded already
        np = sys.modules["numpy"]
        out = np.empty(self.shape, dtype=object)
        for i, row in enumerate(self.rows):
            out[i, :] = row
        return out if dtype is None else out.astype(dtype)

    def _ids(self, key):
        """Row ids, column ids, and whether each axis was given as one int."""
        i, j = key if type(key) is tuple else (key, slice(None))
        axes = []
        for k, size in ((i, len(self.rows)), (j, self.ncols)):
            if isinstance(k, slice):
                axes.append((range(size)[k], False))
            elif isinstance(k, (list, tuple)):
                axes.append(([index(x) for x in k], False))
            else:
                axes.append(([index(k)], True))
        (rows, row_int), (cols, col_int) = axes
        return rows, cols, row_int, col_int

    def __getitem__(self, key):
        if type(key) is tuple and type(key[0]) is int and type(key[1]) is int:
            return self.rows[key[0]][key[1]]
        rows, cols, row_int, col_int = self._ids(key)
        out = [[self.rows[r][c] for c in cols] for r in rows]
        if row_int:
            return out[0][0] if col_int else out[0]
        if col_int:
            return [row[0] for row in out]
        return _wrap(out, len(cols))

    def __setitem__(self, key, value):
        if (type(key) is tuple and type(key[0]) is int and type(key[1]) is int
                and type(value) in (int, Fraction)):
            self.rows[key[0]][key[1]] = value
            return
        rows, cols, row_int, col_int = self._ids(key)
        if isinstance(value, Rational):
            grid = [[_entry(value)] * len(cols)] * len(rows)
        elif row_int and col_int:
            raise TypeError(f"cannot store {type(value).__name__} in one matrix entry")
        elif row_int or col_int:
            line = [_entry(x) for x in value]
            grid = [line] if row_int else [[x] for x in line]
        else:
            grid = mat(value).rows
        if len(grid) != len(rows) or any(len(g) != len(cols) for g in grid):
            raise ValueError(f"cannot assign {len(grid)} rows of values to "
                             f"{len(rows)}x{len(cols)} entries")
        for r, values in zip(rows, grid):
            row = self.rows[r]
            for c, x in zip(cols, values):
                row[c] = x

    def __eq__(self, other):
        try:
            return mat_eq(self, other)
        except (TypeError, ValueError):
            return NotImplemented

    def __neg__(self):
        return _wrap([[-x for x in row] for row in self.rows], self.ncols)

    def __add__(self, other):
        other = _same_shape(self, other, "add")
        return _wrap([[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)],
                     self.ncols)

    def __sub__(self, other):
        other = _same_shape(self, other, "subtract")
        return _wrap([[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)],
                     self.ncols)

    def __radd__(self, other):
        return asmat(other) + self

    def __rsub__(self, other):
        return asmat(other) - self

    def __mul__(self, c):
        if not isinstance(c, Rational):
            return NotImplemented
        c = _entry(c)
        return _wrap([[x * c for x in row] for row in self.rows], self.ncols)

    __rmul__ = __mul__


def _wrap(rows, ncols):
    """A Matrix that takes over the given row lists without copying them."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.ncols = ncols
    return m


def _entry(x):
    t = type(x)
    if t is int or t is Fraction:
        return x
    if isinstance(x, Integral):
        return int(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    raise TypeError(f"matrix entry {x!r} is not an integer or a rational")


def _same_shape(a, b, what):
    b = asmat(b)
    if a.shape != b.shape:
        raise ValueError(f"cannot {what} a {a.shape[0]}x{a.shape[1]} matrix "
                         f"and a {b.shape[0]}x{b.shape[1]} matrix")
    return b


def mat(rows):
    """A new exact matrix read row by row from a nested sequence of ints and
    rationals (lists, a numpy array, a Matrix); a flat sequence is one row."""
    if type(rows) is Matrix:
        return rows.copy()
    shape = getattr(rows, "shape", ())
    rows = list(rows)
    if rows and isinstance(rows[0], Rational):
        rows = [rows]
    out = [[_entry(x) for x in row] for row in rows]
    ncols = len(out[0]) if out else (shape[1] if len(shape) == 2 else 0)
    if any(len(row) != ncols for row in out):
        raise ValueError("matrix rows have unequal lengths")
    return _wrap(out, ncols)


def asmat(a):
    """a itself when it is a Matrix, else mat(a)."""
    return a if type(a) is Matrix else mat(a)


def block(grid):
    """The matrix assembled from a grid (list of block rows) of matrices."""
    rows, ncols = [], None
    for brow in grid:
        parts = [asmat(m) for m in brow]
        height = len(parts[0].rows)
        width = sum(p.ncols for p in parts)
        if any(len(p.rows) != height for p in parts) or ncols not in (None, width):
            raise ValueError("blocks do not fit together")
        ncols = width
        for i in range(height):
            rows.append([x for p in parts for x in p.rows[i]])
    return _wrap(rows, ncols or 0)


def eye(n):
    m = zeros(n)
    for i, row in enumerate(m.rows):
        row[i] = 1
    return m


def zeros(r, c=None):
    c = r if c is None else c
    return _wrap([[0] * c for _ in range(r)], c)


def mat_eq(a, b):
    a, b = asmat(a), asmat(b)
    return a.ncols == b.ncols and a.rows == b.rows


def is_zero(a):
    return not any(any(row) for row in asmat(a).rows)


def is_integral(a):
    return all(x.denominator == 1 for row in asmat(a).rows for x in row)


def to_int(a):
    a = asmat(a)
    if not is_integral(a):
        raise ValueError("matrix is not integral")
    return _wrap([[int(x) for x in row] for row in a.rows], a.ncols)


def mul(a, b):
    """Exact matrix product; cost proportional to the nonzero products."""
    a, b = asmat(a), asmat(b)
    if a.ncols != len(b.rows):
        raise ValueError(f"cannot multiply a {a.shape[0]}x{a.shape[1]} matrix "
                         f"by a {b.shape[0]}x{b.shape[1]} matrix")
    ncols = b.ncols
    b_rows = [[(j, v) for j, v in enumerate(row) if v] for row in b.rows]
    out = []
    for row in a.rows:
        acc = [0] * ncols
        for k, x in enumerate(row):
            if x:
                for j, v in b_rows[k]:
                    acc[j] += x * v
        out.append(acc)
    return _wrap(out, ncols)


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
        """Basis of the right kernel of the rows added, as lists of length
        ncols: one per free column j, with 1 at j and 0 at the other free columns."""
        basis = []
        for j in range(ncols):
            if j in self.rows:
                continue
            v = [0] * ncols
            v[j] = Fraction(1)
            for p, row in self.rows.items():
                c = row.get(j, 0)
                if c != 0:
                    v[p] = -c
            basis.append(v)
        return basis


def _echelon(rows):
    """Echelon of dense rows, added top to bottom."""
    ech = Echelon()
    for row in rows:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech


def rank(a):
    return len(_echelon(asmat(a).rows).rows)


def nullspace(a):
    """Basis (list of vectors) of the rational right kernel."""
    a = asmat(a)
    return _echelon(a.rows).kernel(a.ncols)


def solve_right(a, b):
    """Solve a @ x = b exactly for square invertible a (b may be a matrix)."""
    a, b = asmat(a), asmat(b)
    n = len(a.rows)
    if a.ncols != n:
        raise SingularMatrix("matrix not square")
    if len(b.rows) != n:
        raise ValueError(f"cannot solve a {n}x{n} system for a {b.shape[0]}x{b.shape[1]} "
                         f"right-hand side")
    ech = _echelon(ra + rb for ra, rb in zip(a.rows, b.rows))
    if sorted(ech.rows) != list(range(n)):
        raise SingularMatrix("matrix is singular")
    x = zeros(n, b.ncols)
    for p, row in ech.rows.items():
        out = x.rows[p]
        for c, v in row.items():
            if c >= n:
                out[c - n] = v
    return x


def invert(m):
    """Exact inverse; raises SingularMatrix."""
    m = asmat(m)
    return solve_right(m, eye(len(m.rows)))


def det(m):
    m = asmat(m)
    n = len(m.rows)
    if m.ncols != n:
        raise ValueError(f"determinant of a non-square {n}x{m.ncols} matrix")
    ech = _echelon(m.rows)
    if len(ech.rows) < n:
        return Fraction(0)
    order = list(ech.rows)
    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j])
    return -ech.product if inversions % 2 else ech.product


def primitive_int(m):
    """The primitive integer matrix on the ray of the rational matrix m:
    denominators cleared, then the gcd of all entries divided out."""
    m = asmat(m)
    den = 1
    for row in m.rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    ints = [[int(x * den) for x in row] for row in m.rows]
    g = 0
    for row in ints:
        for x in row:
            g = gcd(g, x)
    g = g or 1
    return _wrap([[x // g for x in row] for row in ints], m.ncols)


def is_unimodular(m):
    return is_integral(m) and abs(det(m)) == 1


def is_positive_definite(m):
    """Sylvester's criterion on exact leading principal minors."""
    m = asmat(m)
    if m.shape[0] != m.shape[1]:
        raise NotSymmetric("matrix not square")
    if not mat_eq(m, m.T):
        raise NotSymmetric("matrix not symmetric")
    for k in range(1, m.shape[0] + 1):
        if det(m[:k, :k]) <= 0:
            return False
    return True


def _min_entry(d, lo):
    """Position of the minimal-|value| nonzero entry of d[lo:, lo:] (rows d)."""
    best, best_abs = None, None
    for i in range(lo, len(d)):
        row = d[i]
        for j in range(lo, len(row)):
            x = row[j]
            if x != 0 and (best is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
    return best


def smith_normal_form(m):
    """Return (U, D, V) with U @ m @ V = D diagonal, divisibility chain, U,V unimodular."""
    d = to_int(m)
    n_rows, n_cols = d.shape
    d = d.rows
    u, v = eye(n_rows), eye(n_cols)
    ur, vr = u.rows, v.rows
    k = 0
    while True:
        pos = _min_entry(d, k)
        if pos is None:
            break
        i, j = pos
        if i != k:
            d[k], d[i] = d[i], d[k]
            ur[k], ur[i] = ur[i], ur[k]
        if j != k:
            for rows in (d, vr):
                for row in rows:
                    row[k], row[j] = row[j], row[k]
        # clear row and column k by euclidean steps
        dirty = False
        for r in range(k + 1, n_rows):
            if d[r][k] != 0:
                q = d[r][k] // d[k][k]
                d[r] = [x - q * y for x, y in zip(d[r], d[k])]
                ur[r] = [x - q * y for x, y in zip(ur[r], ur[k])]
                if d[r][k] != 0:
                    dirty = True
        for c in range(k + 1, n_cols):
            if d[k][c] != 0:
                q = d[k][c] // d[k][k]
                for rows in (d, vr):
                    for row in rows:
                        row[c] -= q * row[k]
                if d[k][c] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the submatrix for the chain to hold
        off = next(((r, c) for r in range(k + 1, n_rows) for c in range(k + 1, n_cols)
                    if d[r][c] % d[k][k] != 0), None)
        if off is not None:
            d[k] = [x + y for x, y in zip(d[k], d[off[0]])]
            ur[k] = [x + y for x, y in zip(ur[k], ur[off[0]])]
            continue
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            ur[k] = [-x for x in ur[k]]
        k += 1
        if k == min(n_rows, n_cols):
            break
    return u, _wrap(d, n_cols), v


def saturate_rows(b):
    """Z-basis (rows) of the saturation of the row span of integer matrix b.

    The saturation is (Q-row-span of b) intersected with Z^n: the first rank(b)
    rows of the unimodular V^-1 of U b V = D, and U b = D V^-1 gives them.
    """
    b = to_int(b)
    u, d, _ = smith_normal_form(b)
    ub = mul(u, b).rows
    pivots = [(d.rows[k][k], ub[k]) for k in range(min(d.shape)) if d.rows[k][k]]
    if any(x % dk for dk, row in pivots for x in row):
        raise RuntimeError("saturate rows: a row of U b is not divisible by its d_k")
    return _wrap([[x // dk for x in row] for dk, row in pivots], b.ncols)


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
            out.rows[i][n + i] = dlt
            out.rows[n + i][i] = -dlt
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
    m = phi.copy().rows
    u = eye(n2).rows

    def col_op(dst, src, f):
        # congruence: same op on columns and on rows
        for rows in (m, u):
            for row in rows:
                row[dst] += f * row[src]
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]

    def swap(a, b):
        for rows in (m, u):
            for row in rows:
                row[a], row[b] = row[b], row[a]
        m[a], m[b] = m[b], m[a]

    # build hyperbolic pairs in adjacent columns (2k, 2k+1)
    for k in range(n):
        t = 2 * k
        while True:
            best = None
            for i in range(t, n2):
                for j in range(i + 1, n2):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            i, j = best
            if i != t:
                swap(t, i)
                if j == t:
                    j = i
            if j != t + 1:
                swap(t + 1, j)
            if m[t][t + 1] < 0:
                swap(t, t + 1)
            p = m[t][t + 1]
            dirty = False
            for c in range(t + 2, n2):
                if m[t][c] != 0:
                    q = m[t][c] // p
                    col_op(c, t + 1, -q)
                    if m[t][c] != 0:
                        dirty = True
                if m[t + 1][c] != 0:
                    q = m[t + 1][c] // p
                    col_op(c, t, q)
                    if m[t + 1][c] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining submatrix (divisibility chain)
            off = next(((i2, j2) for i2 in range(t + 2, n2) for j2 in range(i2 + 1, n2)
                        if m[i2][j2] % p != 0), None)
            if off is None:
                break
            col_op(t, off[0], 1)
    deltas = [int(m[2 * k][2 * k + 1]) for k in range(n)]
    # reorder adjacent pairs (e_1, e_-1, e_2, e_-2, ...) -> (e_1..e_n, e_-1..e_-n)
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    basis = _wrap([[row[c] for c in perm] for row in u], n2)
    out = SkewNormalForm(basis, deltas)
    if not mat_eq(mul(basis.T, mul(phi, basis)), out.block_form()):
        raise RuntimeError("skew normal form: u^t phi u is not the block form")
    if abs(det(basis)) != 1:
        raise RuntimeError("skew normal form: basis change is not unimodular")
    if any(b % a for a, b in zip(deltas, deltas[1:])):
        raise RuntimeError("skew normal form: invariant factors do not divide in turn")
    return out
