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
from math import gcd, lcm
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


def _clear_denominators(values):
    """(den, ints): the least den > 0 that makes den * values integral, and
    den * values as a list of ints."""
    values = list(values)
    den, all_int = 1, True
    for v in values:
        if type(v) is not int:
            den, all_int = lcm(den, v.denominator), False
    if all_int:
        return 1, values
    return den, [v.numerator * (den // v.denominator) for v in values]


def _eliminate(row, q, other):
    """Clear column q of the int row, in place, by a*row - b*other with
    a = other[q], b = row[q], both divided by gcd(a, b); entries that cancel
    are dropped."""
    a, b = other[q], row[q]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in other.items():
        nv = row.get(c, 0) - b * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


def _div(a, b):
    """a / b for ints, an int when b divides a."""
    return a // b if a % b == 0 else Fraction(a, b)


class Echelon:
    """Incremental fraction-free Gaussian elimination on sparse rows.

    A row is a dict {column: value} of nonzero ints or rationals; rational
    rows have their denominators cleared on entry.  `int_rows` maps each
    pivot column, in the order the pivots were found, to its fully reduced
    row, 0 in every other pivot column, held as a primitive integer row with
    a positive pivot.  A fully reduced row is unique up to scale, so these
    are the rows of the reduced row echelon form with their denominators
    cleared, and their entries do not grow as rows are added.
    """

    def __init__(self):
        self.int_rows = {}

    @property
    def rows(self):
        """A new dict: each pivot column to its row scaled to 1 at the pivot."""
        return {p: {c: _div(v, row[p]) for c, v in row.items()}
                for p, row in self.int_rows.items()}

    def reduce(self, row):
        """What is left of row, up to a nonzero scale, after clearing every
        pivot column; {} if row lies in the span of the rows added."""
        row = dict(zip(row, _clear_denominators(row.values())[1]))
        # stored rows are zero in each other's pivot columns, so clearing
        # one pivot column never refills another
        for q in [c for c in row if c in self.int_rows]:
            _eliminate(row, q, self.int_rows[q])
        return row

    def add(self, row):
        """Add row to the span; False, changing nothing, if it is in it already."""
        row = self.reduce(row)
        if not row:
            return False
        p = min(row)
        g = gcd(*row.values())
        if row[p] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        for other in self.int_rows.values():
            if p in other:
                _eliminate(other, p, row)
                g = gcd(*other.values())
                if g != 1:
                    for c in other:
                        other[c] //= g
        self.int_rows[p] = row
        return True

    def kernel(self, ncols):
        """Basis of the right kernel of the rows added, as lists of length
        ncols: one per free column j, with 1 at j and 0 at the other free columns."""
        basis = []
        for j in range(ncols):
            if j in self.int_rows:
                continue
            v = [0] * ncols
            v[j] = 1
            for p, row in self.int_rows.items():
                c = row.get(j)
                if c:
                    v[p] = _div(-c, row[p])
            basis.append(v)
        return basis


def _echelon(rows):
    """Echelon of dense rows, added top to bottom."""
    ech = Echelon()
    for row in rows:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech


def rank(a):
    return len(_echelon(asmat(a).rows).int_rows)


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
    if sorted(ech.int_rows) != list(range(n)):
        raise SingularMatrix("matrix is singular")
    x = zeros(n, b.ncols)
    for p, row in ech.int_rows.items():
        out, lead = x.rows[p], row[p]
        for c, v in row.items():
            if c >= n:
                out[c - n] = _div(v, lead)
    return x


def invert(m):
    """Exact inverse; raises SingularMatrix."""
    m = asmat(m)
    return solve_right(m, eye(len(m.rows)))


def _bareiss(a):
    """Fraction-free elimination (Bareiss 1968) of the square int matrix a,
    a list of row lists, in place; yields each pivot as it is met.

    Until a pivot is 0, the k-th pivot is the leading k x k minor.  A zero
    pivot is followed by the pivot of the first lower row that is nonzero in
    its column, swapped in with the other row negated so that the
    determinant is kept, or ends the elimination if there is none.  The last
    pivot is the determinant.
    """
    n = len(a)
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        yield pivot
        if pivot == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return
            a[k], a[i] = a[i], [-x for x in a[k]]
            pivot = a[k][k]
            yield pivot
        top = a[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot


def det(m):
    m = asmat(m)
    n = len(m.rows)
    if m.ncols != n:
        raise ValueError(f"determinant of a non-square {n}x{m.ncols} matrix")
    den, rows = 1, []
    for row in m.rows:
        d, ints = _clear_denominators(row)
        den *= d
        rows.append(ints)
    d = 1
    for d in _bareiss(rows):
        pass
    return _div(d, den)


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
    """Sylvester's criterion: the leading principal minors, read as the
    pivots of one Bareiss elimination, are all positive."""
    m = asmat(m)
    if m.shape[0] != m.shape[1]:
        raise NotSymmetric("matrix not square")
    if not mat_eq(m, m.T):
        raise NotSymmetric("matrix not symmetric")
    # each row scaled by a positive factor: every leading minor keeps its sign
    return all(p > 0 for p in _bareiss([_clear_denominators(row)[1] for row in m.rows]))


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
            # the first minimum of a skew matrix lies above the diagonal
            i, j = _min_entry(m, t)
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
