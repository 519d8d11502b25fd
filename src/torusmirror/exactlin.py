"""Exact linear algebra over Z and Q.

A matrix is a `Matrix`: one integer matrix over one denominator, `num` (a
list of rows of python ints) and `den` (a positive int), kept canonical with
gcd(den, every entry of num) = 1, so an integral matrix is one with den = 1.
This is the layout of FLINT's fmpq_mat: a product is an integer product and
one gcd pass, equality compares (den, num), and elimination runs on the rows
of num.  Entries become ints, or fractions.Fraction values where they are
not integral, only where they are read (indexing, iteration, `rows`,
`tolist`).  A vector is a plain list.  Every public function reads its matrix
arguments row by row, so nested sequences, numpy object arrays and `Matrix`
values are all accepted, and the package itself never imports numpy.  The
one computation over Q(i), the Siegel action, is solved through its real
form (siegel.siegel_act).
"""

import sys
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from numbers import Integral, Rational
from operator import index

from .errors import Degenerate, NotSkew, NotSymmetric, SingularMatrix


class Matrix:
    """A dense exact matrix num / den: `num` a list of int row lists, `den` a
    positive int with gcd(den, num) = 1, and `ncols`.

    Indexing follows numpy for ints and slices: m[i, j] is an entry, m[i] and
    m[:, j] are a row and a column as new lists, and slices give matrices.  A
    list of indices selects those rows or columns, so m[rows, cols] with two
    lists is a submatrix (numpy's m[np.ix_(rows, cols)]).  + and - are
    entrywise, * scales by a number, == is mat_eq.  `rows` is a new list of
    the entries, int where integral.
    """

    __slots__ = ("num", "den", "ncols")
    # numpy's operators defer to ours: ndarray + Matrix is Matrix.__radd__
    __array_ufunc__ = None

    @property
    def shape(self):
        return (len(self.num), self.ncols)

    @property
    def rows(self):
        den = self.den
        if den == 1:
            return [row[:] for row in self.num]
        return [[_div(x, den) for x in row] for row in self.num]

    @property
    def T(self):
        if not self.num:
            return _wrap([[] for _ in range(self.ncols)], 1, 0)
        return _wrap([list(col) for col in zip(*self.num)], self.den, len(self.num))

    def copy(self):
        return _wrap([row[:] for row in self.num], self.den, self.ncols)

    def tolist(self):
        return self.rows

    def __len__(self):
        return len(self.num)

    def __iter__(self):
        return iter(self.rows)

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
        for k, size in ((i, len(self.num)), (j, self.ncols)):
            if isinstance(k, slice):
                axes.append((range(size)[k], False))
            elif isinstance(k, (list, tuple)):
                axes.append(([index(x) for x in k], False))
            else:
                axes.append(([index(k)], True))
        (rows, row_int), (cols, col_int) = axes
        return rows, cols, row_int, col_int

    def __getitem__(self, key):
        den = self.den
        if type(key) is tuple:
            i, j = key[0], key[1]
            if type(i) is int and type(j) is int:
                x = self.num[i][j]
                return x if den == 1 else _div(x, den)
            if type(i) is slice and type(j) is slice:
                return _canon([row[j] for row in self.num[i]], den, len(range(self.ncols)[j]))
        rows, cols, row_int, col_int = self._ids(key)
        out = [[self.num[r][c] for c in cols] for r in rows]
        if not (row_int or col_int):
            return _canon(out, den, len(cols))
        line = out[0] if row_int else [row[0] for row in out]
        if den != 1:
            line = [_div(x, den) for x in line]
        return line[0] if row_int and col_int else line

    def __setitem__(self, key, value):
        if (type(key) is tuple and type(key[0]) is int and type(key[1]) is int
                and type(value) is int and self.den == 1):
            self.num[key[0]][key[1]] = value
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
        # integers go straight into an integral matrix; anything else is
        # written into the entries, which are then read back in canonical form
        ints = self.den == 1 and set(map(type, chain.from_iterable(grid))) <= {int}
        target = self.num if ints else self.rows
        for r, values in zip(rows, grid):
            row = target[r]
            for c, x in zip(cols, values):
                row[c] = x
        if not ints:
            m = _from_entries(target, self.ncols)
            self.num, self.den = m.num, m.den

    def __eq__(self, other):
        try:
            return mat_eq(self, other)
        except (TypeError, ValueError):
            return NotImplemented

    def __neg__(self):
        return _wrap([[-x for x in row] for row in self.num], self.den, self.ncols)

    def __add__(self, other):
        return _combine(self, _same_shape(self, other, "add"), 1)

    def __sub__(self, other):
        return _combine(self, _same_shape(self, other, "subtract"), -1)

    def __radd__(self, other):
        return asmat(other) + self

    def __rsub__(self, other):
        return asmat(other) - self

    def __mul__(self, c):
        if not isinstance(c, Rational):
            return NotImplemented
        c = _entry(c)
        p = c.numerator
        return _canon([[x * p for x in row] for row in self.num],
                      self.den * c.denominator, self.ncols)

    __rmul__ = __mul__


def _wrap(num, den, ncols):
    """A Matrix that takes over the given canonical num and den without copying."""
    m = object.__new__(Matrix)
    m.num = num
    m.den = den
    m.ncols = ncols
    return m


def _canon(num, den, ncols):
    """The Matrix num / den for int rows num and den > 0, which it takes over,
    with the gcd of den and the entries divided out."""
    if den != 1:
        g = den
        for row in num:
            g = gcd(g, *row)
            if g == 1:
                return _wrap(num, den, ncols)
        num = [[x // g for x in row] for row in num]
        den //= g
    return _wrap(num, den, ncols)


def _from_entries(rows, ncols):
    """The Matrix of row lists of ints and Fractions, which it takes over.  Its
    den is the lcm of the entries' denominators, which is canonical."""
    den = lcm(*{x.denominator for x in chain.from_iterable(rows)})
    return _wrap([[x.numerator * (den // x.denominator) for x in row] for row in rows],
                 den, ncols)


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


def _combine(a, b, sign):
    """a + sign * b for matrices of one shape, over the lcm of their dens."""
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    return _canon([[x * fa + y * fb for x, y in zip(r, s)] for r, s in zip(a.num, b.num)],
                  den, a.ncols)


def mat(rows):
    """A new exact matrix read row by row from a nested sequence of ints and
    rationals (lists, a numpy array, a Matrix)."""
    if type(rows) is Matrix:
        return rows.copy()
    shape = getattr(rows, "shape", ())
    if len(shape) == 2 and getattr(rows, "dtype", None) == object:
        # a numpy object array hands over its entries as they are in one call
        out = rows.tolist()
    else:
        out = [list(row) for row in rows]
    ncols = len(out[0]) if out else (shape[1] if len(shape) == 2 else 0)
    if any(len(row) != ncols for row in out):
        raise ValueError("matrix rows have unequal lengths")
    kinds = set(map(type, chain.from_iterable(out)))
    if kinds <= {int}:
        return _wrap(out, 1, ncols)
    if not kinds <= {int, Fraction}:
        out = [[_entry(x) for x in row] for row in out]
    return _from_entries(out, ncols)


def from_int_rows(rows, ncols):
    """The integral Matrix of rows, a list of row lists of python ints, which
    it takes over without reading them: for rows that are ints by construction."""
    return _wrap(rows, 1, ncols)


def asmat(a):
    """a itself when it is a Matrix, else mat(a)."""
    return a if type(a) is Matrix else mat(a)


def block(grid):
    """The matrix assembled from a grid (list of block rows) of matrices, its
    rows over the lcm den of the parts' dens, with no gcd pass.

    Canonical parts give a canonical block.  Take a prime q with q^e exactly
    dividing den, e >= 1.  Some part p has q^e exactly dividing its d_p, so
    d_p > 1 and, p being canonical, p has an entry prime to q.  That entry is
    scaled by den / d_p, which is prime to q as well, so q does not divide
    every entry of the block.  No prime divides den and every entry."""
    grid = [[asmat(m) for m in brow] for brow in grid]
    den = lcm(*(p.den for brow in grid for p in brow))
    rows, ncols = [], None
    for parts in grid:
        width = sum(p.ncols for p in parts)
        if (not parts or any(len(p.num) != len(parts[0].num) for p in parts)
                or ncols not in (None, width)):
            raise ValueError("blocks do not fit together")
        height = len(parts[0].num)
        ncols = width
        scaled = [(p.num, den // p.den) for p in parts]
        for i in range(height):
            row = []
            for num, f in scaled:
                row += num[i] if f == 1 else [x * f for x in num[i]]
            rows.append(row)
    return _wrap(rows, den, ncols or 0)


def eye(n):
    m = zeros(n)
    for i, row in enumerate(m.num):
        row[i] = 1
    return m


def zeros(r, c=None):
    c = r if c is None else c
    return _wrap([[0] * c for _ in range(r)], 1, c)


def mat_eq(a, b):
    a, b = asmat(a), asmat(b)
    return a.ncols == b.ncols and a.den == b.den and a.num == b.num


def is_skew(a):
    """Is a square with a^T = -a?  Entry against entry, building no matrix."""
    a = asmat(a)
    num = a.num
    return a.ncols == len(num) and all(
        row[j] == -num[j][i] for i, row in enumerate(num) for j in range(i, a.ncols))


def is_zero(a):
    return not any(map(any, asmat(a).num))


def is_integral(a):
    return asmat(a).den == 1


def to_int(a):
    a = mat(a)
    if a.den != 1:
        raise ValueError("matrix is not integral")
    return a


def mul(a, b):
    """Exact matrix product: the product of the nums, cost proportional to its
    nonzero terms, over the product of the dens."""
    a, b = asmat(a), asmat(b)
    if a.ncols != len(b.num):
        raise ValueError(f"cannot multiply a {a.shape[0]}x{a.shape[1]} matrix "
                         f"by a {b.shape[0]}x{b.shape[1]} matrix")
    ncols = b.ncols
    b_rows = [[(j, v) for j, v in enumerate(row) if v] for row in b.num]
    out = []
    for row in a.num:
        acc = [0] * ncols
        for k, x in enumerate(row):
            if x:
                for j, v in b_rows[k]:
                    acc[j] += x * v
        out.append(acc)
    return _canon(out, a.den * b.den, ncols)


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


def rank(a):
    ech = Echelon()
    for row in asmat(a).num:
        ech.add({j: x for j, x in enumerate(row) if x})
    return len(ech.int_rows)


def solve_right(a, b):
    """Solve a @ x = b exactly for square invertible a (b may be a matrix).

    One Bareiss pass over the int rows [a.num * fa | b.num * fb] leaves them
    upper triangular with last pivot D = det(a.num * fa); back-substitution
    then gives the integer matrix D x, each division exact by Cramer's rule.
    """
    a, b = asmat(a), asmat(b)
    n = len(a.num)
    if a.ncols != n:
        raise SingularMatrix("matrix not square")
    if len(b.num) != n:
        raise ValueError(f"cannot solve a {n}x{n} system for a {b.shape[0]}x{b.shape[1]} "
                         f"right-hand side")
    # a.num x = (a.den / b.den) b.num, scaled to integers on both sides
    g = gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    rows = [[x * fa for x in ra] + [x * fb for x in rb] for ra, rb in zip(a.num, b.num)]
    d = 1
    for d in _bareiss(rows):
        pass
    if d == 0:
        raise SingularMatrix("matrix is singular")
    x = [None] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        acc = [v * d for v in row[n:]]
        for j in range(k + 1, n):
            c = row[j]
            if c:
                acc = [s - c * t for s, t in zip(acc, x[j])]
        p = row[k]
        x[k] = [s // p for s in acc]
    if d < 0:
        x = [[-v for v in xk] for xk in x]
    return _canon(x, abs(d), b.ncols)


def invert(m):
    """Exact inverse; raises SingularMatrix."""
    m = asmat(m)
    return solve_right(m, eye(len(m.num)))


def _bareiss(a):
    """Fraction-free elimination (Bareiss 1968) of the int matrix a, a list
    of n row lists of any width w >= n, in place; yields each pivot as it is
    met.  It makes the first n columns upper triangular, but does not
    write the zeros below the diagonal.

    Until a pivot is 0, the k-th pivot is the leading k x k minor.  A zero
    pivot is followed by the pivot of the first lower row that is nonzero in
    its column, swapped in with the other row negated so that the
    determinant is kept, or ends the elimination if there is none.  The last
    pivot is the determinant of the first n columns.
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
        width = range(k + 1, len(top))
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in width:
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot


def det(m):
    """Bareiss on num, divided by den^n once."""
    m = asmat(m)
    n = len(m.num)
    if m.ncols != n:
        raise ValueError(f"determinant of a non-square {n}x{m.ncols} matrix")
    d = 1
    for d in _bareiss([row[:] for row in m.num]):
        pass
    return _div(d, m.den ** n)


def primitive_int(m):
    """The primitive integer matrix on the ray of the rational matrix m: num
    with the gcd of its entries divided out."""
    m = asmat(m)
    g = 0
    for row in m.num:
        g = gcd(g, *row)
    g = g or 1
    return _wrap([[x // g for x in row] for row in m.num], 1, m.ncols)


def is_unimodular(m):
    return is_integral(m) and abs(det(m)) == 1


def definiteness(m):
    """1 when every leading principal minor D_k of the square matrix m is
    positive, -1 when every (-1)^k D_k is, else 0: by Sylvester's criterion,
    for a symmetric m, positive definite, negative definite, or neither.
    The D_k are the pivots of one Bareiss elimination, read until the first
    that settles the answer, a zero one giving 0; a 0 x 0 m gives 1.
    Symmetry is the caller's to check."""
    m = asmat(m)
    if m.ncols != len(m.num):
        raise NotSymmetric("matrix not square")
    # num is m scaled by den > 0: every leading minor keeps its sign
    sign = want = 1
    for k, p in enumerate(_bareiss([row[:] for row in m.num])):
        if k == 0:
            sign = want = 1 if p > 0 else -1
        if p == 0 or (p > 0) != (want > 0):
            return 0
        want *= sign
    return sign


def _min_entry(d, lo):
    """Position of the first minimal-|value| nonzero entry of d[lo:, lo:]
    (rows d), row by row; the first entry of |value| 1 is returned at once,
    as no later entry can be smaller."""
    best, best_abs = None, None
    for i in range(lo, len(d)):
        row = d[i]
        for j in range(lo, len(row)):
            x = row[j]
            if x != 0 and (best is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


def _smith(d, ur, vr=None):
    """Smith reduction of the int rows d in place, with every row operation
    also applied to the rows ur and every column operation to the rows vr,
    unless vr is None: d becomes diagonal with a divisibility chain."""
    n_rows, n_cols = len(d), len(d[0]) if d else 0
    col_rows = (d,) if vr is None else (d, vr)
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
            for rows in col_rows:
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
                for rows in col_rows:
                    for row in rows:
                        row[c] -= q * row[k]
                if d[k][c] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the submatrix for the chain to hold;
        # a pivot +-1 divides every entry
        off = None if d[k][k] in (1, -1) else next(
            ((r, c) for r in range(k + 1, n_rows) for c in range(k + 1, n_cols)
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


def saturate_rows(b):
    """Z-basis (rows) of the saturation of the row span of integer matrix b.

    The saturation is (Q-row-span of b) intersected with Z^n: the first rank(b)
    rows of the unimodular V^-1 of U b V = D, and U b = D V^-1 gives them.
    """
    b = to_int(b)
    d, u = [row[:] for row in b.num], eye(len(b.num))
    _smith(d, u.num)
    ub = mul(u, b).num
    pivots = [(d[k][k], ub[k]) for k in range(min(len(d), b.ncols)) if d[k][k]]
    if any(x % dk for dk, row in pivots for x in row):
        raise RuntimeError("saturate rows: a row of U b is not divisible by its d_k")
    return _wrap([[x // dk for x in row] for dk, row in pivots], 1, b.ncols)


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
        out = [[0] * (2 * n) for _ in range(2 * n)]
        for i, dlt in enumerate(self.deltas):
            out[i][n + i] = dlt
            out[n + i][i] = -dlt
        return _wrap(out, 1, 2 * n)


def skew_normal_form(phi):
    """Symplectic (Frobenius) normal form of a nondegenerate skew integer matrix."""
    phi = to_int(phi)
    n2 = phi.shape[0]
    if phi.shape[1] != n2 or n2 % 2 != 0:
        raise NotSkew("skew form must be square of even size")
    if not is_skew(phi):
        raise NotSkew("matrix is not skew-symmetric")
    det_phi = det(phi)
    if det_phi == 0:
        raise Degenerate("skew form is degenerate")
    n = n2 // 2
    m = phi.copy().num
    u = eye(n2).num

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
    basis = _wrap([[row[c] for c in perm] for row in u], 1, n2)
    out = SkewNormalForm(basis, deltas)
    if not mat_eq(mul(basis.T, mul(phi, basis)), out.block_form()):
        raise RuntimeError("skew normal form: u^t phi u is not the block form")
    # det(u)^2 det(phi) = det(u^t phi u) = prod delta_k^2, so u is unimodular
    # exactly when prod delta_k^2 = det(phi)
    if prod(deltas) ** 2 != det_phi:
        raise RuntimeError("skew normal form: basis change is not unimodular")
    if any(b % a for a, b in zip(deltas, deltas[1:])):
        raise RuntimeError("skew normal form: invariant factors do not divide in turn")
    return out
