"""The benchmark's own exact arithmetic over Q and Q(i).

Matrices are lists of rows of ints and Fractions.  Nothing here imports the
program under test, so the checks built on it are computations made apart
from `torusmirror.exactlin`.
"""

from fractions import Fraction


def rows(m):
    """Plain list-of-lists copy of a matrix (numpy object array or lists)."""
    return [[x for x in row] for row in m]


def eye(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col) if x) for col in bt] for row in a]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    return [[c * x for x in row] for row in a]


def neg(a):
    return [[-x for x in row] for row in a]


def eq(a, b):
    a, b = rows(a), rows(b)
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def block(grid):
    """Assemble a block matrix from a grid (list of lists) of matrices."""
    out = []
    for brow in grid:
        for i in range(len(brow[0])):
            out.append([x for m in brow for x in m[i]])
    return out


def sub_block(a, r0, r1, c0, c1):
    return [row[c0:c1] for row in a[r0:r1]]


def is_integral(a):
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def _normal(x):
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def inverse(a):
    """Gauss-Jordan inverse over Q; raises ZeroDivisionError when singular."""
    k = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
            for i, row in enumerate(a)]
    for col in range(k):
        piv = next((r for r in range(col, k) if work[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(k):
            f = work[r][col]
            if r != col and f != 0:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [[_normal(x) for x in row[k:]] for row in work]


def det(a):
    """Determinant: fraction-free (Bareiss) elimination for integer matrices,
    fraction elimination otherwise."""
    k = len(a)
    if all(isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)
           for row in a for x in row):
        work = [[int(x) for x in row] for row in a]
        sign, prev = 1, 1
        for col in range(k):
            piv = next((r for r in range(col, k) if work[r][col] != 0), None)
            if piv is None:
                return 0
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                sign = -sign
            p = work[col][col]
            for r in range(col + 1, k):
                f = work[r][col]
                work[r] = [(p * x - f * y) // prev for x, y in zip(work[r], work[col])]
            prev = p
        return sign * work[-1][-1] if k else 1
    work = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if work[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            d = -d
        p = work[col][col]
        d *= p
        for r in range(col + 1, k):
            f = work[r][col]
            if f != 0:
                f /= p
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return _normal(d)


def rank_sparse(vectors):
    """Rank of a list of sparse vectors {index: value} over Q."""
    pivots = {}
    r = 0
    for vec in vectors:
        v = {i: Fraction(x) for i, x in vec.items() if x != 0}
        while v:
            p = min(v)
            if p not in pivots:
                inv = 1 / v[p]
                pivots[p] = {i: x * inv for i, x in v.items()}
                r += 1
                break
            f = v[p]
            for i, x in pivots[p].items():
                y = v.get(i, 0) - f * x
                if y == 0:
                    v.pop(i, None)
                else:
                    v[i] = y
    return r


def rank(a):
    return rank_sparse([{j: x for j, x in enumerate(row) if x != 0} for row in a])


def is_positive_definite(a):
    """Sylvester's criterion on leading principal minors."""
    return all(det(sub_block(a, 0, k, 0, k)) > 0 for k in range(1, len(a) + 1))


def q_form(n):
    """Gram matrix of the hyperbolic form on Lambda = Gamma + Gamma*."""
    d = 2 * n
    q = zeros(2 * d, 2 * d)
    for i in range(d):
        q[i][d + i] = 1
        q[d + i][i] = 1
    return q


# ---------------------------------------------------------------------------
# Q(i): matrices as (re, im) pairs


def cmul(a, b):
    return (sub(mul(a[0], b[0]), mul(a[1], b[1])), add(mul(a[0], b[1]), mul(a[1], b[0])))


def cinverse(a):
    """Gauss-Jordan inverse over Q(i) with complex pivots."""
    k = len(a[0])
    work = [[(Fraction(a[0][i][j]), Fraction(a[1][i][j])) for j in range(k)]
            + [(Fraction(int(i == j)), Fraction(0)) for j in range(k)]
            for i in range(k)]

    def cm(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    for col in range(k):
        piv = next((r for r in range(col, k) if work[r][col] != (0, 0)), None)
        if piv is None:
            raise ZeroDivisionError("singular over Q(i)")
        work[col], work[piv] = work[piv], work[col]
        re, im = work[col][col]
        norm = re * re + im * im
        inv = (re / norm, -im / norm)
        work[col] = [cm(x, inv) for x in work[col]]
        for r in range(k):
            f = work[r][col]
            if r != col and f != (0, 0):
                work[r] = [(x[0] - cm(f, y)[0], x[1] - cm(f, y)[1])
                           for x, y in zip(work[r], work[col])]
    re = [[_normal(x[0]) for x in row[k:]] for row in work]
    im = [[_normal(x[1]) for x in row[k:]] for row in work]
    return re, im


# ---------------------------------------------------------------------------
# spinor module H* = Wedge(Gamma*) with monomials indexed by bitmasks


def popcount(mask):
    return bin(mask).count("1")


def sign_below(mask, bit):
    """(-1) to the number of set bits of mask below bit."""
    return -1 if popcount(mask & ((1 << bit) - 1)) % 2 else 1


def cor_columns(n, vec):
    """cor((l, x)) = contraction by l plus wedge by x, as sparse columns.

    Column m is a dict {row mask: coefficient}.
    """
    d = 2 * n
    cols = []
    for m in range(1 << d):
        col = {}
        for i in range(d):
            if vec[i] != 0 and m & (1 << i):
                key = m ^ (1 << i)
                col[key] = col.get(key, 0) + vec[i] * sign_below(m, i)
            if vec[d + i] != 0 and not m & (1 << i):
                key = m | (1 << i)
                col[key] = col.get(key, 0) + vec[d + i] * sign_below(m, i)
        cols.append({k: v for k, v in col.items() if v != 0})
    return cols


def dense_from_columns(cols):
    size = len(cols)
    out = zeros(size, size)
    for j, col in enumerate(cols):
        for i, v in col.items():
            out[i][j] = v
    return out


def dense_times_columns(a, cols):
    """a @ c for dense a and sparse-column c, as a dense matrix."""
    size = len(a)
    out = zeros(size, len(cols))
    for j, col in enumerate(cols):
        for k, v in col.items():
            for i in range(size):
                x = a[i][k]
                if x:
                    out[i][j] += x * v
    return out


def columns_times_dense(cols, a):
    """c @ a for sparse-column c and dense a."""
    size = len(cols)
    out = zeros(size, len(a[0]))
    for k, col in enumerate(cols):
        row_k = a[k]
        for i, v in col.items():
            row = out[i]
            for j, x in enumerate(row_k):
                if x:
                    row[j] += v * x
    return out


def bilinear(u, v):
    """q(u, v) = sum_i u_i v_{d+i} + u_{d+i} v_i on Lambda."""
    d = len(u) // 2
    return sum(u[i] * v[d + i] + u[d + i] * v[i] for i in range(d))
