"""Complex tori with rational complex structure: duals, NS forms, homs, polarizations.

The lattice is always Z^{2n} in the standard basis.  The dual torus carries
J-hat = -J^t in the dual basis; at matrix level the double dual is the
identity (the geometric sign of the double-dual identification is a
convention on l**, not on matrices, and never enters the formulas here).
"""

from functools import cached_property
from math import gcd

from . import exactlin as xl
from .errors import NotComplexStructure


class Torus:
    """A torus holds its own copy of J, a 2n x 2n matrix with J^2 = -1, and
    builds the product complex structure on Lambda from it once, when it is
    first read."""

    def __init__(self, n, J):
        J = xl.mat(J)
        if J.shape != (2 * n, 2 * n):
            raise NotComplexStructure(f"J must be {2 * n}x{2 * n}")
        if not xl.mat_eq(xl.mul(J, J), -xl.eye(2 * n)):
            raise NotComplexStructure("J^2 != -identity")
        self.n, self.J = n, J

    @cached_property
    def _jprod(self):
        """J + (-J^T) on Lambda = Gamma + Gamma*, shared: read it, never write
        into it.  Built from J's rows over J's den, canonical as J is."""
        num, z = self.J.num, [0] * (2 * self.n)
        return xl._wrap([row + z for row in num] + [z + [-x for x in col] for col in zip(*num)],
                        self.J.den, 4 * self.n)

    def __eq__(self, other):
        return isinstance(other, Torus) and self.n == other.n and xl.mat_eq(self.J, other.J)

    def __repr__(self):
        return f"Torus(n={self.n})"


class NSVector:
    """An integral or rational Neron-Severi class: skew and J-invariant."""

    def __init__(self, c):
        self.c = xl.asmat(c)

    def __eq__(self, other):
        return isinstance(other, NSVector) and xl.mat_eq(self.c, other.c)


def as_form(c):
    """The matrix of an NSVector, or c read as a matrix."""
    return c.c if isinstance(c, NSVector) else xl.asmat(c)


def make_torus(n, J):
    return Torus(n, J)


def dual_torus(A):
    return Torus(A.n, -A.J.T)


def is_ns_form(A, c):
    """Skew and J-invariant, J^T c J = c.  Since J^-1 = -J (Torus checks
    J^2 = -1) and (J^T c)^T = -cJ for skew c, that is: J^T c is symmetric."""
    c = xl.asmat(c)
    if not (c.shape == A.J.shape and xl.is_skew(c)):
        return False
    b = xl.mul(A.J.T, c)
    return xl.mat_eq(b, b.T)


def _kernel(rows, nvars):
    """Basis of the rational solution space of the sparse equations rows
    (dicts {variable: coefficient}), read off their reduced row echelon form."""
    ech = xl.Echelon()
    for row in rows:
        ech.add(row)
    return ech.kernel(nvars)


def _saturated(basis):
    """Z-basis of the integer points of the rational span of the vectors basis:
    each vector is made primitive, its denominators cleared and its content
    divided out, before the span is saturated."""
    rows = []
    for v in basis:
        row = xl._clear_denominators(v)[1]
        g = gcd(*row) or 1
        rows.append([x // g for x in row])
    return xl.saturate_rows(rows).rows


def _reshape(v, r, c):
    """The r x c matrix whose rows are the consecutive pieces of the list v."""
    return xl.mat([v[i * c:(i + 1) * c] for i in range(r)])


def ns_basis(A):
    """Z-basis of the lattice of integral skew J-invariant forms on Gamma.

    A skew c is given by its entries c_rs below the diagonal, the unknowns,
    ordered by r*d + s as in c itself.  J^t c J is skew with c, so the
    equations (J^t c J - c)_ij = 0 for i < j are all of them.  Every skew form
    has its last nonzero entry below the diagonal, so the free unknowns and
    the kernel basis are those of the system on all d^2 entries of c.
    """
    d = 2 * A.n
    J, d2 = A.J.num, A.J.den ** 2
    lower = [(r, s) for r in range(d) for s in range(r)]
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            # times den(J)^2: (J^t c J)_ij is the sum over r > s of
            # c_rs (J_ri J_sj - J_si J_rj), and -c_ij is c_ji, the unknown
            # at j(j-1)/2 + i
            row = [J[r][i] * J[s][j] - J[s][i] * J[r][j] for r, s in lower]
            row[j * (j - 1) // 2 + i] += d2
            rows.append({k: v for k, v in enumerate(row) if v})
    skew = []
    for v in _kernel(rows, len(lower)):
        c = [0] * (d * d)
        for (r, s), x in zip(lower, v):
            c[r * d + s], c[s * d + r] = x, -x
        skew.append(c)
    return [NSVector(_reshape(v, d, d)) for v in _saturated(skew)]


def hom_space(A, B):
    """Z-basis of { f : J_B f = f J_A } among integer matrices Gamma_A -> Gamma_B."""
    da, db = 2 * A.n, 2 * B.n
    ja, jb = A.J.num, B.J.num
    # (J_B f - f J_A)_ij = 0, times den(J_A) den(J_B)
    fa, fb = B.J.den, A.J.den
    rows = []
    for i in range(db):
        for j in range(da):
            row = {}
            for k in range(db):
                if jb[i][k] != 0:
                    row[k * da + j] = row.get(k * da + j, 0) + fb * jb[i][k]
            for k in range(da):
                if ja[k][j] != 0:
                    row[i * da + k] = row.get(i * da + k, 0) - fa * ja[k][j]
            rows.append({k: v for k, v in row.items() if v != 0})
    return [_reshape(v, db, da) for v in _saturated(_kernel(rows, db * da))]


def polarization_form(A, c):
    """Gram matrix of b_c(x, y) = c(Jx, y)."""
    return xl.mul(-A.J.T, as_form(c))


def check_polarization(A, c):
    """Is the polarization form of c symmetric and positive definite?"""
    b = polarization_form(A, c)
    return xl.mat_eq(b, b.T) and xl.definiteness(b) == 1


def find_polarization(A):
    """The primitive integral multiple of c = J^T - J, a polarization of every
    torus here: c is skew, J^T c J = -J + J^T = c since J^2 = -1, and its
    polarization form -J^T c = 1 + J^T J is symmetric positive definite."""
    return NSVector(xl.primitive_int(A.J.T - A.J))
