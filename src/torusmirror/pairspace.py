"""The lattice Lambda = Gamma + Gamma* with the hyperbolic form Q, the
product complex structure, the operator I_omega and pair classification.

Every computation with Q lives here.  Q swaps the two halves of a vector of
Lambda, so Q.m and m.Q move rows or columns, and Q is never multiplied as a
matrix."""

from operator import mul

from . import exactlin as xl
from . import torus as ts
from .errors import Block12Singular, NotNSForm, SingularMatrix


class WeakPair:
    """A torus together with omega = phi1 + i*phi2, phi1 and phi2 NS forms
    (skew and J-invariant), phi2 nondegenerate, and I_omega, computed once
    when the pair is made from its own copies of phi1 and phi2; i_omega gives
    a copy."""

    def __init__(self, torus, phi1, phi2):
        phi1, phi2 = xl.mat(phi1), xl.mat(phi2)
        _require_ns_forms(torus, phi1, phi2)
        self.torus, self.phi1, self.phi2 = torus, phi1, phi2
        self._i_omega = _i_omega_of(phi1, phi2, _invert_phi2(phi2))

    @classmethod
    def _with_i_omega(cls, torus, phi1, phi2, i_omega):
        """The pair of phi1 and phi2, NS forms already checked, with its known
        I_omega, taking over all three."""
        p = object.__new__(cls)
        p.torus, p.phi1, p.phi2, p._i_omega = torus, phi1, phi2, i_omega
        return p

    def __eq__(self, other):
        return (isinstance(other, WeakPair) and self.torus == other.torus
                and xl.mat_eq(self.phi1, other.phi1) and xl.mat_eq(self.phi2, other.phi2))


def _i_omega_of(phi1, phi2, phi2_inv):
    """I_omega = [[phi2^-1 phi1, -phi2^-1], [phi2 + phi1 phi2^-1 phi1,
    -phi1 phi2^-1]] for skew phi1 and phi2, where phi1 phi2^-1 =
    (phi2^-1 phi1)^T: block (2,2) is minus block (1,1) transposed."""
    tl = xl.mul(phi2_inv, phi1)
    return xl.block([[tl, -phi2_inv], [phi2 + xl.mul(phi1, tl), -tl.T]])


def _invert_phi2(phi2):
    """phi2^-1; a degenerate phi2 is not the imaginary part of a weak pair."""
    try:
        return xl.invert(phi2)
    except SingularMatrix:
        raise NotNSForm("phi2 must be nondegenerate")


def q_left(m):
    """Q.m for the hyperbolic form Q: m with its row halves swapped, in new
    row lists."""
    out = xl.asmat(m).copy()
    h = len(out.num) // 2
    out.num = out.num[h:] + out.num[:h]
    return out


def q_swap(v):
    """Q v for the hyperbolic form Q: the vector v with its halves swapped."""
    d = len(v) // 2
    return v[d:] + v[:d]


def q_gram(us, vs):
    """The row lists of Q(u, v) = u . (Q v), one row per u in us and one
    column per v in vs, for vectors of one length given as sequences."""
    swapped = [q_swap(v) for v in vs]
    return [[sum(map(mul, u, v)) for v in swapped] for u in us]


def is_isotropic(vs):
    """Does Q vanish on the span of the vectors vs, given as sequences of one
    length?  Q is symmetric, so each unordered pair Q(u, v), u = v included,
    is read once, and the test stops at the first value that is not 0."""
    swapped = [q_swap(v) for v in vs]
    return not any(sum(map(mul, u, v)) for i, u in enumerate(vs) for v in swapped[i:])


def is_q_isometry(g):
    """Is the matrix g a Q-isometry, g^T Q g = Q?  False when g is not square
    or not of even size.

    For g = num / den it compares the Gram matrix num^T (Q num) with den^2 Q,
    row by row, and stops at the first row that differs.  When at least three
    in four entries of num are 0, as in a mirror certificate, row i is the sum
    of the sparse rows of Q num over the nonzero entries of num's column i,
    and is compared whole.  Otherwise each entry is a dense dot product, and
    since both sides are symmetric, row i is compared from column i on, where
    den^2 Q holds den^2 at column i + d for i < d and nothing for i >= d."""
    g = xl.asmat(g)
    num = g.num
    size = len(num)
    if g.ncols != size or size % 2:
        return False
    d = size // 2
    dd = g.den * g.den
    if 4 * sum(row.count(0) for row in num) >= 3 * size * size:
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in num]
        q_rows = q_swap(sparse)  # the sparse rows of Q num
        for i, col in enumerate(zip(*num)):
            acc = [0] * size
            for r, x in enumerate(col):
                if x:
                    for j, v in q_rows[r]:
                        acc[j] += x * v
            acc[i + d if i < d else i - d] -= dd
            if any(acc):
                return False
        return True
    q_cols = list(zip(*q_swap(num)))  # the columns of Q num
    for i, u in enumerate(zip(*num)):
        row = [sum(map(mul, u, v)) for v in q_cols[i:]]
        if i < d:
            row[d] -= dd
        if any(row):
            return False
    return True


def _require_ns_forms(A, phi1, phi2):
    if not ts.is_ns_form(A, phi1) or not ts.is_ns_form(A, phi2):
        raise NotNSForm("phi1/phi2 must be skew and J-invariant")


def make_weak_pair(A, phi1, phi2):
    return WeakPair(A, phi1, phi2)


def conjugate_pair(p):
    """omega-bar = phi1 - i*phi2, whose (-phi2)^-1 is block (1,2) of I_omega."""
    d, phi1, phi2 = 2 * p.torus.n, p.phi1.copy(), -p.phi2
    return WeakPair._with_i_omega(p.torus, phi1, phi2, _i_omega_of(phi1, phi2, p._i_omega[:d, d:]))


def i_omega(p):
    """The canonical Q-orthogonal complex structure attached to omega; a copy,
    so that editing it leaves the pair as it is."""
    return p._i_omega.copy()


def classify_pair(p):
    """omega = phi1 + i*phi2 lies in C_A^+ = NS_A(R) + i*C_A^a when phi2 is a
    polarization, in C_A^- when -phi2 is one.  The polarization form of -phi2
    is -b for that of phi2, b, so one symmetry test and the definiteness of b
    decide both."""
    b = ts.polarization_form(p.torus, p.phi2)
    if xl.mat_eq(b, b.T):
        sign = xl.definiteness(b)
        if sign:
            return "AlgebraicPlus" if sign > 0 else "AlgebraicMinus"
    return "WeakOnly"


def recover_omega(A, I):
    """Read omega back off a complex structure of I_omega shape, whose block
    (1,2) is -phi2^-1; the pair keeps a copy of I once its other blocks check."""
    d, I = 2 * A.n, xl.asmat(I)
    i12, i22 = I[:d, d:], I[d:, d:]
    try:
        i12_inv = xl.invert(i12)
    except SingularMatrix:
        raise Block12Singular("block (1,2) of I is singular; I is not an I_omega")
    phi1, phi2 = xl.mul(i22, i12_inv), -i12_inv
    _require_ns_forms(A, phi1, phi2)
    tl = xl.mul(-i12, phi1)
    if not (xl.mat_eq(I[:d, :d], tl) and xl.mat_eq(I[d:, :d], phi2 + xl.mul(phi1, tl))
            and xl.mat_eq(i22, -tl.T)):
        raise ValueError("I is not the I_omega of the pair read off its blocks")
    return WeakPair._with_i_omega(A, phi1, phi2, I.copy())
