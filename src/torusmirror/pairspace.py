"""The lattice Lambda = Gamma + Gamma* with the hyperbolic form Q, the
product complex structure, the operator I_omega and pair classification."""

from . import exactlin as xl
from . import torus as ts
from .errors import Block12Singular, NotNSForm, SingularMatrix


class WeakPair:
    """A torus together with omega = phi1 + i*phi2, phi2 nondegenerate, and
    I_omega, computed once when the pair is made from its own copies of phi1
    and phi2; i_omega gives a copy."""

    def __init__(self, torus, phi1, phi2):
        self.torus = torus
        self.phi1 = phi1 = xl.mat(phi1)
        self.phi2 = phi2 = xl.mat(phi2)
        try:
            phi2_inv = xl.invert(phi2)
        except SingularMatrix:
            raise NotNSForm("phi2 must be nondegenerate")
        tl = xl.mul(phi2_inv, phi1)
        bl = phi2 + xl.mul(phi1, tl)
        br = -xl.mul(phi1, phi2_inv)
        self._i_omega = xl.block([[tl, -phi2_inv], [bl, br]])

    def __eq__(self, other):
        return (isinstance(other, WeakPair) and self.torus == other.torus
                and xl.mat_eq(self.phi1, other.phi1) and xl.mat_eq(self.phi2, other.phi2))


def q_form(n):
    d = 2 * n
    q = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        q[i][d + i] = 1
        q[d + i][i] = 1
    return xl.mat(q)


def jprod(A):
    """The product complex structure J + (-J^T) on Lambda = Gamma + Gamma*."""
    z = xl.zeros(2 * A.n)
    return xl.block([[A.J, z], [z, -A.J.T]])


def make_weak_pair(A, phi1, phi2):
    phi1, phi2 = xl.asmat(phi1), xl.asmat(phi2)
    if not ts.is_ns_form(A, phi1) or not ts.is_ns_form(A, phi2):
        raise NotNSForm("phi1/phi2 must be skew and J-invariant")
    return WeakPair(A, phi1, phi2)


def conjugate_pair(p):
    """omega-bar = phi1 - i*phi2."""
    return WeakPair(p.torus, p.phi1, -p.phi2)


def i_omega(p):
    """The canonical Q-orthogonal complex structure attached to omega; a copy,
    so that editing it leaves the pair as it is."""
    return p._i_omega.copy()


def classify_pair(p):
    """omega = phi1 + i*phi2 lies in C_A^+ = NS_A(R) + i*C_A^a when phi2 is a
    polarization, in C_A^- when -phi2 is one."""
    if ts.check_polarization(p.torus, p.phi2):
        return "AlgebraicPlus"
    if ts.check_polarization(p.torus, -p.phi2):
        return "AlgebraicMinus"
    return "WeakOnly"


def recover_omega(A, I):
    """Read omega back off a complex structure of I_omega shape."""
    d = 2 * A.n
    I = xl.asmat(I)
    i12 = I[:d, d:]
    i22 = I[d:, d:]
    try:
        i12_inv = xl.invert(i12)
    except SingularMatrix:
        raise Block12Singular("block (1,2) of I is singular; I is not an I_omega")
    phi2 = -i12_inv
    phi1 = xl.mul(i22, i12_inv)
    pair = make_weak_pair(A, phi1, phi2)
    if not xl.mat_eq(pair._i_omega, I):
        raise ValueError("I is not the I_omega of the pair read off its blocks")
    return pair
