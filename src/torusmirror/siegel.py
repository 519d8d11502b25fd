"""The rational symmetry group of Lambda and its action on the omega domain.

Group elements are 4n x 4n block matrices [[a, b], [c, d]] with a: Gamma ->
Gamma, b: Gamma* -> Gamma, c: Gamma -> Gamma*, d: Gamma* -> Gamma*; they act
on omega = phi1 + i*phi2 by omega -> (c + d.omega)(a + b.omega)^{-1},
computed exactly over the Gaussian rationals as one linear solve over Q.
"""

from . import exactlin as xl
from .errors import FormMismatch, NotInvertible, SingularMatrix
from .pairspace import is_q_isometry, make_weak_pair


def blocks(g):
    g = xl.asmat(g)
    d = g.shape[0] // 2
    return g[:d, :d], g[:d, d:], g[d:, :d], g[d:, d:]


def u_membership(g, A):
    """Integral unimodular special Q-isometries commuting with Jprod."""
    g = xl.asmat(g)
    if g.shape != (4 * A.n, 4 * A.n):
        return False
    if not (xl.is_integral(g) and xl.det(g) == 1 and is_q_isometry(g)):
        return False
    jp = A._jprod
    return xl.mat_eq(xl.mul(g, jp), xl.mul(jp, g))


def require_q_isometry(g, n):
    """Raise ValueError unless g is 4n x 4n, and FormMismatch unless
    g^T Q g = Q on Lambda of rank 4n."""
    g = xl.asmat(g)
    if g.shape != (4 * n, 4 * n):
        raise ValueError(f"g must be {4 * n}x{4 * n} for n = {n}, not {g.shape[0]}x{g.shape[1]}")
    if not is_q_isometry(g):
        raise FormMismatch("g is not a Q-isometry of Lambda: g^T Q g != Q")


def siegel_act(g, omega):
    """(c + d.omega)(a + b.omega)^{-1} = Xr + i Xi as (Xr, Xi): X D = N for
    D = a + b.omega and N = c + d.omega, transposed and written over Q, is
    [[Dr^T, -Di^T], [Di^T, Dr^T]] [Xr^T; Xi^T] = [Nr^T; Ni^T], read off the int
    columns k and d + k, k < d, of g [[1, 0], [phi1, phi2]] = [[Dr, Di], [Nr, Ni]]."""
    phi1, phi2 = xl.asmat(omega[0]), xl.asmat(omega[1])
    d, g = len(phi1), xl.asmat(g)
    if g.shape != (2 * d, 2 * d):
        raise ValueError(f"g must be {2 * d}x{2 * d}, not {g.shape[0]}x{g.shape[1]}")
    cols = list(zip(*xl.mul(g, xl.block([[xl.eye(d), xl.zeros(d)], [phi1, phi2]])).num))
    lhs = ([list(r[:d]) + [-x for x in i[:d]] for r, i in zip(cols, cols[d:])]
           + [list(i[:d] + r[:d]) for r, i in zip(cols, cols[d:])])
    try:
        x = xl.solve_right(xl.from_int_rows(lhs, 2 * d),
                           xl.from_int_rows([list(c[d:]) for c in cols], d))
    except SingularMatrix:
        raise NotInvertible("a + b.omega is singular over Q(i)")
    re, im = x[:d, :].T, x[d:, :].T  # x is [Xr^T; Xi^T]
    if not (xl.is_skew(re) and xl.is_skew(im)):
        raise FormMismatch("g.omega is not skew; g is not a Q-isometry of Lambda")
    return re, im


def act_on_pair(g, p):
    """siegel_act packaged as a WeakPair on the same torus; g must be a
    Q-isometry."""
    require_q_isometry(g, p.torus.n)
    phi1, phi2 = siegel_act(g, (p.phi1, p.phi2))
    return make_weak_pair(p.torus, phi1, phi2)


def stabilizer_check(g, p):
    """Does the Q-isometry g fix omega?  Cross-checked against the closed-form
    equations.

    Expanding (c + d.omega) = omega(a + b.omega) over Q(i) gives the real and
    imaginary conditions
        c + d.phi1 = phi1.a + phi1.b.phi1 - phi2.b.phi2
        d.phi2     = phi2.a + phi2.b.phi1 + phi1.b.phi2
    """
    require_q_isometry(g, p.torus.n)
    phi1, phi2 = siegel_act(g, (p.phi1, p.phi2))
    fixed = xl.mat_eq(phi1, p.phi1) and xl.mat_eq(phi2, p.phi2)
    a, b, c, d = blocks(g)
    f1, f2 = p.phi1, p.phi2
    real_eq = xl.mat_eq(c + xl.mul(d, f1),
                        xl.mul(f1, a) + xl.mul(f1, xl.mul(b, f1)) - xl.mul(f2, xl.mul(b, f2)))
    imag_eq = xl.mat_eq(xl.mul(d, f2),
                        xl.mul(f2, a) + xl.mul(f2, xl.mul(b, f1)) + xl.mul(f1, xl.mul(b, f2)))
    if fixed != (real_eq and imag_eq):
        raise RuntimeError("stabilizer check: siegel_act disagrees with the closed-form equations")
    return fixed


def translation_element(eta, n):
    """g_eta = [[1, 0], [eta, 1]] acting by omega -> omega + eta."""
    g = xl.eye(4 * n)
    g[2 * n:, :2 * n] = eta
    return g
