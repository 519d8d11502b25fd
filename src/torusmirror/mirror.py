"""Mirror-symmetric pairs: verification certificates, construction from
isotropic splittings, well-becoming witnesses, and the elliptic-product case.

A certificate's alpha maps Lambda_A to Lambda_B, identifies the hyperbolic
forms, and swaps the roles of the product complex structure and I_omega.
"""

from itertools import chain, product

from . import exactlin as xl
from .errors import (DifferentSource, FormMismatch, IntertwineFailure,
                     NotABasis, NotInvariant, SingularMatrix, TransversalityNotFound)
from .pairspace import is_q_isometry, make_weak_pair, q_left, recover_omega
from .siegel import u_membership
from .torus import as_form, make_torus


class MirrorCertificate:
    def __init__(self, alpha, pairA, pairB):
        self.alpha = alpha
        self.pairA = pairA
        self.pairB = pairB


class WellBecomingWitness:
    """Bases gamma1, gamma2 of transverse halves Gamma_1, Gamma_2 of Gamma."""

    def __init__(self, gamma1, gamma2):
        self.gamma1 = xl.mat(gamma1).T  # columns
        self.gamma2 = xl.mat(gamma2).T


def verify_mirror(pA, pB, alpha):
    """Check the four defining identities exactly and issue a certificate.

    Pairs of different dimensions are never mirrors: Lambda_A and Lambda_B
    then have different ranks, so no alpha identifies their forms.  When the
    ranks agree, an alpha that is not 4n x 4n is malformed input."""
    return _certify(pA, pB, xl.asmat(alpha))


def _certify(pA, pB, alpha, a_jprod=None, a_i_omega=None):
    """verify_mirror on the matrix alpha, forming alpha.Jprod_A and alpha.I_omegaA unless given."""
    na, nb = pA.torus.n, pB.torus.n
    if na != nb:
        raise FormMismatch(f"Lambda_A has rank {4 * na} and Lambda_B rank {4 * nb}, "
                           f"so no alpha identifies their forms")
    if alpha.shape != (4 * na, 4 * na):
        raise ValueError(f"alpha must be {4 * na}x{4 * na}, not "
                         f"{alpha.shape[0]}x{alpha.shape[1]}")
    # an integral Q-isometry is unimodular, since det(alpha)^2 det(Q) = det(Q);
    # the determinant only picks the message when alpha is not one
    if not xl.is_integral(alpha):
        raise FormMismatch("alpha is not an integral unimodular matrix")
    if not is_q_isometry(alpha):
        if not xl.is_unimodular(alpha):
            raise FormMismatch("alpha is not an integral unimodular matrix")
        raise FormMismatch("alpha does not identify the hyperbolic forms")
    if a_jprod is None:
        a_jprod, a_i_omega = xl.mul(alpha, pA.torus._jprod), xl.mul(alpha, pA._i_omega)
    for name, lhs, right in (("alpha.Jprod_A != I_omegaB.alpha", a_jprod, pB._i_omega),
                             ("alpha.I_omegaA != Jprod_B.alpha", a_i_omega, pB.torus._jprod)):
        rhs = xl.mul(right, alpha)
        if not xl.mat_eq(lhs, rhs):
            raise IntertwineFailure(f"{name}, first at {_first_difference(lhs, rhs)}")
    return MirrorCertificate(alpha, pA, pB)


def _first_difference(a, b):
    """Where two matrices of one shape first differ, in row-major order, as
    'row i, column j' (0-based)."""
    i, j = next((i, j) for i, (ra, rb) in enumerate(zip(a.rows, b.rows))
                for j, (x, y) in enumerate(zip(ra, rb)) if x != y)
    return f"row {i}, column {j}"


def mirror_from_splitting(p, s):
    """Mirror of p across an I_omega-invariant isotropic splitting s of Lambda_A.

    s is given in the coordinates of Lambda_A; alpha = w^-1 takes it to the
    standard splitting Gamma_B + Gamma_B*.
    """
    return _mirror_across(p, s.w, s.w_inv)


def _mirror_across(p, w, alpha):
    """Mirror of p across the splitting of Lambda_A whose halves are the first
    and last 2n columns of the basis w, a Q-isometry with inverse alpha."""
    n, d = p.torus.n, 2 * p.torus.n
    # alpha.I_omegaA and alpha.Jprod_A serve both the mirror and its certificate
    a_i_omega, a_jprod = xl.mul(alpha, p._i_omega), xl.mul(alpha, p.torus._jprod)
    i_new = xl.mul(a_i_omega, w)
    # the first (last) half is I_omega-invariant iff block (2,1) ((1,2)) vanishes
    if any(any(row[d:]) for row in i_new.num[:d]) or any(any(row[:d]) for row in i_new.num[d:]):
        raise NotInvariant("a splitting half is not I_omega-invariant")
    # Block12Singular unless J M2 is transversal to M2; I_omega(pB) must be a_jprod.w
    pB = recover_omega(make_torus(n, i_new[:d, :d]), xl.mul(a_jprod, w))
    return pB, _certify(p, pB, alpha, a_jprod, a_i_omega)


def _witness_basis(p, w):
    """The basis u0 = (Gamma_1 | Gamma_2) of Gamma the witness gives, checked,
    and its inverse."""
    n = p.torus.n
    u0 = xl.block([[w.gamma1, w.gamma2]])
    if u0.shape == (2 * n, 2 * n) and xl.is_integral(u0):
        # an integral matrix is unimodular exactly when its inverse is integral
        try:
            u0_inv = xl.invert(u0)
        except SingularMatrix:
            u0_inv = None
        if u0_inv is not None and xl.is_integral(u0_inv):
            return u0, u0_inv
    raise NotABasis("gamma1 + gamma2 is not a Z-basis of Gamma")


def _splits(form):
    """Does the matrix form vanish on both diagonal n x n blocks, on Gamma_1 and Gamma_2?"""
    rows, n = form.num, len(form.num) // 2
    return not (any(any(row[:n]) for row in rows[:n]) or any(any(row[n:]) for row in rows[n:]))


def _well_becoming(phi1, phi2, j):
    """Is a pair well-becoming in a basis u = (Gamma_1 | Gamma_2) of Gamma, its
    forms phi1, phi2 and its complex structure j written in that basis?

    Both forms must vanish on each half, and J Sigma, J W must be transversal
    to Sigma = Gamma_1* + Gamma_2 and W = Gamma_1 + Gamma_2*.  In the adapted
    coordinates (Gamma_1, Gamma_2, Gamma_1*, Gamma_2*) of Lambda, Jprod =
    diag(j, -j^T), so [W | Jprod W] splits into [[1, j11], [0, j21]] on Gamma
    and [[0, -j21^T], [1, -j22^T]] on Gamma*: W is transversal exactly when
    det j21 != 0, and Sigma, in the same way, exactly when det j12 != 0."""
    n = j.shape[0] // 2
    return (_splits(phi1) and _splits(phi2)
            and xl.det(j[:n, n:]) != 0 and xl.det(j[n:, :n]) != 0)


def _in_basis(p, u, u_inv):
    """phi1, phi2 and J of p written in the basis u of Gamma, with inverse u_inv."""
    return (xl.mul(u.T, xl.mul(p.phi1, u)), xl.mul(u.T, xl.mul(p.phi2, u)),
            xl.mul(u_inv, xl.mul(p.torus.J, u)))


def _adapted_splitting(u, u_inv, w_first):
    """(w, alpha) of the splitting (W, Sigma), or (Sigma, W), of Lambda_A for a
    basis u of Gamma with inverse u_inv: w = U P for U = [[u, 0], [0, u^-T]] and
    the permutation P of its columns, and alpha = w^-1 = P^T U^-1, all read
    off the int rows of u and u_inv, as U^-1 = [[u^-1, 0], [0, u^T]].

    U^T Q U = [[0, u^T u^-T], [u^-1 u, 0]] = Q, and P keeps Q-partners at
    distance 2n, so w is an integral Q-isometry: a Z-basis of Lambda_A whose
    halves are isotropic and Q-dual to each other.  All of it rests on
    u u_inv = 1, which is checked."""
    if not (xl.is_integral(u) and xl.is_integral(u_inv)
            and xl.mat_eq(xl.mul(u, u_inv), xl.eye(u.shape[0]))):
        raise RuntimeError("u.u^-1 != 1: the adapted basis of Gamma and its inverse disagree")
    n = u.shape[0] // 2
    z = [0] * (2 * n)
    # the columns of U that span W = Gamma_1 + Gamma_2* and Sigma = Gamma_1* + Gamma_2
    w_half = list(range(n)) + list(range(3 * n, 4 * n))
    sigma = list(range(2 * n, 3 * n)) + list(range(n, 2 * n))
    perm = w_half + sigma if w_first else sigma + w_half
    big_u = [row + z for row in u.num] + [z + list(col) for col in zip(*u_inv.num)]
    big_u_inv = [row + z for row in u_inv.num] + [z + list(col) for col in zip(*u.num)]
    return (xl.from_int_rows([[row[c] for c in perm] for row in big_u], 4 * n),
            xl.from_int_rows([big_u_inv[c] for c in perm], 4 * n))


def g_mirror(p, w):
    """Mirror of a well-becoming pair across the splitting (Sigma, W) of Lambda_A,
    Sigma = Gamma_1* + Gamma_2 and W = Gamma_1 + Gamma_2* for the witness halves."""
    u0, u0_inv = _witness_basis(p, w)
    if not _well_becoming(*_in_basis(p, u0, u0_inv)):
        raise NotABasis("witness does not exhibit p as well-becoming")
    pB, cert = _mirror_across(p, *_adapted_splitting(u0, u0_inv, w_first=False))
    if not _well_becoming(pB.phi1, pB.phi2, pB.torus.J):
        raise RuntimeError("the mirror pair is not well-becoming in the standard basis")
    return pB, cert


# ---------------------------------------------------------------------------
# elliptic-product mirrors


def _repair_candidates(n, deltas):
    """Integer matrices C with Delta.C symmetric and max-norm at most 1: C = 0
    first, then the others in the order of product((-1, 0, 1), ...)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    k = len(pairs)
    for vals in chain([(0,) * k], filter(any, product((-1, 0, 1), repeat=k))):
        # Delta.C symmetric means delta_i C[i,j] = delta_j C[j,i]; the upper
        # triangle is free as long as the forced lower entry comes out integral.
        if all(deltas[i] * v % deltas[j] == 0 for (i, j), v in zip(pairs, vals)):
            c = [[0] * n for _ in range(n)]
            for (i, j), v in zip(pairs, vals):
                c[i][j], c[j][i] = v, deltas[i] * v // deltas[j]
            yield xl.mat(c)


def elliptic_mirror(A, tau, phi):
    """Mirror of (A, tau*phi) across the splitting (W, Sigma) of Lambda_A, built
    as in g_mirror from a symplectic basis u of phi.  J Sigma must be transversal
    to Sigma; u is repaired by the first C of _repair_candidates for which block
    (2,1) of u2^-1 J u2 is nonsingular, so that J W is transversal to W (see
    _well_becoming).  The mirror is a product of isogenous elliptic curves.

    Some C of max-norm 1 always works, so the search needs no bound.  With
    J' = u^-1 J u = [[a, b], [c, d]], det b != 0 is the Sigma test, and block
    (2,1) of u2^-1 J u2 for u2 = u [[1, 0], [C, 1]] is c + dC - Ca - CbC.  For
    C = diag(t), t_i enters only row i and column i of it, so
    P(t) = det(c + dC - Ca - CbC) has degree at most 2 in each t_i, and only CbC
    reaches t_i t_j in every entry: the coefficient of t_1^2 ... t_n^2 is
    (-1)^n det b != 0.  A nonzero polynomial of degree at most 2 in each
    variable does not vanish on all of {-1, 0, 1}^n (Alon, Combinatorial
    Nullstellensatz, Lemma 2.1), and every such diagonal C is a candidate."""
    n = A.n
    c = as_form(phi)
    nf = xl.skew_normal_form(c)
    t1, t2 = tau
    pA = make_weak_pair(A, t1 * c, t2 * c)
    u = nf.basis_change
    # u^t c u = F = [[0, Delta], [-Delta, 0]], so u^-1 = F^-1 u^t c with
    # F^-1 = [[0, -Delta^-1], [Delta^-1, 0]]
    ut_c = xl.mul(u.T, c).num
    rows = [[-x for x in ut_c[n + i]] for i in range(n)] + ut_c[:n]
    deltas = nf.deltas * 2  # the diagonal of Delta + Delta
    if any(x % dk for dk, row in zip(deltas, rows) for x in row):
        raise RuntimeError("the symplectic basis change has no integral inverse")
    u_inv = xl.mat([[x // dk for x in row] for dk, row in zip(deltas, rows)])
    # a correction adds multiples of Gamma_2 to Gamma_1, which leaves Gamma_2, Gamma_1*
    # and so Sigma and block (1,2) of u2^-1 J u2 fixed: only W is repaired
    jp = xl.mul(u_inv, xl.mul(A.J, u))
    if xl.det(jp[:n, n:]) == 0:
        raise TransversalityNotFound(
            "J Sigma meets Sigma, and no symplectic correction changes Sigma")
    for tried, corr in enumerate(_repair_candidates(n, nf.deltas), 1):
        if xl.is_zero(corr):
            # u2 = u: skew_normal_form has checked u^t c u = F, and J' is known
            u2, u2_inv, jp2 = u, u_inv, jp
        else:
            # u2 = u [[1, 0], [C, 1]], so u2^-1 = [[1, 0], [-C, 1]] u^-1
            u2 = xl.block([[u[:, :n] + xl.mul(u[:, n:], corr), u[:, n:]]])
            u2_inv = xl.block([[u_inv[:n]], [u_inv[n:] - xl.mul(corr, u_inv[:n])]])
            # the repaired basis still puts phi in the same block normal form
            if not _splits(xl.mul(u2.T, xl.mul(c, u2))):
                raise RuntimeError("the repaired basis does not put phi in block normal form")
            jp2 = xl.mul(u2_inv, xl.mul(A.J, u2))
        if xl.det(jp2[n:, :n]) != 0:
            pB, cert = _mirror_across(pA, *_adapted_splitting(u2, u2_inv, w_first=True))
            return pA, pB, cert
    raise RuntimeError(f"none of the {tried} corrections C of max-norm 1 tried makes J W "
                       "transversal to W, against the Combinatorial Nullstellensatz bound")


def elliptic_factors(pB, deltas):
    """2x2 factor structures and the isogenies E_1 -> E_i of the product mirror.

    The mirror torus of elliptic_mirror decomposes over the index pairs
    (i, n+i); the isogeny sends the first factor's basis to (e_i, (d_i/d_1)e_{n+i}).
    pB and deltas come from the caller: ValueError when deltas are not n
    positive multiples of the first, when J of pB couples two index pairs, or
    when a factor is not isogenous to the first by its isogeny.
    """
    n = pB.torus.n
    if not (len(deltas) == n and all(type(d) is int and d > 0 for d in deltas)
            and all(d % deltas[0] == 0 for d in deltas)):
        raise ValueError(f"deltas must be n = {n} positive multiples of the first: {deltas!r}")
    J = pB.torus.J
    # once J is 0 outside the blocks of the index pairs, J^2 = -1 (checked by
    # Torus) makes each block a complex structure
    for r, c in product(range(2 * n), repeat=2):
        if r % n != c % n and J[r, c]:
            raise ValueError(f"J of pB couples the index pairs {[r % n, n + r % n]} and "
                             f"{[c % n, n + c % n]}: J[{r}, {c}] = {J[r, c]}, not 0")
    factors = []
    isogenies = []
    for i in range(n):
        idx = [i, n + i]
        block = J[idx, idx]
        factors.append(make_torus(1, block))
        f = xl.mat([[1, 0], [0, deltas[i] // deltas[0]]])
        if not xl.mat_eq(xl.mul(block, f), xl.mul(f, factors[0].J)):
            raise ValueError(f"deltas {deltas!r} do not fit pB: factor {i} is not isogenous "
                             f"to factor 0 by {f.tolist()}")
        isogenies.append(f)
    return factors, isogenies


def compare_mirror_isos(c1, c2):
    """gamma = alpha2^{-1} alpha1 = Q alpha2^T Q alpha1 (a certificate's alpha is
    a Q-isometry), the A-side comparison of two certificates."""
    if not (c1.pairA == c2.pairA):
        raise DifferentSource("certificates do not share the source pair")
    gamma = xl.to_int(q_left(xl.mul(c2.alpha.T, q_left(c1.alpha))))
    if c1.pairB.torus == c2.pairB.torus:
        iw = c1.pairA._i_omega
        if not xl.mat_eq(xl.mul(gamma, iw), xl.mul(iw, gamma)):
            raise RuntimeError("gamma does not commute with I_omega of the source")
    if c1.pairB == c2.pairB:
        if not u_membership(gamma, c1.pairA.torus):
            raise RuntimeError("gamma is not in U(Lambda_A) although the mirrors agree")
    return gamma
