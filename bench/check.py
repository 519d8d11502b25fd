"""Independent checks of the program's outputs.

Each check recomputes what the output must satisfy with the benchmark's own
exact arithmetic (`qmat`) and raises `CheckFailed` naming the identity that
does not hold.  No output is compared with a stored copy of earlier results.
"""

from fractions import Fraction
from math import gcd

import qmat as qm


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def jprod(J):
    d = len(J)
    z = qm.zeros(d, d)
    return qm.block([[J, z], [z, qm.neg(qm.transpose(J))]])


def i_omega(phi1, phi2):
    """The paper's block formula for I_omega on Lambda = Gamma + Gamma*."""
    p2i = qm.inverse(phi2)
    tl = qm.mul(p2i, phi1)
    bl = qm.add(phi2, qm.mul(phi1, qm.mul(p2i, phi1)))
    br = qm.neg(qm.mul(phi1, p2i))
    return qm.block([[tl, qm.neg(p2i)], [bl, br]])


def check_weak_pair(J, phi1, phi2):
    d = len(J)
    require(qm.eq(qm.mul(J, J), qm.neg(qm.eye(d))), "J^2 = -1")
    for phi in (phi1, phi2):
        require(qm.eq(phi, qm.neg(qm.transpose(phi))), "phi skew")
        require(qm.eq(qm.mul(qm.transpose(J), qm.mul(phi, J)), phi), "phi J-invariant")
    require(qm.det(phi2) != 0, "phi2 nondegenerate")


def classify(J, phi2):
    """Sign of the polarization form b = -J^t phi2 by Sylvester's criterion."""
    b = qm.neg(qm.mul(qm.transpose(J), phi2))
    if qm.is_positive_definite(b):
        return "AlgebraicPlus"
    if qm.is_positive_definite(qm.neg(b)):
        return "AlgebraicMinus"
    return "WeakOnly"


def check_mirror(pair_a, pair_b, alpha):
    """alpha: Lambda_A -> Lambda_B is integral, unimodular, a Q-isometry and
    swaps the product structure with I_omega on both sides."""
    J_a, J_b = qm.rows(pair_a["J"]), qm.rows(pair_b["J"])
    a1, a2 = qm.rows(pair_a["phi1"]), qm.rows(pair_a["phi2"])
    b1, b2 = qm.rows(pair_b["phi1"]), qm.rows(pair_b["phi2"])
    alpha = qm.rows(alpha)
    n = len(J_a) // 2
    check_weak_pair(J_b, b1, b2)
    require(len(alpha) == 4 * n and all(len(r) == 4 * n for r in alpha), "alpha shape")
    require(qm.is_integral(alpha), "alpha integral")
    require(qm.det(alpha) in (1, -1), "det alpha = +-1")
    q = qm.q_form(n)
    require(qm.eq(qm.mul(qm.transpose(alpha), qm.mul(q, alpha)), q), "alpha^t Q_B alpha = Q_A")
    require(qm.eq(qm.mul(alpha, jprod(J_a)), qm.mul(i_omega(b1, b2), alpha)),
            "alpha Jprod_A = I_omegaB alpha")
    require(qm.eq(qm.mul(alpha, i_omega(a1, a2)), qm.mul(jprod(J_b), alpha)),
            "alpha I_omegaA = Jprod_B alpha")
    require(classify(J_a, a2) == classify(J_b, b2), "mirror keeps the classification")


def check_siegel(g, phi1, phi2, re, im):
    """(re, im) = (c + d omega)(a + b omega)^-1 over Q(i)."""
    g = qm.rows(g)
    d = len(g) // 2
    a, b = qm.sub_block(g, 0, d, 0, d), qm.sub_block(g, 0, d, d, 2 * d)
    c, dd = qm.sub_block(g, d, 2 * d, 0, d), qm.sub_block(g, d, 2 * d, d, 2 * d)
    num = (qm.add(c, qm.mul(dd, phi1)), qm.mul(dd, phi2))
    den = (qm.add(a, qm.mul(b, phi1)), qm.mul(b, phi2))
    want_re, want_im = qm.cmul(num, qm.cinverse(den))
    require(qm.eq(re, want_re) and qm.eq(im, want_im), "siegel_act = (c + d w)(a + b w)^-1")


def ns_rank(J):
    """Dimension of the rational space of skew J-invariant forms."""
    d = len(J)
    eqs = []
    for i in range(d):
        for j in range(d):
            eqs.append({i * d + j: 1, j * d + i: 1} if i != j else {i * d + i: 1})
            row = {}
            for a in range(d):
                for b in range(d):
                    v = J[a][i] * J[b][j]
                    if v:
                        row[a * d + b] = row.get(a * d + b, 0) + v
            row[i * d + j] = row.get(i * d + j, 0) - 1
            eqs.append(row)
    return d * d - qm.rank_sparse(eqs)


def check_ns_basis(J, basis):
    J = qm.rows(J)
    basis = [qm.rows(c) for c in basis]
    for c in basis:
        require(qm.is_integral(c), "NS basis element integral")
        require(qm.eq(c, qm.neg(qm.transpose(c))), "NS basis element skew")
        require(qm.eq(qm.mul(qm.transpose(J), qm.mul(c, J)), c), "NS basis element J-invariant")
    flat = [{k: x for k, x in enumerate(v for row in c for v in row) if x} for c in basis]
    require(qm.rank_sparse(flat) == len(basis) == ns_rank(J), "NS basis spans the NS space")


def check_elliptic(sample, pair_a, pair_b, alpha, factors, isogenies):
    n = sample["n"]
    t1, t2 = sample["tau"]
    require(qm.eq(pair_a["phi1"], qm.scale(sample["phi"], t1))
            and qm.eq(pair_a["phi2"], qm.scale(sample["phi"], t2)), "source pair is tau.phi")
    check_mirror(pair_a, pair_b, alpha)
    J_b = qm.rows(pair_b["J"])
    require(len(factors) == n == len(isogenies), "one factor per elliptic curve")
    first = None
    for i, (fac, iso) in enumerate(zip(factors, isogenies)):
        block = [[J_b[r][c] for c in (i, n + i)] for r in (i, n + i)]
        fac, iso = qm.rows(fac), qm.rows(iso)
        require(qm.eq(fac, block), "factor is the (i, n+i) block of J_B")
        require(qm.eq(qm.mul(fac, fac), qm.neg(qm.eye(2))), "factor J^2 = -1")
        first = first or fac
        require(qm.is_integral(iso) and qm.det(iso) != 0, "isogeny integral, nonzero det")
        require(qm.eq(qm.mul(fac, iso), qm.mul(iso, first)), "isogeny intertwines")
    outside = [J_b[r][c] for r in range(2 * n) for c in range(2 * n) if r % n != c % n]
    require(not any(outside), "mirror torus is a product of the factor blocks")


def check_hom_space(j_a, j_b, basis):
    """Each basis map f is integral with J_B f = f J_A, and the basis has the
    dimension of the rational solution space."""
    for f in basis:
        require(qm.is_integral(f), "hom integral")
        require(qm.eq(qm.mul(j_b, f), qm.mul(f, j_a)), "hom intertwines J")
    da, db = len(j_a), len(j_b)
    eqs = []
    for i in range(db):
        for j in range(da):
            row = {}
            for k in range(da):
                row[k * da + j] = row.get(k * da + j, 0) + j_b[i][k]
                row[i * da + k] = row.get(i * da + k, 0) - j_a[k][j]
            eqs.append(row)
    flat = [{k: x for k, x in enumerate(v for row in f for v in row) if x} for f in basis]
    require(qm.rank_sparse(flat) == len(basis) == da * db - qm.rank_sparse(eqs),
            "hom basis spans the solution space")


# ---------------------------------------------------------------------------
# spinor layer


def splitting_inverse_w(n, basis1, basis2):
    """W^-1 for W = [basis1 | Q-dual of basis1 inside span(basis2)]."""
    b1 = qm.transpose([list(v) for v in basis1])
    b2 = qm.transpose([list(v) for v in basis2])
    pairing = qm.mul(qm.transpose(b2), qm.mul(qm.q_form(n), b1))
    b2_dual = qm.mul(b2, qm.transpose(qm.inverse(pairing)))
    return qm.inverse(qm.block([[b1, b2_dual]]))


def check_beta(n, split1, split2, beta, parity):
    """beta cor_{s1}(e_k) = cor_{s2}(e_k) beta for every k, beta primitive and
    sign-normalized, and the parity follows the intersection-rank rule."""
    beta = qm.rows(beta)
    size = 1 << (2 * n)
    require(len(beta) == size and qm.is_integral(beta), "beta integral of size 4^n")
    flat = [x for row in beta for x in row]
    nz = [x for x in flat if x != 0]
    require(nz and nz[0] > 0, "beta nonzero with positive leading entry")
    g = 0
    for x in nz:
        g = gcd(g, int(x))
    require(g == 1, "beta primitive")
    w1 = splitting_inverse_w(n, split1["basis1"], split1["basis2"])
    w2 = splitting_inverse_w(n, split2["basis1"], split2["basis2"])
    for k in range(4 * n):
        c1 = qm.cor_columns(n, [row[k] for row in w1])
        c2 = qm.cor_columns(n, [row[k] for row in w2])
        require(qm.eq(qm.dense_times_columns(beta, c1), qm.columns_times_dense(c2, beta)),
                f"beta cor_s1(e_{k}) = cor_s2(e_{k}) beta")
    even = all(x == 0 or (qm.popcount(i) + qm.popcount(j)) % 2 == 0
               for i, row in enumerate(beta) for j, x in enumerate(row))
    odd = all(x == 0 or (qm.popcount(i) + qm.popcount(j)) % 2 == 1
              for i, row in enumerate(beta) for j, x in enumerate(row))
    inter = 4 * n - qm.rank([list(v) for v in split1["basis1"]]
                            + [list(v) for v in split2["basis1"]])
    expected = "Even" if inter % 2 == 0 else "Odd"
    require((even if expected == "Even" else odd), "beta graded with the rule's parity")
    require(parity == expected, "parity = intersection-rank rule")


def reflection(v):
    """s_v(u) = u - q(u, v) / Q(v) v with Q(v) = l.x = cor(v)^2."""
    k = len(v)
    qv = Fraction(qm.bilinear(v, v), 2)
    e = qm.eye(k)
    cols = [[e[c][i] - Fraction(qm.bilinear(e[c], v)) / qv * v[i] for i in range(k)]
            for c in range(k)]
    return qm.transpose(cols)


def check_spin(sample, spin, r):
    require(spin is True, "z = cor(v1)...cor(v2k) is spin")
    want = qm.eye(4 * sample["n"])
    for v in sample["vectors"]:
        want = qm.mul(want, reflection(v))
    require(qm.eq(r, want), "r(z) = product of the reflections s_v")


def wedge_columns(n, i):
    """wedge with x_{i+1} as sparse columns."""
    return qm.cor_columns(n, [0] * (2 * n) + [int(j == i) for j in range(2 * n)])


def lefschetz_e_columns(n, kappa):
    """e = sum_{i<j} kappa_ij x_i ^ x_j ^ (.), as sparse columns."""
    size = 1 << (2 * n)
    wedges = [wedge_columns(n, i) for i in range(2 * n)]
    cols = [{} for _ in range(size)]
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            c = kappa[i][j]
            if c == 0:
                continue
            for m in range(size):
                for mid, v1 in wedges[j][m].items():
                    for out, v2 in wedges[i][mid].items():
                        cols[m][out] = cols[m].get(out, 0) + c * v1 * v2
    return cols


def grading(n):
    size = 1 << (2 * n)
    return [[qm.popcount(i) - n if i == j else 0 for j in range(size)] for i in range(size)]


def check_lefschetz_f(n, kappa, f):
    f = qm.rows(f)
    require(all(x == 0 or qm.popcount(i) == qm.popcount(j) - 2
                for i, row in enumerate(f) for j, x in enumerate(row)), "f has degree -2")
    e = lefschetz_e_columns(n, qm.rows(kappa))
    ef = qm.columns_times_dense(e, f)
    fe = qm.dense_times_columns(f, e)
    require(qm.eq(qm.sub(ef, fe), grading(n)), "[e, f] = h")


def _flat(m):
    return {i * len(m) + j: x for i, row in enumerate(m) for j, x in enumerate(row) if x}


def check_lie_closure(n, ops, kappas):
    """The basis is independent, contains e_kappa and h, and is bracket-closed."""
    ops = [qm.rows(m) for m in ops]
    flats = [_flat(m) for m in ops]
    dim = len(ops)
    require(qm.rank_sparse(flats) == dim, "Lie basis linearly independent")

    def inside(m):
        return qm.rank_sparse(flats + [_flat(m)]) == dim

    require(inside(grading(n)), "h in the algebra")
    for kappa in kappas:
        e = qm.dense_from_columns(lefschetz_e_columns(n, qm.rows(kappa)))
        require(inside(e), "e_kappa in the algebra")
    for a in range(dim):
        for b in range(a + 1, dim):
            br = qm.sub(qm.mul(ops[a], ops[b]), qm.mul(ops[b], ops[a]))
            require(inside(br), "algebra closed under brackets")


def check_so_image(n, ops):
    require(len(ops) == 2 * n * (4 * n - 1), "so image has dimension 2n(4n-1)")
    require(qm.rank_sparse([_flat(qm.rows(m)) for m in ops]) == len(ops),
            "so image basis linearly independent")


def merge_sign(m1, m2):
    """Sign of sorting x_{m1} ^ x_{m2} (disjoint masks) into ascending order."""
    inversions = sum(1 for a in range(m1.bit_length()) if m1 >> a & 1
                     for b in range(a) if m2 >> b & 1)
    return -1 if inversions % 2 else 1


def beta_signed_permutation(n):
    """x_S ^ x_R -> (-1)^eps x_R ^ l_{S-bar}, eps = |S||R| + sum_{i in S} (i-1),
    re-sorted so that the l part precedes the x part; as {column: (row, sign)}."""
    low = (1 << n) - 1
    out = {}
    for col in range(1 << (2 * n)):
        s, r = col & low, col & ~low
        sbar = low ^ s
        eps = qm.popcount(s) * qm.popcount(r) + sum(i for i in range(n) if s >> i & 1)
        eps += qm.popcount(r) * qm.popcount(sbar)
        out[col] = (sbar | r, -1 if eps % 2 else 1)
    return out


def check_xi(n, coeffs):
    """The transform v -> q_*(xi ^ p*(v)) equals the paper's signed permutation."""
    full = (1 << (2 * n)) - 1
    want = beta_signed_permutation(n)
    for sv in range(1 << (2 * n)):
        img = {}
        for (s, t), c in coeffs.items():
            if s & sv or (s | sv) != full:
                continue
            sign = -1 if (qm.popcount(t) * qm.popcount(sv)) % 2 else 1
            img[t] = img.get(t, 0) + sign * merge_sign(s, sv) * c
        img = {k: v for k, v in img.items() if v != 0}
        row, sign = want[sv]
        require(img == {row: sign}, f"xi transform of x_{sv} is the signed permutation")


def poincare_image(n, coeffs):
    """x_S -> (-1)^{sum of the complement's 1-based indices} l_{complement}."""
    full = (1 << (2 * n)) - 1
    out = {}
    for s, c in coeffs.items():
        comp = full ^ s
        eps = sum(i + 1 for i in range(2 * n) if comp >> i & 1)
        out[comp] = out.get(comp, 0) + c * (-1 if eps % 2 else 1)
    return {k: v for k, v in out.items() if v != 0}
